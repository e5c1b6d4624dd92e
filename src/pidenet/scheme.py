"""Differentiable training objective built on simulated path batches.

For each time node the network supplies its value and spatial gradient;
the gradient yields the diffusion pairing term, and the non-local jump
integral combines network re-evaluations at jumped states with the
closed-form compensator paired against the gradient.  The one-step map
propagates node n's quantities to a prediction for node n+1, and the
loss averages the squared one-step residuals together with the terminal
misfit.

The loss evaluates the network once over all (node, path) pairs stacked
node-major into a single tall batch; the one-step residuals then reduce
to row-wise arithmetic plus one segment sum over all jump events, which
keeps the tape small and the matrix products large.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import Tape, Variable
from .jumpsim import PathBatch
from .problems import ProblemSpec


class NumericalAbortError(FloatingPointError):
    """Loss or gradient went non-finite; carries the offending interval."""

    def __init__(self, message: str, interval: int | None = None, breakdown: "LossBreakdown | None" = None):
        super().__init__(message)
        self.interval = interval
        self.breakdown = breakdown


@dataclass
class LossBreakdown:
    """Plain-number record of the per-interval and terminal loss terms."""

    interval_terms: np.ndarray
    terminal_term: float
    total: float

    def to_dict(self) -> dict:
        return {
            "interval_terms": [float(v) for v in self.interval_terms],
            "terminal_term": float(self.terminal_term),
            "total": float(self.total),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class OracleNetwork:
    """Exact solution presented through the network interface.

    Values and gradients enter the tape as constants, which turns the
    loss into a pure measurement of the one-step recursion residuals.
    """

    def __init__(self, tape: Tape, problem: ProblemSpec):
        if problem.exact is None or problem.exact_grad is None:
            raise ValueError(f"problem {problem.name} has no exact solution to wrap")
        self.tape = tape
        self._problem = problem

    @property
    def param_vars(self) -> list[Variable]:
        return []

    def value(self, t, x: np.ndarray) -> Variable:
        return self.tape.constant(self._problem.exact(t, x))

    def value_and_grad(self, t, x: np.ndarray) -> tuple[Variable, Variable]:
        return (
            self.tape.constant(self._problem.exact(t, x)),
            self.tape.constant(self._problem.exact_grad(t, x)),
        )


def transfer(t, x: np.ndarray, y: Variable, z: Variable, i_term: Variable,
             dw: np.ndarray, driver, dt: float) -> Variable:
    """One-step prediction: y - f*dt + <z, dw> + i*dt.

    ``t`` is a scalar or per-row column; rows may span one node or a
    whole node-stacked batch.
    """
    tape = y.tape
    acc = y
    f_val = driver(t, x, y, z, i_term)
    if not (np.isscalar(f_val) and float(f_val) == 0.0):
        acc = tape.sub(acc, tape.smul(tape.lift(f_val), dt))
    acc = tape.add(acc, tape.row_dot(z, tape.constant(dw)))
    return tape.add(acc, tape.smul(i_term, dt))


def integral_term(
    net,
    t,
    x: np.ndarray,
    event_ids: np.ndarray,
    event_marks: np.ndarray,
    counts: np.ndarray,
    y_base: Variable,
    grad_x: Variable,
    problem: ProblemSpec,
    dt: float,
) -> Variable:
    """Non-local integral as a differentiable expression, one row per state.

    The jump part re-enters the same network at the jumped states and
    subtracts the base value once per event; the compensator part pairs
    the input gradient with the closed-form jump-size integral, so rows
    without events reduce to the compensator term alone.
    """
    tape = net.tape
    comp_dot = tape.row_dot(grad_x, tape.constant(problem.compensator(t, x)))
    if event_ids.size == 0:
        return tape.smul(comp_dot, -1.0)
    t_ev = t[event_ids] if isinstance(t, np.ndarray) else t
    x_ev = x[event_ids]
    sizes = problem.jump_size(t_ev, x_ev, event_marks)
    shifted_values = net.value(t_ev, x_ev + sizes)
    jump_sum = tape.sub(
        tape.segment_sum(shifted_values, event_ids, x.shape[0]),
        tape.mul(y_base, tape.constant(np.asarray(counts, dtype=np.float64)[:, None])),
    )
    return tape.sub(tape.smul(jump_sum, 1.0 / dt), comp_dot)


def loss(net, batch: PathBatch, problem: ProblemSpec) -> tuple[Variable, LossBreakdown]:
    """Scalar objective over a path batch, plus its per-term breakdown.

    Expectations are realized as batch means.  A non-finite term aborts
    with the offending interval index and the breakdown gathered so far.
    """
    tape = net.tape
    grid = batch.grid
    n_steps, n_rows = grid.steps, batch.batch_size
    dt = grid.dt

    # stack nodes 0..N on top of each other, node-major
    x_stack = np.ascontiguousarray(np.transpose(batch.states, (1, 0, 2))).reshape(
        (n_steps + 1) * n_rows, batch.dim
    )
    t_stack = np.repeat(grid.times, n_rows)[:, None]
    split = n_steps * n_rows

    value_all, grad_all = net.value_and_grad(t_stack, x_stack)
    y_curr = tape.slice(value_all, rows=(0, split))
    y_next = tape.slice(value_all, rows=(n_rows, split + n_rows))
    grad_curr = tape.slice(grad_all, rows=(0, split))
    x_curr = x_stack[:split]
    t_curr = t_stack[:split]

    z = tape.mul(grad_curr, tape.constant(problem.diffusion(t_curr, x_curr)))

    event_rows = batch.event_intervals * n_rows + batch.event_paths
    counts_stack = batch.counts.T.ravel()
    i_term = integral_term(
        net, t_curr, x_curr, event_rows, batch.event_marks, counts_stack,
        y_curr, grad_curr, problem, dt,
    )
    dw_stack = np.ascontiguousarray(np.transpose(batch.brownian, (1, 0, 2))).reshape(
        split, batch.dim
    )
    prediction = transfer(t_curr, x_curr, y_curr, z, i_term, dw_stack, problem.driver, dt)
    interval_vec = tape.block_mean(tape.square(tape.sub(y_next, prediction)), n_steps)

    interval_terms = interval_vec.value[:, 0].copy()
    if not np.all(np.isfinite(interval_terms)):
        bad = int(np.argwhere(~np.isfinite(interval_terms))[0, 0])
        raise NumericalAbortError(
            f"non-finite loss term at interval {bad}",
            interval=bad,
            breakdown=LossBreakdown(interval_terms, float("nan"), float("nan")),
        )

    y_term = tape.slice(value_all, rows=(split, split + n_rows))
    target = tape.constant(problem.terminal(batch.states[:, n_steps, :]))
    terminal = tape.mean(tape.square(tape.sub(y_term, target)))
    if not np.isfinite(terminal.value):
        raise NumericalAbortError(
            "non-finite terminal loss term",
            interval=n_steps,
            breakdown=LossBreakdown(interval_terms, float(terminal.value), float("nan")),
        )

    total = tape.smul(tape.add(tape.sum(interval_vec), terminal), 1.0 / (n_steps + 1))
    breakdown = LossBreakdown(
        interval_terms=interval_terms,
        terminal_term=float(terminal.value),
        total=float(total.value),
    )
    return total, breakdown


def evaluate_solution(params: nn.MlpParams, t, x: np.ndarray):
    """Tape-free network evaluation for reporting.

    A single point (scalar t, 1-d x) comes back as a float; batched
    inputs come back as a (B, 1) array.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out = nn.evaluate(params, t, x)
    return float(out[0, 0]) if single else out
