"""Differentiable training objective built on simulated path batches.

For each time node the network supplies its value and spatial gradient;
the gradient yields the diffusion pairing term, and the non-local jump
integral combines network values at the jumped states with the
closed-form compensator paired against the gradient.  The one-step map
propagates node n's quantities to a prediction for node n+1, and the
loss averages the squared one-step residuals together with the terminal
misfit.

The loss runs in two stages.  ``squared_residuals`` makes one network
pass per batch: every (node, path) pair, in the batch's node-major
order, and below them the jumped state of every jump event go through a
single ``value_and_grad`` call, one ``Tape.mlp`` node.  The one-step
residuals then come from row slices of that node, row-wise arithmetic
and one segment sum over all jump events, which keeps the tape small and
the matrix products large.  Every row of this stage depends on its own
path alone.  ``reduce_residuals`` then takes the batch means.  ``loss``
composes the two on one tape; the held-out evaluation runs the first
stage on blocks of paths and the second once, on the squares of every
block put side by side, which is the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Variable
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
    """Plain-number record of the per-interval and terminal loss terms.

    ``values`` copies the network's value at every (node, path), shape
    (N+1, B) like the batch, in the breakdowns that ``loss`` returns;
    ``to_dict`` leaves it out.
    """

    interval_terms: np.ndarray
    terminal_term: float
    total: float
    values: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "interval_terms": [float(v) for v in self.interval_terms],
            "terminal_term": float(self.terminal_term),
            "total": float(self.total),
        }


def transfer(t, x: np.ndarray, y: Variable, z: Variable, i_term: Variable,
             dw: np.ndarray, driver, dt: float) -> Variable:
    """One-step prediction: y - f*dt + <z, dw> + i*dt, summed in that order.

    ``t`` is a scalar or per-row column; rows may span one node or a
    whole node-stacked batch.  ``dw`` goes on the tape as it is, so the
    loss passes a (N*B, d) view of the batch's Brownian stack and no
    copy of it exists.
    """
    tape = y.tape
    noise = tape.row_dot(z, tape.constant(dw))
    acc = tape.sub(y, tape.smul(tape.lift(driver(t, x, y, z, i_term)), dt))
    acc = tape.add(acc, noise)
    return tape.add(acc, tape.smul(i_term, dt))


def integral_term(
    jumped: Variable,
    t,
    x: np.ndarray,
    event_ids: np.ndarray,
    counts: np.ndarray,
    y_base: Variable,
    grad_x: Variable,
    problem: ProblemSpec,
    dt: float,
) -> Variable:
    """Non-local integral as a differentiable expression, one row per state.

    ``jumped`` holds the network's value at the jumped state of each
    event, in the order of ``event_ids``.  The jump part sums them per
    state and subtracts the base value once per event; the compensator
    part pairs the input gradient with the closed-form jump-size
    integral, so rows without events reduce to the compensator term
    alone.

    That pairing is the first-order Taylor expansion of the compensator
    lam * E[u(x + G) - u(x)].  For a u that is not linear in x, even the
    exact solution keeps lam * E[u(x + G) - u(x) - grad u . G] * dt in
    every interval, an O(dt) term that does not fall with the step size.
    """
    tape = y_base.tape
    comp_dot = tape.row_dot(grad_x, tape.constant(problem.compensator(t, x)))
    jump_sum = tape.sub(
        tape.segment_sum(jumped, event_ids, x.shape[0]),
        tape.mul(y_base, tape.constant(np.asarray(counts, dtype=np.float64)[:, None])),
    )
    return tape.sub(tape.smul(jump_sum, 1.0 / dt), comp_dot)


def squared_residuals(net, batch: PathBatch, problem: ProblemSpec
                      ) -> tuple[Variable, Variable, np.ndarray]:
    """The per-row stage of ``loss``: every square it averages, and the network's node values.

    Returns the squared one-step residuals, (N*B, 1) in the batch's
    node-major order; the squared terminal misfits, (B, 1); and the
    network's value at every (node, path), an (N+1, B) view of the
    network node.  ``net`` offers ``tape`` and ``value_and_grad``, as
    ``nn.TapeMlp`` does; ``value_and_grad`` is called once, on one
    (rows, 1+d) input written in place, time first; ``t_all`` and
    ``x_all`` are its column views.
    """
    tape = net.tape
    grid = batch.grid
    n_steps, n_rows = grid.steps, batch.batch_size
    dt = grid.dt
    split = n_steps * n_rows
    n_nodes = split + n_rows

    # rows: nodes 0..N stacked node-major, then the jumped state of every
    # jump event, so that one network pass serves the whole loss
    event_rows = batch.event_intervals * n_rows + batch.event_paths
    inp = np.empty((n_nodes + event_rows.size, 1 + batch.dim))
    t_all, x_all = inp[:, :1], inp[:, 1:]
    # reshaped from the contiguous row block, so the writes land in inp
    nodes = inp[:n_nodes].reshape(n_steps + 1, n_rows, 1 + batch.dim)
    nodes[..., 0] = grid.times[:, None]
    nodes[..., 1:] = batch.states
    t_curr, x_curr = t_all[:split], x_all[:split]
    t_ev, x_ev = t_curr[event_rows], x_curr[event_rows]
    x_all[n_nodes:] = x_ev + problem.jump_size(t_ev, x_ev, batch.event_marks)
    t_all[n_nodes:] = t_ev

    value_all, grad_all = net.value_and_grad(inp)
    y_curr = tape.slice(value_all, rows=(0, split))
    y_next = tape.slice(value_all, rows=(n_rows, n_nodes))
    y_jumped = tape.slice(value_all, rows=(n_nodes, n_nodes + event_rows.size))
    grad_curr = tape.slice(grad_all, rows=(0, split))

    z = tape.mul(grad_curr, tape.constant(problem.diffusion(t_curr, x_curr)))
    i_term = integral_term(y_jumped, t_curr, x_curr, event_rows, batch.counts.ravel(),
                           y_curr, grad_curr, problem, dt)
    prediction = transfer(t_curr, x_curr, y_curr, z, i_term,
                          batch.brownian.reshape(split, batch.dim), problem.driver, dt)
    interval_sq = tape.square(tape.sub(y_next, prediction))

    y_term = tape.slice(value_all, rows=(split, n_nodes))
    target = tape.constant(problem.terminal(batch.states[n_steps]))
    terminal_sq = tape.square(tape.sub(y_term, target))
    values = value_all.value[:n_nodes, 0].reshape(n_steps + 1, n_rows)
    return interval_sq, terminal_sq, values


def reduce_residuals(interval_sq: Variable, terminal_sq: Variable, n_steps: int
                     ) -> tuple[Variable, LossBreakdown]:
    """The loss and its breakdown from ``squared_residuals``' squares, on their tape.

    Expectations are realized as batch means: each interval's over its
    (B,) block of ``interval_sq``, the terminal term over ``terminal_sq``.
    A non-finite term aborts with the offending interval index and the
    breakdown gathered so far.  The breakdown carries no values.
    """
    tape = interval_sq.tape
    interval_vec = tape.block_mean(interval_sq, n_steps)
    interval_terms = interval_vec.value[:, 0].copy()
    if not np.all(np.isfinite(interval_terms)):
        bad = int(np.argwhere(~np.isfinite(interval_terms))[0, 0])
        raise NumericalAbortError(
            f"non-finite loss term at interval {bad}",
            interval=bad,
            breakdown=LossBreakdown(interval_terms, float("nan"), float("nan")),
        )

    terminal = tape.mean(terminal_sq)
    if not np.isfinite(terminal.value):
        raise NumericalAbortError(
            "non-finite terminal loss term",
            interval=n_steps,
            breakdown=LossBreakdown(interval_terms, float(terminal.value), float("nan")),
        )

    total = tape.smul(tape.add(tape.sum(interval_vec), terminal), 1.0 / (n_steps + 1))
    return total, LossBreakdown(interval_terms=interval_terms,
                                terminal_term=float(terminal.value), total=float(total.value))


def loss(net, batch: PathBatch, problem: ProblemSpec) -> tuple[Variable, LossBreakdown]:
    """Scalar objective over a path batch, plus its per-term breakdown with the node values.

    ``squared_residuals`` then ``reduce_residuals``, on ``net``'s tape.
    """
    interval_sq, terminal_sq, values = squared_residuals(net, batch, problem)
    total, breakdown = reduce_residuals(interval_sq, terminal_sq, batch.grid.steps)
    breakdown.values = values.copy()
    return total, breakdown
