"""Differentiable training objective built on simulated path batches.

For each time node the network supplies its value and spatial gradient;
the gradient yields the diffusion pairing term, and the non-local jump
integral combines network values at the jumped states with the
closed-form compensator paired against the gradient.  The one-step map
propagates node n's quantities to a prediction for node n+1, and the
loss averages the squared one-step residuals together with the terminal
misfit.

The loss runs in two stages.  ``squared_residuals`` makes one network
pass per batch, a single ``value_and_grad`` call, one ``Tape.mlp`` node,
which evaluates each distinct state once and only for the columns the
loss reads.  Its input rows are x0 once, standing for node 0 of every
path (every path starts there); nodes 1..N-1, with their gradients; then
value-only rows: node N, which only the terminal misfit and the last
interval's target read, and the jumped state of every jump event.  Its
output has one row per (node, path) pair, in the batch's node-major
order, and below them one per jump event.  The one-step residuals then
come from five blocks of that output, row-wise arithmetic and one
segment sum over all jump events, which keeps the tape small and the
matrix products large.  The five slices are recorded directly after the
node, so backward zero-fills the node's adjoint only once every
arithmetic VJP has run.  Every row of this stage depends on its own path
alone.  ``reduce_residuals`` then takes the batch means in numpy.  The
total is a plain average, so its adjoint on every square is one
constant, float64(1/(N+1)) / B, which ``loss`` hands ``Tape.backward``
as the squares' seeds.  The held-out evaluation runs the first stage on
blocks of paths and the second once, on the squares of every block put
side by side, which is the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    acc = tape.sub(y, tape.mul(tape.lift(driver(t, x, y, z, i_term)), tape.constant(dt)))
    acc = tape.add(acc, noise)
    return tape.add(acc, tape.mul(i_term, tape.constant(dt)))


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
    return tape.sub(tape.mul(jump_sum, tape.constant(1.0 / dt)), comp_dot)


def squared_residuals(net, batch: PathBatch, problem: ProblemSpec
                      ) -> tuple[Variable, Variable, np.ndarray]:
    """The per-row stage of ``loss``: every square it averages, and the network's node values.

    Returns the squared one-step residuals, (N*B, 1) in the batch's
    node-major order; the squared terminal misfits, (B, 1); and the
    network's value at every (node, path), an (N+1, B) view of the
    network node.  ``net`` offers ``tape`` and ``value_and_grad``, as
    ``nn.TapeMlp`` does; ``value_and_grad`` is called once, on one
    (1 + N*B + E, 1+d) input written in place, time first, in the rows
    that the module docstring lists: the first ``1 + (N-1)*B`` of them
    with gradients, the first standing for B rows.  It returns the node
    ``[u | grad_x u]``, whose five blocks are sliced right after it: the
    values at nodes 0..N-1, 1..N, the jumped states and node N, then the
    gradients at nodes 0..N-1.
    """
    tape = net.tape
    grid = batch.grid
    n_steps, n_rows, d = grid.steps, batch.batch_size, batch.dim
    dt = grid.dt
    split = n_steps * n_rows
    n_nodes = split + n_rows
    grad_rows = 1 + split - n_rows  # x0, then nodes 1..N-1

    # (t, x) of every (node, path) of nodes 0..N-1, node-major; x is a
    # view of the batch's states
    t_curr = np.repeat(grid.times[:n_steps], n_rows)[:, None]
    x_curr = batch.states[:n_steps].reshape(split, d)
    event_rows = batch.event_intervals * n_rows + batch.event_paths
    t_ev, x_ev = t_curr[event_rows], x_curr[event_rows]

    # input rows: x0 once, for every path; nodes 1..N-1; then the
    # value-only rows, node N and the jumped state of every jump event
    inp = np.empty((grad_rows + n_rows + event_rows.size, 1 + d))
    inp[0, 0] = grid.times[0]
    inp[0, 1:] = batch.states[0, 0]
    # reshaped from the contiguous row block, so the writes land in inp
    nodes = inp[1:grad_rows + n_rows].reshape(n_steps, n_rows, 1 + d)
    nodes[..., 0] = grid.times[1:, None]
    nodes[..., 1:] = batch.states[1:]
    inp[grad_rows + n_rows:, :1] = t_ev
    inp[grad_rows + n_rows:, 1:] = x_ev + problem.jump_size(t_ev, x_ev, batch.event_marks)

    node = net.value_and_grad(inp, grad_rows, repeat=n_rows)
    y_curr = tape.slice(node, rows=(0, split), cols=(0, 1))
    y_next = tape.slice(node, rows=(n_rows, n_nodes), cols=(0, 1))
    y_jumped = tape.slice(node, rows=(n_nodes, n_nodes + event_rows.size), cols=(0, 1))
    y_term = tape.slice(node, rows=(split, n_nodes), cols=(0, 1))
    grad_curr = tape.slice(node, rows=(0, split), cols=(1, 1 + d))

    z = tape.mul(grad_curr, tape.constant(problem.diffusion(t_curr, x_curr)))
    i_term = integral_term(y_jumped, t_curr, x_curr, event_rows, batch.counts.ravel(),
                           y_curr, grad_curr, problem, dt)
    prediction = transfer(t_curr, x_curr, y_curr, z, i_term,
                          batch.brownian.reshape(split, batch.dim), problem.driver, dt)
    residual = tape.sub(y_next, prediction)
    interval_sq = tape.mul(residual, residual)

    misfit = tape.sub(y_term, tape.constant(problem.terminal(batch.states[n_steps])))
    terminal_sq = tape.mul(misfit, misfit)
    values = node.value[:n_nodes, 0].reshape(n_steps + 1, n_rows)
    return interval_sq, terminal_sq, values


def reduce_residuals(interval_sq: np.ndarray, terminal_sq: np.ndarray, n_steps: int
                     ) -> LossBreakdown:
    """The loss breakdown from ``squared_residuals``' squares, as arrays of any shape.

    Expectations are realized as batch means, in this order: each
    interval's over its (B,) block of ``interval_sq`` (node-major), the
    terminal term over ``terminal_sq``, then the total, their sum times
    float64(1/(N+1)).  A non-finite term aborts with the offending
    interval index and the breakdown gathered so far.
    """
    interval_terms = interval_sq.reshape(n_steps, -1).mean(axis=1)
    if not np.all(np.isfinite(interval_terms)):
        bad = int(np.argwhere(~np.isfinite(interval_terms))[0, 0])
        raise NumericalAbortError(
            f"non-finite loss term at interval {bad}",
            interval=bad,
            breakdown=LossBreakdown(interval_terms, float("nan"), float("nan")),
        )

    terminal = float(terminal_sq.mean())
    if not np.isfinite(terminal):
        raise NumericalAbortError(
            "non-finite terminal loss term",
            interval=n_steps,
            breakdown=LossBreakdown(interval_terms, terminal, float("nan")),
        )

    total = (interval_terms.sum() + terminal) * (1.0 / (n_steps + 1))
    return LossBreakdown(interval_terms=interval_terms, terminal_term=terminal, total=float(total))


def loss(net, batch: PathBatch, problem: ProblemSpec
         ) -> tuple[LossBreakdown, tuple[list[Variable], list[float]]]:
    """The loss breakdown over a path batch, and its squares paired with their seeds.

    The seeds are the total's adjoint on each square, float64(1/(N+1)) /
    B, so ``net.tape.backward(*pair, wrt)`` gives the total's gradient.
    """
    interval_sq, terminal_sq, _ = squared_residuals(net, batch, problem)
    breakdown = reduce_residuals(interval_sq.value, terminal_sq.value, batch.grid.steps)
    seed = (1.0 / (batch.grid.steps + 1)) / batch.batch_size
    return breakdown, ([interval_sq, terminal_sq], [seed, seed])
