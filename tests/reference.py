"""Reference code the tests check the package against; the program never calls it."""

import numpy as np

from pidenet.autodiff import Tape, Variable
from pidenet.jumpsim import PathBatch, TimeGrid, _jump_sum, simulate_forward
from pidenet.problems import ProblemSpec


def grad_check(f, point, h: float = 1e-5) -> float:
    """Max relative gap between tape gradients and central differences.

    ``f`` must build a scalar objective from a single tape variable.  The
    reported discrepancy is max over coordinates of
    ``|analytic - central| / max(1, |analytic|)``; callers assert against
    their own tolerance.
    """
    point = np.asarray(point, dtype=np.float64)
    tape = Tape()
    x = tape.param(point)
    (analytic,) = tape.backward(f(tape, x), [x])

    def value_at(q: np.ndarray) -> float:
        t = Tape()
        return float(f(t, t.param(q)).value)

    fd = np.empty_like(point)
    flat = point.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        hi = value_at((flat + bump).reshape(point.shape))
        lo = value_at((flat - bump).reshape(point.shape))
        fd.ravel()[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - fd) / denom)) if flat.size else 0.0


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

    def value_and_grad(self, t, x: np.ndarray) -> tuple[Variable, Variable]:
        return (
            self.tape.constant(self._problem.exact(t, x)),
            self.tape.constant(self._problem.exact_grad(t, x)),
        )


def compensator_residual_paths(
    problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Per-path compensated jump increments, shape (B, N, d).

    Each entry is the interval's jump-size sum minus compensator * dt; the
    compensation makes these mean-zero, which the moment tests check.
    """
    batch = simulate_forward(problem, grid, batch_size, seed, stream)
    out = np.empty_like(batch.brownian)
    for n in range(grid.steps):
        t = grid.times[n]
        x = batch.states[:, n, :]
        out[:, n, :] = _jump_sum(problem, batch, n, t, x) - problem.compensator(t, x) * grid.dt
    return out


def compensator_residual(
    problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Batch mean of the compensated jump increments, shape (N, d)."""
    return compensator_residual_paths(problem, grid, batch_size, seed, stream).mean(axis=0)


def permuted(batch: PathBatch, perm: np.ndarray) -> PathBatch:
    """``batch`` with its paths reindexed; checks permutation invariance of reductions."""
    inverse = np.argsort(perm)
    return PathBatch(
        grid=batch.grid,
        states=batch.states[perm],
        brownian=batch.brownian[perm],
        counts=batch.counts[perm],
        event_paths=inverse[batch.event_paths],
        event_intervals=batch.event_intervals,
        event_marks=batch.event_marks,
        seed=batch.seed,
        stream=batch.stream,
    )
