"""Reference code the tests check the package against; the program never calls it."""

import numpy as np
from scipy.special import ndtri

from pidenet.autodiff import Tape, Variable
from pidenet import jumpsim
from pidenet.jumpsim import PathBatch, TimeGrid, _jump_sum, keyed_uniforms, simulate_forward
from pidenet.problems import ProblemSpec


def mlp_param_grads(h, ws, bs, activation: str, alpha: float, g: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients of <g_u, u> + <g_grad, grad_x u> over the rows of ``h``, weights then biases.

    ``g`` is (rows, k): the adjoint of the network's value column, then of
    its input-gradient columns (all but the first, time, input).  Two
    chains: the input-gradient adjoint runs back through the gradient
    chain, the value's adjoint through a value chain of its own (which
    for tanh also takes the slopes' adjoints), and every weight takes one
    product from each.  The tanh forward arithmetic is ``Tape.mlp``'s,
    so tanh gradients compare bit for bit.
    """
    n_hidden = len(ws) - 1
    tanh = activation == "tanh"
    hs, slopes = [h], []
    for w, b in zip(ws[:-1], bs[:-1]):
        z = h @ w
        z += b
        if tanh:
            h = np.tanh(z)
            s = 1.0 - h * h
        else:
            s = np.where(z > 0.0, 1.0, 0.0 if activation == "relu" else alpha)
            h = z * s
        hs.append(h)
        slopes.append(s)
    # gradient chain: v_j is the adjoint of hidden output j, q_j that of
    # its pre-activation
    v, vs, qs = ws[-1].T, [], []
    for j in range(n_hidden - 1, -1, -1):
        vs.insert(0, v)
        qs.insert(0, v * slopes[j])
        v = qs[0] @ ws[j].T

    g_u, g_grad = g[:, :1], g[:, 1:]
    gws = [np.zeros_like(ws[0])]
    gws[0][1:] = g_grad.T @ qs[0]
    g_q = g_grad @ ws[0][1:]
    g_slopes = []
    for j in range(n_hidden):
        g_slopes.append(g_q * vs[j])
        g_v = g_q * slopes[j]
        if j + 1 < n_hidden:
            gws.append(g_v.T @ qs[j + 1])
            g_q = g_v @ ws[j + 1]
        else:
            gws.append(g_v.sum(axis=0)[:, None])
    gws[-1] += hs[-1].T @ g_u
    gbs = [None] * n_hidden + [g_u.sum(axis=0)]
    g_h = g_u @ ws[-1].T
    for j in range(n_hidden - 1, -1, -1):
        if tanh:  # d(slope)/dz = -2 h slope
            g_h -= 2.0 * hs[j + 1] * g_slopes[j]
        g_z = g_h * slopes[j]
        gws[j] += hs[j].T @ g_z
        gbs[j] = g_z.sum(axis=0)
        if j:
            g_h = g_z @ ws[j].T
    return gws + gbs


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


def draw_noise_one_call(problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int,
                        stream: int):
    """``jumpsim._draw_noise`` with every Brownian draw of the batch made in one call.

    Returns (brownian, counts, event paths, event intervals, event marks);
    events are flattened interval-major, paths ascending within an
    interval.
    """
    n_steps, d, m = grid.steps, problem.dim, problem.mark_dim
    u = keyed_uniforms(
        seed, jumpsim._kind(stream, jumpsim._KIND_BROWNIAN),
        np.arange(batch_size)[:, None, None], np.arange(n_steps)[None, :, None],
        np.arange(d)[None, None, :],
    )
    brownian = ndtri(u) * np.sqrt(grid.dt)
    u = keyed_uniforms(
        seed, jumpsim._kind(stream, jumpsim._KIND_COUNT),
        np.arange(batch_size)[:, None], np.arange(n_steps)[None, :], 0,
    )
    counts = jumpsim.poisson_from_uniforms(u, problem.intensity * grid.dt)
    paths, intervals, marks = [], [], []
    for n in range(n_steps):
        for p in range(batch_size):
            for k in range(counts[p, n]):
                paths.append(p)
                intervals.append(n)
                marks.append(keyed_uniforms(
                    seed, jumpsim._kind(stream, jumpsim._KIND_MARK), p, n, k * m + np.arange(m)
                ))
    marks = problem.sample_marks(np.array(marks).reshape(-1, m))
    return (brownian, counts, np.array(paths, dtype=np.int64),
            np.array(intervals, dtype=np.int64), marks)
