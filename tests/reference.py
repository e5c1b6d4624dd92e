"""Reference code the tests check the package against; the program never calls it."""

import numpy as np

from pidenet.autodiff import ShapeMismatchError, Tape, Variable
from pidenet import jumpsim, scheme
from pidenet.jumpsim import PathBatch, TimeGrid, _jump_sum, keyed_uniforms, simulate_forward
from pidenet.normal import ndtri
from pidenet.problems import ProblemSpec


def evaluate(params, inp: np.ndarray) -> np.ndarray:
    """Plain forward pass of ``nn.MlpParams`` over the (rows, 1+d) input, time first.

    The value reference: bit-identical to the value column of the
    ``Tape.mlp`` node, whose output layer is the same one dot product per
    row.
    """
    h, arch = np.asarray(inp, dtype=np.float64), params.arch
    if h.ndim != 2 or h.shape[1] != arch.input_dim:
        raise ShapeMismatchError(f"evaluate: input {h.shape}, expected width {arch.input_dim}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w + b
        h = np.tanh(z) if arch.activation == "tanh" else np.where(z > 0.0, z, arch.alpha * z)
    return (np.einsum("ij,j->i", h, params.weights[-1][:, 0]) + params.biases[-1])[:, None]


def mlp_param_grads(h, ws, bs, activation: str, alpha: float, g: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients of <g_u, u> + <g_grad, grad_x u> over the rows of ``h``, weights then biases.

    ``g`` is (rows, k): the adjoint of the network's value column, then of
    its input-gradient columns (all but the first, time, input).  Two
    chains: the input-gradient adjoint runs back through the gradient
    chain, the value's adjoint through a value chain of its own (which
    for tanh also takes the slopes' adjoints), and every weight takes one
    product from each.  ``Tape.mlp`` reads the value's adjoint from the
    gradient chain instead, so the gradients agree up to rounding.
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
            s = np.where(z > 0.0, 1.0, alpha)
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

    ``f`` builds a Variable of any shape from a single tape variable; the
    objective is the sum of its elements, a seed of 1 in the backward.
    The reported discrepancy is max over coordinates of
    ``|analytic - central| / max(1, |analytic|)``; callers assert against
    their own tolerance.
    """
    point = np.asarray(point, dtype=np.float64)
    tape = Tape()
    x = tape.param(point)
    (analytic,) = tape.backward([f(tape, x)], [1.0], [x])

    def value_at(q: np.ndarray) -> float:
        t = Tape()
        return float(f(t, t.param(q)).value.sum())

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


def network_input(t, x) -> np.ndarray:
    """The (rows, 1+d) network input: ``t``, a scalar or a column, then the rows of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    inp = np.empty((x.shape[0], 1 + x.shape[1]))
    inp[:, :1] = np.reshape(t, (-1, 1))
    inp[:, 1:] = x
    return inp


def value_and_gradient(net, inp: np.ndarray) -> tuple[Variable, Variable]:
    """The network node of ``inp`` as two tape slices: its value column and its gradient columns."""
    node = net.value_and_grad(inp)
    return net.tape.slice(node, cols=(0, 1)), net.tape.slice(node, cols=(1, node.shape[1]))


class OracleNetwork:
    """Exact solution presented through the network interface.

    Values and gradients enter the tape as one constant node, which turns
    the loss into a pure measurement of the one-step recursion residuals.
    """

    def __init__(self, tape: Tape, problem: ProblemSpec):
        self.tape = tape
        self._problem = problem

    def value_and_grad(self, inp: np.ndarray, grad_rows: int | None = None,
                       repeat: int = 1) -> Variable:
        """``nn.TapeMlp.value_and_grad``'s node ``[exact | exact_grad]``: the first input
        row ``repeat`` times, the gradient zero past the first ``grad_rows`` input rows."""
        rows = np.concatenate([np.zeros(repeat - 1, dtype=np.int64), np.arange(len(inp))])
        t, x = inp[rows, :1], inp[rows, 1:]
        node = np.empty((rows.size, inp.shape[1]))
        node[:, :1] = self._problem.exact(t, x)
        node[:, 1:] = self._problem.exact_grad(t, x)
        if grad_rows is not None:  # value-only rows, input row 0's copies too if it is one
            node[repeat - 1 + grad_rows if grad_rows else 0:, 1:] = 0.0
        return self.tape.constant(node)


def all_rows_squared_residuals(net, batch: PathBatch, problem: ProblemSpec
                               ) -> tuple[Variable, Variable]:
    """``scheme.squared_residuals``' two squares, with every network row a gradient row.

    One ``value_and_grad`` call over nodes 0..N, every path's copy of x0
    included, and the jumped state of every jump event, all with their
    input gradients; the scheme's arithmetic after that call is the same.
    """
    tape = net.tape
    grid = batch.grid
    n_steps, n_rows = grid.steps, batch.batch_size
    split = n_steps * n_rows
    n_nodes = split + n_rows
    event_rows = batch.event_intervals * n_rows + batch.event_paths
    inp = np.empty((n_nodes + event_rows.size, 1 + batch.dim))
    t_all, x_all = inp[:, :1], inp[:, 1:]
    nodes = inp[:n_nodes].reshape(n_steps + 1, n_rows, 1 + batch.dim)
    nodes[..., 0] = grid.times[:, None]
    nodes[..., 1:] = batch.states
    t_curr, x_curr = t_all[:split], x_all[:split]
    t_ev, x_ev = t_curr[event_rows], x_curr[event_rows]
    x_all[n_nodes:] = x_ev + problem.jump_size(t_ev, x_ev, batch.event_marks)
    t_all[n_nodes:] = t_ev

    node = net.value_and_grad(inp)
    y_curr = tape.slice(node, rows=(0, split), cols=(0, 1))
    y_next = tape.slice(node, rows=(n_rows, n_nodes), cols=(0, 1))
    y_jumped = tape.slice(node, rows=(n_nodes, n_nodes + event_rows.size), cols=(0, 1))
    y_term = tape.slice(node, rows=(split, n_nodes), cols=(0, 1))
    grad_curr = tape.slice(node, rows=(0, split), cols=(1, 1 + batch.dim))
    z = tape.mul(grad_curr, tape.constant(problem.diffusion(t_curr, x_curr)))
    i_term = scheme.integral_term(y_jumped, t_curr, x_curr, event_rows, batch.counts.ravel(),
                                  y_curr, grad_curr, problem, grid.dt)
    prediction = scheme.transfer(t_curr, x_curr, y_curr, z, i_term,
                                 batch.brownian.reshape(split, batch.dim), problem.driver,
                                 grid.dt)
    residual = tape.sub(y_next, prediction)
    misfit = tape.sub(y_term, tape.constant(problem.terminal(batch.states[n_steps])))
    return tape.mul(residual, residual), tape.mul(misfit, misfit)


def compensator_residual_paths(
    problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Per-path compensated jump increments, node-major, shape (N, B, d).

    Each entry is the interval's jump-size sum minus compensator * dt; the
    compensation makes these mean-zero, which the moment tests check.
    """
    batch = simulate_forward(problem, grid, batch_size, seed, stream)
    out = np.empty_like(batch.brownian)
    for n in range(grid.steps):
        t = grid.times[n]
        x = batch.states[n]
        out[n] = _jump_sum(problem, batch, n, t, x) - problem.compensator(t, x) * grid.dt
    return out


def compensator_residual(
    problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Batch mean of the compensated jump increments, shape (N, d)."""
    return compensator_residual_paths(problem, grid, batch_size, seed, stream).mean(axis=1)


def permuted(batch: PathBatch, perm: np.ndarray) -> PathBatch:
    """``batch`` with its paths (axis 1) reindexed; checks permutation invariance of reductions."""
    inverse = np.argsort(perm)
    return PathBatch(
        grid=batch.grid,
        states=batch.states[:, perm],
        brownian=batch.brownian[:, perm],
        counts=batch.counts[:, perm],
        event_paths=inverse[batch.event_paths],
        event_intervals=batch.event_intervals,
        event_marks=batch.event_marks,
        stream=batch.stream,
    )


def poisson_count(u: float, mean: float) -> int:
    """Poisson inverse CDF of one draw: step the float64 CDF up until it
    passes the draw or a term no longer moves it."""
    k = 0
    pmf = cdf = float(np.exp(-mean))
    while u >= cdf:
        k += 1
        pmf *= mean / k
        if not cdf + pmf > cdf:
            break
        cdf += pmf
    return k


def draw_noise_one_call(problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int,
                        stream: int):
    """``jumpsim._draw_noise`` with every Brownian draw of the batch made in one call.

    Returns (brownian, counts, event paths, event intervals, event marks);
    brownian and counts are node-major, and events are flattened
    interval-major, paths ascending within an interval.
    """
    n_steps, d, m = grid.steps, problem.dim, problem.mark_dim
    u = keyed_uniforms(
        seed, jumpsim._kind(stream, jumpsim._KIND_BROWNIAN),
        np.arange(batch_size)[None, :, None], np.arange(n_steps)[:, None, None],
        np.arange(d)[None, None, :],
    )
    brownian = ndtri(u) * np.sqrt(grid.dt)
    u = keyed_uniforms(
        seed, jumpsim._kind(stream, jumpsim._KIND_COUNT),
        np.arange(batch_size)[None, :], np.arange(n_steps)[:, None], 0,
    )
    counts = jumpsim.poisson_from_uniforms(u, problem.intensity * grid.dt)
    paths, intervals, marks = [], [], []
    for n in range(n_steps):
        for p in range(batch_size):
            for k in range(counts[n, p]):
                paths.append(p)
                intervals.append(n)
                marks.append(keyed_uniforms(
                    seed, jumpsim._kind(stream, jumpsim._KIND_MARK), p, n, k * m + np.arange(m)
                ))
    marks = problem.sample_marks(ndtri(np.array(marks).reshape(-1, m)))
    return (brownian, counts, np.array(paths, dtype=np.int64),
            np.array(intervals, dtype=np.int64), marks)
