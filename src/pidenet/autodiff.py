"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records primitive operations as they execute (dynamic graph,
one tape per objective evaluation) and replays them in reverse to
accumulate gradients of a scalar objective with respect to any recorded
variables.  A network's value together with its input gradient is one
fused primitive, ``Tape.mlp``, whose hand-written VJP differentiates the
input gradient with respect to the parameters, so losses that contain
the gradient need no higher-order machinery.  The network lives only
inside that node; the other primitives are the elementwise ``add``,
``sub``, ``mul``, ``smul`` and ``square``, the reductions ``sum``,
``mean``, ``row_dot``, ``segment_sum`` and ``block_mean``, and the 2-D
``slice``, whose adjoint fills its block of the parent's adjoint in
place rather than a zero-filled array of the parent's shape.  ``add``,
``sub``, ``mul`` and ``row_dot`` accept an operand that broadcasts to
the other's shape, such as the (1, d) row of a coefficient that does not
depend on the state; its adjoint is summed over the broadcast axes.

Tensors are plain ``numpy.ndarray`` objects in float64; they are treated
as immutable once recorded.  A ``Variable`` owns its value; the tape keeps
only each node's op, parents, gradient flag and VJP.  A recorded value
therefore lives while a Variable or a VJP closure holds it: a constant
built inline on a tape with no gradient leaf is freed as soon as the op
that consumes it returns.  VJP closures hold only the arrays and shapes
that their adjoints read, never variables or the tape, so a tape holds
no reference cycle and its memory goes as soon as the last variable on
it is dropped.

``Tape.mlp`` splits its rows into contiguous chunks of at most
``CHUNK_ROWS`` rows and runs their forward passes and VJPs on one
process-wide thread pool, one worker per usable core; numpy releases the
GIL inside its GEMMs and ufuncs, so the chunks run in parallel while
BLAS itself stays single-threaded.  With one usable core no pool is
made and the chunks run inline, in chunk order.  The chunk edges depend
only on the row count, and the parameter gradients are summed in chunk
order, so no result depends on the number of workers or cores.

A chunk keeps its VJP state (hidden outputs, slopes, gradient chain)
only when some weight or bias of the node needs a gradient.  A node
over constant parameters, such as the held-out pass's, keeps one hidden
layer at a time, forms the gradient chain in place over the slopes, and
drops each chunk's state as soon as that chunk's forward pass ends.
For relu and leaky relu a layer's slopes are a function of its mask
``z > 0``, so every chunk keeps the one-byte masks in place of the
float64 slopes and rebuilds them one layer at a time where it reads them.

The VJP differentiates ``<g_u, u> + <g_grad, grad u>`` with one sweep
for every activation.  The value's adjoint at a layer's pre-activation
is ``g_u`` times that layer's row of the input-gradient chain, which
the forward pass has formed, so each weight takes one product and the
value needs no chain of its own.  tanh's slopes also depend on the
pre-activations: their adjoints go back to the input in one more sweep,
which adds one product per weight.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

# Largest row chunk of one ``Tape.mlp`` pass.  A fixed constant, so chunk
# edges, and with them every result, depend only on the row count.
CHUNK_ROWS = 2048
# Chunk edges fall on multiples of this many rows, and CHUNK_ROWS is one.
# BLAS matrix-vector kernels sum the last few rows of a matrix in another
# order than the rest (OpenBLAS's dgemv in blocks of 4 rows), so an edge
# inside such a block would change the value column by rounding.
ROW_ALIGN = 64

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


class ShapeMismatchError(ValueError):
    """Raised when operand shapes do not conform to a primitive's signature."""


class TapeError(ValueError):
    """Raised on structural misuse: foreign variables, non-scalar objectives."""


class Variable:
    """A recorded value and the id of its node on a tape.

    The Variable, not the tape, holds the value: once no Variable and no
    VJP closure refers to it, it is freed.
    """

    __slots__ = ("tape", "id", "value")
    __array_ufunc__ = None  # so ``ndarray + Variable`` calls __radd__, not an object-array ufunc

    def __init__(self, tape: "Tape", node_id: int, value: np.ndarray):
        self.tape = tape
        self.id = node_id
        self.value = value

    @property
    def shape(self) -> tuple:
        return self.value.shape

    # Arithmetic sugar so problem drivers read naturally.  Non-Variable
    # operands are wrapped as tape constants (or scalar multiplications).
    def __add__(self, other):
        return self.tape.add(self, self.tape.lift(other))

    def __radd__(self, other):
        return self.tape.add(self.tape.lift(other), self)

    def __sub__(self, other):
        return self.tape.sub(self, self.tape.lift(other))

    def __rsub__(self, other):
        return self.tape.sub(self.tape.lift(other), self)

    def __mul__(self, other):
        if np.isscalar(other):
            return self.tape.smul(self, float(other))
        return self.tape.mul(self, self.tape.lift(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.tape.smul(self, -1.0)


class _Node:
    __slots__ = ("op", "parents", "requires_grad", "vjp")

    def __init__(self, op, parents, requires_grad, vjp):
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        # vjp: adjoint -> one contribution per parent, aligned with
        # ``parents``; None where the parent needs no gradient.
        self.vjp = vjp


class Tape:
    """Topologically ordered record of primitive operations.

    A node holds its op, its parents' ids, whether it needs a gradient
    and its VJP, but no value: values belong to the Variables that the
    ops return.  Nodes only ever reference earlier nodes, so a single
    reverse sweep over ids visits each node exactly once.  Construction
    and backward run on the calling thread, apart from the row chunks of
    ``mlp``, which only compute numpy arrays on the pool; independent
    tapes may run concurrently.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    # ------------------------------------------------------------------
    # node plumbing

    def _append(self, op, parents: Sequence[Variable], value, vjp) -> Variable:
        ids = tuple(p.id for p in parents)
        rg = vjp is not None and any(self._nodes[i].requires_grad for i in ids)
        self._nodes.append(_Node(op, ids, rg, vjp if rg else None))
        return Variable(self, len(self._nodes) - 1, value)

    def _check(self, var: Variable, op: str) -> bool:
        """Whether ``var``, a Variable of this tape, needs a gradient."""
        if var.tape is not self:
            raise TapeError(f"op '{op}': variable belongs to a different tape")
        return self._nodes[var.id].requires_grad

    def _leaf(self, op: str, value, requires_grad: bool) -> Variable:
        self._nodes.append(_Node(op, (), requires_grad, None))
        return Variable(self, len(self._nodes) - 1, np.asarray(value, dtype=np.float64))

    def constant(self, value) -> Variable:
        """Leaf that never receives a gradient."""
        return self._leaf("constant", value, False)

    def param(self, value) -> Variable:
        """Leaf tracked for gradients."""
        return self._leaf("param", value, True)

    def lift(self, x) -> Variable:
        return x if isinstance(x, Variable) else self.constant(x)

    # ------------------------------------------------------------------
    # elementwise arithmetic

    def _binary(self, op, a, b) -> tuple[bool, bool]:
        """Whether ``a`` and ``b`` need gradients; one's shape must broadcast to the other's."""
        ra, rb = self._check(a, op), self._check(b, op)
        _check_broadcast(op, a.shape, b.shape)
        return ra, rb

    def add(self, a: Variable, b: Variable) -> Variable:
        ra, rb = self._binary("add", a, b)
        sa, sb = a.shape, b.shape

        def vjp(g):
            return (_reduce_to(g, sa) if ra else None, _reduce_to(g, sb) if rb else None)

        return self._append("add", (a, b), a.value + b.value, vjp)

    def sub(self, a: Variable, b: Variable) -> Variable:
        ra, rb = self._binary("sub", a, b)
        sa, sb = a.shape, b.shape

        def vjp(g):
            return (_reduce_to(g, sa) if ra else None, _reduce_to(-g, sb) if rb else None)

        return self._append("sub", (a, b), a.value - b.value, vjp)

    def mul(self, a: Variable, b: Variable) -> Variable:
        ra, rb = self._binary("mul", a, b)
        sa, sb = a.shape, b.shape
        # each adjoint reads the other operand, so the VJP holds only those
        by_a, by_b = b.value if ra else None, a.value if rb else None

        def vjp(g):
            return (
                _reduce_to(g * by_a, sa) if ra else None,
                _reduce_to(g * by_b, sb) if rb else None,
            )

        return self._append("mul", (a, b), a.value * b.value, vjp)

    def smul(self, a: Variable, c: float) -> Variable:
        self._check(a, "smul")
        c = float(c)
        return self._append("smul", (a,), a.value * c, lambda g: (g * c,))

    def square(self, a: Variable) -> Variable:
        self._check(a, "square")
        av = a.value
        return self._append("square", (a,), av * av, lambda g: (g * (2.0 * av),))

    # ------------------------------------------------------------------
    # reductions and slices

    def sum(self, a: Variable) -> Variable:
        self._check(a, "sum")
        shape = a.shape
        return self._append(
            "sum", (a,), np.asarray(a.value.sum()), lambda g: (np.broadcast_to(g, shape).copy(),)
        )

    def mean(self, a: Variable) -> Variable:
        self._check(a, "mean")
        shape, n = a.shape, a.value.size
        return self._append(
            "mean", (a,), np.asarray(a.value.mean()),
            lambda g: (np.broadcast_to(g / n, shape).copy(),),
        )

    def row_dot(self, a: Variable, b: Variable) -> Variable:
        """Row-wise inner product of two (B, d) arrays, yielding (B, 1).

        Either operand may be a 2-D array that broadcasts to the other's
        shape, such as one (1, d) row.
        """
        ra, rb = self._check(a, "row_dot"), self._check(b, "row_dot")
        av, bv = a.value, b.value
        sa, sb = av.shape, bv.shape
        if av.ndim != 2 or bv.ndim != 2:
            raise ShapeMismatchError(f"row_dot: shapes {sa} and {sb}")
        _check_broadcast("row_dot", sa, sb)
        by_a, by_b = bv if ra else None, av if rb else None

        def vjp(g):
            return (
                _reduce_to(g * by_a, sa) if ra else None,
                _reduce_to(g * by_b, sb) if rb else None,
            )

        return self._append("row_dot", (a, b), np.einsum("bj,bj->b", av, bv)[:, None], vjp)

    def segment_sum(self, a: Variable, segment_ids: np.ndarray, num_segments: int) -> Variable:
        """Sum (K, 1) rows into (num_segments, 1) buckets given per-row ids."""
        self._check(a, "segment_sum")
        av = a.value
        ids = np.asarray(segment_ids, dtype=np.int64)
        if av.ndim != 2 or av.shape[1] != 1 or ids.shape != (av.shape[0],):
            raise ShapeMismatchError(f"segment_sum: values {av.shape}, ids {ids.shape}")
        val = np.zeros((num_segments, 1))
        np.add.at(val, ids, av)
        return self._append("segment_sum", (a,), val, lambda g: (g[ids],))

    def slice(self, a: Variable, rows: tuple[int, int] | None = None,
              cols: tuple[int, int] | None = None) -> Variable:
        """Rectangular block ``a[r0:r1, c0:c1]`` of a 2-D array; None takes the whole axis.

        The value is a view into ``a``'s, which no op writes into once
        recorded.  The VJP returns ``(a's shape, block index, adjoint)``:
        ``backward`` adds the adjoint into that block of ``a``'s adjoint.
        """
        self._check(a, "slice")
        av = a.value
        if av.ndim != 2:
            raise ShapeMismatchError(f"slice: shape {av.shape} is not 2-D")
        (r0, r1), (c0, c1) = rows or (0, av.shape[0]), cols or (0, av.shape[1])
        if not (0 <= r0 <= r1 <= av.shape[0] and 0 <= c0 <= c1 <= av.shape[1]):
            raise ShapeMismatchError(f"slice: shape {av.shape}, rows [{r0}:{r1}], cols [{c0}:{c1}]")
        shape, block = av.shape, (slice(r0, r1), slice(c0, c1))
        return self._append("slice", (a,), av[block], lambda g: ((shape, block, g),))

    def block_mean(self, a: Variable, n_blocks: int) -> Variable:
        """Means over consecutive equal-size row blocks of a column."""
        self._check(a, "block_mean")
        av = a.value
        if av.ndim != 2 or av.shape[1] != 1 or n_blocks < 1 or av.shape[0] % n_blocks:
            raise ShapeMismatchError(f"block_mean: shape {av.shape} into {n_blocks} blocks")
        block = av.shape[0] // n_blocks
        val = av.reshape(n_blocks, block).mean(axis=1, keepdims=True)
        return self._append(
            "block_mean", (a,), val, lambda g: (np.repeat(g / block, block, axis=0),)
        )

    # ------------------------------------------------------------------
    # fused network primitive

    def mlp(self, inp, weights: Sequence[Variable], biases: Sequence[Variable],
            activation: str, alpha: float = 0.01) -> Variable:
        """Scalar MLP and its input gradient as one node: ``[u | du/dinp[:, 1:]]``.

        ``inp`` is a constant (rows, k) array whose first column (time)
        is left out of the gradient; the node's value has shape
        (rows, k).  The hidden layers apply ``activation`` ("tanh",
        "relu" or "leaky_relu" with negative slope ``alpha`` in [0, 1]),
        the last layer is linear with one output.  Gradients flow to
        every weight and bias that needs one; if none does, the node
        keeps no VJP.

        The rows go in ``ceil(rows / CHUNK_ROWS)`` near-equal contiguous
        chunks with edges on multiples of ``ROW_ALIGN``.  Each row of the
        value then comes out as in one pass over all rows; the parameter
        gradients are the chunks' gradients summed in chunk order.
        """
        differentiated = any([self._check(v, "mlp") for v in (*weights, *biases)])
        if activation == "leaky_relu" and not 0.0 <= alpha <= 1.0:
            raise ValueError(f"mlp: leaky relu slope {alpha} is outside [0, 1]")
        ws, bs = [w.value for w in weights], [b.value for b in biases]
        h = np.asarray(inp, dtype=np.float64)
        fan_in = [h.shape[-1]] + [w.shape[-1] for w in ws[:-1]]
        if (h.ndim != 2 or len(ws) < 2 or len(bs) != len(ws) or ws[-1].shape[-1] != 1
                or any(w.shape != (f, b.size) or b.ndim != 1 for w, b, f in zip(ws, bs, fan_in))):
            raise ShapeMismatchError(
                f"mlp: input {h.shape}, weights {[w.shape for w in ws]}, biases {[b.shape for b in bs]}"
            )
        rows = h.shape[0]
        n = max(1, -(-rows // CHUNK_ROWS))
        step = -(-rows // (n * ROW_ALIGN)) * ROW_ALIGN  # ceil(rows / n), rounded up
        spans = [(i * step, min(rows, (i + 1) * step)) for i in range(n)]
        packed = np.empty((rows, ws[0].shape[0]))
        chunk_vjps = _run_chunks([
            functools.partial(_mlp_chunk, h[lo:hi], ws, bs, activation, alpha, packed[lo:hi],
                              differentiated)
            for lo, hi in spans
        ])
        if not differentiated:
            return self._append("mlp", (*weights, *biases), packed, None)

        def vjp(g):
            parts = _run_chunks([functools.partial(f, g[lo:hi])
                                 for f, (lo, hi) in zip(chunk_vjps, spans)])
            for part in parts[1:]:  # in chunk order, so the sums never depend on the workers
                for total, a in zip(parts[0], part):
                    total += a
            return parts[0]

        return self._append("mlp", (*weights, *biases), packed, vjp)

    # ------------------------------------------------------------------
    # reverse pass

    def backward(self, objective: Variable, wrt: Sequence[Variable]) -> list[np.ndarray]:
        """Gradients of a scalar objective for each requested variable.

        Variables not reachable from the objective get exact zero arrays.
        Each adjoint is freed once its node has passed it on, so the peak
        holds the adjoints of one frontier, not of the whole tape.
        A slice's adjoint is added in place into its block of an adjoint
        that ``backward`` allocated: zeros, or a copy of one from another
        op, which ``add`` and ``sub`` may share between parents.  Other
        contributions sum as ``prev + contrib``.
        """
        self._check(objective, "backward")
        if objective.shape != ():
            raise TapeError(f"backward: objective has shape {objective.shape}, expected scalar")
        for v in wrt:
            self._check(v, "backward")
        keep = {v.id for v in wrt}

        adjoint: dict[int, np.ndarray] = {objective.id: np.ones(())}
        owned: set[int] = set()  # ids whose adjoint backward allocated for slices
        for nid in range(objective.id, -1, -1):
            node = self._nodes[nid]
            if node.vjp is None:
                continue
            g = adjoint.get(nid) if nid in keep else adjoint.pop(nid, None)
            if g is None:
                continue
            for pid, contrib in zip(node.parents, node.vjp(g)):
                if contrib is None:
                    continue
                prev = adjoint.get(pid)
                if node.op == "slice":
                    shape, block, part = contrib
                    if pid not in owned:
                        prev = adjoint[pid] = np.zeros(shape) if prev is None else prev.copy()
                        owned.add(pid)
                    prev[block] += part
                else:
                    adjoint[pid] = contrib if prev is None else prev + contrib

        out = []
        for v in wrt:
            g = adjoint.get(v.id)
            if g is None:
                g = np.zeros(v.shape)
            out.append(np.asarray(g, dtype=np.float64))
        return out


def _chunk_pool() -> ThreadPoolExecutor | None:
    """The process-wide pool of chunk workers, created on first use.

    None while only one core is usable: a one-worker pool would only add
    a thread hop per chunk.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            affinity = getattr(os, "sched_getaffinity", None)
            workers = len(affinity(0)) if affinity else os.cpu_count() or 1
            if workers > 1:
                _pool = ThreadPoolExecutor(workers, thread_name_prefix="pidenet-mlp")
        return _pool


def _run_chunks(tasks: list[Callable]) -> list:
    """Results of zero-argument tasks in order.

    A lone task, or every task while one core is usable, runs inline in
    task order.  Every task has finished before any error is raised, so
    none is left writing into arrays that the caller drops.
    """
    pool = _chunk_pool() if len(tasks) > 1 else None
    if pool is None:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks]
    wait(futures)
    return [future.result() for future in futures]


def _mlp_chunk(h, ws, bs, activation, alpha, packed, differentiated) -> Callable | None:
    """Forward pass of one row chunk of ``Tape.mlp``, written into ``packed``.

    ``h`` and ``packed`` are the chunk's rows of the node's input and
    value.  If ``differentiated``, returns the chunk's VJP: its rows of
    the adjoint to the parameter gradients of these rows alone, weights
    then biases.  Otherwise returns None, and the forward pass's
    intermediates are freed on return.  Only numpy runs here, so a
    worker thread can run it.

    With n hidden layers, ``q_j`` is the input-gradient chain at layer
    j's pre-activation, du/dz_j; the last one, ``q_{n-1}``, is the output
    weights' row ``ws[-1].T`` times layer n-1's slopes.  A differentiated
    chunk keeps, for every activation, the n hidden outputs, ``q_0 ..
    q_{n-2}`` and each layer's slope state: tanh's float slopes, or the
    one-byte masks ``z > 0`` of relu and leaky relu, from which the VJP
    rebuilds layer j's slopes where it multiplies by them.  ``q_{n-1}``
    is rebuilt only for the products that read it (with one hidden layer
    that row is ``q_0``, which the input weights read).  A forward-only
    chunk keeps the same n slope states, masks for relu and leaky relu,
    and one hidden output at a time; each ``q_j`` is formed in place over
    ``slopes[j]``, tanh's own or rebuilt from the mask, and the last one
    formed, ``q_0``, gives the gradient columns.

    The VJP's product for weight j is ``left.T @ q_j``, and bias j takes
    ``g_u.T @ q_j``.  ``left`` is the adjoint of the chain at layer j's
    input (``g_grad`` for the input layer) plus ``g_u * h_j``: the
    value's adjoint at pre-activation j is ``g_u * q_j``.  tanh's slopes
    also depend on z, d(slope)/dz = -2 h slope, so layer j's slopes send
    ``src_j = -2 g_q_j h_{j+1} q_j`` to z_j, where ``g_q_j`` is the
    adjoint of ``q_j``.  One more sweep carries these back to the input:
    ``c_{n-1} = src_{n-1}``, ``c_{j-1} = (c_j @ W_j.T) * slopes_{j-1} +
    src_{j-1}``, and weight j adds ``h_j.T @ c_j``, bias j ``c_j``'s
    column sums.
    """
    n_hidden = len(ws) - 1
    tanh = activation == "tanh"

    # value chain: hs[j] is the input of layer j, states[j] the slopes at
    # layer j's pre-activation for tanh, its mask for relu and leaky relu
    hs, states = [h], []
    for w, b in zip(ws[:-1], bs[:-1]):
        h = h @ w
        h += b
        h, state = _activate(h, activation, alpha)
        if differentiated:
            hs.append(h)
        states.append(state)
    packed[:, :1] = h @ ws[-1] + bs[-1]
    del h  # the gradient chain reads only the slopes

    def slope(j):
        """Layer j's slopes, which the caller may overwrite: rebuilt, copied, or a forward-only tanh chunk's."""
        if not tanh:
            return _slopes(states[j], activation, alpha)
        return states[j].copy() if differentiated else states[j]

    # input-gradient chain: v is the adjoint of hidden output j,
    # q_j = v * slopes[j] that of its pre-activation
    v, qs = ws[-1].T, []
    for j in range(n_hidden - 1, -1, -1):
        s = slope(j)
        q = np.multiply(v, s, out=s)
        if differentiated and j < n_hidden - 1:
            qs.insert(0, q)
        if j:
            v = q @ ws[j].T
            del q, s  # only v goes on; a differentiated chunk keeps q in qs
    packed[:, 1:] = q @ ws[0][1:].T
    if not differentiated:
        return None

    def vjp(g):
        g_u, g_grad = g[:, :1], g[:, 1:]
        # through the gradient chain, input side first; left is the
        # adjoint at layer j's input, g_q that of layer j's chain row
        left = g_u * hs[0]
        left[:, 1:] += g_grad
        g_q = g_grad @ ws[0][1:]
        gws, gbs, srcs = [], [], []
        for j in range(n_hidden):
            if j < n_hidden - 1:
                q = qs[j]
            else:  # the last chain row, rebuilt for its products only
                s = slope(j)
                q = np.multiply(ws[-1].T, s, out=s)
            gws.append(left.T @ q)
            gbs.append((g_u.T @ q)[0])
            if tanh:
                srcs.append(-2.0 * g_q * hs[j + 1] * q)
            del q, left
            # g_v = g_q * slopes[j], the adjoint at layer j's output, then
            # left for layer j + 1, formed in place over the slopes
            left = slope(j)
            np.multiply(g_q, left, out=left)
            if j + 1 < n_hidden:
                g_q = left @ ws[j + 1]
            left += g_u * hs[j + 1]
        gws.append(left.sum(axis=0)[:, None])
        gbs.append(g_u.sum(axis=0))
        if tanh:  # the slopes' adjoints back through the value chain, output side first
            c = srcs.pop()
            for j in range(n_hidden - 1, -1, -1):
                gws[j] += hs[j].T @ c
                gbs[j] += c.sum(axis=0)
                if j:
                    c = c @ ws[j].T
                    c *= states[j - 1]
                    c += srcs.pop()
        return (*gws, *gbs)

    return vjp


def _activate(z: np.ndarray, activation: str, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Activation written over ``z``, and the state of its slopes, each computed once.

    tanh's state is its slopes.  relu's and leaky relu's is the mask
    ``z > 0``, from which ``_slopes`` rebuilds them.
    """
    if activation == "tanh":
        h = np.tanh(z, out=z)
        return h, 1.0 - h * h
    mask = z > 0.0
    if activation == "relu":
        return np.maximum(z, 0.0, out=z), mask
    if activation == "leaky_relu":
        return np.multiply(z, _slopes(mask, activation, alpha), out=z), mask
    raise ValueError(f"unknown activation {activation!r}")


def _slopes(mask: np.ndarray, activation: str, alpha: float) -> np.ndarray:
    """relu or leaky relu slopes from the mask ``z > 0``: 1 where it holds, else 0 or ``alpha``.

    Byte for byte ``np.where(z > 0.0, 1.0, alpha)`` for 0 <= alpha <= 1,
    the range ``Tape.mlp`` accepts, and it allocates only its output; a
    table lookup such as ``np.take(table, mask)`` would first copy the
    mask to int64.
    """
    s = mask.astype(np.float64)
    if activation == "leaky_relu":
        np.maximum(s, alpha, out=s)
    return s


def _check_broadcast(op: str, sa: tuple, sb: tuple) -> None:
    """Raise unless one of two operand shapes broadcasts to the other."""
    if sa == sb:  # the common case, without numpy's ~3 us shape arithmetic
        return
    try:
        if np.broadcast_shapes(sa, sb) in (sa, sb):
            return
    except ValueError:
        pass
    raise ShapeMismatchError(f"{op}: shapes {sa} and {sb}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast adjoint over the axes that broadcasting added or stretched."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    lead = g.ndim - len(shape)
    axes = (*range(lead), *(lead + i for i, n in enumerate(shape) if n == 1))
    return g.sum(axis=axes).reshape(shape)
