"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records primitive operations as they execute (dynamic graph,
one tape per objective evaluation) and replays them in reverse to
accumulate gradients of a scalar objective with respect to any recorded
variables.  A network's value together with its input gradient is one
fused primitive, ``Tape.mlp``, whose hand-written VJP differentiates the
input gradient with respect to the parameters, so losses that contain
the gradient need no higher-order machinery.  The network lives only
inside that node; the other primitives are the elementwise ``add``,
``sub`` and ``mul``, the reductions ``sum``, ``mean``, ``row_dot``,
``segment_sum`` and ``block_mean``, and the 2-D ``slice``, whose adjoint
fills its block of the parent's adjoint in place rather than a
zero-filled array of the parent's shape.  A scalar product is ``mul``
by a 0-d constant, and a square is ``mul`` of a variable by itself.
Every other VJP hands each parent a fresh array that nothing else
holds, and ``Tape.backward`` adds every later contribution into it in
place.

One broadcast rule holds for ``add``, ``sub``, ``mul`` and
``row_dot``: one operand's shape must broadcast to the other's, and an
operand that needs a gradient must have the result's shape.  So only a
constant broadcasts, such as a scalar or the (1, d) row of a coefficient
that does not depend on the state, and every adjoint is ``g``, ``-g`` or
``g`` times the other operand, with no sum over broadcast axes.

Tensors are plain ``numpy.ndarray`` objects in float64; they are treated
as immutable once recorded.  A ``Variable`` owns its value; the tape keeps
only each node's op, parents, gradient flag and VJP.  A recorded value
therefore lives while a Variable or a VJP closure holds it: a constant
built inline on a tape with no gradient leaf is freed as soon as the op
that consumes it returns.  VJP closures hold only the arrays and shapes
that their adjoints read, never variables or the tape, so a tape holds
no reference cycle and its memory goes as soon as the last variable on
it is dropped.

``Tape.mlp`` evaluates each distinct input row once and computes only
the columns that are read.  Its input rows come in two kinds: gradient
rows, which get the value and the input gradient, and a trailing block
of value-only rows, which run the value chain alone and whose gradient
columns are zero.  The first input row may stand for several output
rows, such as a start state that every path shares: its result fills
those rows, and its adjoint is theirs summed.

The node cuts each kind of row into the same number of near-equal
contiguous chunks, one per ``CHUNK_ROWS`` rows of the node
(``_chunk_plan``), so a chunk holds rows of one kind only, and runs their
forward passes and VJPs on one process-wide thread pool, one worker per
usable core; numpy releases the GIL inside its GEMMs and ufuncs, so the
chunks run in parallel while BLAS itself stays single-threaded.  The
chunks run inline on the calling thread, in chunk order, in three cases:
a lone chunk; a node of fewer than ``POOL_MACS`` multiply-adds in one
value pass (input rows times the sum of fan_in * fan_out), where the
pool's hand-offs cost more than the second core gains; and one usable
core, where no pool is made.  The chunk edges depend only on the two row
counts, and the parameter gradients are summed in chunk order, so no
result depends on where the chunks run, or on the number of workers or
cores.  A row's value is one dot product of its last hidden output with
the output weights (``_value_column``), so it depends on that row alone,
not on the chunk it runs in, on any BLAS.

The node's one parent is the parameter vector; ``mlp_layers`` gives its
weights and biases as views, and each chunk's VJP writes their gradients
into the same views of a gradient vector of its own.  The node's VJP
adds these into the first chunk's vector in chunk order, each as soon as
it and the chunks before it are done, and drops each vector once it is
added.  The forward pass and the VJP alike keep at most two chunks per
worker in flight (``_chunk_results``).

A chunk keeps its VJP state (hidden outputs, slopes, gradient chain)
only when the parameter vector needs a gradient.  A node over constant
parameters, such as the held-out pass's, keeps one hidden
layer at a time, forms the gradient chain in place over the slopes, and
drops each chunk's state as soon as that chunk's forward pass ends.
For leaky relu a layer's slopes are a function of its mask ``z > 0``, so
every chunk keeps the one-byte masks in place of the float64 slopes and
rebuilds them one layer at a time where it reads them.

For gradient rows the VJP differentiates ``<g_u, u> + <g_grad, grad u>``
with one sweep for every activation.  The value's adjoint at a layer's
pre-activation is ``g_u`` times that layer's row of the input-gradient
chain, which the forward pass has formed, so each weight takes one
product and the value needs no chain of its own.  tanh's slopes also
depend on the pre-activations: their adjoints go back to the input in
one more sweep, which adds one product per weight.  For value-only rows
the VJP is plain backpropagation of ``g_u``: no input-gradient chain and
no sweep for the slopes' adjoints.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Sequence

import numpy as np

# Rows of a ``Tape.mlp`` node per chunk of each kind of row.  A fixed
# constant, so chunk edges, and with them every result, depend only on the
# row counts.
CHUNK_ROWS = 2048
# Fewest multiply-adds of one value pass, rows * sum(fan_in * fan_out), at
# which ``Tape.mlp`` runs its chunks on the pool.  Training ms/iter on a
# 2-core VM, inline chunks against the pool: 17-18% faster at 2.65M and
# 5.3M (``convergence``, 32x32 tanh, B=1000 and 2000), 9-20% at 3.8M and
# 7.6M (``pide1d``, 16x16 leaky relu, B=250 and 500), even at 10.6M and 15.3M,
# and 3-12% slower at 31M and 21M.  The total work decides, not the work
# per chunk: ``pide1d``'s chunks are smaller than ``convergence``'s.
POOL_MACS = 2**23
# Elements per row block of ``_add_row_products``: its temporary stays at 512 KiB.
_PRODUCT_BLOCK = 2**16

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
    # operands, scalars included, are wrapped as tape constants.
    def __add__(self, other):
        return self.tape.add(self, self.tape.lift(other))

    def __radd__(self, other):
        return self.tape.add(self.tape.lift(other), self)

    def __sub__(self, other):
        return self.tape.sub(self, self.tape.lift(other))

    def __rsub__(self, other):
        return self.tape.sub(self.tape.lift(other), self)

    def __mul__(self, other):
        return self.tape.mul(self, self.tape.lift(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.tape.mul(self, self.tape.constant(-1.0))


class _Node:
    __slots__ = ("op", "parents", "requires_grad", "vjp")

    def __init__(self, op, parents, requires_grad, vjp):
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        # vjp: adjoint g -> one contribution per parent, aligned with
        # ``parents``; None where the parent needs no gradient.  Each is a
        # fresh array that nothing else holds, or for a slice its block's
        # adjoint and where the block goes; a vjp never writes g or its
        # saved state (``Tape.backward``).
        self.vjp = vjp


class Tape:
    """Topologically ordered record of primitive operations.

    A node holds its op, its parents' ids, whether it needs a gradient
    and its VJP, but no value: values belong to the Variables that the
    ops return.  Nodes only ever reference earlier nodes, so a single
    reverse sweep over ids visits each node exactly once.  Construction
    and backward run on the calling thread, apart from the row chunks of
    an ``mlp`` node of ``POOL_MACS`` or more, which only compute numpy
    arrays on the pool; independent tapes may run concurrently.
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
        """Whether ``a`` and ``b`` need gradients; their shapes must meet ``_check_broadcast``."""
        ra, rb = self._check(a, op), self._check(b, op)
        _check_broadcast(op, a.shape, b.shape, ra, rb)
        return ra, rb

    def add(self, a: Variable, b: Variable) -> Variable:
        ra, rb = self._binary("add", a, b)
        return self._append("add", (a, b), a.value + b.value,
                            lambda g: (g.copy() if ra else None, g.copy() if rb else None))

    def sub(self, a: Variable, b: Variable) -> Variable:
        ra, rb = self._binary("sub", a, b)
        return self._append("sub", (a, b), a.value - b.value,
                            lambda g: (g.copy() if ra else None, -g if rb else None))

    def mul(self, a: Variable, b: Variable) -> Variable:
        """Elementwise product: ``mul(x, constant(c))`` scales, ``mul(x, x)`` squares."""
        ra, rb = self._binary("mul", a, b)
        # each adjoint reads the other operand, so the VJP holds only those
        by_a, by_b = b.value if ra else None, a.value if rb else None
        return self._append("mul", (a, b), a.value * b.value,
                            lambda g: (g * by_a if ra else None, g * by_b if rb else None))

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

        An operand that needs no gradient may be a 2-D array that
        broadcasts to the other's shape, such as one (1, d) row.
        """
        ra, rb = self._check(a, "row_dot"), self._check(b, "row_dot")
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2:
            raise ShapeMismatchError(f"row_dot: shapes {av.shape} and {bv.shape}")
        _check_broadcast("row_dot", av.shape, bv.shape, ra, rb)
        by_a, by_b = bv if ra else None, av if rb else None
        return self._append("row_dot", (a, b), np.einsum("bj,bj->b", av, bv)[:, None],
                            lambda g: (g * by_a if ra else None, g * by_b if rb else None))

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

    def mlp(self, inp, theta: Variable, layer_dims: Sequence[tuple[int, int]],
            activation: str, alpha: float = 0.01, grad_rows: int | None = None,
            repeat: int = 1) -> Variable:
        """Scalar MLP and its input gradient as one node: ``[u | du/dinp[:, 1:]]``.

        ``inp`` is a constant (rows, k) array whose first column (time)
        is left out of the gradient.  ``theta`` is the parameter vector of
        the layers ``layer_dims``, (fan_in, fan_out) pairs laid out by
        ``mlp_layers``.  The hidden layers apply ``activation``, "tanh" or
        "leaky_relu" with negative slope ``alpha`` in [0, 1] (relu at 0),
        the last layer is linear with one output.  The node's one parent
        is ``theta``; if it needs no gradient, the node keeps no VJP.

        The first ``grad_rows`` input rows (all if None) are gradient
        rows.  The rest are value-only rows: they run the value chain
        alone, their gradient columns are zero, and their VJP
        backpropagates the value's adjoint only.  The first input row
        stands for ``repeat`` output rows: its result fills the node's
        first ``repeat`` rows, input row i >= 1 lands in row
        ``i + repeat - 1``, and the VJP sums the adjoints of the copies
        before it runs, so the node's value has ``rows + repeat - 1``
        rows of width k.

        Each kind of row is cut into ``ceil(rows / CHUNK_ROWS)``
        near-equal chunks (``_chunk_plan``); a chunk of gradient rows runs
        ``_gradient_rows``, one of value-only rows ``_value_rows``.  The
        forward pass and the VJP each run the chunks on the pool when the
        node's input makes ``rows * sum(fan_in * fan_out)`` >= ``POOL_MACS``
        multiply-adds, at most two per worker in flight, and inline in
        chunk order below that.  Each row's value is one dot product
        (``_value_column``), the same bits in any chunk; the gradient of
        ``theta`` is the chunks' gradient vectors summed in chunk order,
        each added as it comes and then dropped.
        """
        differentiated = self._check(theta, "mlp")
        if activation == "leaky_relu" and not 0.0 <= alpha <= 1.0:
            raise ValueError(f"mlp: leaky relu slope {alpha} is outside [0, 1]")
        h = np.asarray(inp, dtype=np.float64)
        fan_in = [h.shape[-1], *(fo for _, fo in layer_dims[:-1])]
        if (h.ndim != 2 or len(layer_dims) < 2 or layer_dims[-1][1] != 1
                or [fi for fi, _ in layer_dims] != fan_in):
            raise ShapeMismatchError(f"mlp: input {h.shape}, layers {list(layer_dims)}")
        rows = h.shape[0]
        grad_rows = rows if grad_rows is None else grad_rows
        if not 0 <= grad_rows <= rows or repeat < 1 or (repeat > 1 and not rows):
            raise ShapeMismatchError(f"mlp: {rows} input rows, {grad_rows} gradient rows, "
                                     f"first row repeated {repeat} times")
        ws, bs = mlp_layers(theta.value, layer_dims)
        shift = repeat - 1  # input row i >= 1 is the node's row i + shift
        packed = np.empty((rows + shift, h.shape[1]))
        spans = _chunk_plan(grad_rows, rows)
        pooled = rows * sum(fi * fo for fi, fo in layer_dims) >= POOL_MACS
        chunk_vjps = list(_chunk_results([
            functools.partial(_gradient_rows if lo < grad_rows else _value_rows, h[lo:hi], ws, bs,
                              activation, alpha, packed[lo + shift:hi + shift], differentiated)
            for lo, hi in spans
        ], pooled))
        if shift:
            packed[:shift] = packed[shift]
        if not differentiated:
            return self._append("mlp", (theta,), packed, None)
        size = theta.value.size

        def vjp(g):
            def adjoint(lo, hi):
                """The adjoint of input rows [lo, hi): first row's copies summed."""
                block = g[lo + shift:hi + shift]
                if shift and lo == 0:
                    block = block.copy()
                    block[0] = g[:repeat].sum(axis=0)
                return block

            parts = _chunk_results([functools.partial(f, adjoint(*span))
                                    for f, span in zip(chunk_vjps, spans)], pooled)
            grad = next(parts, None)
            for part in parts:  # in chunk order, so the sum never depends on the workers
                grad += part
                del part  # before the next chunk makes its own
            return (np.zeros(size) if grad is None else grad,)

        return self._append("mlp", (theta,), packed, vjp)

    # ------------------------------------------------------------------
    # reverse pass

    def backward(self, objective: Variable, wrt: Sequence[Variable]) -> list[np.ndarray]:
        """Gradients of a scalar objective for each requested variable.

        Variables not reachable from the objective get exact zero arrays.
        A node's adjoint is dropped as soon as its VJP returns, so the peak
        holds the adjoints of one frontier, not of the whole tape.

        A VJP returns, per parent, a fresh array that nothing else holds,
        and never writes ``g`` or its saved state, so the VJPs can run
        again, and ``backward`` twice on one tape gives the same
        gradients.  A parent's first contribution becomes its adjoint, and
        every later one is added into it in place.  A slice returns its
        block's adjoint and where the block goes (``Tape.slice``): the
        parent's first such block zero-fills its adjoint, and each adds
        into its own block.
        """
        self._check(objective, "backward")
        if objective.shape != ():
            raise TapeError(f"backward: objective has shape {objective.shape}, expected scalar")
        for v in wrt:
            self._check(v, "backward")
        keep = {v.id for v in wrt}

        adjoint: dict[int, np.ndarray] = {objective.id: np.ones(())}
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
                    if prev is None:
                        prev = adjoint[pid] = np.zeros(shape)
                    prev[block] += part
                elif prev is None:
                    adjoint[pid] = contrib
                else:
                    prev += contrib  # in place; only a numpy scalar comes back new
                    adjoint[pid] = prev

        out = []
        for v in wrt:
            g = adjoint.get(v.id)
            if g is None:
                g = np.zeros(v.shape)
            out.append(np.asarray(g, dtype=np.float64))
        return out


def mlp_layers(theta: np.ndarray, layer_dims: Sequence[tuple[int, int]]
               ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights (fan_in, fan_out) and biases of the ``layer_dims`` as views of a 1-D ``theta``.

    The parameter layout, known here alone: w0, b0, w1, b1, ..., each
    C-ordered.  A ``theta`` of another shape is a ``ShapeMismatchError``.
    """
    if np.ndim(theta) != 1 or len(theta) != sum((fi + 1) * fo for fi, fo in layer_dims):
        raise ShapeMismatchError(f"parameter vector of shape {np.shape(theta)} does not fit "
                                 f"layers {list(layer_dims)}")
    weights, biases, at = [], [], 0
    for fi, fo in layer_dims:
        weights.append(theta[at:at + fi * fo].reshape(fi, fo))
        biases.append(theta[at + fi * fo:at + (fi + 1) * fo])
        at += (fi + 1) * fo
    return weights, biases


def _chunk_pool() -> ThreadPoolExecutor | None:
    """The process-wide pool of chunk workers, created on first use by a pooled node.

    None while only one core is usable: a one-worker pool would only add
    a thread hop per chunk.  A process whose nodes all fall below
    ``POOL_MACS`` never asks for it, so it starts no worker thread.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            affinity = getattr(os, "sched_getaffinity", None)
            workers = len(affinity(0)) if affinity else os.cpu_count() or 1
            if workers > 1:
                _pool = ThreadPoolExecutor(workers, thread_name_prefix="pidenet-mlp")
        return _pool


def _chunk_results(tasks: list[Callable], pooled: bool) -> Iterator:
    """Results of zero-argument tasks, yielded in task order, on the chunk pool if ``pooled``.

    The tasks run inline, in task order, in three cases: a lone task; a
    node below ``POOL_MACS`` (``pooled`` false), whose tasks are too small
    to pay the pool's hand-offs: a 600-iteration training of the
    ``convergence`` preset made 58 voluntary context switches with inline
    chunks and ~28,500 with the pool; and one usable core.  Inline, a task
    runs once the caller has taken the result before it.  On the pool, at
    most two tasks per worker are in flight, running or finished but not
    yet taken, and the next is submitted as the caller takes a result; so
    the results that wait behind a slow task stay bounded, in the forward
    pass and the VJP alike.  Two per worker keep a task queued for each
    worker that finishes.  With one, each worker waited for the calling
    thread to wake and submit: a training step of ``bsb_d4`` at B=250 took
    41.8 ms against 37.5 ms with every task submitted at once (medians of
    10 processes, 2-core VM), and 35.9 ms with two.  Every task in flight
    has finished before any error is raised, so none is left writing into
    arrays that the caller drops.
    """
    pool = _chunk_pool() if pooled and len(tasks) > 1 else None
    if pool is None:
        for task in tasks:
            yield task()
        return
    todo = iter(tasks)
    pending = deque(pool.submit(task) for task in itertools.islice(todo, 2 * pool._max_workers))
    try:
        while pending:
            yield pending.popleft().result()
            task = next(todo, None)
            if task is not None:
                pending.append(pool.submit(task))
    finally:
        wait(pending)


def _chunk_plan(grad_rows: int, rows: int) -> list[tuple[int, int]]:
    """The chunks of ``Tape.mlp``, as ``(lo, hi)`` ranges of its ``rows`` input rows.

    The gradient rows ``[0, grad_rows)`` come first, then the value-only
    rows after them.  Each kind is cut into ``n = ceil(rows / CHUNK_ROWS)``
    contiguous ranges whose sizes differ by at most one, and empty ranges
    are dropped, so no chunk mixes the two kinds and a node of no rows has
    no chunk.  The plan depends only on the two counts.
    """
    n = -(-rows // CHUNK_ROWS)
    plan = []
    for lo, count in ((0, grad_rows), (grad_rows, rows - grad_rows)):
        plan += [(lo + count * i // n, lo + count * (i + 1) // n) for i in range(n)]
    return [(lo, hi) for lo, hi in plan if hi > lo]


def _value_rows(h, ws, bs, activation, alpha, packed, differentiated) -> Callable | None:
    """Forward pass of value-only rows of ``Tape.mlp``: the value column, zero gradient columns.

    Runs the value chain alone, written into ``packed``.  If
    ``differentiated``, keeps the inputs of every layer and returns the
    VJP, which takes the rows' block of the adjoint and backpropagates
    its value column ``g_u`` to a gradient vector in ``mlp_layers``'
    layout: no input-gradient chain and no sweep for tanh's slope
    adjoints.  Each layer's slopes are
    rebuilt from its output where the VJP multiplies by them: 1 - h**2
    for tanh, and ``h > 0``, which is ``z > 0``, for leaky relu.
    """
    tanh = activation == "tanh"
    hs = [h]
    for w, b in zip(ws[:-1], bs[:-1]):
        h = h @ w
        h += b
        h = np.tanh(h, out=h) if tanh else _activate(h, activation, alpha)[0]
        if differentiated:
            hs.append(h)
    _value_column(h, ws[-1], bs[-1], packed[:, 0])
    packed[:, 1:] = 0.0
    if not differentiated:
        return None

    def vjp(g):
        g_u = g[:, :1]
        grad = np.empty(sum(w.size + b.size for w, b in zip(ws, bs)))
        gws, gbs = mlp_layers(grad, [w.shape for w in ws])
        np.matmul(hs[-1].T, g_u, out=gws[-1])
        np.sum(g_u, axis=0, out=gbs[-1])
        g_z = g_u @ ws[-1].T
        for j in range(len(ws) - 2, -1, -1):
            out = hs[j + 1]
            g_z *= 1.0 - out * out if tanh else _slopes(out > 0.0, alpha)
            np.matmul(hs[j].T, g_z, out=gws[j])
            np.sum(g_z, axis=0, out=gbs[j])
            if j:
                g_z = g_z @ ws[j].T
        return grad

    return vjp


def _gradient_rows(h, ws, bs, activation, alpha, packed, differentiated) -> Callable | None:
    """Forward pass of gradient rows of ``Tape.mlp``, value and input gradient, into ``packed``.

    ``h`` and ``packed`` are the rows' block of the node's input and
    value, ``ws`` and ``bs`` the views that ``mlp_layers`` gives.  If
    ``differentiated``, returns the rows' VJP: their block of the adjoint
    to the gradient vector of these rows alone, in the same layout.
    Otherwise returns None, and the forward pass's intermediates are
    freed on return.

    With n hidden layers, ``q_j`` is the input-gradient chain at layer
    j's pre-activation, du/dz_j; the last one, ``q_{n-1}``, is the output
    weights' row ``ws[-1].T`` times layer n-1's slopes.  A differentiated
    chunk keeps, for every activation, the n hidden outputs, ``q_0 ..
    q_{n-2}`` and each layer's slope state: tanh's float slopes, or
    leaky relu's one-byte masks ``z > 0``, from which the VJP rebuilds
    layer j's slopes where it multiplies by them.  ``q_{n-1}`` is rebuilt
    only for the products that read it (with one hidden layer that row is
    ``q_0``, which the input weights read).  A forward-only chunk keeps
    the same n slope states, masks for leaky relu, and one hidden output
    at a time; each ``q_j`` is formed in place over
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

    The VJP writes only arrays it made: ``g_q_{j+1} = left @ W_{j+1}``
    goes over ``g_q_j`` where their widths match, and ``g_u * h_{j+1}``
    is added into ``left`` in row blocks (``_add_row_products``).  It
    never writes the chunk's saved state, so it can run again.
    """
    n_hidden = len(ws) - 1
    tanh = activation == "tanh"

    # value chain: hs[j] is the input of layer j, states[j] the slopes at
    # layer j's pre-activation for tanh, its mask for leaky relu
    hs, states = [h], []
    for w, b in zip(ws[:-1], bs[:-1]):
        h = h @ w
        h += b
        h, state = _activate(h, activation, alpha)
        if differentiated:
            hs.append(h)
        states.append(state)
    _value_column(h, ws[-1], bs[-1], packed[:, 0])
    del h  # the gradient chain reads only the slopes

    def slope(j):
        """Layer j's slopes, which the caller may overwrite: rebuilt, copied, or a forward-only tanh chunk's."""
        if not tanh:
            return _slopes(states[j], alpha)
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
        grad = np.empty(sum(w.size + b.size for w, b in zip(ws, bs)))
        gws, gbs = mlp_layers(grad, [w.shape for w in ws])
        srcs = []
        for j in range(n_hidden):
            if j < n_hidden - 1:
                q = qs[j]
            else:  # the last chain row, rebuilt for its products only
                s = slope(j)
                q = np.multiply(ws[-1].T, s, out=s)
            np.matmul(left.T, q, out=gws[j])
            np.matmul(g_u.T, q, out=gbs[j][None, :])
            if tanh:
                srcs.append(-2.0 * g_q * hs[j + 1] * q)
            del q, left
            # g_v = g_q * slopes[j], the adjoint at layer j's output, then
            # left for layer j + 1, formed in place over the slopes; g_q is
            # dead once read, so the next one goes into it if it fits
            left = slope(j)
            np.multiply(g_q, left, out=left)
            if j + 1 < n_hidden:
                w = ws[j + 1]
                g_q = np.matmul(left, w, out=g_q if g_q.shape[1] == w.shape[1] else None)
            _add_row_products(left, g_u, hs[j + 1])
        np.sum(left, axis=0, out=gws[-1][:, 0])
        np.sum(g_u, axis=0, out=gbs[-1])
        if tanh:  # the slopes' adjoints back through the value chain, output side first
            c = srcs.pop()
            for j in range(n_hidden - 1, -1, -1):
                gws[j] += hs[j].T @ c
                gbs[j] += c.sum(axis=0)
                if j:
                    c = c @ ws[j].T
                    c *= states[j - 1]
                    c += srcs.pop()
        return grad

    return vjp


def _add_row_products(out, col, h) -> None:
    """``out += col * h`` for a (rows, 1) ``col``, in row blocks of ``_PRODUCT_BLOCK`` elements.

    The same products and sums as the one-line form, without its
    temporary of ``out``'s shape.
    """
    step = max(1, _PRODUCT_BLOCK // out.shape[1])
    for lo in range(0, out.shape[0], step):
        out[lo:lo + step] += col[lo:lo + step] * h[lo:lo + step]


def _value_column(h, w, b, out) -> None:
    """``out[:] = h @ w + b`` for the (rows,) column ``out``, one dot product per row.

    A BLAS matrix-vector product may sum a row in an order that depends
    on the rows around it, and so on the chunk; einsum's dot product of
    each row depends on the row alone.
    """
    np.einsum("ij,j->i", h, w[:, 0], out=out)
    out += b


def _activate(z: np.ndarray, activation: str, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Activation written over ``z``, and the state of its slopes, each computed once.

    tanh's state is its slopes.  leaky relu's is the mask ``z > 0``,
    from which ``_slopes`` rebuilds them.
    """
    if activation == "tanh":
        h = np.tanh(z, out=z)
        return h, 1.0 - h * h
    if activation == "leaky_relu":
        mask = z > 0.0
        return np.multiply(z, _slopes(mask, alpha), out=z), mask
    raise ValueError(f"unknown activation {activation!r}")


def _slopes(mask: np.ndarray, alpha: float) -> np.ndarray:
    """Leaky relu slopes from the mask ``z > 0``: 1 where it holds, else ``alpha``.

    Byte for byte ``np.where(z > 0.0, 1.0, alpha)`` for 0 <= alpha <= 1,
    the range ``Tape.mlp`` accepts, and it allocates only its output; a
    table lookup such as ``np.take(table, mask)`` would first copy the
    mask to int64.
    """
    s = mask.astype(np.float64)
    return np.maximum(s, alpha, out=s)


def _check_broadcast(op: str, sa: tuple, sb: tuple, ra: bool, rb: bool) -> None:
    """Raise unless one operand shape broadcasts to the other and only a constant broadcasts.

    ``ra`` and ``rb`` say whether the operands need gradients.  An operand
    that does must have the result's shape, so every adjoint is the
    result's adjoint times the other operand, with no sum over broadcast
    axes.
    """
    # the common cases, equal shapes and a constant scalar, without numpy's
    # ~3 us shape arithmetic
    if sa == sb or (sb == () and not rb) or (sa == () and not ra):
        return
    try:
        shape = np.broadcast_shapes(sa, sb)
    except ValueError:
        shape = None
    if shape in (sa, sb) and (not ra or sa == shape) and (not rb or sb == shape):
        return
    raise ShapeMismatchError(f"{op}: shapes {sa} and {sb}")
