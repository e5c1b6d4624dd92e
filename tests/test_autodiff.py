import operator
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pidenet
from pidenet import autodiff, nn
from pidenet.autodiff import ShapeMismatchError, Tape, TapeError, Variable

from reference import evaluate, grad_check, mlp_param_grads

# (activation, alpha) of every kind of hidden layer: tanh, relu (leaky relu
# at slope 0) and leaky relu
ACTIVATIONS = [("tanh", 0.1), ("leaky_relu", 0.0), ("leaky_relu", 0.1)]


def finite_diff(value_fn, point, h=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    point = np.asarray(point, dtype=np.float64)
    out = np.empty_like(point)
    flat = point.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        out.ravel()[i] = (
            value_fn((flat + bump).reshape(point.shape))
            - value_fn((flat - bump).reshape(point.shape))
        ) / (2.0 * h)
    return out


def rel_gap(analytic, fd):
    analytic = np.asarray(analytic)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))))


def vector(ws, bs):
    """Per-layer weights and biases as one vector, in ``autodiff.mlp_layers``'s layout."""
    return np.concatenate([a.ravel() for w, b in zip(ws, bs) for a in (w, b)])


class TestPrimitives:
    def test_add_elementwise(self):
        t = Tape()
        out = t.add(t.constant([1.0, 2.0]), t.constant([3.0, 4.0]))
        np.testing.assert_array_equal(out.value, [4.0, 6.0])

    def test_shape_mismatch_names_op_and_shapes(self):
        t = Tape()
        with pytest.raises(ShapeMismatchError, match=r"row_dot.*\(2, 3\).*\(3, 2\)"):
            t.row_dot(t.constant(np.ones((2, 3))), t.constant(np.ones((3, 2))))
        with pytest.raises(ShapeMismatchError, match="add"):
            t.add(t.constant(np.ones(2)), t.constant(np.ones(3)))

    def test_segment_sum_and_backward(self):
        t = Tape()
        vals = t.param(np.array([[1.0], [2.0], [4.0]]))
        out = t.segment_sum(vals, np.array([0, 2, 2]), 4)
        np.testing.assert_array_equal(out.value.ravel(), [1.0, 0.0, 6.0, 0.0])
        total = t.sum(t.mul(out, t.constant(np.array([[1.0], [1.0], [3.0], [1.0]]))))
        (g,) = t.backward(total, [vals])
        np.testing.assert_array_equal(g.ravel(), [1.0, 3.0, 3.0])

    def test_slice_block_and_backward(self):
        t = Tape()
        a = t.param(np.arange(12.0).reshape(4, 3))
        block = t.slice(a, rows=(1, 3), cols=(1, 3))
        np.testing.assert_array_equal(block.value, [[4.0, 5.0], [7.0, 8.0]])
        assert t.slice(a).value.shape == (4, 3)
        (g,) = t.backward(t.sum(t.mul(block, block)), [a])
        expected = np.zeros((4, 3))
        expected[1:3, 1:3] = 2.0 * block.value
        np.testing.assert_array_equal(g, expected)
        with pytest.raises(ShapeMismatchError, match="slice"):
            t.slice(a, rows=(2, 5))

    def test_slice_block_goes_into_a_copy_of_a_shared_adjoint(self):
        # backward reaches the add before the slice, and the add hands p
        # and q each a copy of its adjoint; the slice's block must go into
        # p's copy alone, or q's gradient takes p's block as well
        rng = np.random.default_rng(3)
        p0, q0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        t = Tape()
        p, q = t.param(p0), t.param(q0)
        s1 = t.slice(p, rows=(1, 3))
        s = t.add(p, q)
        dp, dq = t.backward(t.add(t.sum(t.mul(s, s)), t.sum(t.mul(s1, s1))), [p, q])
        np.testing.assert_array_equal(dq, 2.0 * (p0 + q0))
        expected = 2.0 * (p0 + q0)
        expected[1:3] += 2.0 * p0[1:3]
        np.testing.assert_array_equal(dp, expected)

    def test_slice_adjoints_fill_their_parents_block_without_zero_fills(self):
        # slices of slices: value and gradient columns of one (rows, 1+d)
        # node, then row slices of each.  Backward holds the node's adjoint
        # and the gradient block's, two parent-sized arrays (2.01x the
        # node's bytes, measured); a zero-filled parent-shaped array per
        # slice took it to 3.01x
        t = Tape()
        a = t.param(np.ones((20000, 101)))
        value, grad = t.slice(a, cols=(0, 1)), t.slice(a, cols=(1, 101))
        parts = [t.slice(value, rows=r)
                 for r in ((0, 15000), (1000, 16000), (16000, 20000), (15000, 16000))]
        parts.append(t.slice(grad, rows=(0, 15000)))
        total = t.sum(t.mul(parts[0], parts[0]))
        for part in parts[1:]:
            total = t.add(total, t.sum(t.mul(part, part)))
        tracemalloc.start()
        try:
            (g,) = t.backward(total, [a])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = np.zeros((20000, 101))
        expected[:, 0] = 2.0
        expected[1000:16000, 0] = 4.0
        expected[:15000, 1:] = 2.0
        assert np.array_equal(g, expected)
        assert peak < 2.5 * a.value.nbytes, peak / a.value.nbytes


class TestBroadcastOperand:
    """A constant operand of ``add``, ``sub``, ``mul`` and ``row_dot`` broadcasts.

    A (1, d) row stands for a (rows, d) operand and a scalar for any
    shape; an operand that needs a gradient must have the result's shape.
    """

    OPS = ("add", "sub", "mul", "row_dot")

    @staticmethod
    def operands(op):
        rng = np.random.default_rng(len(op))
        full, row = rng.normal(size=(7, 4)), rng.normal(size=(1, 4))
        weights = rng.normal(size=(7, 1) if op == "row_dot" else (7, 4))
        return full, row, weights

    @staticmethod
    def run(op, full, constant, weights, constant_first=False):
        """The value of ``op`` on ``full``, a param, and ``constant``, and the gradient of ``full``."""
        t = Tape()
        a = t.param(full)
        pair = (t.constant(constant), a) if constant_first else (a, t.constant(constant))
        out = getattr(t, op)(*pair)
        (g,) = t.backward(t.sum(t.mul(out, t.constant(weights))), [a])
        return out.value, g

    @pytest.mark.parametrize("op", OPS)
    def test_value_and_other_gradient_equal_the_full_operands(self, op):
        full, row, weights = self.operands(op)
        value, grad = self.run(op, full, row, weights)
        full_value, full_grad = self.run(op, full, np.repeat(row, 7, axis=0), weights)
        assert value.tobytes() == full_value.tobytes()
        assert grad.tobytes() == full_grad.tobytes()

    @pytest.mark.parametrize("constant_first", [False, True])
    @pytest.mark.parametrize("op", ("add", "sub", "mul"))
    def test_constant_scalar_equals_the_full_constant(self, op, constant_first):
        # a scalar product is mul by a 0-d constant: the same IEEE
        # products as a Python float or a full array of it
        full, _, weights = self.operands(op)
        value, grad = self.run(op, full, -1.5, weights, constant_first)
        full_value, full_grad = self.run(op, full, np.full((7, 4), -1.5), weights, constant_first)
        floats = getattr(operator, op)(*((-1.5, full) if constant_first else (full, -1.5)))
        assert value.tobytes() == full_value.tobytes() == floats.tobytes()
        assert grad.tobytes() == full_grad.tobytes()

    @pytest.mark.parametrize("small", [(1, 4), ()], ids=["row", "scalar"])
    @pytest.mark.parametrize("small_first", [False, True])
    @pytest.mark.parametrize("op", OPS)
    def test_differentiated_operand_that_broadcasts_is_rejected(self, op, small_first, small):
        full = self.operands(op)[0]
        for make_full in ("constant", "param"):
            t = Tape()
            pair = (t.param(np.ones(small)), getattr(t, make_full)(full))
            pair = pair if small_first else pair[::-1]
            sa, sb = (re.escape(str(v.shape)) for v in pair)
            with pytest.raises(ShapeMismatchError, match=rf"{op}: shapes {sa} and {sb}"):
                getattr(t, op)(*pair)

    @pytest.mark.parametrize("op", OPS)
    def test_shapes_that_only_broadcast_together_are_rejected(self, op):
        t = Tape()
        with pytest.raises(ShapeMismatchError, match=rf"{op}.*\(7, 1\).*\(1, 4\)"):
            getattr(t, op)(t.constant(np.ones((7, 1))), t.constant(np.ones((1, 4))))


def test_numpy_operand_on_the_left_defers_to_the_variable():
    # numpy would otherwise broadcast the Variable as an object scalar
    # and return an object ndarray of Variables
    t = Tape()
    v = t.param(np.arange(1.0, 4.0)[:, None])
    c = np.full((3, 1), 2.0)
    pairs = ((c + v, v + c), (c - v, -(v - c)), (c * v, v * c), (np.float64(3.0) * v, v * 3.0))
    for got, want in pairs:
        assert isinstance(got, Variable)
        assert np.array_equal(got.value, want.value)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        t = Tape()
        x = t.param(np.array([1.0, 2.0, 3.0]))
        (g,) = t.backward(t.sum(t.mul(x, x)), [x])
        np.testing.assert_array_equal(g, [2.0, 4.0, 6.0])

    def test_inner_product_gradient(self):
        t = Tape()
        a = t.param(np.array([[1.0, 0.0]]))
        b = t.constant(np.array([[5.0, 7.0]]))
        (g,) = t.backward(t.sum(t.row_dot(a, b)), [a])
        np.testing.assert_array_equal(g, [[5.0, 7.0]])

    def test_two_layer_mlp_loss_matches_finite_differences(self):
        # the loss reads only the value column, so the gradient columns
        # pass a zero adjoint, as the jumped rows of the training loss do
        rng = np.random.default_rng(0)
        theta0 = vector([rng.normal(size=(3, 5)), rng.normal(size=(5, 1))],
                        [rng.normal(size=5), np.zeros(1)])
        x = rng.normal(size=(4, 3))

        def loss_of(theta):
            t = Tape()
            p = t.param(theta)
            packed = t.mlp(x, p, [(3, 5), (5, 1)], "tanh")
            u = t.slice(packed, cols=(0, 1))
            return t, p, t.mean(t.mul(u, u))

        t, p, obj = loss_of(theta0)
        (g,) = t.backward(obj, [p])
        fd = finite_diff(lambda theta: float(loss_of(theta)[2].value), theta0)
        assert rel_gap(g, fd) <= 1e-6

    def test_non_scalar_objective_rejected(self):
        t = Tape()
        x = t.param(np.ones(3))
        with pytest.raises(TapeError, match="scalar"):
            t.backward(x, [x])

    def test_foreign_tape_variable_rejected(self):
        t1, t2 = Tape(), Tape()
        x1 = t1.param(np.ones(2))
        x2 = t2.param(np.ones(2))
        with pytest.raises(TapeError, match="different tape"):
            t1.backward(t1.sum(x1), [x2])

    def test_unused_variable_gets_exact_zeros(self):
        t = Tape()
        x = t.param(np.ones(3))
        unused = t.param(np.full((2, 2), 5.0))
        (gx, gu) = t.backward(t.sum(t.mul(x, x)), [x, unused])
        assert gu.shape == (2, 2)
        assert np.all(gu == 0.0)

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_backward_is_deterministic(self, activation, alpha):
        # a VJP that wrote into its saved state (hidden outputs, slopes or
        # masks, chain rows) would change the second run; two hidden
        # layers, so the chunk keeps a chain row, and gradient and
        # value-only rows, both read by the objective
        rng = np.random.default_rng(3)
        dims = [(4, 6), (6, 6), (6, 1)]
        t = Tape()
        theta = t.param(rng.normal(size=sum((fi + 1) * fo for fi, fo in dims)))
        packed = t.mlp(rng.normal(size=(5, 4)), theta, dims, activation, alpha, grad_rows=3)
        means = t.block_mean(t.slice(packed, cols=(0, 1)), 5)
        obj = t.add(t.mean(t.mul(means, means)), t.sum(t.mul(packed, packed)))
        (g1,) = t.backward(obj, [theta])
        (g2,) = t.backward(obj, [theta])
        assert np.array_equal(g1, g2)

    def test_every_contribution_is_a_fresh_array(self):
        # add hands p and q each a copy of s's adjoint, sub hands r a copy
        # of e's; each of them then takes further contributions, which
        # backward adds in place into its first one, so no contribution
        # may be g or share its memory, and no VJP's g is written
        rng = np.random.default_rng(7)
        p0, q0, r0, c = (rng.normal(size=(3, 2)) for _ in range(4))
        t = Tape()
        p, q, r = t.param(p0), t.param(q0), t.param(r0)
        later = t.add(t.add(t.sum(t.mul(p, p)), t.sum(t.mul(q, t.constant(c)))),
                      t.sum(t.mul(r, r)))
        e = t.sub(r, p)
        s = t.add(p, q)  # recorded last, so backward reaches it first
        total = t.add(t.add(t.sum(t.mul(s, s)), t.sum(t.mul(e, e))), later)
        seen = []

        def watched(op, vjp):
            def wrapper(g):
                out = vjp(g)
                seen.append((op, g, g.copy(), [c for c in out if c is not None]))
                return out

            return wrapper

        for node in t._nodes:
            if node.vjp is not None:
                node.vjp = watched(node.op, node.vjp)
        dp, dq, dr = t.backward(total, [p, q, r])
        s0, e0 = p0 + q0, r0 - p0
        np.testing.assert_allclose(dp, 2.0 * s0 - 2.0 * e0 + 2.0 * p0, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(dq, 2.0 * s0 + c, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(dr, 2.0 * e0 + 2.0 * r0, rtol=1e-14, atol=1e-14)
        # s hands p and q their copies, e hands r and p theirs; a square,
        # mul(x, x), hands x two products
        assert sum(op in ("add", "sub") and g.shape == (3, 2) and len(contribs) == 2
                   for op, g, _, contribs in seen) == 2
        assert sum(op == "mul" and len(contribs) == 2 for op, _, _, contribs in seen) == 4
        for _, g, before, contribs in seen:
            assert np.array_equal(g, before)
            assert not any(np.shares_memory(c, g) for c in contribs)
            assert not (len(contribs) == 2 and np.shares_memory(*contribs))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=2 * 4 + 4 + 4 * 1 + 1)
        inp = rng.normal(size=(3, 2))
        alpha, beta = 0.7, -1.3

        def parts(x_arr):
            # x enters f through a square and g as the parameter vector of
            # a tanh network, whose value and gradient columns g sums
            t = Tape()
            x = t.param(x_arr)
            f = t.sum(t.mul(x, x))
            g = t.sum(t.mlp(inp, x, [(2, 4), (4, 1)], "tanh"))
            combo = t.add(t.mul(f, t.constant(alpha)), t.mul(g, t.constant(beta)))
            gf = t.backward(f, [x])[0]
            gg = t.backward(g, [x])[0]
            gc = t.backward(combo, [x])[0]
            return gf, gg, gc

        gf, gg, gc = parts(x0)
        np.testing.assert_allclose(gc, alpha * gf + beta * gg, atol=1e-12)


MLP_DIMS = [(3, 4), (4, 4), (4, 1)]
MLP_THETA = (sum((fi + 1) * fo for fi, fo in MLP_DIMS),)
MLP_INPUT = np.random.default_rng(11).normal(size=(7, 3))
ROW = np.array([[0.5, -2.0]])
# one case per primitive and kind of operand: the shapes of the param
# operands, then the op on the tape and its operands, one Variable twice
# where the op takes it twice; a constant operand is made in the op
VJP_CASES = {
    "add": ([(3, 2), (3, 2)], lambda t, a, b: t.add(a, b)),
    "add_constant_row": ([(3, 2)], lambda t, a: t.add(a, t.constant(ROW))),
    "add_constant_row_left": ([(3, 2)], lambda t, a: t.add(t.constant(ROW[0]), a)),
    "add_scalars": ([(), ()], lambda t, a, b: t.add(a, b)),
    "add_self": ([(3, 2)], lambda t, a: t.add(a, a)),
    "sub": ([(3, 2), (3, 2)], lambda t, a, b: t.sub(a, b)),
    "sub_constant_row": ([(3, 2)], lambda t, a: t.sub(a, t.constant(ROW))),
    "sub_constant_row_left": ([(3, 2)], lambda t, a: t.sub(t.constant(ROW), a)),
    "sub_self": ([(3, 2)], lambda t, a: t.sub(a, a)),
    "mul": ([(3, 2), (3, 2)], lambda t, a, b: t.mul(a, b)),
    "mul_constant_row": ([(3, 2)], lambda t, a: t.mul(a, t.constant(ROW))),
    "mul_constant_scalar": ([(3, 2)], lambda t, a: t.mul(a, t.constant(-1.5))),
    "mul_constant_scalar_left": ([(3, 2)], lambda t, a: t.mul(t.constant(-1.5), a)),
    "mul_scalar_by_constant": ([()], lambda t, a: t.mul(a, t.constant(-1.5))),
    "mul_self": ([(3, 2)], lambda t, a: t.mul(a, a)),
    "sum": ([(3, 2)], lambda t, a: t.sum(a)),
    "mean": ([(3, 2)], lambda t, a: t.mean(a)),
    "row_dot": ([(3, 2), (3, 2)], lambda t, a, b: t.row_dot(a, b)),
    "row_dot_constant_row": ([(3, 2)], lambda t, a: t.row_dot(a, t.constant(ROW))),
    "row_dot_self": ([(3, 2)], lambda t, a: t.row_dot(a, a)),
    "segment_sum": ([(3, 1)], lambda t, a: t.segment_sum(a, np.array([0, 2, 2]), 4)),
    "block_mean": ([(4, 1)], lambda t, a: t.block_mean(a, 2)),
    # several chunks of both kinds of row, the first row standing for two
    "mlp_tanh": ([MLP_THETA],
                 lambda t, a: t.mlp(MLP_INPUT, a, MLP_DIMS, "tanh", grad_rows=4, repeat=2)),
    "mlp_leaky_relu": ([MLP_THETA],
                       lambda t, a: t.mlp(MLP_INPUT, a, MLP_DIMS, "leaky_relu", 0.1, grad_rows=4)),
    "mlp_no_rows": ([MLP_THETA], lambda t, a: t.mlp(MLP_INPUT[:0], a, MLP_DIMS, "tanh")),
}


@pytest.mark.parametrize("case", VJP_CASES)
def test_every_vjp_hands_each_parent_a_fresh_array(case, monkeypatch):
    # backward adds every later contribution into a parent's first one in
    # place, so no contribution may share memory with g, with an operand's
    # value or with another contribution; a constant parent gets None
    monkeypatch.setattr(autodiff, "CHUNK_ROWS", 3)
    shapes, op = VJP_CASES[case]
    rng = np.random.default_rng(5)
    t = Tape()
    operands = [t.param(rng.normal(size=shape)) for shape in shapes]
    out = op(t, *operands)
    g = np.asarray(rng.normal(size=out.shape))
    node = t._nodes[out.id]
    contribs = node.vjp(g)
    values = {v.id: v.value for v in operands}
    assert len(contribs) == len(node.parents)
    assert [c is not None for c in contribs] == [pid in values for pid in node.parents]
    given = [(pid, c) for pid, c in zip(node.parents, contribs) if c is not None]
    for i, (pid, c) in enumerate(given):
        assert np.shape(c) == values[pid].shape
        assert not np.shares_memory(c, g)
        assert not any(np.shares_memory(c, v) for v in values.values())
        assert not any(np.shares_memory(c, other) for _, other in given[i + 1:])


class TestValueOwnership:
    """Variables own their values; the tape keeps none."""

    def test_inline_constant_dies_with_its_op_on_a_constant_tape(self):
        tape = Tape()
        x = tape.constant(np.full(5, 2.0))
        arr = np.arange(5.0)
        ref = weakref.ref(arr)
        out = tape.mul(x, tape.constant(arr))
        del arr
        assert ref() is None
        np.testing.assert_array_equal(out.value, 2.0 * np.arange(5.0))

    def test_inline_constant_lives_in_the_vjp_of_a_trainable_operand(self):
        tape = Tape()
        x = tape.param(np.full(5, 2.0))
        arr = np.arange(5.0)
        ref = weakref.ref(arr)
        out = tape.mul(x, tape.constant(arr))
        del arr
        assert ref() is not None
        (g,) = tape.backward(tape.sum(out), [x])
        np.testing.assert_array_equal(g, np.arange(5.0))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        disc = grad_check(lambda t, x: t.sum(t.mul(x, x)), np.array(3.0), h=1e-5)
        assert disc <= 1e-9

    def test_leaky_relu_negative_branch(self):
        # one leaky-relu unit at input -2 under parameters (w, b0, w1, b1)
        # = ([0, 1], 0, 1, 0): d/dw of alpha * w * x is alpha * x, d/db0 is
        # alpha, d/dw1 is the unit's output alpha * -2, d/db1 is 1
        inp = np.array([[0.0, -2.0]])
        theta = np.array([0.0, 1.0, 0.0, 1.0, 0.0])

        def f(t, p):
            return t.sum(t.slice(t.mlp(inp, p, [(2, 1), (1, 1)], "leaky_relu", 0.01), cols=(0, 1)))

        t = Tape()
        p = t.param(theta)
        (g,) = t.backward(f(t, p), [p])
        np.testing.assert_array_equal(g, [0.0, -0.02, 0.01, -0.02, 1.0])
        assert grad_check(f, theta) <= 1e-9


class TestFusedMlp:
    """``Tape.mlp``: packed [u | du/dx] and its hand-written VJP."""

    @staticmethod
    def layers(n_hidden, d=2, width=5, seed=0):
        """Parameter vector and layer dims: 1+d inputs, ``n_hidden`` layers of ``width``."""
        rng = np.random.default_rng(seed)
        widths = [1 + d] + [width] * n_hidden + [1]
        dims = list(zip(widths[:-1], widths[1:]))
        ws = [rng.normal(scale=0.8, size=dim) for dim in dims]
        bs = [rng.normal(scale=0.3, size=b) for b in widths[1:]]
        return vector(ws, bs), dims

    @pytest.mark.parametrize("n_hidden", [1, 2, 3])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_parameter_gradients_match_finite_differences(self, activation, alpha, n_hidden):
        theta, dims = self.layers(n_hidden)
        rng = np.random.default_rng(1)
        inp = rng.uniform(-1.0, 1.0, size=(6, 3))
        coef = rng.normal(size=(6, 3))

        def build(tape, arr):
            p = tape.param(arr)
            packed = tape.mlp(inp, p, dims, activation, alpha)
            # squaring makes the adjoint depend on both value and gradient
            return tape.sum(tape.mul(tape.mul(packed, packed), tape.constant(coef))), p

        tape = Tape()
        objective, p = build(tape, theta)
        (grad,) = tape.backward(objective, [p])
        fd = finite_diff(lambda arr: float(build(Tape(), arr)[0].value), theta)
        assert rel_gap(grad, fd) <= 1e-6, (activation, alpha, n_hidden)

    @pytest.mark.parametrize("activation, alpha, value, slope", [
        ("leaky_relu", 0.0, [0.0, 0.0, 1.5], [0.0, 0.0, 1.0]),
        ("leaky_relu", 0.01, [-0.02, 0.0, 1.5], [0.01, 0.01, 1.0]),
        ("tanh", 0.01, np.tanh([-2.0, 0.0, 1.5]), 1.0 - np.tanh([-2.0, 0.0, 1.5]) ** 2),
    ])
    def test_one_unit_network_gives_activation_and_slope(self, activation, alpha, value, slope):
        # u = act(x) and du/dx = act'(x); the kink at 0 takes the left slope
        t = Tape()
        theta = t.constant(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))  # w0, b0, w1, b1
        inp = np.array([[0.0, -2.0], [0.0, 0.0], [0.0, 1.5]])
        packed = t.mlp(inp, theta, [(2, 1), (1, 1)], activation, alpha).value
        np.testing.assert_allclose(packed[:, 0], value, rtol=1e-15)
        np.testing.assert_allclose(packed[:, 1], slope, rtol=1e-15)

    def test_gradient_columns_match_input_finite_differences(self):
        theta, dims = self.layers(2)
        x0 = np.array([0.3, -0.7, 0.5])

        def value_at(x):
            t = Tape()
            return float(t.mlp(x[None, :], t.constant(theta), dims, "tanh").value[0, 0])

        t = Tape()
        packed = t.mlp(x0[None, :], t.constant(theta), dims, "tanh").value
        assert packed.shape == (1, 3)
        assert rel_gap(packed[0, 1:], finite_diff(value_at, x0)[1:]) <= 1e-8

    def test_layers_that_do_not_chain_are_rejected(self):
        t = Tape()
        theta = t.param(np.ones(3 * 4 + 4 + 5 * 1 + 1))
        with pytest.raises(ShapeMismatchError, match="mlp"):
            t.mlp(np.ones((2, 3)), theta, [(3, 4), (5, 1)], "tanh")
        with pytest.raises(ShapeMismatchError, match="mlp"):
            t.mlp(np.ones((2, 3)), theta, [(3, 4), (4, 2)], "tanh")  # not one output

    @pytest.mark.parametrize("size", [3 * 4 + 4 + 4 + 1 - 1, 3 * 4 + 4 + 4 + 1 + 1])
    def test_parameter_vector_of_another_length_is_rejected(self, size):
        t = Tape()
        with pytest.raises(ShapeMismatchError, match="does not fit"):
            t.mlp(np.ones((2, 3)), t.param(np.ones(size)), [(3, 4), (4, 1)], "tanh")

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_leaky_slope_outside_unit_interval_is_rejected(self, alpha):
        # the slopes are rebuilt from z > 0 as max(mask, alpha), exact only on [0, 1]
        t = Tape()
        theta = t.param(np.ones(3 * 4 + 4 + 4 * 1 + 1))
        with pytest.raises(ValueError, match="outside"):
            t.mlp(np.ones((2, 3)), theta, [(3, 4), (4, 1)], "leaky_relu", alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5, 1.0])
    def test_slopes_from_the_mask_equal_the_where_form(self, alpha):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310]
        rng = np.random.default_rng(0)
        z = np.concatenate([edges, rng.normal(size=512 * 64 - len(edges))]).reshape(512, 64)
        mask = z > 0.0
        tracemalloc.start()
        try:
            slopes = autodiff._slopes(mask, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slopes.dtype == np.float64
        assert slopes.tobytes() == np.where(z > 0.0, 1.0, alpha).tobytes()
        # its output and a few hundred bytes (measured 128-232): an index
        # lookup would first copy the mask to int64, another 256 KiB
        assert peak <= slopes.nbytes + 4096, peak - slopes.nbytes


def pool_tasks(grad_rows, value_rows=0):
    """Tasks that two passes over a node of these rows send to the pool.

    The passes are a forward pass and its VJP, or two forward passes: one
    task per chunk and pass, none while the node has only one chunk.
    """
    chunks = len(autodiff._chunk_plan(grad_rows, grad_rows + value_rows))
    return 2 * chunks if chunks > 1 else 0


class TestChunkedMlp:
    """``Tape.mlp`` split into row chunks and run on the worker pool."""

    CHUNK = 128  # 100, 250 and 600 rows give 1, 2 and 5 chunks
    ROWS = (100, 250, 600)

    @staticmethod
    def data(rows, activation, d=3, hidden=(16, 16), alpha=0.1):
        """Perturbed params, input and adjoint coefficients, fixed by the row count."""
        rng = np.random.default_rng(rows)
        arch = nn.MlpArchitecture(input_dim=1 + d, hidden=hidden, activation=activation,
                                  alpha=alpha)
        params = nn.init(arch, seed=3)
        params.theta += rng.normal(scale=0.1, size=params.theta.size)
        inp = rng.uniform(-1.0, 1.0, size=(rows, 1 + d))
        coef = rng.normal(size=(rows, 1 + d))
        return params, inp, coef

    @staticmethod
    def node(tape, params, inp, leaf):
        """The ``mlp`` node of ``params`` over ``inp``, and its parameter leaf made by ``leaf``."""
        theta = leaf(params.theta)
        arch = params.arch
        return tape.mlp(inp, theta, arch.layer_dims, arch.activation, arch.alpha), theta

    @classmethod
    def run(cls, rows, activation, alpha, d=3, hidden=(16, 16)):
        """Value and parameter gradient of sum(c * packed**2) at fixed data."""
        params, inp, coef = cls.data(rows, activation, d, hidden, alpha)
        tape = Tape()
        packed, theta = cls.node(tape, params, inp, tape.param)
        (grad,) = tape.backward(tape.sum(tape.mul(tape.mul(packed, packed), tape.constant(coef))),
                                [theta])
        return packed.value, grad, params, inp

    @staticmethod
    def blocks(grad, params):
        """The weight blocks, then the bias blocks, of a gradient vector."""
        ws, bs = autodiff.mlp_layers(grad, params.arch.layer_dims)
        return ws + bs

    def test_package_import_pins_blas_to_one_thread(self):
        # the chunks bring the parallelism; a library user who never
        # imports the command line gets one-thread BLAS too, unless the
        # environment already names a count
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["MKL_NUM_THREADS"] = "3"
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        code = ("import os, pidenet.scheme; print([os.environ.get(v) for v in "
                "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "['1', '1', '3']"

    def test_numpy_loaded_first_without_a_known_blas_warns(self, tmp_path, monkeypatch):
        # a numpy whose wheel libraries hold no OpenBLAS: no thread count can be set
        fake = types.ModuleType("numpy")
        fake.__file__ = str(tmp_path / "numpy" / "__init__.py")
        monkeypatch.setitem(sys.modules, "numpy", fake)
        with pytest.warns(RuntimeWarning, match="number of cores"):
            pidenet._pin_loaded_blas()

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_results_do_not_depend_on_the_workers(self, activation, alpha, rows, monkeypatch,
                                                  chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the workers interleave as finely as they can
        try:
            for workers in (1, 2, 3):
                pool = chunk_workers(workers)
                runs.append(self.run(rows, activation, alpha)[:2])
                assert pool.tasks == pool_tasks(rows)
        finally:
            sys.setswitchinterval(interval)
        for value, grad in runs[1:]:
            assert np.array_equal(value, runs[0][0])
            assert np.array_equal(grad, runs[0][1])

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_value_column_is_the_plain_forward_pass(self, activation, alpha, rows, monkeypatch):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        value, _, params, inp = self.run(rows, activation, alpha)
        assert np.array_equal(value[:, :1], evaluate(params, inp))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_chunked_gradients_match_one_chunk(self, activation, alpha, rows, monkeypatch):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        value, grad, params, _ = self.run(rows, activation, alpha)
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 10**9)
        whole_value, whole_grad, _, _ = self.run(rows, activation, alpha)
        assert np.array_equal(value, whole_value)
        for g, g0 in zip(self.blocks(grad, params), self.blocks(whole_grad, params)):
            assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_gradients_match_the_two_chain_reference(self, activation, alpha, rows, monkeypatch,
                                                     chunk_workers):
        # the node takes one product per weight, with the value's adjoint
        # read from the gradient chain, and tanh's slope adjoints in a sweep
        # of their own, so it agrees with the reference's two chains up to
        # rounding
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        params, inp, coef = self.data(rows, activation, hidden=(16, 12, 8), alpha=alpha)
        expected = None
        for lo, hi in autodiff._chunk_plan(rows, rows):  # the node's chunk edges
            part = mlp_param_grads(inp[lo:hi], params.weights, params.biases,
                                   activation, params.arch.alpha, coef[lo:hi])
            expected = part if expected is None else [e + p for e, p in zip(expected, part)]
        for workers in (1, 2, 3):
            pool = chunk_workers(workers)
            tape = Tape()
            packed, theta = self.node(tape, params, inp, tape.param)
            (grad,) = tape.backward(tape.sum(tape.mul(packed, tape.constant(coef))), [theta])
            assert pool.tasks == pool_tasks(rows)
            for k, (g, e) in enumerate(zip(self.blocks(grad, params), expected)):
                assert g.shape == e.shape, (workers, k)
                assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e)), (workers, k)

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_one_usable_core_runs_the_chunks_inline(self, activation, alpha, monkeypatch,
                                                    chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        pool = chunk_workers(2)
        value, grad, _, _ = self.run(600, activation, alpha)  # 5 chunks
        assert pool.tasks == 10
        monkeypatch.setattr(autodiff, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        inline_value, inline_grad, _, _ = self.run(600, activation, alpha)
        assert autodiff._pool is None
        assert np.array_equal(inline_value, value)
        assert np.array_equal(inline_grad, grad)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_constant_weights_give_a_forward_only_node(self, activation, alpha, rows,
                                                       monkeypatch, chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        params, inp, _ = self.data(rows, activation, alpha=alpha)
        for workers in (1, 2, 3):
            pool = chunk_workers(workers)
            trained = Tape()
            differentiated = self.node(trained, params, inp, trained.param)[0]
            tape = Tape()
            forward_only = self.node(tape, params, inp, tape.constant)[0]
            assert pool.tasks == pool_tasks(rows)  # two forward passes
            assert trained._nodes[differentiated.id].vjp is not None
            assert tape._nodes[forward_only.id].vjp is None
            assert np.array_equal(forward_only.value, differentiated.value)

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forward_only_node_keeps_one_chunk_of_state_per_worker(self, workers, activation,
                                                                   alpha, monkeypatch,
                                                                   chunk_workers):
        # 40 chunks of 128 rows through 3x64: the forward-only node keeps
        # at most a chunk's slopes and one layer per worker, where a
        # chunk's layer is 64 KiB.  tanh measured 0.56, 0.68-0.87 and
        # 0.68-1.19 MiB at 1, 2 and 3 workers, against bounds of 0.69, 1.03
        # and 1.38 MiB; 0.74, 1.18-1.25 and 1.37-1.75 MiB with every layer's
        # output kept; 0.94, 1.50-1.62 and 1.69-2.19 MiB with the gradient
        # chain kept as well.  leaky relu keeps one-byte masks in
        # place of the float slopes: 7.39, 9.7-10.8 and 10.0-12.0 layers,
        # against bounds of 7.5, 11.25 and 15; 9.01, 13.1-14.1 and
        # 13.1-17.1 layers with the float slopes kept
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        pool = chunk_workers(workers)
        params, inp, _ = self.data(40 * self.CHUNK, activation, hidden=(64, 64, 64), alpha=alpha)
        layer = self.CHUNK * 64 * 8
        tape = Tape()
        tracemalloc.start()
        try:
            self.node(tape, params, inp, tape.constant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.tasks == 40
        per_worker = 5.5 if activation == "tanh" else 3.75
        assert peak < (workers + 1) * per_worker * layer, peak / layer

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_vjp_keeps_two_gradient_vectors_per_worker_and_the_sum(self, workers, activation,
                                                                   alpha, monkeypatch,
                                                                   chunk_workers):
        # 40 chunks of 8 rows through 2x256: a chunk's gradient vector,
        # 526 KiB, dwarfs the rest of its VJP.  The node sums the vectors
        # as they come, with two chunks in flight per worker: leaky relu
        # measured 2.2, 5.2-5.3 and 7.3-7.4 vectors at 1, 2 and 3 workers,
        # tanh 3.2, 6.2-7.3 and 8.4-9.4.  Holding every chunk's vector
        # until the last one was done took 40
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 8)
        pool = chunk_workers(workers)
        params, inp, coef = self.data(40 * 8, activation, hidden=(256, 256), alpha=alpha)
        tape = Tape()
        packed, theta = self.node(tape, params, inp, tape.param)
        objective = tape.sum(tape.mul(packed, tape.constant(coef)))
        tracemalloc.start()
        try:
            (grad,) = tape.backward(objective, [theta])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.tasks == 80
        # tanh's slope sweep adds a weight-sized product per running chunk
        held = 2 * workers + 1 + (workers if activation == "tanh" else 0)
        assert peak < (held + 0.75) * grad.nbytes, peak / grad.nbytes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_two_chunks_per_worker_are_in_flight(self, workers, chunk_workers,
                                                         monkeypatch):
        # 40 chunks: the forward pass and the VJP each submit the next
        # chunk only as the caller takes a result, so the chunks that wait
        # behind a slow one stay bounded
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 8)
        params, inp, coef = self.data(40 * 8, "tanh")
        for leaf in ("constant", "param"):
            pool = chunk_workers(workers)
            tape = Tape()
            packed, theta = self.node(tape, params, inp, getattr(tape, leaf))
            assert (pool.tasks, pool.most_in_flight) == (40, 2 * workers)
        tape.backward(tape.sum(tape.mul(packed, tape.constant(coef))), [theta])
        assert (pool.tasks, pool.most_in_flight, pool.in_flight) == (80, 2 * workers, 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_gradient_chunk_vjp_makes_no_full_temporary(self, alpha):
        # one inline chunk of 2048 rows through 3x64: the VJP writes each
        # chain adjoint g_q over the last one and adds g_u * h into its
        # left adjoint in row blocks, so it peaks at 3.70 layers: left, g_q
        # and the last chain row, rebuilt.  A fresh g_q beside the last
        # and a product of left's shape took it to 4.20
        rows = 2048
        params, inp, coef = self.data(rows, "leaky_relu", hidden=(64, 64, 64), alpha=alpha)
        layer = rows * 64 * 8
        tape = Tape()
        packed, theta = self.node(tape, params, inp, tape.param)
        objective = tape.sum(tape.mul(packed, tape.constant(coef)))
        tracemalloc.start()
        try:
            tape.backward(objective, [theta])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.95 * layer, peak / layer

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_forward_only_chunk_frees_the_previous_chain_row(self, alpha):
        # one inline chunk through 2x64: the gradient chain drops q_1
        # before it rebuilds layer 0's slopes, so the chunk peaks at two
        # float layers and two masks.  Measured 2.34 layers above the
        # output; 3.29 while q_1 lived until the loop ended
        params, inp, _ = self.data(self.CHUNK, "leaky_relu", hidden=(64, 64), alpha=alpha)
        layer = self.CHUNK * 64 * 8
        tape = Tape()
        tracemalloc.start()
        try:
            out = self.node(tape, params, inp, tape.constant)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.value.nbytes < 2.75 * layer, (peak - out.value.nbytes) / layer

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_piecewise_linear_node_keeps_masks_not_slopes(self, alpha, monkeypatch,
                                                          chunk_workers):
        # 40 chunks of 128 rows through 3x64: a float layer of every chunk
        # is 2.5 MiB.  Keeping each chunk's hidden outputs, float slopes and
        # gradient chain (9 such layers) held 22.74 MiB; keeping the
        # outputs, the chain but its last row and one-byte masks (5 3/8
        # layers) holds 13.68 MiB, at 1, 2 and 3 workers alike
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        pool = chunk_workers(2)
        params, inp, _ = self.data(40 * self.CHUNK, "leaky_relu", hidden=(64, 64, 64),
                                   alpha=alpha)
        layer = 40 * self.CHUNK * 64 * 8
        tape = Tape()
        tracemalloc.start()
        try:
            node = self.node(tape, params, inp, tape.param)[0]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pool.tasks == 40
        assert tape._nodes[node.id].vjp is not None
        assert held < 7 * layer, held / 2**20

    def test_tanh_node_keeps_slopes_and_the_chain_but_its_last_row(self, monkeypatch,
                                                                   chunk_workers):
        # 40 chunks of 128 rows through 3x64 tanh, in 2.5 MiB layers of
        # every chunk: keeping the hidden outputs, the slopes, the whole
        # gradient chain and its output-side adjoints held 11.1 layers;
        # the hidden outputs, float slopes and the chain but its last row
        # hold 8.1, at 1, 2 and 3 workers alike
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        pool = chunk_workers(2)
        params, inp, _ = self.data(40 * self.CHUNK, "tanh", hidden=(64, 64, 64))
        layer = 40 * self.CHUNK * 64 * 8
        tape = Tape()
        tracemalloc.start()
        try:
            node = self.node(tape, params, inp, tape.param)[0]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pool.tasks == 40
        assert tape._nodes[node.id].vjp is not None
        assert held < 9 * layer, held / layer

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_chunked_gradients_match_finite_differences(self, activation, alpha, monkeypatch):
        # 13 rows in five chunks of 2 or 3
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 3)
        theta, dims = TestFusedMlp.layers(2, width=4, seed=5)
        rng = np.random.default_rng(6)
        inp = rng.uniform(-1.0, 1.0, size=(13, 3))
        coef = rng.normal(size=(13, 3))

        def build(tape, arr):
            p = tape.param(arr)
            packed = tape.mlp(inp, p, dims, activation, alpha)
            return tape.sum(tape.mul(tape.mul(packed, packed), tape.constant(coef))), p

        tape = Tape()
        objective, p = build(tape, theta)
        (grad,) = tape.backward(objective, [p])
        fd = finite_diff(lambda arr: float(build(Tape(), arr)[0].value), theta)
        assert rel_gap(grad, fd) <= 1e-6, (activation, alpha)



class TestPoolCutOff:
    """``Tape.mlp`` runs its chunks on the pool from ``POOL_MACS`` multiply-adds of a value pass."""

    ROWS = 600  # five 128-row chunks
    MACS = ROWS * (4 * 16 + 16 * 16 + 16 * 1)  # through layers 4 -> 16 -> 16 -> 1
    DEFAULT = autodiff.POOL_MACS

    class RefusingPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("a node below the cut-off sent a task to the pool")

    @classmethod
    def node(cls, activation, alpha, leaf):
        """The node over fixed data with its params made by ``leaf``."""
        params, inp, coef = TestChunkedMlp.data(cls.ROWS, activation, alpha=alpha)
        tape = Tape()
        theta = getattr(tape, leaf)(params.theta)
        arch = params.arch
        return tape, tape.mlp(inp, theta, arch.layer_dims, arch.activation, arch.alpha), theta, coef

    @staticmethod
    def backward(tape, packed, theta, coef):
        """The parameter gradient of sum(coef * packed)."""
        return tape.backward(tape.sum(tape.mul(packed, tape.constant(coef))), [theta])[0]

    @pytest.mark.parametrize("leaf", ["param", "constant"])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_below_the_cut_off_no_pass_uses_the_pool(self, activation, alpha, leaf, monkeypatch):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        monkeypatch.setattr(autodiff, "_pool", self.RefusingPool())
        monkeypatch.setattr(autodiff, "POOL_MACS", self.MACS + 1)
        tape, packed, theta, coef = self.node(activation, alpha, leaf)
        if leaf == "param":
            self.backward(tape, packed, theta, coef)

    @pytest.mark.parametrize("leaf", ["param", "constant"])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_at_the_cut_off_each_pass_sends_one_task_per_chunk(self, activation, alpha, leaf,
                                                              monkeypatch, chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        pool = chunk_workers(2)
        monkeypatch.setattr(autodiff, "POOL_MACS", self.MACS)
        tape, packed, theta, coef = self.node(activation, alpha, leaf)
        assert pool.tasks == 5
        if leaf == "param":
            self.backward(tape, packed, theta, coef)
            assert pool.tasks == 10

    @pytest.mark.parametrize("leaf", ["param", "constant"])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_the_cut_off_changes_no_byte(self, activation, alpha, leaf, monkeypatch,
                                         chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        pool = chunk_workers(2)
        runs = []
        for cut_off in (0, self.DEFAULT):
            monkeypatch.setattr(autodiff, "POOL_MACS", cut_off)
            tape, packed, theta, coef = self.node(activation, alpha, leaf)
            grad = self.backward(tape, packed, theta, coef) if leaf == "param" else np.empty(0)
            runs.append((packed.value.tobytes(), grad.tobytes(), pool.tasks))
        # on the pool at 0, inline at the default
        assert runs[0][2] == runs[1][2] == (10 if leaf == "param" else 5)
        assert runs[0][:2] == runs[1][:2]


class TestValueOnlyRowsAndRepeatedRow:
    """``Tape.mlp``'s trailing value-only rows and its repeated first input row."""

    data = staticmethod(TestChunkedMlp.data)
    blocks = staticmethod(TestChunkedMlp.blocks)

    @staticmethod
    def node(tape, params, inp, grad_rows, repeat, leaf):
        theta = leaf(params.theta)
        arch = params.arch
        return (tape.mlp(inp, theta, arch.layer_dims, arch.activation, arch.alpha,
                         grad_rows, repeat), theta)

    @classmethod
    def run(cls, params, inp, coef, grad_rows, repeat):
        """Value and parameter gradient of sum(coef * packed)."""
        tape = Tape()
        packed, theta = cls.node(tape, params, inp, grad_rows, repeat, tape.param)
        (grad,) = tape.backward(tape.sum(tape.mul(packed, tape.constant(coef))), [theta])
        return packed.value, grad

    @pytest.mark.parametrize("hidden", [(16,), (16, 12), (16, 12, 8)])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_value_only_gradient_is_the_reference_with_no_gradient_adjoint(
            self, activation, alpha, hidden):
        # one chunk of value-only rows: plain backprop of the value's
        # adjoint, the reference's arithmetic with a zero gradient adjoint
        params, inp, coef = self.data(100, activation, hidden=hidden, alpha=alpha)
        value, grad = self.run(params, inp, coef, 0, 1)
        assert np.array_equal(value[:, :1], evaluate(params, inp))
        assert not value[:, 1:].any()
        g = coef.copy()
        g[:, 1:] = 0.0
        expected = mlp_param_grads(inp, params.weights, params.biases, activation,
                                   params.arch.alpha, g)
        for k, (got, want) in enumerate(zip(self.blocks(grad, params), expected)):
            assert np.array_equal(got, want), k

    @pytest.mark.parametrize("hidden", [(16,), (16, 12), (16, 12, 8)])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_mixed_rows_are_the_sum_of_their_kinds(self, activation, alpha, hidden, monkeypatch):
        # 250 gradient rows and 330 value-only rows in 128-row chunks
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        params, inp, coef = self.data(580, activation, hidden=hidden, alpha=alpha)
        value, grad = self.run(params, inp, coef, 250, 1)
        assert np.array_equal(value[:, :1], evaluate(params, inp))
        whole, _ = self.run(params, inp, coef, None, 1)
        assert np.array_equal(value[:250], whole[:250])
        assert not value[250:, 1:].any()
        g = coef.copy()
        g[250:, 1:] = 0.0
        expected = mlp_param_grads(inp, params.weights, params.biases, activation,
                                   params.arch.alpha, g)
        for k, (got, want) in enumerate(zip(self.blocks(grad, params), expected)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k

    @pytest.mark.parametrize("grad_rows", [0, 5, 9])
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_repeated_first_row_is_its_copies(self, activation, alpha, grad_rows, monkeypatch):
        # input row 0 stands for 7 rows: the node equals one over the
        # expanded input, and its VJP sums the copies' adjoints
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 3)
        params, inp, coef = self.data(9, activation, hidden=(6, 5), alpha=alpha)
        coef = np.random.default_rng(4).normal(size=(15, inp.shape[1]))
        expanded = np.concatenate([np.repeat(inp[:1], 7, axis=0), inp[1:]])
        value, grad = self.run(params, inp, coef, grad_rows, 7)
        copies, copies_grad = self.run(params, expanded, coef, grad_rows and grad_rows + 6, 1)
        assert value.shape == (15, inp.shape[1])
        assert np.array_equal(value[:7], np.repeat(value[:1], 7, axis=0))
        # other chunk edges, so up to rounding: the gradient columns'
        # products may sum a row otherwise
        assert np.max(np.abs(value - copies)) <= 1e-15 * np.max(np.abs(copies))
        assert np.max(np.abs(grad - copies_grad)) <= 1e-12 * np.max(np.abs(copies_grad))

        def objective(theta):
            tape = Tape()
            packed = tape.mlp(inp, tape.constant(theta), params.arch.layer_dims, activation,
                              params.arch.alpha, grad_rows, 7)
            return float(np.sum(coef * packed.value))

        assert rel_gap(grad, finite_diff(objective, params.theta)) <= 1e-6

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_results_do_not_depend_on_the_workers(self, activation, alpha, monkeypatch,
                                                  chunk_workers):
        # 1 + 300 gradient rows and 410 value-only rows in 128-row chunks,
        # the first row standing for 50
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        params, inp, coef = self.data(711, activation, alpha=alpha)
        coef = np.random.default_rng(5).normal(size=(760, inp.shape[1]))
        runs = []
        for workers in (1, 2):
            pool = chunk_workers(workers)
            value, grad = self.run(params, inp, coef, 301, 50)
            runs.append((value.tobytes(), grad.tobytes()))
            assert pool.tasks == pool_tasks(301, 410) > 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("grad_rows, repeat", [(-1, 1), (6, 1), (3, 0)])
    def test_bad_row_counts_are_refused(self, grad_rows, repeat):
        params, inp, _ = self.data(5, "tanh")
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            self.node(tape, params, inp, grad_rows, repeat, tape.param)
        with pytest.raises(ShapeMismatchError):
            self.node(tape, params, inp[:0], 0, 2, tape.param)


class TestChunkPlan:
    """``autodiff._chunk_plan``: each kind of row in the same number of near-equal chunks."""

    COUNTS = [(0, 0), (1, 0), (0, 70), (1001, 1327), (12251, 317), (12251, 250 + 4000),
              (1 + 49 * 64, 64 + 40), (4096, 0), (5000, 5000), (3, 2)]

    @pytest.mark.parametrize("grad_rows, value_rows", COUNTS)
    def test_chunks_cover_the_rows_in_order_one_kind_each(self, grad_rows, value_rows):
        rows = grad_rows + value_rows
        plan = autodiff._chunk_plan(grad_rows, rows)
        assert [lo for lo, _ in plan] + [rows] == [0] + [hi for _, hi in plan]
        assert all(hi > lo for lo, hi in plan)
        assert all(hi <= grad_rows or lo >= grad_rows for lo, hi in plan)

    @pytest.mark.parametrize("grad_rows, value_rows", COUNTS)
    def test_each_kind_is_cut_into_near_equal_chunks(self, grad_rows, value_rows):
        rows = grad_rows + value_rows
        n = -(-rows // autodiff.CHUNK_ROWS)
        plan = autodiff._chunk_plan(grad_rows, rows)
        for count, chunks in ((grad_rows, [c for c in plan if c[1] <= grad_rows]),
                              (value_rows, [c for c in plan if c[0] >= grad_rows])):
            sizes = [hi - lo for lo, hi in chunks]
            assert len(sizes) == min(n, count)
            if sizes:
                assert max(sizes) - min(sizes) <= 1

    def test_a_convergence_batch_runs_both_kinds_in_halves(self):
        # B=1000, N=2: x0 and node 1 need gradients, node 2 and ~300
        # jumped states their values; 2301 rows make two chunks of each kind
        assert autodiff._chunk_plan(1001, 2301) == [(0, 500), (500, 1001), (1001, 1651),
                                                    (1651, 2301)]

    def test_no_rows_give_no_chunk_and_a_zero_gradient(self):
        assert autodiff._chunk_plan(0, 0) == []
        params, inp, _ = TestChunkedMlp.data(4, "tanh")
        tape = Tape()
        packed, theta = TestChunkedMlp.node(tape, params, inp[:0], tape.param)
        assert packed.shape == (0, inp.shape[1])
        (grad,) = tape.backward(tape.sum(packed), [theta])
        assert grad.shape == params.theta.shape and not grad.any()


@pytest.mark.parametrize("lo, hi", [(0, 999), (1, 998), (3, 7), (500, 503)])
@pytest.mark.parametrize("width", [32, 64, 256])
def test_a_rows_value_does_not_depend_on_the_rows_around_it(width, lo, hi):
    # a node over rows [lo, hi) of 1000 gives those rows' values of the
    # node over all 1000, bit for bit: each value is one dot product
    params, inp, _ = TestChunkedMlp.data(1000, "tanh", hidden=(width, width))
    tape = Tape()
    whole = TestChunkedMlp.node(tape, params, inp, tape.constant)[0].value
    part = TestChunkedMlp.node(tape, params, inp[lo:hi], tape.constant)[0].value
    assert part[:, 0].tobytes() == whole[lo:hi, 0].tobytes()


def test_concurrent_blas_calls_equal_serial_ones():
    # the chunk workers call one-thread BLAS at the same time; its results
    # must not depend on what the other thread runs
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4000, 64)), rng.normal(size=(64, 64))
    c = rng.normal(size=(4000, 64))
    serial = (a @ b, a.T @ c)
    start = threading.Barrier(2)

    def products(_):
        start.wait(timeout=60)
        return a @ b, a.T @ c

    with ThreadPoolExecutor(2) as pool:
        for _ in range(5):
            for results in pool.map(products, range(2)):
                for product, reference in zip(results, serial):
                    assert np.array_equal(product, reference)


# Random compositions: a fused network node followed by a chain of
# elementwise, slice and reduction ops, whose gradient with respect to
# the parameter vector must agree with central differences away from
# activation kinks.
_ACTIVATIONS = (("tanh", 0.2), ("leaky_relu", 0.0), ("leaky_relu", 0.2))
_UNARY = ("square", "slice", "identity")
_BINARY = ("add", "sub", "mul")
_REDUCE = ("mean", "block_mean", "segment_sum")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_composition_gradients_match_fd(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 8))
    k = int(rng.integers(2, 6))
    width = int(rng.integers(1, 8))
    inp = rng.uniform(-1.0, 1.0, size=(rows, k))
    w0 = rng.normal(size=(k, width))
    b0 = rng.normal(scale=0.5, size=width)
    w1 = rng.normal(size=(width, 1))
    b1 = rng.normal(size=1)
    other = rng.uniform(0.2, 1.0, size=(rows, k))
    activation, alpha = _ACTIVATIONS[int(rng.integers(len(_ACTIVATIONS)))]
    ops = [str(rng.choice(_UNARY)), str(rng.choice(_BINARY)), str(rng.choice(_UNARY))]
    reduce = str(rng.choice(_REDUCE))
    ids = rng.integers(0, 3, size=rows)
    blocks = int(rng.choice([b for b in range(1, rows + 1) if rows % b == 0]))
    weights = rng.uniform(-1.0, 1.0, size=(7, 1))

    def build(tape, theta):
        y = tape.mlp(inp, theta, [(k, width), (width, 1)], activation, alpha)
        for op in ops:
            if op == "square":
                y = tape.mul(y, y)
            elif op == "slice":
                y = tape.slice(y, cols=(y.shape[1] - 1, y.shape[1]))
            elif op in _BINARY:
                fn = {"add": tape.add, "sub": tape.sub, "mul": tape.mul}[op]
                y = fn(y, tape.constant(other[:, : y.shape[1]]))
        col = tape.row_dot(y, tape.constant(other[:, : y.shape[1]]))
        # unequal weights per block or segment make the routing count
        if reduce == "block_mean":
            col = tape.mul(tape.block_mean(col, blocks), tape.constant(weights[:blocks]))
        elif reduce == "segment_sum":
            col = tape.mul(tape.segment_sum(col, ids, 3), tape.constant(weights[:3]))
        return tape.mean(col)

    # reject draws where a pre-activation sits close to a leaky relu kink,
    # where central differences are meaningless
    if activation != "tanh" and np.min(np.abs(inp @ w0 + b0)) < 1e-3:
        return
    assert grad_check(build, vector([w0, w1], [b0, b1]), h=1e-5) <= 1e-6
