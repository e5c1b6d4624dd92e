import os
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidenet import autodiff, nn
from pidenet.autodiff import ShapeMismatchError, Tape, TapeError

from reference import grad_check, mlp_param_grads


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
        (g,) = t.backward(t.sum(t.square(block)), [a])
        expected = np.zeros((4, 3))
        expected[1:3, 1:3] = 2.0 * block.value
        np.testing.assert_array_equal(g, expected)
        with pytest.raises(ShapeMismatchError, match="slice"):
            t.slice(a, rows=(2, 5))


class TestBackward:
    def test_sum_of_squares_gradient(self):
        t = Tape()
        x = t.param(np.array([1.0, 2.0, 3.0]))
        (g,) = t.backward(t.sum(t.square(x)), [x])
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
        w1 = rng.normal(size=(3, 5))
        b1 = rng.normal(size=5)
        w2 = rng.normal(size=(5, 1))
        x = rng.normal(size=(4, 3))

        def loss_of_w1(w):
            t = Tape()
            wv = t.param(w)
            packed = t.mlp(x, [wv, t.constant(w2)], [t.constant(b1), t.constant(np.zeros(1))], "tanh")
            return t, wv, t.mean(t.square(t.slice(packed, cols=(0, 1))))

        t, wv, obj = loss_of_w1(w1)
        (g,) = t.backward(obj, [wv])
        fd = finite_diff(lambda w: float(loss_of_w1(w)[2].value), w1)
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
        (gx, gu) = t.backward(t.sum(t.square(x)), [x, unused])
        assert gu.shape == (2, 2)
        assert np.all(gu == 0.0)

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(3)
        t = Tape()
        w0 = t.param(rng.normal(size=(4, 6)))
        w1 = t.param(rng.normal(size=(6, 1)))
        bs = [t.param(rng.normal(size=6)), t.param(rng.normal(size=1))]
        packed = t.mlp(rng.normal(size=(5, 4)), [w0, w1], bs, "tanh")
        obj = t.mean(t.square(t.block_mean(t.slice(packed, cols=(0, 1)), 5)))
        g1 = t.backward(obj, [w0, w1, *bs])
        g2 = t.backward(obj, [w0, w1, *bs])
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=4)
        inp = rng.normal(size=(3, 2))
        w0, w1 = rng.normal(size=(2, 4)), rng.normal(size=(4, 1))
        alpha, beta = 0.7, -1.3

        def parts(x_arr):
            # x enters f through a square and g as the hidden bias of a
            # tanh network, whose value and gradient columns g sums
            t = Tape()
            x = t.param(x_arr)
            f = t.sum(t.square(x))
            g = t.sum(t.mlp(inp, [t.constant(w0), t.constant(w1)], [x, t.constant(np.zeros(1))], "tanh"))
            combo = t.add(t.smul(f, alpha), t.smul(g, beta))
            gf = t.backward(f, [x])[0]
            gg = t.backward(g, [x])[0]
            gc = t.backward(combo, [x])[0]
            return gf, gg, gc

        gf, gg, gc = parts(x0)
        np.testing.assert_allclose(gc, alpha * gf + beta * gg, atol=1e-12)


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
        disc = grad_check(lambda t, x: t.sum(t.square(x)), np.array(3.0), h=1e-5)
        assert disc <= 1e-9

    def test_leaky_relu_negative_branch(self):
        # one leaky-relu unit at input -2: d/dw of alpha * w * x is alpha * x
        inp = np.array([[0.0, -2.0]])

        def f(t, w):
            ones = [t.constant(np.ones((1, 1)))]
            zeros = [t.constant(np.zeros(1)), t.constant(np.zeros(1))]
            return t.sum(t.slice(t.mlp(inp, [w, *ones], zeros, "leaky_relu", 0.01), cols=(0, 1)))

        t = Tape()
        w = t.param(np.array([[0.0], [1.0]]))
        (g,) = t.backward(f(t, w), [w])
        np.testing.assert_array_equal(g, [[0.0], [-0.02]])
        assert grad_check(f, np.array([[0.0], [1.0]])) <= 1e-9


class TestFusedMlp:
    """``Tape.mlp``: packed [u | du/dx] and its hand-written VJP."""

    @staticmethod
    def layers(n_hidden, d=2, width=5, seed=0):
        rng = np.random.default_rng(seed)
        dims = [1 + d] + [width] * n_hidden + [1]
        ws = [rng.normal(scale=0.8, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
        bs = [rng.normal(scale=0.3, size=b) for b in dims[1:]]
        return ws + bs

    @pytest.mark.parametrize("n_hidden", [1, 3])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_parameter_gradients_match_finite_differences(self, activation, n_hidden):
        arrays = self.layers(n_hidden)
        rng = np.random.default_rng(1)
        inp = rng.uniform(-1.0, 1.0, size=(6, 3))
        coef = rng.normal(size=(6, 3))

        def build(tape, arrs):
            params = [tape.param(a) for a in arrs]
            packed = tape.mlp(inp, params[: n_hidden + 1], params[n_hidden + 1:], activation, 0.1)
            # squaring makes the adjoint depend on both value and gradient
            return tape.sum(tape.mul(tape.square(packed), tape.constant(coef))), params

        tape = Tape()
        objective, params = build(tape, arrays)
        grads = tape.backward(objective, params)
        for k, base in enumerate(arrays):
            fd = finite_diff(
                lambda arr, k=k: float(
                    build(Tape(), [arr if j == k else a for j, a in enumerate(arrays)])[0].value
                ),
                base,
            )
            assert rel_gap(grads[k], fd) <= 1e-6, (activation, n_hidden, k)

    @pytest.mark.parametrize("activation, value, slope", [
        ("relu", [0.0, 0.0, 1.5], [0.0, 0.0, 1.0]),
        ("leaky_relu", [-0.02, 0.0, 1.5], [0.01, 0.01, 1.0]),
        ("tanh", np.tanh([-2.0, 0.0, 1.5]), 1.0 - np.tanh([-2.0, 0.0, 1.5]) ** 2),
    ])
    def test_one_unit_network_gives_activation_and_slope(self, activation, value, slope):
        # u = act(x) and du/dx = act'(x); the kink at 0 takes the left slope
        t = Tape()
        ws = [t.constant(np.array([[0.0], [1.0]])), t.constant(np.ones((1, 1)))]
        bs = [t.constant(np.zeros(1)), t.constant(np.zeros(1))]
        inp = np.array([[0.0, -2.0], [0.0, 0.0], [0.0, 1.5]])
        packed = t.mlp(inp, ws, bs, activation, 0.01).value
        np.testing.assert_allclose(packed[:, 0], value, rtol=1e-15)
        np.testing.assert_allclose(packed[:, 1], slope, rtol=1e-15)

    def test_gradient_columns_match_input_finite_differences(self):
        arrays = self.layers(2)
        x0 = np.array([0.3, -0.7, 0.5])

        def value_at(x):
            t = Tape()
            params = [t.constant(a) for a in arrays]
            return float(t.mlp(x[None, :], params[:3], params[3:], "tanh").value[0, 0])

        t = Tape()
        params = [t.constant(a) for a in arrays]
        packed = t.mlp(x0[None, :], params[:3], params[3:], "tanh").value
        assert packed.shape == (1, 3)
        assert rel_gap(packed[0, 1:], finite_diff(value_at, x0)[1:]) <= 1e-8

    def test_layers_that_do_not_chain_are_rejected(self):
        t = Tape()
        ws = [t.param(np.ones((3, 4))), t.param(np.ones((5, 1)))]
        bs = [t.param(np.zeros(4)), t.param(np.zeros(1))]
        with pytest.raises(ShapeMismatchError, match="mlp"):
            t.mlp(np.ones((2, 3)), ws, bs, "tanh")


class TestChunkedMlp:
    """``Tape.mlp`` split into row chunks and run on the worker pool."""

    CHUNK = 128  # a multiple of ROW_ALIGN; 100, 250 and 600 rows give 1, 2 and 5 chunks
    ROWS = (100, 250, 600)

    @staticmethod
    def data(rows, activation, d=3, hidden=(16, 16)):
        """Perturbed params, input and adjoint coefficients, fixed by the row count."""
        rng = np.random.default_rng(rows)
        arch = nn.MlpArchitecture(input_dim=1 + d, hidden=hidden, activation=activation, alpha=0.1)
        params = nn.init(arch, seed=3)
        params = params.replace_flat([a + rng.normal(scale=0.1, size=a.shape)
                                      for a in params.flat_list()])
        inp = rng.uniform(-1.0, 1.0, size=(rows, 1 + d))
        coef = rng.normal(size=(rows, 1 + d))
        return params, inp, coef

    @staticmethod
    def node(tape, params, inp, leaf):
        """The ``mlp`` node of ``params`` over ``inp``, its weights and biases made by ``leaf``."""
        ws, bs = [leaf(w) for w in params.weights], [leaf(b) for b in params.biases]
        return tape.mlp(inp, ws, bs, params.arch.activation, params.arch.alpha), ws + bs

    @classmethod
    def run(cls, rows, activation, d=3, hidden=(16, 16)):
        """Value and parameter gradients of sum(c * packed**2) at fixed data."""
        params, inp, coef = cls.data(rows, activation, d, hidden)
        tape = Tape()
        packed, leaves = cls.node(tape, params, inp, tape.param)
        grads = tape.backward(tape.sum(tape.mul(tape.square(packed), tape.constant(coef))), leaves)
        return packed.value, grads, params, inp

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_results_do_not_depend_on_the_workers(self, activation, rows, monkeypatch,
                                                  chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the workers interleave as finely as they can
        try:
            for workers in (1, 2, 3):
                chunk_workers(workers)
                runs.append(self.run(rows, activation)[:2])
        finally:
            sys.setswitchinterval(interval)
        for value, grads in runs[1:]:
            assert np.array_equal(value, runs[0][0])
            for g, g0 in zip(grads, runs[0][1]):
                assert np.array_equal(g, g0)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_value_column_is_the_plain_forward_pass(self, activation, rows, monkeypatch):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        value, _, params, inp = self.run(rows, activation)
        assert np.array_equal(value[:, :1], nn.evaluate(params, inp[:, 0], inp[:, 1:]))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_chunked_gradients_match_one_chunk(self, activation, rows, monkeypatch):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        value, grads, _, _ = self.run(rows, activation)
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 10**9)
        whole_value, whole_grads, _, _ = self.run(rows, activation)
        assert np.array_equal(value, whole_value)
        for g, g0 in zip(grads, whole_grads):
            assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_gradients_match_the_two_chain_reference(self, activation, rows, monkeypatch,
                                                     chunk_workers):
        # relu and leaky relu take one product per weight, with the value's
        # adjoint read from the gradient chain, so they agree up to rounding;
        # tanh keeps the reference's products and order, so it agrees bit for bit
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        params, inp, coef = self.data(rows, activation, hidden=(16, 12, 8))
        expected = None
        for lo in range(0, rows, self.CHUNK):  # the node's chunk edges at these row counts
            part = mlp_param_grads(inp[lo:lo + self.CHUNK], params.weights, params.biases,
                                   activation, params.arch.alpha, coef[lo:lo + self.CHUNK])
            expected = part if expected is None else [e + p for e, p in zip(expected, part)]
        for workers in (1, 2, 3):
            chunk_workers(workers)
            tape = Tape()
            packed, leaves = self.node(tape, params, inp, tape.param)
            grads = tape.backward(tape.sum(tape.mul(packed, tape.constant(coef))), leaves)
            for k, (g, e) in enumerate(zip(grads, expected)):
                assert g.shape == e.shape, (workers, k)
                if activation == "tanh":
                    assert np.array_equal(g, e), (workers, k)
                else:
                    assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e)), (workers, k)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_one_usable_core_runs_the_chunks_inline(self, activation, monkeypatch,
                                                    chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        chunk_workers(2)
        value, grads, _, _ = self.run(600, activation)  # 5 chunks
        monkeypatch.setattr(autodiff, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        inline_value, inline_grads, _, _ = self.run(600, activation)
        assert autodiff._pool is None
        assert np.array_equal(inline_value, value)
        for g, g0 in zip(inline_grads, grads):
            assert np.array_equal(g, g0)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_constant_weights_give_a_forward_only_node(self, activation, rows, monkeypatch,
                                                       chunk_workers):
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        params, inp, _ = self.data(rows, activation)
        for workers in (1, 2, 3):
            chunk_workers(workers)
            trained = Tape()
            differentiated = self.node(trained, params, inp, trained.param)[0]
            tape = Tape()
            forward_only = self.node(tape, params, inp, tape.constant)[0]
            assert trained._nodes[differentiated.id].vjp is not None
            assert tape._nodes[forward_only.id].vjp is None
            assert np.array_equal(forward_only.value, differentiated.value)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forward_only_node_keeps_one_chunk_of_state_per_worker(self, workers, monkeypatch,
                                                                   chunk_workers):
        # 40 chunks of 128 rows through 3x64 tanh: the differentiated node
        # keeps every chunk's hidden outputs, slopes and gradient chain
        # (27.8 MiB), the forward-only one at most a chunk's slopes and one
        # layer per worker: measured 0.56, 0.68-0.87 and 0.68-1.19 MiB at 1,
        # 2 and 3 workers; 0.74, 1.18-1.25 and 1.37-1.75 MiB with every
        # layer's output kept; 0.94, 1.50-1.62 and 1.69-2.19 MiB with the
        # gradient chain kept as well
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", self.CHUNK)
        chunk_workers(workers)
        params, inp, _ = self.data(40 * self.CHUNK, "tanh", hidden=(64, 64, 64))

        def peak(trainable):
            tape = Tape()
            tracemalloc.start()
            try:
                self.node(tape, params, inp, tape.param if trainable else tape.constant)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        trainable, constant = peak(True), peak(False)
        assert constant < trainable * (workers + 1) / 80, (constant, trainable)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_chunked_gradients_match_finite_differences(self, activation, monkeypatch):
        # 13 rows in chunks of 3, 3, 3, 3 and 1
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 3)
        monkeypatch.setattr(autodiff, "ROW_ALIGN", 1)
        arrays = TestFusedMlp.layers(2, width=4, seed=5)
        rng = np.random.default_rng(6)
        inp = rng.uniform(-1.0, 1.0, size=(13, 3))
        coef = rng.normal(size=(13, 3))

        def build(tape, arrs):
            params = [tape.param(a) for a in arrs]
            packed = tape.mlp(inp, params[:3], params[3:], activation, 0.1)
            return tape.sum(tape.mul(tape.square(packed), tape.constant(coef))), params

        tape = Tape()
        objective, params = build(tape, arrays)
        grads = tape.backward(objective, params)
        for k, base in enumerate(arrays):
            fd = finite_diff(
                lambda arr, k=k: float(
                    build(Tape(), [arr if j == k else a for j, a in enumerate(arrays)])[0].value
                ),
                base,
            )
            assert rel_gap(grads[k], fd) <= 1e-6, (activation, k)


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
# the first-layer weights must agree with central differences away from
# activation kinks.
_ACTIVATIONS = ("tanh", "relu", "leaky_relu")
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
    activation = str(rng.choice(_ACTIVATIONS))
    ops = [str(rng.choice(_UNARY)), str(rng.choice(_BINARY)), str(rng.choice(_UNARY))]
    reduce = str(rng.choice(_REDUCE))
    ids = rng.integers(0, 3, size=rows)
    blocks = int(rng.choice([b for b in range(1, rows + 1) if rows % b == 0]))
    weights = rng.uniform(-1.0, 1.0, size=(7, 1))

    def build(tape, w):
        y = tape.mlp(inp, [w, tape.constant(w1)], [tape.constant(b0), tape.constant(b1)],
                     activation, 0.2)
        for op in ops:
            if op == "square":
                y = tape.square(y)
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

    # reject draws where a pre-activation sits close to a relu kink,
    # where central differences are meaningless
    if activation != "tanh" and np.min(np.abs(inp @ w0 + b0)) < 1e-3:
        return
    assert grad_check(build, w0, h=1e-5) <= 1e-6
