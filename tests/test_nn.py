import numpy as np
import pytest

from pidenet import nn
from pidenet.autodiff import ShapeMismatchError, Tape

from reference import network_input
from test_autodiff import finite_diff, rel_gap


def small_arch(d=1, hidden=(8, 8), activation="tanh"):
    return nn.MlpArchitecture(input_dim=1 + d, hidden=hidden, activation=activation)


class TestInit:
    def test_deterministic(self):
        arch = small_arch()
        p1, p2 = nn.init(arch, seed=7), nn.init(arch, seed=7)
        for a, b in zip(p1.flat_list(), p2.flat_list()):
            assert np.array_equal(a, b)

    def test_biases_zero(self):
        params = nn.init(small_arch(), seed=0)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_glorot_sample_moments(self):
        # one wide layer gives 1e5 weight draws; uniform(-a, a) has
        # std a/sqrt(3), so the sample mean should sit within 3 sigma of 0
        arch = nn.MlpArchitecture(input_dim=100, hidden=(1000,), activation="tanh")
        params = nn.init(arch, seed=123)
        w = params.weights[0].ravel()
        a = np.sqrt(6.0 / (100 + 1000))
        assert abs(w.mean()) <= 3.0 * (a / np.sqrt(3)) / np.sqrt(w.size)
        assert w.min() >= -a and w.max() <= a

    def test_param_count(self):
        params = nn.init(nn.MlpArchitecture(3, (5, 7)), seed=0)
        assert sum(a.size for a in params.flat_list()) == (3 + 1) * 5 + (5 + 1) * 7 + (7 + 1) * 1

    def test_invalid_architectures(self):
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=())
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=(0,))
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=(4,), activation="swish")


class TestForward:
    def test_constant_network(self):
        params = nn.init(small_arch(d=2), seed=1)
        zeroed = nn.MlpParams(
            params.arch,
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        zeroed.biases[-1][:] = 3.25
        x = np.random.default_rng(0).normal(size=(5, 2))
        out = nn.evaluate(zeroed, network_input(0.7, x))
        assert np.all(out == 3.25)

    def test_relu_identity_trick_gives_affine_map(self):
        # hidden identity + relu acts as a pass-through on positive inputs,
        # so the network reduces to w . (t, x)
        arch = nn.MlpArchitecture(input_dim=2, hidden=(2,), activation="relu")
        params = nn.MlpParams(
            arch,
            [np.eye(2), np.array([[1.0], [1.0]])],
            [np.zeros(2), np.zeros(1)],
        )
        out = nn.evaluate(params, network_input(0.5, np.array([[0.25]])))
        assert float(out[0, 0]) == 0.75

    def test_batch_of_identical_inputs(self):
        # blocked BLAS kernels may round identical rows differently by
        # one ulp, so equality is asserted up to that
        params = nn.init(small_arch(d=3), seed=5)
        x = np.tile([[0.3, -0.2, 1.1]], (6, 1))
        out = nn.evaluate(params, network_input(0.4, x))
        np.testing.assert_allclose(out, np.full_like(out, out[0, 0]), atol=1e-14, rtol=0)

    def test_dimension_mismatch(self):
        params = nn.init(small_arch(d=2), seed=0)
        for forward in (nn.evaluate, lambda p, inp: nn.TapeMlp(Tape(), p).value_and_grad(inp)):
            with pytest.raises(ShapeMismatchError):
                forward(params, network_input(0.0, np.ones((4, 3))))

class TestInputGradient:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "leaky_relu"])
    def test_fused_value_column_bit_identical_to_evaluate(self, activation):
        params = nn.init(small_arch(d=3, hidden=(7, 5, 6), activation=activation), seed=13)
        params.biases[0][:] = np.linspace(-0.5, 0.5, 7)
        x = np.random.default_rng(6).normal(size=(9, 3))
        tape = Tape()
        value, _ = nn.TapeMlp(tape, params).value_and_grad(network_input(0.4, x))
        assert np.array_equal(value.value, nn.evaluate(params, network_input(0.4, x)))

    def test_linear_network_gradient_is_weight_row(self):
        arch = nn.MlpArchitecture(input_dim=3, hidden=(3,), activation="relu")
        w_out = np.array([[2.0], [-1.5], [0.5]])
        params = nn.MlpParams(arch, [np.eye(3), w_out], [np.zeros(3), np.zeros(1)])
        x = np.array([[0.5, 1.5], [2.0, 0.25]])  # positive inputs keep relu linear
        tape = Tape()
        _, grad = nn.TapeMlp(tape, params).value_and_grad(network_input(0.9, x))
        np.testing.assert_array_equal(grad.value, np.tile(w_out[1:].T, (2, 1)))

    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu"])
    def test_gradient_matches_finite_differences(self, activation):
        params = nn.init(small_arch(d=4, activation=activation), seed=21)
        x0 = np.random.default_rng(4).uniform(0.2, 1.0, size=4)

        def value_of_x(x):
            return float(nn.evaluate(params, network_input(0.3, x[None, :]))[0, 0])

        tape = Tape()
        _, grad = nn.TapeMlp(tape, params).value_and_grad(network_input(0.3, x0[None, :]))
        fd = finite_diff(value_of_x, x0)
        assert rel_gap(grad.value[0], fd) <= 1e-6

    def test_tanh_gradient_even_in_input_sign(self):
        arch = small_arch(d=2, hidden=(6,))
        params = nn.init(arch, seed=33)
        for b in params.biases:
            b[:] = 0.0
        x = np.array([[0.7, -0.4]])
        t1, t2 = Tape(), Tape()
        _, g_pos = nn.TapeMlp(t1, params).value_and_grad(network_input(0.5, x))
        _, g_neg = nn.TapeMlp(t2, params).value_and_grad(network_input(-0.5, -x))
        np.testing.assert_allclose(g_pos.value, g_neg.value, atol=1e-15)

    def test_gradient_of_input_gradient_wrt_params(self):
        # the nested path the training loss depends on: differentiate
        # sum(grad_x) with respect to every weight and bias
        arch = small_arch(d=2, hidden=(5, 4), activation="tanh")
        params = nn.init(arch, seed=17)
        x = np.random.default_rng(8).normal(size=(3, 2))

        def objective(p: nn.MlpParams) -> float:
            tape = Tape()
            _, grad = nn.TapeMlp(tape, p).value_and_grad(network_input(0.25, x))
            return float(tape.sum(grad).value)

        tape = Tape()
        net = nn.TapeMlp(tape, params)
        _, grad = net.value_and_grad(network_input(0.25, x))
        grads = tape.backward(tape.sum(grad), net.param_vars)

        flat = params.flat_list()
        for k, base in enumerate(flat):
            fd = finite_diff(
                lambda arr, k=k: objective(
                    params.replace_flat([arr if j == k else a for j, a in enumerate(flat)])
                ),
                base,
            )
            assert rel_gap(grads[k], fd) <= 1e-5
