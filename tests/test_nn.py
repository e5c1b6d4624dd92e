import numpy as np
import pytest

from pidenet import nn
from pidenet.autodiff import ShapeMismatchError, Tape

from reference import evaluate, network_input, value_and_gradient
from test_autodiff import ACTIVATIONS, finite_diff, rel_gap


def small_arch(d=1, hidden=(8, 8), activation="tanh", alpha=0.01):
    return nn.MlpArchitecture(input_dim=1 + d, hidden=hidden, activation=activation, alpha=alpha)


class TestInit:
    def test_deterministic(self):
        arch = small_arch()
        p1, p2 = nn.init(arch, seed=7), nn.init(arch, seed=7)
        assert np.array_equal(p1.theta, p2.theta)

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
        assert params.theta.shape == ((3 + 1) * 5 + (5 + 1) * 7 + (7 + 1) * 1,)

    def test_weights_and_biases_are_views_of_the_vector(self):
        # laid out w0, b0, w1, b1, ..., each C-ordered
        params = nn.MlpParams(nn.MlpArchitecture(2, (3,)), np.arange(13.0))
        np.testing.assert_array_equal(params.weights[0], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(params.biases[0], [6, 7, 8])
        np.testing.assert_array_equal(params.weights[1], [[9], [10], [11]])
        np.testing.assert_array_equal(params.biases[1], [12])
        params.weights[1][2, 0] = -1.0
        assert params.theta[11] == -1.0

    @pytest.mark.parametrize("theta", [np.zeros(12), np.zeros(14), np.zeros((1, 13))],
                             ids=["one short", "one long", "2-D"])
    def test_vector_that_does_not_fit_the_architecture_is_rejected(self, theta):
        # 2 inputs, 3 hidden units, 1 output: 2 * 3 + 3 + 3 * 1 + 1 = 13 parameters
        with pytest.raises(ShapeMismatchError, match="does not fit"):
            nn.MlpParams(nn.MlpArchitecture(2, (3,)), theta)

    def test_invalid_architectures(self):
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=())
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=(0,))
        with pytest.raises(ValueError):
            nn.MlpArchitecture(input_dim=2, hidden=(4,), activation="swish")
        # relu is leaky relu at alpha 0, not an activation of its own
        with pytest.raises(ValueError, match="the activations are tanh, leaky_relu"):
            nn.MlpArchitecture(input_dim=2, hidden=(4,), activation="relu")


class TestForward:
    def test_constant_network(self):
        params = nn.init(small_arch(d=2), seed=1)
        zeroed = nn.MlpParams(params.arch, np.zeros_like(params.theta))
        zeroed.biases[-1][:] = 3.25
        x = np.random.default_rng(0).normal(size=(5, 2))
        out = evaluate(zeroed, network_input(0.7, x))
        assert np.all(out == 3.25)

    def test_relu_identity_trick_gives_affine_map(self):
        # hidden identity + relu acts as a pass-through on positive inputs,
        # so the network reduces to w . (t, x)
        arch = nn.MlpArchitecture(input_dim=2, hidden=(2,), activation="leaky_relu", alpha=0.0)
        params = nn.MlpParams(arch, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
        out = evaluate(params, network_input(0.5, np.array([[0.25]])))
        assert float(out[0, 0]) == 0.75

    def test_batch_of_identical_inputs(self):
        # blocked BLAS kernels may round identical rows differently by
        # one ulp, so equality is asserted up to that
        params = nn.init(small_arch(d=3), seed=5)
        x = np.tile([[0.3, -0.2, 1.1]], (6, 1))
        out = evaluate(params, network_input(0.4, x))
        np.testing.assert_allclose(out, np.full_like(out, out[0, 0]), atol=1e-14, rtol=0)

    def test_dimension_mismatch(self):
        params = nn.init(small_arch(d=2), seed=0)
        for forward in (evaluate, lambda p, inp: nn.TapeMlp(Tape(), p).value_and_grad(inp)):
            with pytest.raises(ShapeMismatchError):
                forward(params, network_input(0.0, np.ones((4, 3))))

class TestInputGradient:
    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_fused_value_column_bit_identical_to_evaluate(self, activation, alpha):
        params = nn.init(small_arch(d=3, hidden=(7, 5, 6), activation=activation, alpha=alpha),
                         seed=13)
        params.biases[0][:] = np.linspace(-0.5, 0.5, 7)
        x = np.random.default_rng(6).normal(size=(9, 3))
        tape = Tape()
        value, _ = value_and_gradient(nn.TapeMlp(tape, params), network_input(0.4, x))
        assert np.array_equal(value.value, evaluate(params, network_input(0.4, x)))

    def test_value_and_grad_returns_the_network_node(self):
        # [u | grad_x u] as one node: a loss slices its blocks from it
        params = nn.init(small_arch(d=3), seed=2)
        tape = Tape()
        node = nn.TapeMlp(tape, params).value_and_grad(network_input(0.4, np.ones((5, 3))),
                                                       grad_rows=2, repeat=3)
        assert tape._nodes[node.id].op == "mlp" and node.shape == (7, 4)
        assert np.all(node.value[4:, 1:] == 0.0)  # the value-only rows' gradient columns

    def test_linear_network_gradient_is_weight_row(self):
        arch = nn.MlpArchitecture(input_dim=3, hidden=(3,), activation="leaky_relu", alpha=0.0)
        w_out = np.array([[2.0], [-1.5], [0.5]])
        params = nn.MlpParams(arch, np.concatenate([np.eye(3).ravel(), np.zeros(3),
                                                    w_out.ravel(), np.zeros(1)]))
        x = np.array([[0.5, 1.5], [2.0, 0.25]])  # positive inputs keep relu linear
        tape = Tape()
        _, grad = value_and_gradient(nn.TapeMlp(tape, params), network_input(0.9, x))
        np.testing.assert_array_equal(grad.value, np.tile(w_out[1:].T, (2, 1)))

    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu"])
    def test_gradient_matches_finite_differences(self, activation):
        params = nn.init(small_arch(d=4, activation=activation), seed=21)
        x0 = np.random.default_rng(4).uniform(0.2, 1.0, size=4)

        def value_of_x(x):
            return float(evaluate(params, network_input(0.3, x[None, :]))[0, 0])

        tape = Tape()
        inp = network_input(0.3, x0[None, :])
        _, grad = value_and_gradient(nn.TapeMlp(tape, params), inp)
        fd = finite_diff(value_of_x, x0)
        assert rel_gap(grad.value[0], fd) <= 1e-6

    def test_tanh_gradient_even_in_input_sign(self):
        arch = small_arch(d=2, hidden=(6,))
        params = nn.init(arch, seed=33)
        for b in params.biases:
            b[:] = 0.0
        x = np.array([[0.7, -0.4]])
        t1, t2 = Tape(), Tape()
        _, g_pos = value_and_gradient(nn.TapeMlp(t1, params), network_input(0.5, x))
        _, g_neg = value_and_gradient(nn.TapeMlp(t2, params), network_input(-0.5, -x))
        np.testing.assert_allclose(g_pos.value, g_neg.value, atol=1e-15)

    def test_gradient_of_input_gradient_wrt_params(self):
        # the nested path the training loss depends on: differentiate
        # sum(grad_x) with respect to every weight and bias
        arch = small_arch(d=2, hidden=(5, 4), activation="tanh")
        params = nn.init(arch, seed=17)
        x = np.random.default_rng(8).normal(size=(3, 2))

        def objective(p: nn.MlpParams) -> float:
            tape = Tape()
            _, grad = value_and_gradient(nn.TapeMlp(tape, p), network_input(0.25, x))
            return float(grad.value.sum())

        tape = Tape()
        net = nn.TapeMlp(tape, params)
        _, grad = value_and_gradient(net, network_input(0.25, x))
        (analytic,) = tape.backward([grad], [1.0], [net.param_var])

        fd = finite_diff(lambda theta: objective(nn.MlpParams(arch, theta)), params.theta)
        assert rel_gap(analytic, fd) <= 1e-5
