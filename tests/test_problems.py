import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from pidenet import problems


ALL_PROBLEMS = [
    problems.pure_jump_1d(),
    problems.pide_1d(),
    problems.highdim_pide(dim=5),
    problems.bsb_jumps(dim=5),
]


def mark_density(mean, std):
    return lambda z: norm.pdf(z, loc=mean, scale=std)


class TestCompensators:
    def test_pure_jump_closed_form_matches_quadrature(self):
        prob = problems.pure_jump_1d(lam=0.3, mark_mean=0.4, mark_std=0.25)
        phi = mark_density(0.4, 0.25)
        quad, _ = integrate.quad(lambda z: (np.exp(z) - 1.0) * phi(z), -10, 10)
        x = np.array([[1.0], [2.5], [-0.7]])
        expected = 0.3 * quad * x
        np.testing.assert_allclose(prob.compensator(0.0, x), expected, rtol=1e-10)
        assert prob.compensator(0.0, np.array([[1.0]]))[0, 0] == pytest.approx(0.161749, abs=1e-5)

    def test_vector_mark_closed_form_matches_quadrature(self):
        for factory, mean, std in ((problems.highdim_pide, 0.01, 0.1),
                                   (problems.bsb_jumps, 0.02, 0.01)):
            prob = factory(dim=4, mark_mean=mean, mark_std=std)
            phi = mark_density(mean, std)
            # coordinates are i.i.d., so each component integral is the
            # same one-dimensional mean integral
            quad, _ = integrate.quad(lambda z: z * phi(z), mean - 12 * std, mean + 12 * std)
            x = np.random.default_rng(0).normal(size=(3, 4))
            np.testing.assert_allclose(
                np.broadcast_to(prob.compensator(0.2, x), x.shape),
                prob.intensity * quad * np.ones_like(x),
                rtol=1e-3,
            )

    def test_sampler_and_compensator_describe_same_measure(self):
        # Monte-Carlo integration of the jump size against sampled marks
        # must land on the closed form within Monte-Carlo error (1e6 samples).
        rng = np.random.default_rng(42)
        for prob in ALL_PROBLEMS:
            n = 10**6
            marks = prob.sample_marks(rng.uniform(size=(n, prob.mark_dim)))
            x_row = prob.x0[None, :]
            beta = prob.jump_size(0.0, np.repeat(x_row, 1, axis=0), marks)
            mc = prob.intensity * beta.mean(axis=0)
            closed = prob.compensator(0.0, x_row)[0]
            sigma = prob.intensity * beta.std(axis=0) / np.sqrt(n)
            assert np.all(np.abs(mc - closed) <= 5.0 * sigma + 1e-12), prob.name

    def test_squared_mark_moment_identity(self):
        # (1/d) E|e|^2 equals mean^2 + std^2 for i.i.d. coordinates; checked
        # by Monte-Carlo with a 4-sigma budget
        mean, std = 0.01, 0.1
        prob = problems.highdim_pide(dim=6, mark_mean=mean, mark_std=std)
        rng = np.random.default_rng(7)
        marks = prob.sample_marks(rng.uniform(size=(10**6, 6)))
        per_coord = marks.ravel() ** 2
        target = mean**2 + std**2
        sigma = per_coord.std() / np.sqrt(per_coord.size)
        assert abs(per_coord.mean() - target) <= 4.0 * sigma


class TestTerminalAndExact:
    @pytest.mark.parametrize("prob", ALL_PROBLEMS, ids=lambda p: p.name)
    def test_terminal_matches_exact_at_final_time(self, prob):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, prob.dim))
        np.testing.assert_allclose(
            prob.terminal(x), prob.exact(prob.total_time, x), atol=1e-12, rtol=0
        )

    def test_identity_solutions(self):
        prob = problems.pure_jump_1d()
        x = np.array([[2.0]])
        assert prob.exact(0.5, x)[0, 0] == 2.0
        assert problems.pide_1d().exact(0.123, x)[0, 0] == 2.0
        assert prob.terminal(np.array([[3.0]]))[0, 0] == 3.0

    def test_highdim_exact_at_ones(self):
        prob = problems.highdim_pide(dim=100)
        ones = np.ones((1, 100))
        assert prob.exact(prob.total_time, ones)[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_bsb_exact_initial_value(self):
        prob = problems.bsb_jumps(dim=100, r=0.05, tau=0.4)
        ones = np.ones((1, 100))
        assert prob.exact(0.0, ones)[0, 0] == pytest.approx(np.exp(0.21), rel=1e-12)
        assert prob.exact(0.0, ones)[0, 0] == pytest.approx(1.23368, abs=1e-5)

    def test_exact_gradients_match_finite_differences(self):
        for prob in ALL_PROBLEMS:
            x0 = np.random.default_rng(3).uniform(0.5, 1.5, size=prob.dim)
            t = 0.3
            grad = prob.exact_grad(t, x0[None, :])[0]
            h = 1e-6
            for j in range(prob.dim):
                e = np.zeros(prob.dim)
                e[j] = h
                fd = (
                    prob.exact(t, (x0 + e)[None, :])[0, 0]
                    - prob.exact(t, (x0 - e)[None, :])[0, 0]
                ) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))


class TestCoefficients:
    def test_pide_drift_is_linear(self):
        prob = problems.pide_1d(eps=0.25)
        np.testing.assert_array_equal(prob.drift(0.0, np.array([[2.0]])), [[0.5]])

    def test_bsb_diffusion_is_state_diagonal(self):
        prob = problems.bsb_jumps(dim=2, tau=0.4)
        sig = prob.diffusion(0.0, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(sig, 0.4 * np.array([[1.0, 2.0]]), atol=1e-15)

    def test_vector_compensator_value(self):
        prob = problems.highdim_pide(dim=3, lam=0.3, mark_mean=0.01)
        x = np.ones((2, 3))
        np.testing.assert_allclose(
            np.broadcast_to(prob.compensator(0.0, x), x.shape), np.full((2, 3), 0.003), rtol=1e-15
        )

    def test_driver_arrays_and_validation(self):
        prob = problems.pide_1d(eps=0.25)
        f = prob.driver(0.0, np.array([[1.0]]), None, None, None)
        assert f[0, 0] == -0.25
        with pytest.raises(ValueError):
            problems.by_name("no_such_problem")
        with pytest.raises(ValueError):
            problems.pure_jump_1d(mark_std=0.0)

    def test_lookup_by_name(self):
        prob = problems.by_name("bsb_jumps", dim=2, r=0.01)
        assert prob.name == "bsb_jumps"
        x = np.array([[2.0, -3.0]])
        np.testing.assert_array_equal(prob.drift(0.0, x), 0.01 * x)  # the drift r * x
