import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidenet import optim


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = optim.AdamState.for_params(params)
        out = optim.adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1)
        for p, q in zip(params, out):
            assert np.array_equal(p, q)

    def test_first_step_hand_value(self):
        # scalar theta=0, g=1: m_hat = v_hat = 1, so the update is
        # -lr / (1 + eps)
        state = optim.AdamState.for_params([np.zeros(1)])
        (theta,) = optim.adam_step([np.zeros(1)], [np.ones(1)], state, lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-16)

    def test_quadratic_convergence(self):
        theta = np.array([5.0])
        state = optim.AdamState.for_params([theta])
        for _ in range(500):
            (theta,) = optim.adam_step([theta], [2.0 * theta], state, lr=0.1)
        assert abs(theta[0]) <= 1e-3

    def test_nonfinite_gradient_aborts(self):
        state = optim.AdamState.for_params([np.zeros(2)])
        with pytest.raises(optim.NonFiniteGradientError):
            optim.adam_step([np.zeros(2)], [np.array([1.0, np.nan])], state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        state = optim.AdamState.for_params([np.zeros(2)])
        with pytest.raises(ValueError):
            optim.adam_step([np.zeros(2)], [np.zeros(3)], state, lr=0.1)

    @pytest.mark.parametrize("settings", [{"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 2.0},
                                          {"beta2": float("nan")}, {"eps": 0.0}, {"eps": -1.0}])
    def test_settings_outside_their_range_are_rejected(self, settings):
        with pytest.raises(ValueError):
            optim.AdamState.for_params([np.zeros(1)], **settings)

    def test_step_counter_increases(self):
        state = optim.AdamState.for_params([np.zeros(1)])
        for k in range(1, 4):
            optim.adam_step([np.zeros(1)], [np.ones(1)], state, lr=0.1)
            assert state.step == k

    def test_update_is_elementwise(self):
        # permuting the parameter layout and permuting back gives
        # bit-identical results
        rng = np.random.default_rng(0)
        p = rng.normal(size=8)
        g = rng.normal(size=8)
        perm = rng.permutation(8)
        inv = np.argsort(perm)

        s1 = optim.AdamState.for_params([p])
        (direct,) = optim.adam_step([p], [g], s1, lr=0.05)

        s2 = optim.AdamState.for_params([p[perm]])
        (permuted,) = optim.adam_step([p[perm]], [g[perm]], s2, lr=0.05)
        assert np.array_equal(permuted[inv], direct)


class TestSchedules:
    def test_cosine_endpoints_and_midpoint(self):
        sched = optim.Cosine(1e-2, 1e-5, 2000)
        assert optim.lr_at(sched, 0) == pytest.approx(1e-2, rel=1e-15)
        assert optim.lr_at(sched, 2000) == pytest.approx(1e-5, rel=1e-15)
        assert optim.lr_at(sched, 1000) == pytest.approx((1e-2 + 1e-5) / 2, rel=1e-12)

    def test_cosine_clamps_past_total(self):
        sched = optim.Cosine(1e-2, 1e-5, 100)
        assert optim.lr_at(sched, 5000) == pytest.approx(1e-5, rel=1e-15)

    def test_piecewise_segments(self):
        sched = optim.Piecewise(((0, 1e-3), (4000, 5e-4)))
        assert optim.lr_at(sched, 0) == 1e-3
        assert optim.lr_at(sched, 3999) == 1e-3
        assert optim.lr_at(sched, 4000) == 5e-4
        assert optim.lr_at(sched, 10**6) == 5e-4

    def test_constant(self):
        assert optim.lr_at(optim.Piecewise(((0, 0.01),)), 12345) == 0.01

    def test_constant_is_one_milestone(self):
        sched = optim.schedule_from_dict({"kind": "constant", "rate": 0.01})
        assert sched == optim.Piecewise(((0, 0.01),))
        with pytest.raises(ValueError, match="rate"):
            optim.schedule_from_dict({"kind": "constant", "rate": 0.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            optim.Piecewise(((5, 1e-3),))  # must start at 0
        with pytest.raises(ValueError):
            optim.Piecewise(((0, 1e-3), (0, 1e-4)))
        with pytest.raises(ValueError):
            optim.Piecewise(((0, 1e-3), (10, -1.0)))
        with pytest.raises(ValueError):
            optim.Cosine(0.0, 1e-5, 10)
        with pytest.raises(ValueError):
            optim.lr_at(optim.Piecewise(((0, 1e-3),)), -1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
    def test_decaying_schedules_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        cos = optim.Cosine(1e-2, 1e-5, 2000)
        pw = optim.Piecewise(((0, 1e-3), (1000, 5e-4), (2500, 1e-5)))
        assert optim.lr_at(cos, hi) <= optim.lr_at(cos, lo) + 1e-18
        assert optim.lr_at(pw, hi) <= optim.lr_at(pw, lo)

    def test_schedule_from_dict_roundtrip(self):
        sched = optim.schedule_from_dict(
            {"kind": "piecewise", "milestones": [[0, 1e-3], [4000, 5e-4]]}
        )
        assert optim.lr_at(sched, 4500) == 5e-4
        sched = optim.schedule_from_dict({"kind": "cosine", "start": 1e-2, "end": 1e-5, "total_steps": 10})
        assert optim.lr_at(sched, 0) == pytest.approx(1e-2)
