import dataclasses

import numpy as np
import pytest

from pidenet import cli, jumpsim, nn, normal, problems, scheme
from pidenet.autodiff import Tape
from pidenet.jumpsim import TimeGrid

from reference import (compensator_residual, compensator_residual_paths, draw_noise_one_call,
                       poisson_count)


class TestTimeGrid:
    def test_nodes_are_exact_multiples(self):
        grid = TimeGrid(total_time=1.0, steps=50)
        t = grid.times
        assert t[0] == 0.0 and t[-1] == 1.0
        np.testing.assert_array_equal(t, np.arange(51) * 1.0 / 50)
        assert grid.dt == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(total_time=0.0, steps=5)
        with pytest.raises(ValueError):
            TimeGrid(total_time=1.0, steps=0)


class TestCounts:
    def test_zero_intensity_never_jumps(self):
        c = jumpsim.sample_poisson_counts(seed=1, lam=0.0, dt=0.5, paths=100, steps=10)
        assert c.shape == (10, 100)
        assert np.all(c == 0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            jumpsim.sample_poisson_counts(seed=1, lam=-0.1, dt=0.5, paths=1, steps=1)

    def test_poisson_moments(self):
        # mean and variance of Poisson(0.006) within 3 sigma at 1e6 draws
        c = jumpsim.sample_poisson_counts(seed=7, lam=0.3, dt=0.02, paths=20000, steps=50)
        n = c.size
        mu = 0.006
        assert abs(c.mean() - mu) <= 3.0 * np.sqrt(mu / n)
        # variance estimator sigma: Poisson has var = mu; fourth-moment
        # fluctuation approximated by 2 mu^2 + mu for the budget below
        var_sigma = np.sqrt((mu + 2 * mu**2) / n)
        assert abs(c.var() - mu) <= 3.0 * var_sigma

    def test_inverse_cdf_transform_values(self):
        # P(0) = exp(-0.006) ~ 0.99402, P(0)+P(1) ~ 0.99998
        u = np.array([0.0001, 0.995, 0.9999999])
        k = jumpsim.poisson_from_uniforms(u, 0.006)
        assert k[0] == 0 and k[1] == 1
        assert k[2] >= 2

    @pytest.mark.parametrize("mean", [708.0, 709.0, 746.0])
    def test_mean_whose_cdf_start_is_not_a_normal_float_is_refused(self, mean):
        # exp(-mean) is normal up to ~708.4 and 0 from ~745.2, where every
        # count used to come out 1
        u = np.array([0.001, 0.5, 0.999])
        if mean > 708.5:
            with pytest.raises(ValueError, match="too large"):
                jumpsim.poisson_from_uniforms(u, mean)
        else:
            k = jumpsim.poisson_from_uniforms(u, mean)
            assert k[0] < mean < k[2]
            assert abs(k[1] - mean) <= 1

    def test_all_ones_hash_stays_below_one(self, monkeypatch):
        # ((2**53 - 1) + 0.5) * 2**-53 rounds up to 1.0, where the normal
        # inverse CDF is infinite and the Poisson transform used to loop
        monkeypatch.setattr(
            jumpsim, "_mix64", lambda x: np.full(np.shape(x), 2**64 - 1, dtype=np.uint64)
        )
        u = jumpsim.keyed_uniforms(3, 1, np.arange(4), 0, 0)
        assert u.shape == (4,)
        assert np.all(u < 1.0)
        assert np.all(np.isfinite(normal.ndtri(u)))
        k = jumpsim.poisson_from_uniforms(u, 0.006)
        assert np.all((k >= 1) & (k <= 20))

    @pytest.mark.parametrize("mean", [0.0, 0.006, 0.15, 1.0, 30.0])
    def test_counts_equal_draw_by_draw_transform(self, mean):
        p0 = float(np.exp(-mean))
        edges = [0.0, np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0), 1.0 - 2.0**-52,
                 1.0 - 2.0**-53]
        u = np.concatenate([jumpsim.keyed_uniforms(5, 2, np.arange(20000), 0, 0), edges])
        u = u.reshape(-1, 2)
        want = np.array([poisson_count(v, mean) for v in u.ravel()]).reshape(u.shape)
        got = jumpsim.poisson_from_uniforms(u, mean)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("mean", [0.02, 0.1])
    def test_draws_above_the_float_cdf_give_a_finite_count(self, mean):
        # the summed float CDF of Poisson(0.02) settles at 1 - 2**-53 and
        # that of Poisson(0.1) at 1 - 2**-52, at or below the largest draws
        u = np.array([1.0 - 2.0**-52, 1.0 - 2.0**-53])
        k = jumpsim.poisson_from_uniforms(u, mean)
        assert np.all((k >= 1) & (k <= 20))


class TestSimulateForward:
    def test_frozen_dynamics(self):
        prob = problems.pure_jump_1d(lam=0.0)
        grid = TimeGrid(1.0, 10)
        batch = jumpsim.simulate_forward(prob, grid, batch_size=16, seed=3)
        assert np.all(batch.states == 1.0)

    @pytest.mark.parametrize("first_path", [0, 37])
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("preset", cli.preset_names())
    def test_every_path_starts_at_x0(self, preset, stream, first_path):
        # the loss evaluates node 0 once, at x0, for every path of a batch
        config = cli.load_config(preset)
        batch = jumpsim.simulate_forward(config.problem, config.grid, 5, config.seed_simulation,
                                         stream, first_path)
        x0 = np.broadcast_to(np.asarray(config.problem.x0, dtype=np.float64),
                             batch.states[0].shape)
        assert batch.states[0].tobytes() == x0.tobytes()

    def test_node_major_layout(self):
        prob, grid = problems.highdim_pide(3, lam=2.0), TimeGrid(1.0, 5)
        batch = jumpsim.simulate_forward(prob, grid, 7, seed=4)
        for name, shape in (("states", (6, 7, 3)), ("brownian", (5, 7, 3)), ("counts", (5, 7))):
            array = getattr(batch, name)
            assert array.shape == shape, name
            assert array.flags.c_contiguous, name
        assert np.shares_memory(batch.brownian.reshape(5 * 7, 3), batch.brownian)
        assert batch.batch_size == 7 and batch.dim == 3
        net = nn.TapeMlp(Tape(), nn.init(nn.MlpArchitecture(4, (8,)), seed=0), trainable=False)
        assert scheme.squared_residuals(net, batch, prob)[2].shape == (6, 7)

    def test_bit_reproducible(self):
        prob = problems.pide_1d()
        grid = TimeGrid(1.0, 20)
        b1 = jumpsim.simulate_forward(prob, grid, 32, seed=11)
        b2 = jumpsim.simulate_forward(prob, grid, 32, seed=11)
        assert np.array_equal(b1.states, b2.states)
        assert np.array_equal(b1.brownian, b2.brownian)
        assert np.array_equal(b1.counts, b2.counts)
        assert np.array_equal(b1.event_marks, b2.event_marks)

    def test_paths_independent_of_batch_size(self):
        # path p's randomness is a function of (seed, p) alone, so a
        # bigger batch extends a smaller one without disturbing it
        prob = problems.pide_1d()
        grid = TimeGrid(1.0, 20)
        small = jumpsim.simulate_forward(prob, grid, 8, seed=5)
        large = jumpsim.simulate_forward(prob, grid, 16, seed=5)
        assert np.array_equal(small.states, large.states[:, :8])
        assert np.array_equal(small.brownian, large.brownian[:, :8])
        assert np.array_equal(small.counts, large.counts[:, :8])

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize(
        "prob",
        [problems.pure_jump_1d(lam=3.0), problems.pide_1d(lam=3.0),
         problems.highdim_pide(dim=3, lam=3.0), problems.bsb_jumps(dim=2, lam=3.0)],
        ids=lambda p: p.name,
    )
    def test_block_of_paths_is_those_columns_of_the_batch(self, prob, stream):
        grid = TimeGrid(1.0, 6)
        whole = jumpsim.simulate_forward(prob, grid, 13, 9, stream)
        for lo, hi in ((0, 5), (5, 6), (6, 13), (12, 13)):
            block = jumpsim.simulate_forward(prob, grid, hi - lo, 9, stream, first_path=lo)
            for name in ("states", "brownian", "counts"):
                got, want = getattr(block, name), getattr(whole, name)[:, lo:hi]
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, lo)
            keep = (whole.event_paths >= lo) & (whole.event_paths < hi)
            assert keep.any() or hi - lo == 1
            assert np.array_equal(block.event_paths, whole.event_paths[keep] - lo)
            assert np.array_equal(block.event_intervals, whole.event_intervals[keep])
            assert np.array_equal(block.event_marks, whole.event_marks[keep])

    def test_streams_are_independent(self):
        prob = problems.pide_1d()
        grid = TimeGrid(1.0, 5)
        a = jumpsim.simulate_forward(prob, grid, 8, seed=5, stream=0)
        b = jumpsim.simulate_forward(prob, grid, 8, seed=5, stream=1)
        assert not np.array_equal(a.brownian, b.brownian)

    def test_brownian_moments(self):
        prob = problems.pide_1d()
        grid = TimeGrid(1.0, 50)
        batch = jumpsim.simulate_forward(prob, grid, 20000, seed=17)
        dw = batch.brownian.ravel()
        dt = grid.dt
        assert abs(dw.mean()) <= 3.0 * np.sqrt(dt / dw.size)
        assert abs(dw.var() - dt) <= 3.0 * dt * np.sqrt(2.0 / dw.size)

    def test_no_jump_interval_recursion_pure_jump(self):
        # on intervals without jumps the pure-jump recursion contracts the
        # state by exactly (1 - c*dt) with c = lam*(exp(mean+std^2/2)-1)*x
        prob = problems.pure_jump_1d(lam=0.3, mark_mean=0.4, mark_std=0.25)
        grid = TimeGrid(1.0, 50)
        batch = jumpsim.simulate_forward(prob, grid, 64, seed=23)
        c = 0.3 * (np.exp(0.4 + 0.5 * 0.25**2) - 1.0)
        assert c == pytest.approx(0.16175, abs=1e-5)
        jumped = np.zeros((50, 64), dtype=bool)
        jumped[batch.event_intervals, batch.event_paths] = True
        assert (~jumped).any()
        for n, p in zip(*np.nonzero(~jumped)):
            x = batch.states[n, p, 0]
            np.testing.assert_allclose(
                batch.states[n + 1, p, 0], x - c * x * grid.dt, rtol=1e-14
            )

    def test_martingale_property_of_pure_jump(self):
        # compensated multiplicative jumps keep E[X_t] = X_0
        prob = problems.pure_jump_1d()
        grid = TimeGrid(1.0, 50)
        batch = jumpsim.simulate_forward(prob, grid, 10**5, seed=31)
        final = batch.states[-1, :, 0]
        assert abs(final.mean() - 1.0) <= 3.0 * final.std() / np.sqrt(final.size)

    @pytest.mark.parametrize(
        "prob",
        [problems.pure_jump_1d(), problems.pide_1d(),
         problems.highdim_pide(dim=4), problems.bsb_jumps(dim=4)],
        ids=lambda p: p.name,
    )
    def test_diagonal_step_matches_dense_reference(self, prob):
        # the dense product with np.diag matrices adds only exact zeros to
        # the elementwise one, so an Euler recursion on full (B, d, d)
        # matrices must give the same bits
        grid = TimeGrid(1.0, 6)
        dt = grid.dt
        for seed in (0, 7):
            for stream in (0, 1):
                batch = jumpsim.simulate_forward(prob, grid, 40, seed, stream)
                assert batch.counts.sum() > 0
                x = np.tile(prob.x0, (40, 1))
                for n in range(grid.steps):
                    t = grid.times[n]
                    sigma = np.stack([np.diag(row) for row in prob.diffusion(t, x)])
                    jump_sum = np.zeros_like(x)
                    ids, marks = batch.events(n)
                    np.add.at(jump_sum, ids, prob.jump_size(t, x[ids], marks))
                    x = (
                        x
                        + prob.drift(t, x) * dt
                        + np.einsum("bij,bj->bi", sigma, batch.brownian[n])
                        + jump_sum
                        - prob.compensator(t, x) * dt
                    )
                    assert np.array_equal(batch.states[n + 1], x), (seed, stream, n)

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("dim", [1, 100])
    @pytest.mark.parametrize("batch_size", [1, 7, 65, 700])
    def test_blocked_draws_equal_one_call(self, batch_size, dim, stream):
        # d=100, N=50: 6 paths per block; d=1: 655, so 700 paths take two;
        # the marks share the last block's inverse-CDF call
        prob = problems.highdim_pide(dim)
        grid = TimeGrid(1.0, 50)
        drawn = jumpsim._draw_noise(prob, grid, batch_size, 11, stream, 0)
        expected = draw_noise_one_call(prob, grid, batch_size, 11, stream)
        assert drawn[1].sum() > 0 or batch_size < 65
        for got, want in zip(drawn, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_event_layout_matches_counts(self):
        prob = problems.highdim_pide(dim=2, lam=2.0)
        grid = TimeGrid(1.0, 4)
        batch = jumpsim.simulate_forward(prob, grid, 50, seed=2)
        assert batch.event_marks.shape == (int(batch.counts.sum()), 2)
        for n in range(4):
            ids, marks = batch.events(n)
            assert len(ids) == int(batch.counts[n].sum())
            recount = np.bincount(ids, minlength=50)
            np.testing.assert_array_equal(recount, batch.counts[n])

    @pytest.mark.parametrize("first_path", [0, 7])
    def test_nonfinite_state_aborts_with_location(self, first_path):
        # the path is named by its index in the whole batch, not in the block
        bad = dataclasses.replace(problems.pide_1d(lam=0.0), name="exploding",
                                  drift=lambda t, x: x * np.inf)
        with pytest.raises(jumpsim.SimulationError, match=rf"interval 1, path {first_path}$"):
            jumpsim.simulate_forward(bad, TimeGrid(1.0, 3), 4, seed=0, first_path=first_path)


class TestCompensatorResidual:
    def test_zero_intensity_is_exactly_zero(self):
        prob = problems.pide_1d(lam=0.0)
        res = compensator_residual(prob, TimeGrid(1.0, 10), 32, seed=1)
        assert res.shape == (10, 1)
        assert np.all(res == 0.0)

    def test_pure_jump_residual_is_centered(self):
        prob = problems.pure_jump_1d()
        grid = TimeGrid(1.0, 50)
        paths = compensator_residual_paths(prob, grid, 20000, seed=13)
        mean = paths.mean(axis=1)
        sigma = paths.std(axis=1) / np.sqrt(paths.shape[1])
        assert np.all(np.abs(mean) <= 4.0 * sigma)

    def test_state_free_jump_size_centering(self):
        # with jump size independent of the mark, the residual reduces to
        # (count - lam*dt) * size, which is centered by the Poisson mean
        prob = problems.highdim_pide(dim=1, lam=2.0, mark_mean=0.05, mark_std=0.02)
        grid = TimeGrid(1.0, 2)
        paths = compensator_residual_paths(prob, grid, 50000, seed=19)
        mean = paths.mean(axis=1)
        sigma = paths.std(axis=1) / np.sqrt(paths.shape[1])
        assert np.all(np.abs(mean) <= 4.0 * sigma)

