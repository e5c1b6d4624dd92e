import logging

import numpy as np
import pytest

from pidenet import jumpsim, metrics, nn, problems
from pidenet.jumpsim import TimeGrid

from reference import evaluate, network_input, permuted
from test_scheme import linear_net


def identity_params():
    # network equal to u(t, x) = x on positive states
    return linear_net(1, [0.0, 1.0])


def scaled_params(factor):
    return linear_net(1, [0.0, factor])


def offset_params(offset):
    return linear_net(1, [0.0, 1.0], bias=offset)


def network_values(params, batch):
    """The (N+1, B) values the metrics take, from the plain reference pass."""
    return np.stack(
        [evaluate(params, network_input(t, batch.states[n]))[:, 0]
         for n, t in enumerate(batch.grid.times)]
    )


def exact_at_nodes(batch, prob):
    return metrics.exact_values(batch, prob, np.empty((batch.grid.steps + 1, batch.batch_size)))


def errors(params, batch, prob):
    return metrics.evaluation_errors(network_values(params, batch), exact_at_nodes(batch, prob))


@pytest.fixture(scope="module")
def pure_jump_batch():
    prob = problems.pure_jump_1d()
    return prob, jumpsim.simulate_forward(prob, TimeGrid(1.0, 10), 512, seed=3)


class TestPointwiseMetrics:
    def test_perfect_fit_is_zero(self, pure_jump_batch):
        prob, batch = pure_jump_batch
        params = identity_params()
        mean_rel, by_time, max_sq = errors(params, batch, prob)
        assert mean_rel == 0.0
        assert max_sq == 0.0
        assert np.all(by_time == 0.0)

    def test_uniform_inflation(self, pure_jump_batch):
        # net = 1.01 u with u bounded away from zero gives exactly 1%
        prob, batch = pure_jump_batch
        assert batch.states.min() > 0.01
        err, _, _ = errors(scaled_params(1.01), batch, prob)
        assert err == pytest.approx(0.01, rel=1e-9)

    def test_constant_offset_squared(self, pure_jump_batch):
        prob, batch = pure_jump_batch
        _, _, err = errors(offset_params(0.1), batch, prob)
        assert err == pytest.approx(0.01, rel=1e-9)

    def test_node_zero_is_initial_state_error(self, pure_jump_batch):
        # all paths start at x0, so the first entry equals the pointwise
        # relative error at (0, x0)
        prob, batch = pure_jump_batch
        params = scaled_params(1.05)
        _, by_time, _ = errors(params, batch, prob)
        x0 = prob.x0[None, :]
        expected = abs(evaluate(params, network_input(0.0, x0))[0, 0] - 1.0) / 1.0
        assert by_time[0] == pytest.approx(expected, rel=1e-12)
        assert by_time.shape == (11,)

    def test_max_square_dominates_single_node_mean(self, pure_jump_batch):
        prob, batch = pure_jump_batch
        params = scaled_params(0.9)
        _, _, approx_err = errors(params, batch, prob)
        # batch-mean absolute gap at any single node, squared, is a lower bound
        for n in (0, 5, 10):
            inp = network_input(batch.grid.times[n], batch.states[n])
            vals = evaluate(params, inp)[:, 0]
            exact = prob.exact(batch.grid.times[n], batch.states[n])[:, 0]
            assert approx_err >= np.mean(np.abs(vals - exact)) ** 2 - 1e-15

    def test_permutation_invariance(self, pure_jump_batch):
        prob, batch = pure_jump_batch
        params = scaled_params(1.2)
        perm = np.random.default_rng(1).permutation(batch.batch_size)
        shuffled = permuted(batch, perm)
        a_rel, _, a_sq = errors(params, batch, prob)
        b_rel, _, b_sq = errors(params, shuffled, prob)
        assert a_rel == pytest.approx(b_rel, abs=1e-12)
        assert a_sq == pytest.approx(b_sq, abs=1e-12)


class TestErrorGrid:
    def test_grid_rows_cover_time_nodes(self, pure_jump_batch):
        prob, batch = pure_jump_batch
        rows = metrics.error_grid(network_values(identity_params(), batch),
                                  exact_at_nodes(batch, prob), batch.states[:, :, 0],
                                  batch.grid.times, bins=8)
        ts = {r[0] for r in rows}
        assert ts == set(float(t) for t in batch.grid.times)
        assert all(r[2] >= 0 for r in rows)

    def test_rejects_multidimensional(self):
        prob = problems.highdim_pide(dim=2)
        batch = jumpsim.simulate_forward(prob, TimeGrid(1.0, 2), 8, seed=0)
        params = nn.init(nn.MlpArchitecture(3, (4,)), seed=0)
        with pytest.raises(ValueError):
            metrics.error_grid(network_values(params, batch), exact_at_nodes(batch, prob),
                               batch.states, batch.grid.times)


class TestConvergenceTable:
    def test_order_formula(self):
        rows = metrics.convergence_table({2: [4e-3], 4: [2e-3]}, total_time=1.0, keep=1)
        assert rows[0].order is None
        assert rows[1].order == pytest.approx(1.0, rel=1e-12)

    def test_identical_errors_give_zero_order(self):
        rows = metrics.convergence_table({2: [1e-3], 4: [1e-3]}, total_time=1.0, keep=1)
        assert rows[1].order == 0.0

    @pytest.mark.parametrize("errors", [(1e-3, 0.0), (0.0, 0.0), (0.0, 1e-3)])
    def test_zero_error_gives_no_order(self, errors):
        rows = metrics.convergence_table({2: [errors[0]], 4: [errors[1]]}, total_time=1.0, keep=1)
        assert [row.max_sq_err for row in rows] == list(errors)
        assert rows[1].order is None

    def test_keep_best_subset(self):
        rows = metrics.convergence_table(
            {2: [5.0, 1.0, 3.0, 2.0], 4: [0.5, 0.25, 4.0, 9.0]}, total_time=1.0, keep=2
        )
        assert rows[0].max_sq_err == pytest.approx(1.5)
        assert rows[1].max_sq_err == pytest.approx(0.375)

    def test_nonfinite_runs_excluded_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            rows = metrics.convergence_table(
                {2: [np.nan, 2.0], 4: [1.0, np.inf]}, total_time=1.0, keep=2
            )
        assert rows[0].max_sq_err == 2.0
        assert rows[1].max_sq_err == 1.0
        assert any("non-finite" in r.message for r in caplog.records)

    def test_single_row_table(self):
        rows = metrics.convergence_table({8: [1e-3, 2e-3]}, total_time=1.0, keep=1)
        assert len(rows) == 1 and rows[0].order is None


class TestCsvWriters:
    def test_metrics_csv_schema_and_determinism(self, tmp_path):
        reports = [
            metrics.MetricsReport(
                iteration=1000, loss=1.5e-7, mean_rel_err=0.01,
                node_errors=np.array([0.002, 0.0, 0.0]),
                max_sq_err=3e-4, lr=1e-3, wall_clock=12.5,
            )
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.write_metrics_csv(p1, reports)
        metrics.write_metrics_csv(p2, reports)
        text = p1.read_text()
        assert text.splitlines()[0] == "iteration,loss,mean_rel_err,rel_err_t0,max_sq_err,lr"
        assert text == p2.read_text()
        row = text.splitlines()[1].split(",")
        assert row[0] == "1000"
        assert float(row[1]) == 1.5e-7
        assert row[3] == "0.002"  # rel_err_t0 is the first node's error
        # wall clock stays out of the deterministic file
        assert len(row) == 6

    def test_error_by_time_csv(self, tmp_path):
        path = tmp_path / "ebt.csv"
        metrics.write_error_by_time_csv(path, np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.3]))
        lines = path.read_text().splitlines()
        assert lines[0] == "node,t,rel_err"
        assert lines[2].startswith("1,0.5,")

    def test_convergence_csv(self, tmp_path):
        rows = metrics.convergence_table({2: [4e-3], 32: [1e-3]}, total_time=1.0, keep=1)
        path = tmp_path / "conv.csv"
        metrics.write_convergence_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,dt,max_sq_err,order"
        assert lines[1].endswith(",")  # first row has empty order
        assert lines[2].split(",")[0] == "32"

    def test_error_grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        metrics.write_error_grid_csv(path, [(0.0, 1.0, 0.05)])
        assert path.read_text().splitlines()[0] == "t,x_bin,mean_abs_err"
