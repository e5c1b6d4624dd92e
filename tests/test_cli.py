import base64
import dataclasses
import json
import logging
import os
import resource
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from pidenet import autodiff, cli, jumpsim, metrics, nn, optim
from pidenet.jumpsim import SimulationError
from pidenet.scheme import NumericalAbortError

TINY = {
    "problem": {"name": "pide_1d"},
    "steps": 4,
    "batch_size": 32,
    "hidden": [6],
    "activation": "tanh",
    "lr_schedule": {"kind": "constant", "rate": 1e-2},
    "iterations": 4,
    "checkpoint_interval": 2,
    "eval_batch_size": 48,
    "seeds": {"simulation": 1, "init": 2, "evaluation": 3},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


RUN_FILES = ("metrics.csv", "breakdown.jsonl", "checkpoint.json",
             "error_by_time.csv", "error_grid.csv")


def last_row(path):
    return path.read_text().splitlines()[-1]


def train(config_path, out, *extra):
    return cli.main(["train", "--config", str(config_path), "--out", str(out), *extra])


def with_hidden(config, hidden):
    """``config`` with its network's hidden widths replaced."""
    return dataclasses.replace(
        config, architecture=dataclasses.replace(config.architecture, hidden=hidden))


class TestTrainAndEval:
    def test_train_exits_zero_and_writes_its_files(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        for name in RUN_FILES:
            assert (out / name).is_file(), name
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == metrics.METRICS_CSV_HEADER
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "4"]
        assert len((out / "breakdown.jsonl").read_text().splitlines()) == 4
        assert last_row(out / "metrics.csv") in capsys.readouterr().out

    def test_eval_after_seeded_train_reproduces_last_row(self, config_path, tmp_path):
        out = tmp_path / "run"
        seed = ["--seed", "40"]
        assert cli.main(["train", "--config", str(config_path), "--out", str(out), *seed]) == 0
        checkpoint = str(out / "checkpoint.json")
        evaluated = tmp_path / "eval.csv"
        code = cli.main(["eval", "--checkpoint", checkpoint, "--config", str(config_path),
                         "--out", str(evaluated), *seed])
        assert code == 0
        assert last_row(evaluated) == last_row(out / "metrics.csv")
        # without the seed, eval uses the config's own held-out batch
        unseeded = tmp_path / "unseeded.csv"
        cli.main(["eval", "--checkpoint", checkpoint, "--config", str(config_path),
                  "--out", str(unseeded)])
        assert last_row(unseeded) != last_row(out / "metrics.csv")

    def test_each_evaluation_logs_a_progress_line(self, config_path, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="pidenet.cli"):
            reports, _ = cli.run_experiment(cli.load_config(str(config_path)), tmp_path / "run")
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines = [r.getMessage().split() for r in caplog.records if r.name == "pidenet.cli"]
        assert [words[1] for words in lines] == ["2/4", "4/4"]
        for words, report in zip(lines, reports):
            assert [words[2], words[4], words[7], words[8], words[10], words[11], words[13]] == [
                "loss", "mean_rel_err", "ms/iter", "eta", "s", "peak_rss", "MiB"]
            assert float(words[3]) == pytest.approx(report.loss, rel=1e-6)
            assert float(words[5]) == pytest.approx(report.mean_rel_err, rel=1e-4)
            assert float(words[6]) > 0.0
            iterations_left = 4 - report.iteration
            assert float(words[9]) == pytest.approx(float(words[6]) * iterations_left / 1e3,
                                                    abs=0.5 + 1e-4 * iterations_left)
            assert 0.0 < float(words[12]) <= peak_mib + 0.05

    def test_same_seed_writes_identical_files(self, config_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert train(config_path, first) == 0
        assert train(config_path, second) == 0
        for name in RUN_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_worker_count_does_not_change_the_files(self, config_path, tmp_path, monkeypatch,
                                                    chunk_workers):
        # CHUNK_ROWS 32: 5 chunks of each kind of row in each training
        # pass, 7 in the held-out pass
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 32)
        runs = []
        for workers in (1, 2):
            pool = chunk_workers(workers)
            runs.append(tmp_path / f"workers{workers}")
            assert train(config_path, runs[-1]) == 0
            assert pool.tasks > 0
        for name in RUN_FILES:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_held_out_pass_keeps_no_gradient_state(self, config_path, monkeypatch,
                                                   tape_variables):
        # 64-row chunks: the held-out pass's network node has 2 of them
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 64)
        config = cli.load_config(str(config_path))
        params = nn.init(config.architecture, seed=5)
        params = nn.MlpParams(params.arch, params.theta + 0.1)

        def evaluate():
            tape_variables.clear()
            report, _ = cli._evaluate(config, params, 4, 1e-2, 0.0)
            (var,) = [v for v in tape_variables if v.tape._nodes[v.id].op == "mlp"]
            assert var.shape[0] > 3 * 64
            return report, var.value, var.tape._nodes[var.id]

        report, values, node = evaluate()
        assert node.vjp is None
        # the same pass with the params bound as gradient leaves
        tape_mlp = nn.TapeMlp
        monkeypatch.setattr(nn, "TapeMlp", lambda tape, p, trainable=True: tape_mlp(tape, p))
        trained_report, trained_values, trained_node = evaluate()
        assert trained_node.vjp is not None
        assert report.csv_row() == trained_report.csv_row()
        assert np.array_equal(report.node_errors, trained_report.node_errors)
        assert np.array_equal(values, trained_values)

    def test_held_out_pass_peak_does_not_grow_with_the_batch(self, chunk_workers):
        # highdim (d=100, N=50) with a small network: 51 paths per block,
        # so B=102 runs 2 blocks and 8B=816 runs 16.  The pass holds one
        # block at a time; what grows with B is its (N, B), (B,) and
        # (N+1, B) result arrays, 1.1 MiB at 8B.  In one pass over the
        # whole batch the peak grew about 8x
        pool = chunk_workers(1)
        config = with_hidden(cli.load_config("highdim"), (16, 16))
        params = nn.init(config.architecture, seed=config.seed_init)
        peaks = []
        for size in (102, 816):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli._evaluate(dataclasses.replace(config, eval_batch_size=size), params,
                              0, 1e-3, 0.0)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert pool.tasks > 0
        assert peaks[1] < 1.2 * peaks[0], [peak / 2**20 for peak in peaks]

    @pytest.mark.parametrize("preset, hidden, overrides, paths, sizes", [
        # d=1 with the error grid, d=4 and d=100, each in >= 3 blocks
        # with a short last one; widths of 32 and more, where OpenBLAS's
        # small-matrix GEMM, whose sums depend on the row count, engages,
        # under leaky relu (bsb_d4) and tanh (convergence, d=2)
        ("tiny", (6,), {}, 20, [20, 20, 8]),
        ("bsb_d4", (8, 8), {"steps": 5, "eval_batch_size": 50}, 16, [16, 16, 16, 2]),
        ("highdim", (16, 16), {"steps": 4, "eval_batch_size": 30}, 8, [8, 8, 8, 6]),
        ("bsb_d4", (64, 64), {"steps": 5, "eval_batch_size": 50}, 16, [16, 16, 16, 2]),
        ("convergence", (32, 32), {"eval_batch_size": 50}, 16, [16, 16, 16, 2]),
    ])
    def test_blocks_give_the_figures_of_one_pass(self, config_path, monkeypatch, preset, hidden,
                                                 overrides, paths, sizes):
        spec = str(config_path) if preset == "tiny" else preset
        config = dataclasses.replace(with_hidden(cli.load_config(spec), hidden), **overrides)
        params = nn.init(config.architecture, seed=config.seed_init)
        params = nn.MlpParams(params.arch, params.theta + np.random.default_rng(0).normal(
            scale=0.1, size=params.theta.shape))
        simulate, blocks = jumpsim.simulate_forward, []

        def recording(problem, grid, batch_size, seed, stream=0, first_path=0):
            blocks[-1].append((first_path, batch_size))
            return simulate(problem, grid, batch_size, seed, stream, first_path)

        monkeypatch.setattr(jumpsim, "simulate_forward", recording)
        runs = []
        for budget in (paths * (config.steps + 1) * config.problem.dim, cli.EVAL_BLOCK_VALUES):
            monkeypatch.setattr(cli, "EVAL_BLOCK_VALUES", budget)
            blocks.append([])
            runs.append(cli._evaluate(config, params, 3, 1e-3, 0.0,
                                      error_grid=config.problem.dim == 1))
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        assert blocks == [list(zip(starts, sizes)), [(0, config.eval_batch_size)]]
        (blocked, blocked_rows), (whole, whole_rows) = runs
        assert blocked.csv_row() == whole.csv_row()
        assert blocked.node_errors.tobytes() == whole.node_errors.tobytes()
        assert blocked_rows == whole_rows
        assert (whole_rows is not None) == (config.problem.dim == 1)

    def test_error_grid_of_a_multidimensional_problem_is_refused(self):
        config = dataclasses.replace(cli.load_config("bsb_d4"), eval_batch_size=4)
        params = nn.init(config.architecture, seed=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            cli._evaluate(config, params, 0, 1e-3, 0.0, error_grid=True)

    def test_abort_keeps_the_files_of_the_evaluations_before_it(self, config_path, tmp_path,
                                                               monkeypatch):
        config = cli.load_config(str(config_path))
        # the run that stops after its first evaluation, unbroken
        cli.run_experiment(dataclasses.replace(config, iterations=2), tmp_path / "two")
        simulate = jumpsim.simulate_forward

        def failing_third_batch(problem, grid, batch_size, seed, stream=0, first_path=0):
            if stream == cli.TRAIN_STREAM and seed == config.seed_simulation + 3:
                raise SimulationError("non-finite state at interval 1, path 0")
            return simulate(problem, grid, batch_size, seed, stream, first_path)

        monkeypatch.setattr(jumpsim, "simulate_forward", failing_third_batch)
        run = tmp_path / "run"
        with pytest.raises(NumericalAbortError):
            cli.run_experiment(config, run)
        assert json.loads((run / "abort.json").read_text())["iteration"] == 3
        rows = (run / "metrics.csv").read_text().splitlines()
        assert rows == (tmp_path / "two" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["iteration", "2"]
        assert ((run / "checkpoint.json").read_bytes()
                == (tmp_path / "two" / "checkpoint.json").read_bytes())
        params, iteration, lr = cli.load_checkpoint(run / "checkpoint.json")
        assert (iteration, lr) == (2, 1e-2)
        assert sorted(p.name for p in run.iterdir()) == [
            "abort.json", "breakdown.jsonl", "checkpoint.json", "metrics.csv"]

    def test_a_rerun_removes_the_abort_of_the_run_before(self, config_path, tmp_path):
        # runs/<name> is the default directory, so a rerun after a failed
        # run writes into a directory that holds its abort.json
        run = tmp_path / "run"
        run.mkdir()
        (run / "abort.json").write_text('{"iteration": 3, "error": "an earlier run"}')
        config = dataclasses.replace(cli.load_config(str(config_path)), iterations=2)
        cli.run_experiment(config, run)
        assert not (run / "abort.json").exists()
        assert (run / "checkpoint.json").exists()

    def test_breakdown_log_reaches_each_checkpoint_before_it_is_written(
            self, config_path, tmp_path, monkeypatch):
        # a run killed during or after a checkpoint leaves breakdown.jsonl
        # ending at the checkpoint's iteration, not inside a write buffer
        out = tmp_path / "run"
        save = cli.save_checkpoint
        seen = []

        def checking_save(path, params, iteration, lr):
            lines = (out / "breakdown.jsonl").read_text().splitlines()
            seen.append((iteration, json.loads(lines[-1])["iteration"] if lines else None))
            save(path, params, iteration, lr)

        monkeypatch.setattr(cli, "save_checkpoint", checking_save)
        assert train(config_path, out) == 0
        assert seen == [(2, 2), (4, 4)]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli.main(["train", "--config", str(missing), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_directory_as_config_or_checkpoint_exits_one(self, tmp_path, capsys):
        assert train(tmp_path, tmp_path / "run") == 1
        assert cli.main(["eval", "--checkpoint", str(tmp_path), "--config", "pide1d"]) == 1
        err = capsys.readouterr().err
        assert err.count("config error") == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text", ["{not json", json.dumps({**TINY, "steps": 0}),
                                      json.dumps({k: v for k, v in TINY.items() if k != "seeds"}),
                                      json.dumps({**TINY, "activation": "swish"}),
                                      json.dumps({**TINY, "hidden": []}),
                                      json.dumps({**TINY, "leaky_alpha": float("nan")}),
                                      json.dumps({**TINY, "leaky_alpha": 1.5}),
                                      json.dumps({**TINY, "leaky_alpha": -0.1}),
                                      json.dumps({**TINY, "problem": {"name": "pide_1d",
                                                                      "eps": float("inf")}}),
                                      json.dumps({**TINY, "leaky_alpha": 0.5}).replace(
                                          "0.5", "1e999"),
                                      json.dumps({**TINY, "lr_schedule": 0.001}),
                                      json.dumps({**TINY, "lr_schedule": []}),
                                      json.dumps({**TINY, "lr_schedule": {"kind": "constant",
                                                                          "rate": 0.0}}),
                                      json.dumps({**TINY, "hidden": "16"}),
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"], "init": -1}}),
                                      # integer fields take JSON integers only
                                      json.dumps({**TINY, "steps": 4.9}),
                                      json.dumps({**TINY, "steps": 4.0}),
                                      json.dumps({**TINY, "batch_size": "32"}),
                                      json.dumps({**TINY, "hidden": [6.7]}),
                                      json.dumps({**TINY, "hidden": [True]}),
                                      json.dumps({**TINY, "iterations": True}),
                                      json.dumps({**TINY, "checkpoint_interval": 2.5}),
                                      json.dumps({**TINY, "eval_batch_size": "48"}),
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"],
                                                                    "simulation": 1.5}}),
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"], "init": "2"}}),
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"],
                                                                    "evaluation": False}}),
                                      # unknown keys, top-level and under seeds
                                      json.dumps({**TINY, "activaton": "relu"}),
                                      json.dumps({**TINY, "eval_batch_sise": 5}),
                                      # Adam's settings are constants, not config keys
                                      json.dumps({**TINY, "adam": {"beta1": 0.9}}),
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"], "extra": 4}}),
                                      # number fields take JSON ints or floats, never bools
                                      json.dumps({**TINY, "leaky_alpha": "0.5"}),
                                      json.dumps({**TINY, "leaky_alpha": True}),
                                      json.dumps({**TINY, "problem": {"name": "pide_1d",
                                                                      "lam": True}}),
                                      json.dumps({**TINY, "problem": {"name": "pide_1d",
                                                                      "x0": "1.0"}}),
                                      json.dumps({**TINY, "problem": {"name": "highdim_pide",
                                                                      "dim": 2,
                                                                      "x0": [1.0, "2"]}}),
                                      json.dumps({**TINY, "lr_schedule": {"kind": "constant",
                                                                          "rate": "0.01"}}),
                                      json.dumps({**TINY, "lr_schedule": {"kind": "constant",
                                                                          "rate": True}}),
                                      # schedule steps take JSON integers
                                      json.dumps({**TINY, "lr_schedule": {
                                          "kind": "piecewise", "milestones": [[0.5, 0.001]]}}),
                                      json.dumps({**TINY, "lr_schedule": {
                                          "kind": "piecewise", "milestones": [[0, "1e-3"]]}}),
                                      json.dumps({**TINY, "lr_schedule": {
                                          "kind": "cosine", "start": 0.01, "end": 1e-5,
                                          "total_steps": 20.5}}),
                                      json.dumps({**TINY, "lr_schedule": {
                                          "kind": "cosine", "start": "0.01", "end": 1e-5,
                                          "total_steps": 20}}),
                                      # a schedule key that its kind does not read
                                      json.dumps({**TINY, "lr_schedule": {
                                          "kind": "cosine", "start": 0.01, "end": 1e-5,
                                          "total_steps": 20, "warmup": 5}}),
                                      # a step count whose time step no float can hold
                                      json.dumps({**TINY, "steps": 10**400})])
    def test_bad_config_exits_one(self, tmp_path, text, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert train(path, tmp_path / "run") == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_config_naming_relu_exits_one_listing_the_activations(self, config_path, tmp_path,
                                                                 command, capsys):
        # relu is "leaky_relu" at leaky_alpha 0, not an activation of its own
        path = tmp_path / "relu.json"
        path.write_text(json.dumps({**TINY, "activation": "relu"}))
        checkpoint = tmp_path / "checkpoint.json"
        cli.save_checkpoint(checkpoint, nn.init(cli.load_config(str(config_path)).architecture, 5),
                            iteration=4, lr=1e-2)
        args = (["train", "--out", str(tmp_path / "run")] if command == "train"
                else ["eval", "--checkpoint", str(checkpoint)])
        assert cli.main([*args, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "the activations are tanh, leaky_relu" in err
        assert not (tmp_path / "run").exists()

    def test_config_from_dict_documents_every_key(self):
        doc = cli.config_from_dict.__doc__
        for key in (*cli._CONFIG_KEYS, *cli._SEED_KEYS, "name"):
            assert f"``{key}``" in doc, key

    def test_too_many_jumps_per_interval_exits_one(self, tmp_path, capsys):
        # one step of intensity 800: Poisson(800) counts, whose CDF would
        # start at exp(-800) = 0 and give every path one jump
        path = tmp_path / "jumpy.json"
        path.write_text(json.dumps({**TINY, "steps": 1,
                                    "problem": {"name": "pide_1d", "lam": 800}}))
        assert train(path, tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Poisson mean 800.0 is too large" in err
        assert not (tmp_path / "run").exists()

    def test_problem_parameter_may_be_a_list_of_numbers(self):
        config = cli.config_from_dict({**TINY, "problem": {"name": "highdim_pide", "dim": 2,
                                                           "x0": [0.5, 2]}})
        np.testing.assert_array_equal(config.problem.x0, [0.5, 2.0])

    @pytest.mark.parametrize("command", ["train", "converge"])
    def test_negative_seed_override_exits_one(self, config_path, tmp_path, command, capsys):
        extra = ["--steps", "2"] if command == "converge" else []
        assert cli.main([command, "--config", str(config_path), "--out", str(tmp_path / "run"),
                         "--seed", "-5", *extra]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_coefficient_exits_two(self, tmp_path, capsys):
        # finite coefficients whose drift overflows (a NaN in the config is a
        # config error): the first training batch's path states turn
        # non-finite at interval 1, so the abort is recorded as iteration 1
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**TINY, "problem": {"name": "pide_1d", "eps": 10.0,
                                                        "x0": 1e308}}))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("numerical abort")
        abort = json.loads((tmp_path / "run" / "abort.json").read_text())
        assert abort["iteration"] == 1
        assert abort["error"] == "non-finite state at interval 1, path 0"

    def test_held_out_simulation_abort_exits_two_at_its_iteration(self, config_path, tmp_path,
                                                                  monkeypatch, capsys):
        simulate = jumpsim.simulate_forward

        def failing_held_out(problem, grid, batch_size, seed, stream=0, first_path=0):
            if stream == cli.EVAL_STREAM:
                raise SimulationError("non-finite state at interval 3, path 5")
            return simulate(problem, grid, batch_size, seed, stream, first_path)

        monkeypatch.setattr(jumpsim, "simulate_forward", failing_held_out)
        assert train(config_path, tmp_path / "run") == 2
        assert capsys.readouterr().err.startswith("numerical abort")
        abort = json.loads((tmp_path / "run" / "abort.json").read_text())
        # TINY evaluates first after iteration 2 of 4
        assert abort == {"iteration": 2, "error": "non-finite state at interval 3, path 5"}
        assert len((tmp_path / "run" / "breakdown.jsonl").read_text().splitlines()) == 2

    def test_run_holds_no_held_out_batch_after_its_evaluation(self, config_path, tmp_path,
                                                              monkeypatch):
        simulate, evaluate = jumpsim.simulate_forward, cli._evaluate
        held_out = []

        def recording(problem, grid, batch_size, seed, stream=0, first_path=0):
            batch = simulate(problem, grid, batch_size, seed, stream, first_path)
            if stream == cli.EVAL_STREAM:
                held_out.append(weakref.ref(batch))
            return batch

        def checked(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            assert held_out and held_out[-1]() is None
            return out

        monkeypatch.setattr(jumpsim, "simulate_forward", recording)
        monkeypatch.setattr(cli, "_evaluate", checked)
        reports, _ = cli.run_experiment(cli.load_config(str(config_path)), tmp_path / "run")
        assert [r.iteration for r in reports] == [2, 4]
        assert len(held_out) == 2
        assert (tmp_path / "run" / "error_grid.csv").is_file()

    @pytest.mark.parametrize("preset", cli.preset_names())
    def test_batch_states_are_dead_when_the_backward_starts(self, preset, monkeypatch):
        # the tape's VJPs keep what they read of the batch, its Brownian
        # increments and the constants made from it; the states, which
        # none of them reads, go with the batch before the backward runs
        config = with_hidden(dataclasses.replace(cli.load_config(preset), steps=4, batch_size=8),
                             (8, 8))
        simulate, backward = jumpsim.simulate_forward, autodiff.Tape.backward
        states, dead = [], []

        def recording(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            states.append(weakref.ref(batch.states))
            return batch

        def checked(tape, *args, **kwargs):
            dead.append(states[-1]() is None)
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(jumpsim, "simulate_forward", recording)
        monkeypatch.setattr(autodiff.Tape, "backward", checked)
        params = nn.init(config.architecture, seed=config.seed_init)
        cli._train_step(config, params, optim.AdamState.for_params(params.theta), 1, 1e-3)
        assert dead == [True]

    def test_train_and_eval_import_no_scipy(self, tmp_path):
        # a fresh process, since the tests themselves import scipy
        config_path = tmp_path / "two.json"
        config_path.write_text(json.dumps({**TINY, "iterations": 2, "checkpoint_interval": 1}))
        run = tmp_path / "run"
        script = f"""
import sys
from pidenet import cli
config = cli.load_config({str(config_path)!r})
cli.run_experiment(config, {str(run)!r})
code = cli.main(["eval", "--checkpoint", {str(run / "checkpoint.json")!r},
                 "--config", {str(config_path)!r}, "--out", {str(tmp_path / "eval.csv")!r}])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_params_do_not_depend_on_the_import_order(self):
        # numpy reads the BLAS thread variables only when it is first
        # imported, so a process that imports it before pidenet must get
        # its thread count set through the loaded library.  The children
        # see none of the variables, which this process has set to 1
        script = """
import hashlib, sys
if sys.argv[1] == "numpy":
    import numpy
from pidenet import cli, nn, optim
config = cli.load_config("convergence")
params = nn.init(config.architecture, seed=config.seed_init)
state = optim.AdamState.for_params(params.theta)
for it in (1, 2):
    params, _ = cli._train_step(config, params, state, it, optim.lr_at(config.schedule, it - 1))
print(hashlib.sha256(params.theta.tobytes()).hexdigest())
"""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        digests = []
        for first in ("numpy", "pidenet"):
            done = subprocess.run([sys.executable, "-c", script, first], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]


@pytest.mark.parametrize("preset", cli.preset_names())
def test_only_the_small_preset_runs_its_network_node_inline(preset):
    # from the config alone: the training node and the first held-out
    # block's node take x0 once, N nodes of every path and the jumped
    # states, of which a path has intensity * T on average.
    # convergence's nodes fall below the pool's cut-off; every other
    # preset's reach it, in two chunks or more
    config = cli.load_config(preset)
    problem, steps = config.problem, config.steps
    block = min(config.eval_batch_size,
                max(1, cli.EVAL_BLOCK_VALUES // ((steps + 1) * problem.dim)))
    layer_dims = config.architecture.layer_dims
    per_row = sum(fi * fo for fi, fo in layer_dims)
    widest = max(max(dims) for dims in layer_dims)
    for paths in (config.batch_size, block):
        jumps = round(paths * problem.intensity * problem.total_time)
        grad_rows, value_rows = 1 + (steps - 1) * paths, paths + jumps
        macs = (grad_rows + value_rows) * per_row
        chunks = len(autodiff._chunk_plan(grad_rows, grad_rows + value_rows, widest))
        if preset == "convergence":
            assert macs < autodiff.POOL_MACS, (paths, macs)
        else:
            assert macs >= autodiff.POOL_MACS and chunks > 1, (paths, macs, chunks)


@pytest.mark.parametrize("preset", cli.preset_names())
def test_every_rate_change_of_a_preset_falls_inside_its_run(preset):
    # a run of n iterations reads the rates of steps 0 .. n-1, so a
    # piecewise milestone at step n or later never applies, and a cosine
    # whose total_steps exceeds n never reaches its end rate
    config = cli.load_config(preset)
    schedule = config.schedule
    if isinstance(schedule, optim.Piecewise):
        assert all(step < config.iterations for step, _ in schedule.milestones), schedule
    else:
        assert schedule.total_steps <= config.iterations, schedule


class TestConverge:
    def test_failed_run_is_left_out(self, config_path, tmp_path, monkeypatch):
        run_experiment = cli.run_experiment

        def failing_once(config, out_dir):
            if config.name.endswith("_N4_run1"):
                raise NumericalAbortError("injected failure")
            return run_experiment(config, out_dir)

        monkeypatch.setattr(cli, "run_experiment", failing_once)
        out = tmp_path / "study"
        code = cli.main(["converge", "--config", str(config_path), "--steps", "2,4",
                         "--runs", "2", "--keep", "2", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()]
        assert [row[0] for row in rows[1:]] == ["2", "4"]

        def max_sq_err(steps, run):
            return float(last_row(out / f"N{steps}" / f"run{run}" / "metrics.csv").split(",")[4])

        # N=2 keeps the mean of both runs, N=4 only the run that finished
        assert float(rows[1][2]) == np.mean(np.sort([max_sq_err(2, 0), max_sq_err(2, 1)]))
        assert float(rows[2][2]) == max_sq_err(4, 0)

    @pytest.mark.parametrize("iterations", [cli.RUN_SEED_STRIDE, cli.RUN_SEED_STRIDE + 1])
    def test_runs_never_share_a_batch_seed(self, tmp_path, monkeypatch, capsys, iterations):
        # run r trains on the batch seeds s + r * stride + 1 .. s + r * stride + iterations
        seeds = []

        def recording(config, out_dir):
            first = config.seed_simulation + 1
            seeds.append(range(first, first + config.iterations))
            return [types.SimpleNamespace(max_sq_err=1e-3)], None

        monkeypatch.setattr(cli, "run_experiment", recording)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**TINY, "iterations": iterations}))
        out = tmp_path / "study"
        code = cli.main(["converge", "--config", str(path), "--steps", "2", "--runs", "3",
                         "--keep", "1", "--out", str(out)])
        if iterations <= cli.RUN_SEED_STRIDE:
            assert code == 0 and len(seeds) == 3
            assert all(a[-1] < b[0] for a, b in zip(seeds, seeds[1:]))
        else:
            assert code == 1 and not seeds and not out.exists()
            assert "seed stride" in capsys.readouterr().err

    def test_a_step_count_with_too_many_jumps_per_interval_fails_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        # intensity 1000 over T = 1: N=4 draws Poisson(250) counts, N=1
        # Poisson(1000), whose CDF cannot start at exp(-1000)
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda config, out_dir: runs.append(config))
        path = tmp_path / "jumpy.json"
        path.write_text(json.dumps({**TINY, "problem": {"name": "pide_1d", "lam": 1000.0}}))
        out = tmp_path / "study"
        code = cli.main(["converge", "--config", str(path), "--steps", "4,1", "--runs", "1",
                         "--keep", "1", "--out", str(out)])
        assert code == 1 and not runs and not out.exists()
        assert "Poisson mean 1000.0 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--steps", "2,x"], ["--steps", "0"], ["--steps", "2,-4"],
                                      ["--steps", "2", "--runs", "1", "--keep", "2"],
                                      ["--steps", "2,2"], ["--steps", str(10**400)]])
    def test_bad_arguments_exit_one(self, config_path, tmp_path, args, capsys):
        out = tmp_path / "study"
        assert cli.main(["converge", "--config", str(config_path), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        arch = nn.MlpArchitecture(input_dim=4, hidden=(9, 5), activation="leaky_relu")
        params = nn.init(arch, seed=99)
        params.weights[1][2, 3] = 5e-324  # subnormal
        params.biases[0][1] = -0.0
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, params, iteration=17, lr=3.5e-4)
        loaded, iteration, lr = cli.load_checkpoint(path)
        assert loaded.arch == params.arch
        assert (iteration, lr) == (17, 3.5e-4)
        assert loaded.theta.shape == params.theta.shape
        assert loaded.theta.tobytes() == params.theta.tobytes()

    def test_file_holds_the_vector_as_base64_float64(self, tmp_path):
        params = nn.init(nn.MlpArchitecture(input_dim=3, hidden=(7,), activation="leaky_relu",
                                            alpha=0.0), seed=4)
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, params, iteration=9, lr=1e-3 / 3)
        model = {
            "architecture": {"input_dim": 3, "hidden": [7], "activation": "leaky_relu",
                             "alpha": 0.0},
            "params": base64.b64encode(params.theta.astype("<f8").tobytes()).decode("ascii"),
        }
        payload = {"iteration": 9, "lr": 1e-3 / 3, "array_format": "theta-base64-float64-le",
                   "model": model}
        assert path.read_text() == json.dumps(payload)

    @pytest.mark.parametrize("old_format", ["base64 arrays", "nested lists"])
    def test_old_format_checkpoint_exits_one_naming_the_format(self, config_path, tmp_path,
                                                               old_format, capsys):
        # per-layer weights and biases, as base64 arrays under "base64-float64-le"
        # or, before that, as nested lists under no format name
        params = nn.init(cli.load_config(str(config_path)).architecture, 5)
        if old_format == "base64 arrays":
            def encode(a):
                return {"shape": list(a.shape),
                        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
            header = {"array_format": "base64-float64-le"}
        else:
            def encode(a):
                return a.tolist()
            header = {}
        model = {
            "architecture": {"input_dim": 2, "hidden": [6], "activation": "tanh", "alpha": 0.01},
            "weights": [encode(w) for w in params.weights],
            "biases": [encode(b) for b in params.biases],
        }
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"iteration": 4, "lr": 1e-2, **header, "model": model}))
        code = cli.main(["eval", "--checkpoint", str(path), "--config", str(config_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "'theta-base64-float64-le'" in err

    def test_checkpoint_naming_relu_exits_one_listing_the_activations(self, config_path,
                                                                     tmp_path, capsys):
        # no fallback reads relu as leaky relu at alpha 0
        path = tmp_path / "checkpoint.json"
        config = cli.load_config(str(config_path))
        cli.save_checkpoint(path, nn.init(config.architecture, 5), iteration=4, lr=1e-2)
        payload = json.loads(path.read_text())
        payload["model"]["architecture"].update(activation="relu", alpha=0.0)
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path), "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "the activations are tanh, leaky_relu" in err

    @pytest.mark.parametrize("damage", [
        "not json", "no params", "wrong shape", "not base64", "short data",
        "iteration a string", "iteration a float", "iteration a bool", "lr a string",
        "lr NaN", "lr 1e999", "float widths", "input_dim a string", "no alpha", "no activation",
    ])
    def test_unreadable_checkpoint_exits_one(self, config_path, tmp_path, damage, capsys):
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, nn.init(cli.load_config(str(config_path)).architecture, 5),
                            iteration=4, lr=1e-2)
        payload = json.loads(path.read_text())
        model, arch = payload["model"], payload["model"]["architecture"]
        if damage == "no params":
            del model["params"]
        elif damage == "wrong shape":  # well formed, but not the architecture's length
            model["params"] = base64.b64encode(np.array([0.5, -1.5]).tobytes()).decode()
        elif damage == "not base64":
            model["params"] = "not base64!"
        elif damage == "short data":
            model["params"] = model["params"][:-4]
        elif damage.startswith("iteration"):
            payload["iteration"] = {"a string": "7", "a float": 7.9, "a bool": True}[damage[10:]]
        elif damage == "lr a string":
            payload["lr"] = "0.5"
        elif damage == "float widths":
            arch["hidden"] = [6.0]
        elif damage == "input_dim a string":
            arch["input_dim"] = "2"
        elif damage.startswith("no "):
            del arch[damage[3:]]
        text = "{not json" if damage == "not json" else json.dumps(payload)
        # literals that plain json.loads reads as nan and inf
        literal = {"lr NaN": "NaN", "lr 1e999": "1e999"}.get(damage)
        if literal:
            text = text.replace('"lr": 0.01', f'"lr": {literal}')
            assert f'"lr": {literal}' in text
        path.write_text(text)
        code = cli.main(["eval", "--checkpoint", str(path), "--config", str(config_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("config error:") and out == ""
        if literal:
            assert f"number {literal} is not finite" in err
        if damage == "wrong shape":  # the parameter vector's check, not the decoder's
            assert "parameter vector of shape (2,) does not fit" in err
