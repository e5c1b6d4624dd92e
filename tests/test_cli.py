import dataclasses
import json
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

from pidenet import autodiff, cli, jumpsim, metrics, nn
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
        lines = [r.getMessage().split() for r in caplog.records if r.name == "pidenet.cli"]
        assert [words[1] for words in lines] == ["2/4", "4/4"]
        for words, report in zip(lines, reports):
            assert [words[2], words[4], words[7]] == ["loss", "mean_rel_err", "ms/iter"]
            assert float(words[3]) == pytest.approx(report.loss, rel=1e-6)
            assert float(words[5]) == pytest.approx(report.mean_rel_err, rel=1e-4)
            assert float(words[6]) > 0.0

    def test_same_seed_writes_identical_files(self, config_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert train(config_path, first) == 0
        assert train(config_path, second) == 0
        for name in RUN_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_worker_count_does_not_change_the_files(self, config_path, tmp_path, monkeypatch,
                                                    chunk_workers):
        # 64-row chunks: 3 in each training pass, 4 in the held-out pass
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 64)
        runs = []
        for workers in (1, 2):
            chunk_workers(workers)
            runs.append(tmp_path / f"workers{workers}")
            assert train(config_path, runs[-1]) == 0
        for name in RUN_FILES:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_train_and_eval_run_the_network_only_in_the_loss(self, config_path, tmp_path,
                                                             monkeypatch):
        def second_pass(*args, **kwargs):
            raise AssertionError("nn.evaluate called outside the loss")

        monkeypatch.setattr(nn, "evaluate", second_pass)
        out = tmp_path / "run"
        assert train(config_path, out) == 0
        code = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                         "--config", str(config_path)])
        assert code == 0

    def test_held_out_pass_keeps_no_gradient_state(self, config_path, monkeypatch,
                                                   tape_variables):
        # 64-row chunks: the held-out pass's network node has 4 of them
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 64)
        config = cli.load_config(str(config_path))
        params = nn.init(config.architecture, seed=5)
        params = params.replace_flat([a + 0.1 for a in params.flat_list()])

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

    def test_held_out_pass_peaks_near_one_chunk(self, chunk_workers, monkeypatch):
        # highdim_d10 (d=10, 2x64 leaky relu) at B=200: 10200 node rows in
        # five 2048-row chunks on one worker; one hidden layer of one chunk
        # is 1 MiB.  Peak above the batch measured at 4.42 MiB, inside the
        # network node, also before sigma and the compensator became (1, d)
        # rows and the loss read the Brownian stack in place; 5.28 MiB
        # while the loss copied the network input and held the Brownian
        # stack through the driver; 8.65 MiB while the tape held every
        # constant and each forward-only chunk kept every layer's output
        # and its gradient chain
        chunk_workers(1)
        config = dataclasses.replace(cli.load_config("highdim_d10"), eval_batch_size=200)
        params = nn.init(config.architecture, seed=config.seed_init)
        # simulated before the trace starts, so the peak is the pass's own
        eval_batch = jumpsim.simulate_forward(config.problem, config.grid, 200,
                                              config.seed_evaluation, stream=cli.EVAL_STREAM)
        monkeypatch.setattr(jumpsim, "simulate_forward", lambda *args, **kwargs: eval_batch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._evaluate(config, params, 0, 1e-3, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak / 2**20

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
                                      json.dumps({**TINY, "adam": {"beta3": 0.5}}),
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
                                      json.dumps({**TINY, "adam": {"beta1": 1.0}}),
                                      json.dumps({**TINY, "adam": {"beta2": 2.0}}),
                                      json.dumps({**TINY, "adam": {"beta1": -0.1}}),
                                      json.dumps({**TINY, "adam": {"eps": -1}}),
                                      json.dumps({**TINY, "adam": {"eps": 0}}),
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
                                      json.dumps({**TINY, "seeds": {**TINY["seeds"], "extra": 4}}),
                                      # number fields take JSON ints or floats, never bools
                                      json.dumps({**TINY, "leaky_alpha": "0.5"}),
                                      json.dumps({**TINY, "leaky_alpha": True}),
                                      json.dumps({**TINY, "adam": {"beta1": "0.9"}}),
                                      json.dumps({**TINY, "adam": {"eps": True}}),
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
                                          "total_steps": 20, "warmup": 5}})])
    def test_bad_config_exits_one(self, tmp_path, text, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert train(path, tmp_path / "run") == 1
        assert "config error" in capsys.readouterr().err
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

        def failing_held_out(problem, grid, batch_size, seed, stream=0):
            if stream == cli.EVAL_STREAM:
                raise SimulationError("non-finite state at interval 3, path 5")
            return simulate(problem, grid, batch_size, seed, stream)

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

        def recording(problem, grid, batch_size, seed, stream=0):
            batch = simulate(problem, grid, batch_size, seed, stream)
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

    @pytest.mark.parametrize("args", [["--steps", "2,x"], ["--steps", "0"], ["--steps", "2,-4"],
                                      ["--steps", "2", "--runs", "1", "--keep", "2"],
                                      ["--steps", "2,2"]])
    def test_bad_arguments_exit_one(self, config_path, tmp_path, args, capsys):
        out = tmp_path / "study"
        assert cli.main(["converge", "--config", str(config_path), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        arch = nn.MlpArchitecture(input_dim=4, hidden=(9, 5), activation="leaky_relu")
        params = nn.init(arch, seed=99)
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, params, iteration=17, lr=3.5e-4)
        loaded, iteration, lr = cli.load_checkpoint(path)
        assert loaded.arch == params.arch
        assert (iteration, lr) == (17, 3.5e-4)
        for a, b in zip(params.flat_list(), loaded.flat_list()):
            assert np.array_equal(a, b)

    def test_file_is_what_json_dump_writes(self, tmp_path):
        params = nn.init(nn.MlpArchitecture(input_dim=3, hidden=(7,), activation="relu"), seed=4)
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, params, iteration=9, lr=1e-3 / 3)
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            model = {
                "architecture": {"input_dim": 3, "hidden": [7], "activation": "relu", "alpha": 0.01},
                "weights": [w.tolist() for w in params.weights],
                "biases": [b.tolist() for b in params.biases],
            }
            json.dump({"iteration": 9, "lr": 1e-3 / 3, "model": model}, fh)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("damage", ["not json", "no weights", "wrong shape"])
    def test_unreadable_checkpoint_exits_one(self, config_path, tmp_path, damage, capsys):
        path = tmp_path / "checkpoint.json"
        cli.save_checkpoint(path, nn.init(cli.load_config(str(config_path)).architecture, 5),
                            iteration=4, lr=1e-2)
        payload = json.loads(path.read_text())
        if damage == "no weights":
            del payload["model"]["weights"]
        elif damage == "wrong shape":
            payload["model"]["weights"][0] = [[1.0, 2.0]]
        path.write_text("{not json" if damage == "not json" else json.dumps(payload))
        code = cli.main(["eval", "--checkpoint", str(path), "--config", str(config_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err
