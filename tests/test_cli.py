import json

import numpy as np
import pytest

from pidenet import cli, metrics, nn

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


def last_row(path):
    return path.read_text().splitlines()[-1]


class TestTrainAndEval:
    def test_train_exits_zero_and_writes_its_files(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("metrics.csv", "breakdown.jsonl", "checkpoint.json",
                     "error_by_time.csv", "error_grid.csv"):
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

    def test_missing_config_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli.main(["train", "--config", str(missing), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", json.dumps({**TINY, "steps": 0}),
                                      json.dumps({k: v for k, v in TINY.items() if k != "seeds"})])
    def test_bad_config_exits_one(self, tmp_path, text, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_nan_coefficient_exits_two(self, tmp_path, capsys):
        # json reads NaN; the held-out batch is simulated before the first
        # iteration, so its path states turn non-finite at interval 1 and
        # the abort is recorded as iteration 0
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**TINY, "problem": {"name": "pide_1d", "eps": float("nan")}}))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("numerical abort")
        abort = json.loads((tmp_path / "run" / "abort.json").read_text())
        assert abort["iteration"] == 0
        assert abort["error"] == "non-finite state at interval 1, path 0"


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
