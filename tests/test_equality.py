import numpy as np
import pytest

import equality


@pytest.fixture
def stored(tmp_path):
    """Write two .npz files of equality fields; returns ``compare``'s exit code on them."""
    def compare(a: dict, b: dict) -> int:
        np.savez(tmp_path / "a.npz", **a)
        np.savez(tmp_path / "b.npz", **b)
        return equality.compare(tmp_path / "a.npz", tmp_path / "b.npz")

    return compare


FIELDS = {
    "p-B4/train_states": np.arange(6.0),
    "p-B4/heldout_counts": np.arange(3),
    "p-tanh-h1-B4/loss": np.float64(0.25),
    "p-tanh-h1-B4/terms": np.array([1e-3, 2e-3]),
    "p-tanh-h1-B4/heldout_terms": np.array([3e-3]),
    "p-tanh-h1-B4/values": np.array([0.5, 0.75]),
    "p-tanh-h1-B4/grad": np.array([1.0, -2.0, 0.5]),
    "p-tanh-run/metrics.csv": np.frombuffer(b"iteration\n2\n", np.uint8),
}


def changed(key, value):
    return {**FIELDS, key: value}


def test_verdict_equal_within_the_allowances(stored, capsys):
    one_ulp = np.nextafter(FIELDS["p-tanh-h1-B4/terms"], 1.0)
    grad = FIELDS["p-tanh-h1-B4/grad"] + np.array([0.0, 1.5e-12, 0.0])
    other = {**FIELDS, "p-tanh-h1-B4/terms": one_ulp, "p-tanh-h1-B4/grad": grad,
             # fields the verdict does not gate
             "p-tanh-h1-B4/values": np.array([0.5, 0.8]),
             "p-tanh-run/metrics.csv": np.frombuffer(b"iteration\n3\n", np.uint8)}
    assert stored(FIELDS, other) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: equal")


@pytest.mark.parametrize("key, value", [
    ("p-B4/train_states", np.nextafter(np.arange(6.0), 7.0)),
    ("p-B4/heldout_counts", np.arange(3) + 1),
    ("p-tanh-h1-B4/loss", np.nextafter(np.nextafter(np.float64(0.25), 1.0), 1.0)),
    ("p-tanh-h1-B4/terms", np.array([1e-3, 2.000000000001e-3])),
    ("p-tanh-h1-B4/heldout_terms", np.array([3e-3, 0.0])),
    ("p-tanh-h1-B4/grad", np.array([1.0, -2.0, 0.5 + 2.5e-12])),
])
def test_verdict_not_equal_past_an_allowance(stored, capsys, key, value):
    assert stored(FIELDS, changed(key, value)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("verdict: not equal")
    assert out[-2].startswith(f"{key}: ")


def test_tally_prints_the_worst_relative_gap_beside_the_ulps(stored, capsys):
    terms = FIELDS["p-tanh-h1-B4/terms"]
    one_ulp = np.nextafter(terms, 1.0)
    assert stored(FIELDS, changed("p-tanh-h1-B4/terms", one_ulp)) == 0
    (line,) = [row for row in capsys.readouterr().out.splitlines() if row.startswith("terms")]
    worst = np.max(np.abs(one_ulp - terms) / one_ulp)
    assert line.split()[-2:] == [f"{worst:.3g}", "1"]
    # both zero gives no gap, a sign change the whole magnitude
    assert equality.relative_gap(np.array([0.0, 2.0, -4.0]), np.array([0.0, 2.5, -4.0])) == 0.2
    assert equality.relative_gap(np.array([0.0, 1.0]), np.array([-0.0, -1.0])) == 2.0


@pytest.mark.parametrize("activation, alpha, label", [
    ("relu", 0.01, "relu"),  # the spelling of trees that have a relu activation
    ("leaky_relu", 0.0, "relu"),
    ("leaky_relu", 0.01, "leaky_relu"),
    ("tanh", 0.0, "tanh"),
])
def test_relu_cases_keep_their_label_in_either_spelling(activation, alpha, label):
    assert equality.case_label(activation, alpha) == label
