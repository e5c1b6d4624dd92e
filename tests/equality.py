"""Equality harness: batches, losses, gradients and run files of one source tree, for comparing two.

    python tests/equality.py --src <tree>/src --out A.npz
    python tests/equality.py --compare A.npz B.npz

The first form imports ``pidenet`` from ``--src`` and stores, per case,
the training loss (``loss``), its interval terms (``terms``), the
network values of ``LossBreakdown.values`` (``values``), the held-out
pass's total, terms and values (``heldout_*``, from ``scheme.loss`` on
the whole held-out batch) and the gradient of the
loss with respect to the parameters (``grad``), one vector in the order
w0, b0, w1, b1, ..., each C-ordered: the network's one parameter vector,
or the concatenation of its per-layer arrays in trees that keep them
apart.  The cases are every packaged preset under each activation,
at B = 64 and 300 paths and with 1, 2 and 3 hidden layers of the
preset's first width, from fixed seeds and with perturbed parameters, so
that no bias is zero.  The training and held-out batches that the cases
of one preset and B share are stored once, under ``<preset>-B<B>``
(``train_*`` and ``heldout_*``): states, Brownian increments, counts,
event paths, event intervals and event marks.

At B = 300 each case also stores what ``cli._evaluate`` reports on that
held-out batch: its CSV row (``eval_row``, as uint8 bytes), its error by
time (``eval_node_errors``) and, for 1-D problems, its error-grid rows
(``eval_grid``).  ``_evaluate`` may run the batch in blocks of paths, as the d=100
presets ``highdim`` and ``bsb`` do at this size (six blocks each), so
these fields compare its blocks with a tree that evaluates in one pass.

Each preset also runs with jump intensity 0 (``<preset>-nojump``), at B
= 64 and with 2 hidden layers under each activation, so that its batches
hold no jump event and every jump-event array is empty.

Short training runs store the bytes of the files they write
(``<preset>-<activation>-run/<file>``, as uint8 arrays): ``metrics.csv``,
``error_by_time.csv``, ``error_grid.csv`` (1-D problems),
``breakdown.jsonl``, ``checkpoint.json`` and the CSV that ``pidenet
eval --out`` writes from that checkpoint.  A two-N, two-run step study
stores its ``convergence.csv``.  They go through ``config_from_dict``,
``run_experiment``, ``run_convergence_study`` and ``cli.main``.

The second form prints, per field and activation (``-`` for the
batches), how many cases are byte-identical, in shape and dtype too, the
worst gap relative to each array's max |x| and, for float fields, the
most float64 steps (units in the last place, ULPs) between two matching
elements.

BLAS is pinned to one thread before numpy loads, as importing the
package does; older trees pin it only in ``cli``.  pytest does not
collect this file.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import re
import sys
import tempfile
from collections import defaultdict
from importlib import resources
from pathlib import Path

import numpy as np

ACTIVATIONS = ("tanh", "relu", "leaky_relu")
BATCHES = (64, 300)
EVAL_BATCH = 300  # the B at which cases store cli._evaluate's figures
DEPTHS = (1, 2, 3)
NO_JUMP_BATCHES = (64,)
NO_JUMP_DEPTHS = (2,)
BATCH_FIELDS = ("states", "brownian", "counts", "event_paths", "event_intervals", "event_marks")
RUN_FILES = ("metrics.csv", "error_by_time.csv", "error_grid.csv", "breakdown.jsonl",
             "checkpoint.json", "eval.csv")
# short runs of three presets, each overriding the config keys given: pide1d
# is relu, piecewise and 1-D (so it writes error_grid.csv), convergence tanh
# and cosine (clamped from step 3), bsb_d4 leaky relu.  pide1d's evaluation
# interval divides its iteration count; the others' does not
RUNS = {
    "pide1d": {"steps": 5, "batch_size": 32, "iterations": 4, "checkpoint_interval": 2,
               "eval_batch_size": 40,
               "lr_schedule": {"kind": "piecewise", "milestones": [[0, 0.001], [2, 0.0005]]}},
    "convergence": {"batch_size": 32, "iterations": 5, "checkpoint_interval": 2,
                    "eval_batch_size": 40,
                    "lr_schedule": {"kind": "cosine", "start": 0.01, "end": 1e-5,
                                    "total_steps": 3}},
    "bsb_d4": {"steps": 5, "batch_size": 16, "iterations": 3, "checkpoint_interval": 2,
               "eval_batch_size": 20},
}


def cases(src: Path) -> dict[str, np.ndarray]:
    """Every case's fields of the tree under ``src``, keyed ``<case>/<field>``."""
    sys.path.insert(0, str(src.resolve()))
    from pidenet import cli

    print(f"pidenet from {Path(cli.__file__).parent}", flush=True)

    out = {}
    for preset in cli.preset_names():
        out.update(preset_cases(preset, cli.load_config(preset), BATCHES, DEPTHS))
        # the preset with intensity 0, so that no batch holds a jump event
        data = preset_data(preset)
        data["problem"]["lam"] = 0.0
        out.update(preset_cases(f"{preset}-nojump", cli.config_from_dict(data, preset),
                                NO_JUMP_BATCHES, NO_JUMP_DEPTHS))
    with tempfile.TemporaryDirectory() as tmp:
        out.update(run_files(Path(tmp)))
    return out


def preset_data(preset: str) -> dict:
    return json.loads(resources.files("pidenet").joinpath(f"configs/{preset}.json").read_text())


def file_bytes(path: Path) -> np.ndarray:
    return np.frombuffer(path.read_bytes(), dtype=np.uint8)


def run_files(tmp: Path) -> dict[str, np.ndarray]:
    """The files of the ``RUNS`` and of a two-N, two-run ``convergence`` study, under ``tmp``."""
    from pidenet import cli

    out = {}
    for preset, overrides in RUNS.items():
        data = {**preset_data(preset), **overrides}
        config_path = tmp / f"{preset}.json"
        config_path.write_text(json.dumps(data))
        run_dir = tmp / preset
        cli.run_experiment(cli.config_from_dict(data, preset), run_dir)
        if cli.main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--config", str(config_path), "--out", str(run_dir / "eval.csv")]):
            raise SystemExit(f"eval of {preset} failed")
        case = f"{preset}-{data.get('activation', 'tanh')}-run"
        written = [name for name in RUN_FILES if (run_dir / name).exists()]
        out.update({f"{case}/{name}": file_bytes(run_dir / name) for name in written})
        print(case, written, flush=True)
    data = {**preset_data("convergence"), "batch_size": 16, "iterations": 2, "eval_batch_size": 20}
    cli.run_convergence_study(cli.config_from_dict(data, "convergence"), [2, 4], runs=2, keep=1,
                              out_dir=tmp / "study")
    out["convergence-study/convergence.csv"] = file_bytes(tmp / "study" / "convergence.csv")
    return out


def preset_cases(label: str, config, batch_sizes, depths) -> dict[str, np.ndarray]:
    """The batches and cases of one config, named after ``label``."""
    from pidenet import cli, jumpsim, nn, scheme
    from pidenet.autodiff import Tape, Variable

    out = {}
    batches = {}
    for batch_size in batch_sizes:
        batches[batch_size] = pair = [
            jumpsim.simulate_forward(config.problem, config.grid, batch_size, seed, stream)
            for seed, stream in ((config.seed_simulation, 0), (config.seed_evaluation, 1))
        ]
        for prefix, batch in zip(("train", "heldout"), pair):
            for name in BATCH_FIELDS:
                out[f"{label}-B{batch_size}/{prefix}_{name}"] = getattr(batch, name)
    for activation in ACTIVATIONS:
        for n_hidden in depths:
            arch = nn.MlpArchitecture(input_dim=1 + config.problem.dim,
                                      hidden=(config.hidden[0],) * n_hidden,
                                      activation=activation, alpha=0.1)
            rng = np.random.default_rng(n_hidden)
            params = nn.init(arch, seed=config.seed_init)
            for w, b in zip(params.weights, params.biases):  # in place, w0, b0, w1, b1, ...
                w += rng.normal(scale=0.1, size=w.shape)
                b += rng.normal(scale=0.1, size=b.shape)
            for batch_size in batch_sizes:
                case = f"{label}-{activation}-h{n_hidden}-B{batch_size}"
                batch, held_out = batches[batch_size]
                tape = Tape()
                net = nn.TapeMlp(tape, params)
                total, breakdown = scheme.loss(net, batch, config.problem)
                # the parameter leaves the network holds, in its order:
                # one vector, or one array per weight and bias
                leaves = [v for held in vars(net).values()
                          for v in (held if isinstance(held, list) else [held])
                          if isinstance(v, Variable)]
                grad = np.concatenate([g.ravel() for g in tape.backward(total, leaves)])
                del tape, net, total
                heldout = scheme.loss(nn.TapeMlp(Tape(), params, trainable=False), held_out,
                                      config.problem)[1]
                fields = {
                    "loss": np.float64(breakdown.total),
                    "terms": breakdown.interval_terms,
                    "values": breakdown.values,
                    "heldout_loss": np.float64(heldout.total),
                    "heldout_terms": heldout.interval_terms,
                    "heldout_values": heldout.values,
                    "grad": grad,
                }
                if batch_size == EVAL_BATCH:
                    report, grid_rows = cli._evaluate(
                        dataclasses.replace(config, eval_batch_size=batch_size), params,
                        0, 1e-3, 0.0, error_grid=config.problem.dim == 1)
                    fields["eval_row"] = np.frombuffer(report.csv_row().encode(), np.uint8)
                    fields["eval_node_errors"] = report.node_errors
                    if grid_rows is not None:
                        fields["eval_grid"] = np.array(grid_rows)
                out.update({f"{case}/{name}": np.asarray(a) for name, a in fields.items()})
                print(case, f"loss {breakdown.total:.17g}", flush=True)
    return out


def ulp_distance(x: np.ndarray, y: np.ndarray) -> int:
    """Most float64 steps between matching elements of ``x`` and ``y`` (same shape)."""
    def ordered(a):  # integers in the order of the floats, +0.0 and -0.0 both 0
        k = a.astype(np.float64).view(np.int64)
        return np.where(k < 0, np.iinfo(np.int64).min - k, k)

    ox, oy = ordered(x), ordered(y)
    # hi - lo < 2**64, so the wrapped unsigned difference is exact
    gap = np.maximum(ox, oy).view(np.uint64) - np.minimum(ox, oy).view(np.uint64)
    return int(gap.max()) if gap.size else 0


def compare(a_path: Path, b_path: Path) -> int:
    """Print the per-field, per-activation tally; 1 if the two files hold different keys."""
    a, b = np.load(a_path), np.load(b_path)
    if set(a.files) != set(b.files):
        print(f"different cases or fields: {sorted(set(a.files) ^ set(b.files))[:10]}")
        return 1
    same, total, worst = defaultdict(int), defaultdict(int), defaultdict(float)
    ulps = {}  # float fields only
    for key in sorted(a.files):
        case, name = key.split("/")
        activation = next((act for act in ACTIVATIONS if f"-{act}-" in case), "-")
        group = (re.sub(r"\d+$", "", name), activation)
        x, y = a[key], b[key]
        total[group] += 1
        if x.dtype.kind == "f":
            ulps.setdefault(group, 0)
        if x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes():
            same[group] += 1
            continue
        scale = np.max(np.abs(x)) if x.size else 0.0
        # in float64, so that the bytes of run files do not wrap around
        gap = (np.max(np.abs(x.astype(np.float64) - y)) / scale
               if x.shape == y.shape and scale else np.inf)
        worst[group] = max(worst[group], float(gap))
        if group in ulps:
            ulps[group] = (max(ulps[group], ulp_distance(x, y))
                           if x.shape == y.shape and y.dtype.kind == "f" else np.inf)
    print(f"{'field':<24}{'activation':<12}{'identical':>12}  {'worst gap / max|x|':<20}worst ULPs")
    for group in sorted(total):
        print(f"{group[0]:<24}{group[1]:<12}{same[group]:>6} / {total[group]:<4} "
              f"{worst[group]:<20.3g}{ulps.get(group, '-')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="the tree's src directory, holding pidenet")
    parser.add_argument("--out", type=Path, help="the .npz file to write")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.src and args.out):
        parser.error("give --src and --out, or --compare A B")
    np.savez(args.out, **cases(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
