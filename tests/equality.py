"""Equality harness: batches, losses, gradients and run files of one source tree, for comparing two.

    python tests/equality.py --src <tree>/src --out A.npz
    python tests/equality.py --compare A.npz B.npz

The first form imports ``pidenet`` from ``--src`` and stores, per case,
the training loss (``loss``), its interval terms (``terms``), the
network's value at every (node, path), the third result of
``scheme.squared_residuals`` (``values``), the held-out pass's total,
terms and values (``heldout_*``, from ``squared_residuals`` and
``reduce_residuals`` on the whole held-out batch) and the gradient of the
loss with respect to the parameters (``grad``; ``loss_and_values`` says
how it is taken in trees that reduce on the tape and in those that do
not), one vector in the order
w0, b0, w1, b1, ..., each C-ordered: the network's one parameter vector,
or the concatenation of its per-layer arrays in trees that keep them
apart.  The cases are every packaged preset under each label of
``ACTIVATIONS`` (tanh, relu as leaky relu at alpha 0, leaky relu at
alpha 0.1), at B = 64 and 300 paths and with 1, 2 and 3 hidden layers
of the preset's first width, from fixed seeds and with perturbed
parameters, so that no bias is zero.  The training and held-out batches that the cases
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
(``<preset>-<label>-run/<file>``, as uint8 arrays, labelled as the cases
are): ``metrics.csv``, ``error_by_time.csv``, ``error_grid.csv`` (1-D
problems), ``breakdown.jsonl``, ``checkpoint.json`` and the CSV that ``pidenet
eval --out`` writes from that checkpoint.  A two-N, two-run step study
stores its ``convergence.csv``.  They go through ``config_from_dict``,
``run_experiment``, ``run_convergence_study`` and ``cli.main``.

The second form prints, per field and activation label (``-`` for the
batches), how many cases are byte-identical, in shape and dtype too, the
worst gap relative to each array's max |x| and, for float fields, the
worst gap of two matching elements relative to the larger of them and
the most float64 steps (units in the last place, ULPs) between them.  It
ends with a verdict on whether the two trees are equal: every batch
field byte-identical, every ``loss``, ``terms`` and other ``heldout_*``
float within 1 ULP, and every ``grad`` within 1e-12 of its max |g|.  It
exits with 1 if they are not, or if the two files hold different keys.

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

# each case label's activation and leaky relu slope
ACTIVATIONS = {"tanh": ("tanh", 0.1), "relu": ("leaky_relu", 0.0),
               "leaky_relu": ("leaky_relu", 0.1)}
BATCHES = (64, 300)
EVAL_BATCH = 300  # the B at which cases store cli._evaluate's figures
DEPTHS = (1, 2, 3)
NO_JUMP_BATCHES = (64,)
NO_JUMP_DEPTHS = (2,)
BATCH_FIELDS = ("states", "brownian", "counts", "event_paths", "event_intervals", "event_marks")
# the verdict's "equal": ULPs between losses, gap between gradients over max |g|
LOSS_ULPS = 1
GRAD_GAP = 1e-12
RUN_FILES = ("metrics.csv", "error_by_time.csv", "error_grid.csv", "breakdown.jsonl",
             "checkpoint.json", "eval.csv")
# short runs of three presets, each overriding the config keys given: pide1d
# is relu (leaky relu at alpha 0), piecewise and 1-D (so it writes
# error_grid.csv), convergence tanh and cosine (clamped from step 3), bsb_d4
# leaky relu.  pide1d's evaluation interval divides its iteration count; the
# others' does not
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


def case_label(activation: str, alpha: float) -> str:
    """The case label of a network: ``relu`` for leaky relu at alpha 0, else the activation."""
    return "relu" if activation == "leaky_relu" and alpha == 0.0 else activation


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
        activation = case_label(data.get("activation", "tanh"), data.get("leaky_alpha", 0.01))
        case = f"{preset}-{activation}-run"
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
    from pidenet import cli, jumpsim, nn
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
    for name, (activation, alpha) in ACTIVATIONS.items():
        for n_hidden in depths:
            arch = nn.MlpArchitecture(input_dim=1 + config.problem.dim,
                                      hidden=(config.architecture.hidden[0],) * n_hidden,
                                      activation=activation, alpha=alpha)
            rng = np.random.default_rng(n_hidden)
            params = nn.init(arch, seed=config.seed_init)
            for w, b in zip(params.weights, params.biases):  # in place, w0, b0, w1, b1, ...
                w += rng.normal(scale=0.1, size=w.shape)
                b += rng.normal(scale=0.1, size=b.shape)
            for batch_size in batch_sizes:
                case = f"{label}-{name}-h{n_hidden}-B{batch_size}"
                batch, held_out = batches[batch_size]
                net = nn.TapeMlp(Tape(), params)
                # the parameter leaves the network holds, in its order:
                # one vector, or one array per weight and bias
                leaves = [v for held in vars(net).values()
                          for v in (held if isinstance(held, list) else [held])
                          if isinstance(v, Variable)]
                breakdown, values, grads = loss_and_values(net, batch, config, leaves)
                grad = np.concatenate([g.ravel() for g in grads])
                del net, grads
                heldout, heldout_values, _ = loss_and_values(
                    nn.TapeMlp(Tape(), params, trainable=False), held_out, config)
                fields = {
                    "loss": np.float64(breakdown.total),
                    "terms": breakdown.interval_terms,
                    "values": values,
                    "heldout_loss": np.float64(heldout.total),
                    "heldout_terms": heldout.interval_terms,
                    "heldout_values": heldout_values,
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


def loss_and_values(net, batch, config, wrt=()):
    """``scheme.loss``'s breakdown, a copy of the network's (N+1, B) node values, and the gradients.

    The gradients are those of the loss's total for each variable of
    ``wrt``.  A tree whose ``Tape`` has ``block_mean`` reduces the squares
    on the tape and differentiates the scalar total; a later one reduces
    them in numpy and seeds the backward of every square with the total's
    adjoint on it, float64(1/(N+1)) / B.
    """
    from pidenet import scheme
    from pidenet.autodiff import Tape

    interval_sq, terminal_sq, values = scheme.squared_residuals(net, batch, config.problem)
    steps = config.grid.steps
    if hasattr(Tape, "block_mean"):
        total, breakdown = scheme.reduce_residuals(interval_sq, terminal_sq, steps)
        return breakdown, values.copy(), net.tape.backward(total, wrt)
    breakdown = scheme.reduce_residuals(interval_sq.value, terminal_sq.value, steps)
    seed = (1.0 / (steps + 1)) / batch.batch_size
    grads = net.tape.backward([interval_sq, terminal_sq], [seed, seed], wrt)
    return breakdown, values.copy(), grads


def ulp_distance(x: np.ndarray, y: np.ndarray) -> int:
    """Most float64 steps between matching elements of ``x`` and ``y`` (same shape)."""
    def ordered(a):  # integers in the order of the floats, +0.0 and -0.0 both 0
        k = a.astype(np.float64).view(np.int64)
        return np.where(k < 0, np.iinfo(np.int64).min - k, k)

    ox, oy = ordered(x), ordered(y)
    # hi - lo < 2**64, so the wrapped unsigned difference is exact
    gap = np.maximum(ox, oy).view(np.uint64) - np.minimum(ox, oy).view(np.uint64)
    return int(gap.max()) if gap.size else 0


def relative_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Largest |x - y| / max(|x|, |y|) over matching elements (same shape); 0 where both are 0."""
    x, y = x.astype(np.float64), y.astype(np.float64)
    gap, big = np.abs(x - y), np.maximum(np.abs(x), np.abs(y))
    ratio = np.divide(gap, big, out=np.zeros_like(gap), where=big > 0.0)
    return float(ratio.max()) if ratio.size else 0.0


def unequal(name: str, x: np.ndarray, y: np.ndarray) -> str | None:
    """How the two values of field ``name`` break the verdict's definition of equal, or None."""
    batch = name.split("_", 1)[-1] in BATCH_FIELDS  # the train_* and heldout_* batch fields
    gated = batch or name in ("loss", "terms", "grad") or name.startswith("heldout_")
    if not gated:
        return None
    if x.shape != y.shape:
        return f"shapes {x.shape} and {y.shape}"
    if batch:
        return None if x.dtype == y.dtype and x.tobytes() == y.tobytes() else "not byte-identical"
    if name == "grad":
        scale = np.max(np.abs(x)) if x.size else 0.0
        gap = np.max(np.abs(x - y)) if x.size else 0.0
        return None if gap <= GRAD_GAP * scale else f"{gap / scale:.3g} of max|g| apart"
    ulps = ulp_distance(x, y)
    return None if ulps <= LOSS_ULPS else f"{ulps} ULPs apart"


def compare(a_path: Path, b_path: Path) -> int:
    """Print the per-field, per-activation tally and the verdict; 1 unless the trees are equal."""
    a, b = np.load(a_path), np.load(b_path)
    if set(a.files) != set(b.files):
        print(f"different cases or fields: {sorted(set(a.files) ^ set(b.files))[:10]}")
        return 1
    same, total, worst = defaultdict(int), defaultdict(int), defaultdict(float)
    failures = []
    ulps, rel = {}, {}  # float fields only
    for key in sorted(a.files):
        case, name = key.split("/")
        activation = next((act for act in ACTIVATIONS if f"-{act}-" in case), "-")
        group = (re.sub(r"\d+$", "", name), activation)
        x, y = a[key], b[key]
        total[group] += 1
        why = unequal(name, x, y)
        if why:
            failures.append(f"{key}: {why}")
        if x.dtype.kind == "f":
            ulps.setdefault(group, 0)
            rel.setdefault(group, 0.0)
        if x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes():
            same[group] += 1
            continue
        scale = np.max(np.abs(x)) if x.size else 0.0
        # in float64, so that the bytes of run files do not wrap around
        gap = (np.max(np.abs(x.astype(np.float64) - y)) / scale
               if x.shape == y.shape and scale else np.inf)
        worst[group] = max(worst[group], float(gap))
        if group in ulps:
            matching = x.shape == y.shape and y.dtype.kind == "f"
            ulps[group] = max(ulps[group], ulp_distance(x, y)) if matching else np.inf
            rel[group] = max(rel[group], relative_gap(x, y)) if matching else np.inf
    print(f"{'field':<24}{'activation':<12}{'identical':>12}  {'worst gap / max|x|':<20}"
          f"{'worst rel gap':<16}worst ULPs")
    for group in sorted(total):
        rel_gap = f"{rel[group]:.3g}" if group in rel else "-"
        print(f"{group[0]:<24}{group[1]:<12}{same[group]:>6} / {total[group]:<4} "
              f"{worst[group]:<20.3g}{rel_gap:<16}{ulps.get(group, '-')}")
    for line in failures:
        print(line)
    print(f"verdict: {'not equal' if failures else 'equal'} (batches byte-identical, losses, "
          f"terms and heldout_* within {LOSS_ULPS} ULP, grad within {GRAD_GAP:g} of max|g|)")
    return 1 if failures else 0


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
