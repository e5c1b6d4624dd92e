"""Equality harness: batches, losses, held-out figures and gradients of one source tree, for comparing two.

    python tests/equality.py --src <tree>/src --out A.npz
    python tests/equality.py --compare A.npz B.npz

The first form imports ``pidenet`` from ``--src`` and stores, per case,
the training loss (``loss``), its interval terms (``terms``), the
network values of ``LossBreakdown.values`` (``values``), the held-out
pass's total, terms and values (``heldout_*``) and the gradient of the
loss for every parameter (``grad0``, ``grad1``, ..., weights and biases
interleaved).  The cases are every packaged preset under each activation,
at B = 64 and 300 paths and with 1, 2 and 3 hidden layers of the
preset's first width, from fixed seeds and with perturbed parameters, so
that no bias is zero.  The training and held-out batches that the cases
of one preset and B share are stored once, under ``<preset>-B<B>``
(``train_*`` and ``heldout_*``): states, Brownian increments, counts,
event paths, event intervals and event marks.

Each preset also runs with jump intensity 0 (``<preset>-nojump``), at B
= 64 and with 2 hidden layers under each activation, so that its batches
hold no jump event and every jump-event array is empty.

Every per-(node, path) array is stored node-major, whatever the tree's
layout: states (N+1, B, d), Brownian increments (N, B, d), counts
(N, B), ``values`` and ``heldout_values`` (N+1, B).  A tree whose
``PathBatch.states`` leads with the path axis (``states.shape[0] ==
B``) has those arrays' first two axes swapped before they are stored,
so trees on either side of the change to node-major compare byte for
byte.

The second form prints, per field and activation (``-`` for the
batches), how many cases are byte-identical, in shape and dtype too, and
the worst gap relative to each array's max |x|.

BLAS is pinned to one thread before numpy loads, as importing the
package does; older trees pin it only in ``cli``.  pytest does not
collect this file.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import re
import sys
from collections import defaultdict
from importlib import resources
from pathlib import Path

import numpy as np

ACTIVATIONS = ("tanh", "relu", "leaky_relu")
BATCHES = (64, 300)
DEPTHS = (1, 2, 3)
NO_JUMP_BATCHES = (64,)
NO_JUMP_DEPTHS = (2,)
BATCH_FIELDS = ("states", "brownian", "counts", "event_paths", "event_intervals", "event_marks")
NODE_PATH_FIELDS = ("states", "brownian", "counts")


def node_major(a, path_major: bool) -> np.ndarray:
    """``a`` with its node axis first, a C-contiguous copy when it had to be swapped."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1)) if path_major else np.asarray(a)


def cases(src: Path) -> dict[str, np.ndarray]:
    """Every case's fields of the tree under ``src``, keyed ``<case>/<field>``."""
    sys.path.insert(0, str(src.resolve()))
    from pidenet import cli

    print(f"pidenet from {Path(cli.__file__).parent}", flush=True)

    out = {}
    for preset in cli.preset_names():
        out.update(preset_cases(preset, cli.load_config(preset), BATCHES, DEPTHS))
        # the preset with intensity 0, so that no batch holds a jump event
        data = json.loads(resources.files("pidenet").joinpath(f"configs/{preset}.json").read_text())
        data["problem"]["lam"] = 0.0
        out.update(preset_cases(f"{preset}-nojump", cli.config_from_dict(data, preset),
                                NO_JUMP_BATCHES, NO_JUMP_DEPTHS))
    return out


def preset_cases(label: str, config, batch_sizes, depths) -> dict[str, np.ndarray]:
    """The batches and cases of one config, named after ``label``."""
    from pidenet import jumpsim, nn, scheme
    from pidenet.autodiff import Tape

    out = {}
    batches = {}
    for batch_size in batch_sizes:
        batches[batch_size] = pair = [
            jumpsim.simulate_forward(config.problem, config.grid, batch_size, seed, stream)
            for seed, stream in ((config.seed_simulation, 0), (config.seed_evaluation, 1))
        ]
        path_major = pair[0].states.shape[0] == batch_size
        for prefix, batch in zip(("train", "heldout"), pair):
            for name in BATCH_FIELDS:
                out[f"{label}-B{batch_size}/{prefix}_{name}"] = node_major(
                    getattr(batch, name), path_major and name in NODE_PATH_FIELDS)
    for activation in ACTIVATIONS:
        for n_hidden in depths:
            arch = nn.MlpArchitecture(input_dim=1 + config.problem.dim,
                                      hidden=(config.hidden[0],) * n_hidden,
                                      activation=activation, alpha=0.1)
            rng = np.random.default_rng(n_hidden)
            params = nn.init(arch, seed=config.seed_init)
            params = params.replace_flat([a + rng.normal(scale=0.1, size=a.shape)
                                          for a in params.flat_list()])
            for batch_size in batch_sizes:
                case = f"{label}-{activation}-h{n_hidden}-B{batch_size}"
                batch, held_out = batches[batch_size]
                path_major = batch.states.shape[0] == batch_size
                tape = Tape()
                net = nn.TapeMlp(tape, params)
                total, breakdown = scheme.loss(net, batch, config.problem)
                grads = tape.backward(total, net.param_vars)
                del tape, net, total
                heldout = scheme.loss(nn.TapeMlp(Tape(), params, trainable=False), held_out,
                                      config.problem)[1]
                fields = {
                    "loss": np.float64(breakdown.total),
                    "terms": breakdown.interval_terms,
                    "values": node_major(breakdown.values, path_major),
                    "heldout_loss": np.float64(heldout.total),
                    "heldout_terms": heldout.interval_terms,
                    "heldout_values": node_major(heldout.values, path_major),
                    **{f"grad{k}": g for k, g in enumerate(grads)},
                }
                out.update({f"{case}/{name}": np.asarray(a) for name, a in fields.items()})
                print(case, f"loss {breakdown.total:.17g}", flush=True)
    return out


def compare(a_path: Path, b_path: Path) -> int:
    """Print the per-field, per-activation tally; 1 if the two files hold different keys."""
    a, b = np.load(a_path), np.load(b_path)
    if set(a.files) != set(b.files):
        print(f"different cases or fields: {sorted(set(a.files) ^ set(b.files))[:10]}")
        return 1
    same, total, worst = defaultdict(int), defaultdict(int), defaultdict(float)
    for key in sorted(a.files):
        case, name = key.split("/")
        activation = next((act for act in ACTIVATIONS if f"-{act}-" in case), "-")
        group = (re.sub(r"\d+$", "", name), activation)
        x, y = a[key], b[key]
        total[group] += 1
        if x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes():
            same[group] += 1
            continue
        scale = np.max(np.abs(x)) if x.size else 0.0
        gap = np.max(np.abs(x - y)) / scale if x.shape == y.shape and scale else np.inf
        worst[group] = max(worst[group], float(gap))
    print(f"{'field':<24}{'activation':<12}{'identical':>12}  worst gap / max|x|")
    for group in sorted(total):
        print(f"{group[0]:<24}{group[1]:<12}{same[group]:>6} / {total[group]:<4} {worst[group]:.3g}")
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
