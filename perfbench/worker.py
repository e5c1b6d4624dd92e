"""One benchmark process: set up, train or evaluate one workload.

    python3 perfbench/worker.py {train,eval} --src SRC --config CFG
        --result RESULT.json [--out DIR] [--checkpoint FILE] [--eval-csv FILE]
        [--trace {time,memory}]

Both modes first load the config; ``train`` then calls
``cli.run_experiment``, ``eval`` calls ``cli.main(["eval", ...])`` once on
a checkpoint, as a user's ``pidenet eval`` does, writing ``--eval-csv``.
The result file records the moment the config was loaded on the
system-wide monotonic clock, the stage timing, the process's peak RSS, the
environment it saw and, with ``--trace``, the layer trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("train", "eval"))
    parser.add_argument("--src", required=True, help="directory that holds the pidenet package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", help="run directory written by train, read by eval")
    parser.add_argument("--checkpoint")
    parser.add_argument("--eval-csv", help="file the eval command writes")
    parser.add_argument("--trace", choices=("time", "memory"), help="layer trace mode")
    return parser.parse_args(argv)


def environment(inherited: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_inherited": inherited,
        "blas_threads_seen": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = {var: os.environ.get(var) for var in BLAS_VARS}
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from pidenet import cli  # sets the BLAS thread default before numpy loads

    if src not in Path(cli.__file__).resolve().parents:
        print(f"pidenet was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    trace = None
    if args.trace:
        from layertrace import LayerTrace

        trace = LayerTrace(args.trace)
        trace.install()

    config = cli.load_config(args.config)
    result = {"mode": args.mode, "loaded_at": time.monotonic()}
    if args.mode == "train":
        started = time.perf_counter()
        reports, _ = cli.run_experiment(config, args.out)
        result["train_s"] = time.perf_counter() - started
        result["reports"] = [
            {
                "iteration": r.iteration,
                "max_sq_err": r.max_sq_err,
                "mean_rel_err": r.mean_rel_err,
                "wall_clock": r.wall_clock,
            }
            for r in reports
        ]
    elif args.mode == "eval":
        if trace:
            trace.peaks.enter("mem.eval_peak_mb")
        started = time.perf_counter()
        result["eval_code"] = cli.main(
            ["eval", "--checkpoint", args.checkpoint, "--config", args.config, "--out", args.eval_csv]
        )
        result["eval_s"] = time.perf_counter() - started
        if trace:
            trace.peaks.exit()
    result["peak_rss_mb"] = peak_rss_mb()
    result["environment"] = environment(inherited)
    if trace:
        result["trace"] = trace.summary()
    tmp = Path(args.result).with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
