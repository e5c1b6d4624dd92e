"""Training benchmark of pidenet: three workloads run through the public entry points.

    python3 perfbench/run.py --workload {fit_bsb2d,train_bsb4,train_highdim100,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports ``pidenet`` from
``src/`` there.  For each workload it writes a config file, then starts
fresh processes one at a time: repeats of a training process
(``cli.load_config`` and ``cli.run_experiment``), each followed by
``EVAL_PROCESSES`` eval processes (``cli.main(["eval", ...])`` once each, on
the checkpoint the training wrote).  Set-up time is read in every process.
Repeats go on while another one fits in ``--seconds``; at least two run,
so that every run checks determinism.

Every repeat is checked: both processes exit with 0, every metrics.csv
value is finite, eval reproduces the last metrics.csv row byte for byte,
the wall clocks the run reports fit inside the benchmark's own clock, and
checkpoint.json and metrics.csv are byte-identical across the repeats.
A repeat that fails a check counts as failed and its timings are left out.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones: one untraced repeat, then one repeat
with the layer trace of ``layertrace.py`` in its ``time`` mode (self times)
and one in its ``memory`` mode (memory peaks and work counts).  A
human-readable report goes first; the last line of standard output is one
JSON object.  Everything a run measured is also written to
``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchstats

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
SRC = ROOT / "src"

MIN_REPEATS = 2
EVAL_PROCESSES = 3  # eval processes per untraced repeat; one per traced repeat
RUN_LIMIT_S = 165.0  # a run must end well inside 180 s
MIB = 2.0**20


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    target: float | None = None  # max_sq_err the run should reach
    default_seed_crossing: int | None = None  # iteration where the preset seeds reach it


# The reason for each workload is in BENCHMARK.json, and the layer each one
# exercises in README.md.  The two larger workloads run at batch sizes below
# their presets' so that one process peaks near 1.3-1.8 GB of RSS, and at
# few iterations so that a run holds several repeats.
WORKLOADS = {
    "fit_bsb2d": Workload(
        preset="convergence",
        overrides={"iterations": 600, "checkpoint_interval": 10, "eval_batch_size": 2000},
        target=1.5e-2,
        default_seed_crossing=300,
    ),
    "train_bsb4": Workload(
        preset="bsb_d4",
        overrides={"batch_size": 250, "eval_batch_size": 500, "iterations": 20},
    ),
    "train_highdim100": Workload(
        preset="highdim",
        overrides={"batch_size": 64, "eval_batch_size": 250, "iterations": 15},
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ----------------------------------------------------------------------
# workload config and processes

def seed_map(preset_seeds: dict, seed: int | None) -> dict:
    """Seeds for a run: the preset's, or (S, S+1, S+2) as ``cli.load_config`` maps an override."""
    if seed is None:
        return dict(preset_seeds)
    return {"simulation": seed, "init": seed + 1, "evaluation": seed + 2}


def write_config(name: str, seed: int | None, directory: Path) -> tuple[Path, dict]:
    wl = WORKLOADS[name]
    preset = SRC / "pidenet" / "configs" / f"{wl.preset}.json"
    data = json.loads(preset.read_text())
    data.update(wl.overrides)
    data["seeds"] = seed_map(data["seeds"], seed)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(data, indent=2))
    return path, data


def run_worker(label: str, mode: str, config: Path, run_dir: Path, deadline: float,
               trace: str | None, extra: tuple = ()) -> tuple[int, dict, float]:
    """Start one worker process and wait for it; returns (exit code, result, spawn time)."""
    result = run_dir / f"{label}.result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--src", str(SRC),
           "--config", str(config), "--result", str(result), "--out", str(run_dir), *extra]
    if trace:
        cmd += ["--trace", trace]
    with open(run_dir / f"{label}.log", "w") as log:
        spawned = time.monotonic()
        try:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            return -1, {}, spawned
    data = json.loads(result.read_text()) if code == 0 and result.exists() else {}
    return code, data, spawned


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Repeat:
    index: int
    trace: str | None  # layer trace mode, None when untraced
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)  # process start to loaded config
    train_s: float | None = None
    peak_rss_mb: float | None = None
    eval_s: list = field(default_factory=list)  # one per eval process
    eval_peak_rss_mb: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    train_trace: dict | None = None
    eval_trace: dict | None = None
    environment: dict | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def check_reports(rep: Repeat, csv_text: str) -> None:
    """The reports the run returned agree with metrics.csv and with the benchmark's clock."""
    header = csv_text.split("\n", 1)[0].split(",")
    col_it, col_err = header.index("iteration"), header.index("max_sq_err")
    rows = [row.split(",") for row in benchstats.csv_rows(csv_text)]
    if len(rows) != len(rep.reports):
        rep.failures.append(f"{len(rep.reports)} reports but {len(rows)} metrics.csv rows")
        return
    previous = 0.0
    for row, report in zip(rows, rep.reports):
        if row[col_it] != str(report["iteration"]) or row[col_err] != repr(report["max_sq_err"]):
            rep.failures.append(f"report at iteration {report['iteration']} differs from metrics.csv")
            return
        if not previous < report["wall_clock"] <= rep.train_s:
            rep.failures.append(
                f"wall_clock {report['wall_clock']} at iteration {report['iteration']} is outside "
                f"({previous}, {rep.train_s}] of the benchmark's clock"
            )
            return
        previous = report["wall_clock"]


def run_repeat(index: int, config: Path, directory: Path, deadline: float, trace: str | None) -> Repeat:
    rep = Repeat(index=index, trace=trace)
    began = time.monotonic()
    run_dir = directory / f"repeat{index}"
    run_dir.mkdir()
    code, train, spawned = run_worker("train", "train", config, run_dir, deadline, trace)
    if code != 0 or not train:
        rep.failures.append(f"train process exited with {code}")
        rep.duration_s = time.monotonic() - began
        return rep
    rep.setup_s.append(train["loaded_at"] - spawned)
    rep.train_s, rep.peak_rss_mb = train["train_s"], train["peak_rss_mb"]
    rep.reports, rep.environment, rep.train_trace = train["reports"], train["environment"], train.get("trace")

    metrics_csv, checkpoint = run_dir / "metrics.csv", run_dir / "checkpoint.json"
    csv_text = metrics_csv.read_text()
    if not benchstats.all_finite(csv_text):
        rep.failures.append("metrics.csv holds a non-finite or non-numeric value")
    check_reports(rep, csv_text)
    rep.hashes = {"metrics.csv": sha256(metrics_csv), "checkpoint.json": sha256(checkpoint)}
    rep.checkpoint_bytes = checkpoint.stat().st_size

    for k in range(1 if trace else EVAL_PROCESSES):
        eval_csv = run_dir / f"eval{k}.csv"
        extra = ("--checkpoint", str(checkpoint), "--eval-csv", str(eval_csv))
        code, ev, spawned = run_worker(f"eval{k}", "eval", config, run_dir, deadline, trace, extra)
        if code != 0 or not ev:
            rep.failures.append(f"eval process {k} exited with {code}")
        elif ev["eval_code"] != 0:
            rep.failures.append(f"eval command {k} returned {ev['eval_code']}")
        elif not benchstats.eval_row_matches(csv_text, eval_csv.read_text()):
            rep.failures.append(f"eval row in {eval_csv.name} differs from the last metrics.csv row")
        else:
            rep.setup_s.append(ev["loaded_at"] - spawned)
            rep.eval_s.append(ev["eval_s"])
            rep.eval_peak_rss_mb.append(ev["peak_rss_mb"])
            rep.eval_trace = ev.get("trace")
    rep.duration_s = time.monotonic() - began
    return rep


def check_determinism(repeats: list[Repeat]) -> None:
    """Every repeat must write the same bytes as the first one that ran through."""
    reference = next((r for r in repeats if r.hashes), None)
    for rep in repeats:
        if rep.hashes and rep is not reference and rep.hashes != reference.hashes:
            differs = sorted(k for k in rep.hashes if rep.hashes[k] != reference.hashes[k])
            rep.failures.append(f"{', '.join(differs)} differ from repeat {reference.index}")


# ----------------------------------------------------------------------
# metrics

def end_to_end_samples(passed: list[Repeat]) -> dict:
    """Samples of each end-to-end metric from the passing repeats."""
    return {
        "setup_s": [s for r in passed for s in r.setup_s],
        "train_s": [r.train_s for r in passed],
        "eval_s": [s for r in passed for s in r.eval_s],
        "peak_rss_mb": [r.peak_rss_mb for r in passed],
        "eval_peak_rss_mb": [m for r in passed for m in r.eval_peak_rss_mb],
    }


def quality(workload: Workload, rep: Repeat) -> dict:
    """Seed-dependent outcome of one run: final errors and the target crossing."""
    final = rep.reports[-1]
    out = {"final_max_sq_err": final["max_sq_err"], "final_mean_rel_err": final["mean_rel_err"]}
    if workload.target is not None:
        crossing = benchstats.first_crossing(rep.reports, workload.target)
        out.update({
            "target_max_sq_err": workload.target,
            "default_seed_crossing_iteration": workload.default_seed_crossing,
            "iters_to_target": crossing and crossing[0],
            "time_to_target_s": crossing and crossing[1],
        })
    return out


def layer_metrics(timed: Repeat, counted: Repeat, untraced_train_s: float) -> dict:
    """Per-layer figures: self times and calls from the ``time`` trace, peaks and counts from the ``memory`` one."""
    out = {}
    for part in (timed.train_trace, timed.eval_trace):
        for name, value in part["self_s"].items():
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + value
        for name, value in part["calls"].items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + value
    train = counted.train_trace
    tapes = max(train["train_tapes"], 1)
    gemm_s = out.get("autodiff.affine.self_s", 0.0) + out.get("autodiff.matmul.self_s", 0.0)
    all_flop = train["all_flop"] + counted.eval_trace["all_flop"]
    iteration_ms = timed.train_trace["iteration_ms"]
    peaks = {**train["peak_bytes"], **counted.eval_trace["peak_bytes"]}
    out.update({
        "jumpsim.events": train["train_events"] / max(train["train_batches"], 1),
        "autodiff.tape_nodes": train["train_nodes"] / tapes,
        "autodiff.tape_mb": train["train_bytes"] / tapes / MIB,
        "autodiff.gemm_gflop": train["train_flop"] / tapes / 1e9,
        "autodiff.gemm_gflops": all_flop / gemm_s / 1e9 if gemm_s else 0.0,
        "cli.iteration_ms.p50": benchstats.percentile(iteration_ms, 50),
        "cli.iteration_ms.p90": benchstats.percentile(iteration_ms, 90),
        "cli.iteration_ms.count": len(iteration_ms),
        "cli.checkpoint_bytes": counted.checkpoint_bytes,
        "trace.overhead_frac": timed.train_s / untraced_train_s - 1.0,
        "trace.missing_targets": len(missing_targets(timed, counted)),
    })
    out.update({name: value / MIB for name, value in peaks.items()})
    return out


def missing_targets(*traced: Repeat) -> list[str]:
    """Functions the layer trace meant to wrap but the program does not have."""
    found = {name for rep in traced for part in (rep.train_trace, rep.eval_trace) for name in part["missing"]}
    return sorted(found)


def select(declared: list[dict], values: dict) -> tuple[dict, list[str]]:
    """The declared metrics, in declared order, and the names of spans that never ran, which read 0."""
    chosen, not_run = {}, []
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".self_s", ".calls")):
            value = 0
            not_run.append(name)
        else:
            raise BenchError(f"metric {name} was not measured")
        chosen[name] = {"value": value, "unit": metric["unit"]}
    return chosen, not_run


# ----------------------------------------------------------------------
# environment and report

def host_environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_report(name, why, seed, seeds, repeats, metrics, samples, quality_figures, trace_gaps, results_path):
    failed = sum(not r.ok for r in repeats)
    print(f"workload {name}  seed {seed if seed is not None else 'preset'} -> {seeds}")
    print(f"  {why}")
    print(f"  repeats {len(repeats)}, failed {failed}, failed_frac {failed / len(repeats):.3f}")
    for rep in repeats:
        state = "ok" if rep.ok else "FAILED: " + "; ".join(rep.failures)
        mode = f" (traced, {rep.trace})" if rep.trace else ""
        print(f"    repeat {rep.index}{mode}: {rep.duration_s:.1f} s, {state}")
    width = max(len(n) for n in metrics) + 2
    if samples:
        print(f"  {'metric':<{width}}{'median':>14}  unit      n  tail (highest percentile with 10 samples beyond)")
    else:
        print(f"  {'metric':<{width}}{'value':>14}  unit      (traced repeats)")
    for metric_name, entry in metrics.items():
        line = f"  {metric_name:<{width}}{entry['value']:>14.6g}  {entry['unit']:<8}"
        if samples:
            values = samples[metric_name]
            pct = benchstats.tail_percentile(len(values))
            tail = f"p{pct:g} {benchstats.percentile(values, pct):.6g}" if pct else "-"
            line += f"{len(values):>3}  {tail}"
        print(line)
    for key, value in quality_figures.items():
        print(f"  quality {key} = {value}")
    for key, names in trace_gaps.items():
        if names:
            print(f"  WARNING {key}: {', '.join(names)}")
    print(f"  results written to {results_path.relative_to(ROOT)}")


def run_workload(name: str, seed: int | None, seconds: int, traced: bool, declared: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    directory = OUT / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config, data = write_config(name, seed, directory)

    repeats = [run_repeat(0, config, directory, deadline, trace=None)]
    while repeats[-1].ok and not traced:
        elapsed = time.monotonic() - started
        mean = elapsed / len(repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + mean > seconds:
            break
        if time.monotonic() + 2 * mean > deadline:
            break
        repeats.append(run_repeat(len(repeats), config, directory, deadline, trace=None))
    if traced:
        for mode in ("time", "memory"):
            if repeats[-1].ok:
                repeats.append(run_repeat(len(repeats), config, directory, deadline, trace=mode))
    check_determinism(repeats)

    passed = [r for r in repeats if r.ok and not r.trace]
    if not passed or (traced and not all(r.ok for r in repeats)):
        for rep in repeats:
            print(f"repeat {rep.index}: {'; '.join(rep.failures)}", file=sys.stderr)
        raise BenchError(f"no repeat of {name} passed its checks; logs are in {directory}")

    trace_gaps = {}
    if traced:
        samples = {}
        timed, counted = repeats[-2:]
        untraced_train_s = benchstats.median([r.train_s for r in passed])
        metrics, not_run = select(declared["per_layer"], layer_metrics(timed, counted, untraced_train_s))
        trace_gaps = {
            "functions the trace could not wrap": missing_targets(timed, counted),
            "declared spans that never ran (reported as 0)": not_run,
        }
    else:
        samples = end_to_end_samples(passed)
        metrics, _ = select(declared["end_to_end"], {k: benchstats.median(v) for k, v in samples.items()})
    quality_figures = quality(WORKLOADS[name], passed[0])
    why = next(w["why"] for w in declared["workloads"] if w["name"] == name)

    result = {
        "correct": all(r.ok for r in repeats),
        "attempted": len(repeats),
        "failed": sum(not r.ok for r in repeats),
        "metrics": metrics,
    }
    results_path = directory / f"result-seed{seed}-trace{int(traced)}.json"
    results_path.write_text(json.dumps({
        "workload": name,
        "why": why,
        "seed": seed,
        "config": data,
        "result": result,
        "samples": samples,
        "quality": quality_figures,
        "trace_gaps": trace_gaps,
        "repeats": [
            {k: v for k, v in vars(r).items() if k not in ("train_trace", "eval_trace")}
            for r in repeats
        ],
        "environment": {**passed[0].environment, **host_environment()},
        "wall_s": time.monotonic() - started,
    }, indent=2))
    print_report(name, why, seed, data["seeds"], repeats, metrics, samples, quality_figures, trace_gaps,
                 results_path)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="seeds become (S, S+1, S+2); default: the preset's")
    parser.add_argument("--seconds", type=int, default=40, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "pidenet" / "cli.py").is_file():
            raise BenchError(f"no pidenet sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
            for name in names
        }
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
