"""Experiment runner: config parsing, training loop, studies, report files.

Importable pieces (``load_config``, ``run_experiment``,
``run_convergence_study``) drive everything; ``main`` is a thin argparse
wrapper with the documented exit codes: 0 success, 1 bad config, 2
numerical abort.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: threaded BLAS splits a product in ways that
# depend on the thread count, so outputs would depend on the host's cores.
# The network node uses every core through its own row chunks instead
# (``autodiff.CHUNK_ROWS``), which run one-thread BLAS calls in parallel.
# Must happen before numpy initializes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ctypes


def _retain_freed_heap() -> None:
    """Keep freed arrays in the malloc heap for the next allocation.

    Each iteration frees and reallocates the same tape buffers.  glibc
    would unmap large ones on free and fault them in again page by page;
    raising the mmap threshold to its 32 MiB cap and the trim threshold
    to 1 GiB stops that.  One arena for all threads: the network node's
    worker threads would each get an arena of their own, which the trim
    threshold would then keep too.  Does nothing without glibc's
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # from glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_arena_max, 1)


_retain_freed_heap()

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import jumpsim, metrics, nn, optim, problems, scheme
from .autodiff import Tape
from .jumpsim import SimulationError, TimeGrid
from .optim import AdamState, LrSchedule, NonFiniteGradientError
from .problems import ProblemSpec
from .scheme import NumericalAbortError

log = logging.getLogger(__name__)

TRAIN_STREAM = 0
EVAL_STREAM = 1

# distinct simulation substreams for independent runs of a study; larger
# than any iteration count so per-iteration seeds never collide
RUN_SEED_STRIDE = 1_000_003


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, seeds included."""

    problem: ProblemSpec
    steps: int
    batch_size: int
    hidden: tuple[int, ...]
    activation: str
    leaky_alpha: float
    adam: dict
    schedule: LrSchedule
    iterations: int
    checkpoint_interval: int
    eval_batch_size: int
    seed_simulation: int
    seed_init: int
    seed_evaluation: int
    name: str = "experiment"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.eval_batch_size < 1:
            raise ConfigError("eval_batch_size must be >= 1")
        try:  # what run_experiment builds first, so bad settings fail at load
            self.architecture
            AdamState.for_params([], **self.adam)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model or optimiser settings: {exc}") from exc

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.problem.total_time, self.steps)

    @property
    def architecture(self) -> nn.MlpArchitecture:
        return nn.MlpArchitecture(
            input_dim=1 + self.problem.dim,
            hidden=self.hidden,
            activation=self.activation,
            alpha=self.leaky_alpha,
        )


def config_from_dict(data: dict, name: str = "experiment") -> TrainConfig:
    try:
        prob_spec = dict(data["problem"])
        prob_name = prob_spec.pop("name")
        problem = problems.by_name(prob_name, **prob_spec)
        seeds = data["seeds"]
        missing = {"simulation", "init", "evaluation"} - set(seeds)
        if missing:
            raise ConfigError(f"seeds must be explicit; missing {sorted(missing)}")
        return TrainConfig(
            problem=problem,
            steps=int(data["steps"]),
            batch_size=int(data["batch_size"]),
            hidden=tuple(int(w) for w in data["hidden"]),
            activation=data.get("activation", "tanh"),
            leaky_alpha=float(data.get("leaky_alpha", 0.01)),
            adam=dict(data.get("adam", {})),
            schedule=optim.schedule_from_dict(data["lr_schedule"]),
            iterations=int(data["iterations"]),
            checkpoint_interval=int(data.get("checkpoint_interval", 1000)),
            eval_batch_size=int(data.get("eval_batch_size", 2000)),
            seed_simulation=int(seeds["simulation"]),
            seed_init=int(seeds["init"]),
            seed_evaluation=int(seeds["evaluation"]),
            name=name,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _finite_number(token: str) -> float:
    """A JSON number of a config; NaN, Infinity and out-of-range literals are config errors."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config number {token} is not finite")
    return value


def preset_names() -> list[str]:
    root = resources.files("pidenet").joinpath("configs")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(spec: str, seed_override: int | None = None) -> TrainConfig:
    """Load a config from a file path or a packaged preset name.

    A number that is not finite (``NaN``, ``Infinity``, ``1e999``) is a
    config error.

    A seed override S replaces the three seeds with (S, S+1, S+2); the
    evaluation batch still cannot collide with training batches because
    they live on different generator streams.
    """
    path = Path(spec)
    if path.exists():
        text = path.read_text()
        name = path.stem
    else:
        stem = spec[: -len(".json")] if spec.endswith(".json") else spec
        res = resources.files("pidenet").joinpath(f"configs/{stem}.json")
        if not res.is_file():
            raise ConfigError(
                f"config {spec!r} is neither a file nor a preset; presets: {preset_names()}"
            )
        text = res.read_text()
        name = stem
    try:
        data = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {spec!r} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(data, name=name)
    if seed_override is not None:
        cfg = replace(
            cfg,
            seed_simulation=seed_override,
            seed_init=seed_override + 1,
            seed_evaluation=seed_override + 2,
        )
    return cfg


# ----------------------------------------------------------------------
# training

def _simulate_eval_batch(config: TrainConfig):
    """The held-out batch: its own seed on its own generator stream."""
    return jumpsim.simulate_forward(config.problem, config.grid, config.eval_batch_size,
                                    config.seed_evaluation, stream=EVAL_STREAM)


def _evaluate(config: TrainConfig, params: nn.MlpParams, eval_batch, iteration, lr, started):
    """Held-out report from the loss's one network pass, and that pass's (B, N+1) values.

    Nothing differentiates this loss, so the params go on its tape as
    constants: the network node then keeps no VJP state, and the pass
    peaks at its values, not at every chunk's gradient chain.  The
    forward arithmetic, and with it every figure, is the training
    tape's.
    """
    breakdown = scheme.loss(nn.bind(Tape(), params, trainable=False), eval_batch,
                            config.problem)[1]
    mean_rel_err, node_errors, max_sq_err = metrics.evaluation_errors(
        breakdown.values, eval_batch, config.problem
    )
    return metrics.MetricsReport(
        iteration=iteration,
        loss=breakdown.total,
        mean_rel_err=mean_rel_err,
        rel_err_t0=float(node_errors[0]),
        node_errors=node_errors,
        max_sq_err=max_sq_err,
        lr=lr,
        wall_clock=time.perf_counter() - started,
    ), breakdown.values


def save_checkpoint(path, params: nn.MlpParams, iteration: int, lr: float) -> None:
    """Iteration, lr and the model (architecture header, nested float lists) as JSON.

    Python's repr-based float serialization round-trips each weight's
    exact bit pattern.
    """
    arch = params.arch
    model = {
        "architecture": {"input_dim": arch.input_dim, "hidden": list(arch.hidden),
                         "activation": arch.activation, "alpha": arch.alpha},
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    payload = {"iteration": iteration, "lr": lr, "model": model}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # the C encoder; json.dump runs the Python one


def load_checkpoint(path) -> tuple[nn.MlpParams, int, float]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
            model = payload["model"]
            arch = model["architecture"]
            params = nn.MlpParams(
                nn.MlpArchitecture(
                    input_dim=int(arch["input_dim"]),
                    hidden=tuple(arch["hidden"]),
                    activation=arch["activation"],
                    alpha=float(arch.get("alpha", 0.01)),
                ),
                [np.asarray(w, dtype=np.float64) for w in model["weights"]],
                [np.asarray(b, dtype=np.float64) for b in model["biases"]],
            )
            return params, int(payload["iteration"]), float(payload["lr"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from exc


def _train_step(config: TrainConfig, params: nn.MlpParams, state: AdamState, it: int, lr: float):
    """One iteration: fresh batch, loss on a new tape, backward, Adam step.

    The tape and everything on it, the breakdown's values included, die
    when this returns, before the next iteration builds its own.
    """
    batch = jumpsim.simulate_forward(
        config.problem, config.grid, config.batch_size, config.seed_simulation + it,
        stream=TRAIN_STREAM,
    )
    tape = Tape()
    net = nn.bind(tape, params)
    total, breakdown = scheme.loss(net, batch, config.problem)
    grads = tape.backward(total, net.param_vars)
    new_params = params.replace_flat(optim.adam_step(params.flat_list(), grads, state, lr))
    return new_params, breakdown.to_dict()


def run_experiment(config: TrainConfig, out_dir) -> tuple[list[metrics.MetricsReport], nn.MlpParams]:
    """Train per the config, writing metrics.csv, report files and a checkpoint.

    Every iteration simulates a fresh path batch, assembles the loss on a
    new tape, backpropagates and applies one Adam step.  Held-out metrics
    come from a dedicated evaluation batch on its own generator stream.
    A numerical abort, also one while simulating that batch, writes
    ``abort.json`` with the iteration (0 before the first) and the error.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem, grid = config.problem, config.grid

    params = nn.init(config.architecture, seed=config.seed_init)
    state = AdamState.for_params(params.flat_list(), **config.adam)

    reports: list[metrics.MetricsReport] = []
    it = 0  # an abort before the first iteration is recorded as iteration 0
    try:
        eval_batch = _simulate_eval_batch(config)
        started = time.perf_counter()
        with open(out / "breakdown.jsonl", "w") as breakdown_log:
            for it in range(1, config.iterations + 1):
                lr = optim.lr_at(config.schedule, it - 1)
                params, breakdown = _train_step(config, params, state, it, lr)
                breakdown_log.write(json.dumps({"iteration": it, **breakdown}) + "\n")
                if it % config.checkpoint_interval == 0 and it < config.iterations:
                    reports.append(_evaluate(config, params, eval_batch, it, lr, started)[0])
                    _log_progress(reports, config.iterations)
        # only the last evaluation keeps its values, for error_grid.csv: values
        # held across iterations fragment the heap the next tapes reuse
        final, values = _evaluate(config, params, eval_batch, it, lr, started)
        reports.append(final)
        _log_progress(reports, config.iterations)
    except (NumericalAbortError, SimulationError, NonFiniteGradientError) as exc:
        _dump_abort(out, it, exc)
        raise NumericalAbortError(
            f"aborted at iteration {it}: {exc}",
            interval=getattr(exc, "interval", None),
            breakdown=getattr(exc, "breakdown", None),
        ) from exc

    metrics.write_metrics_csv(out / "metrics.csv", reports)
    metrics.write_error_by_time_csv(out / "error_by_time.csv", grid.times, final.node_errors)
    if problem.dim == 1 and problem.exact is not None:
        metrics.write_error_grid_csv(
            out / "error_grid.csv", metrics.error_grid(values, eval_batch, problem)
        )
    save_checkpoint(out / "checkpoint.json", params, final.iteration, final.lr)
    return reports, params


def _log_progress(reports: list[metrics.MetricsReport], iterations: int) -> None:
    """One line for the latest report, timed per iteration since the one before it."""
    last = reports[-1]
    prev = reports[-2] if len(reports) > 1 else None
    prev_it, prev_clock = (prev.iteration, prev.wall_clock) if prev else (0, 0.0)
    ms_per_iter = 1e3 * (last.wall_clock - prev_clock) / (last.iteration - prev_it)
    log.info("iteration %d/%d loss %.6e mean_rel_err %.4e %.1f ms/iter",
             last.iteration, iterations, last.loss, last.mean_rel_err, ms_per_iter)


def _dump_abort(out: Path, iteration: int, exc) -> None:
    payload = {"iteration": iteration, "error": str(exc)}
    breakdown = getattr(exc, "breakdown", None)
    if breakdown is not None:
        payload["breakdown"] = breakdown.to_dict()
    with open(out / "abort.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def run_convergence_study(
    config: TrainConfig,
    steps_list: list[int],
    runs: int,
    keep: int,
    out_dir,
) -> list[metrics.ConvergenceRow]:
    """Repeat training across step counts; aggregate best-of max square errors.

    Run r offsets the init seed by r and the simulation seed by r times a
    large stride so no two runs share batches.  A failed run is logged
    and excluded rather than killing the study.
    """
    if runs < keep or keep < 1:
        raise ConfigError(f"need runs >= keep >= 1, got runs={runs}, keep={keep}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    errors: dict[int, list[float]] = {}
    for n_steps in steps_list:
        errors[n_steps] = []
        for run in range(runs):
            cfg = replace(
                config,
                steps=n_steps,
                seed_init=config.seed_init + run,
                seed_simulation=config.seed_simulation + run * RUN_SEED_STRIDE,
                name=f"{config.name}_N{n_steps}_run{run}",
            )
            run_dir = out / f"N{n_steps}" / f"run{run}"
            try:
                reports, _ = run_experiment(cfg, run_dir)
                errors[n_steps].append(reports[-1].max_sq_err)
            except (NumericalAbortError, SimulationError) as exc:
                log.warning("run %s failed and is excluded: %s", run_dir, exc)
                errors[n_steps].append(float("nan"))
    rows = metrics.convergence_table(errors, config.problem.total_time, keep)
    metrics.write_convergence_csv(out / "convergence.csv", rows)
    return rows


# ----------------------------------------------------------------------
# command line

def _cmd_train(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    out_dir = args.out or f"runs/{config.name}"
    reports, _ = run_experiment(config, out_dir)
    final = reports[-1]
    print(f"{config.name}: wrote {out_dir}/metrics.csv")
    print(metrics.METRICS_CSV_HEADER)
    print(final.csv_row())
    return 0


def _cmd_converge(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    steps_list = [int(s) for s in args.steps.split(",") if s]
    if not steps_list or any(s < 1 for s in steps_list):
        raise ConfigError(f"bad --steps list: {args.steps!r}")
    out_dir = args.out or f"runs/{config.name}_convergence"
    rows = run_convergence_study(config, steps_list, args.runs, args.keep, out_dir)
    print(f"{config.name}: wrote {out_dir}/convergence.csv")
    print("N,dt,max_sq_err,order")
    for row in rows:
        order = "" if row.order is None else f"{row.order:.2f}"
        print(f"{row.steps},{row.dt},{row.max_sq_err:.6e},{order}")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    params, iteration, lr = load_checkpoint(args.checkpoint)
    if params.arch != config.architecture:
        raise ConfigError(
            f"checkpoint architecture {params.arch} does not match config {config.architecture}"
        )
    eval_batch = _simulate_eval_batch(config)
    report, _ = _evaluate(config, params, eval_batch, iteration, lr, time.perf_counter())
    print(metrics.METRICS_CSV_HEADER)
    print(report.csv_row())
    if args.out:
        metrics.write_metrics_csv(args.out, [report])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidenet",
        description="Train and evaluate the deep PIDE solver on benchmark problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one training experiment")
    train.add_argument("--config", required=True, help="config file path or preset name")
    train.add_argument("--out", help="output directory (default runs/<name>)")
    train.add_argument("--seed", type=int, help="override seeds with (S, S+1, S+2)")
    train.set_defaults(func=_cmd_train)

    conv = sub.add_parser("converge", help="step-size convergence study")
    conv.add_argument("--config", required=True)
    conv.add_argument("--steps", required=True, help="comma list, e.g. 2,4,8,16,32")
    conv.add_argument("--runs", type=int, default=10)
    conv.add_argument("--keep", type=int, default=3)
    conv.add_argument("--out")
    conv.add_argument("--seed", type=int)
    conv.set_defaults(func=_cmd_converge)

    ev = sub.add_parser("eval", help="re-evaluate metrics from a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", required=True)
    ev.add_argument("--out")
    ev.add_argument("--seed", type=int, help="the --seed given to train: evaluate on seed S+2")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalAbortError, SimulationError, NonFiniteGradientError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
