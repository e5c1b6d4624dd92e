"""Experiment runner: config parsing, training loop, studies, report files.

Importable pieces (``load_config``, ``run_experiment``,
``run_convergence_study``) drive everything; ``main`` is a thin argparse
wrapper with the documented exit codes: 0 success, 1 bad config, 2
numerical abort.
"""

from __future__ import annotations

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
import base64
import json
import logging
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import jumpsim, metrics, nn, optim, problems, scheme
from .autodiff import Tape
from .jumpsim import SimulationError, TimeGrid
from .optim import AdamState, NonFiniteGradientError
from .problems import ProblemSpec
from .scheme import NumericalAbortError

log = logging.getLogger(__name__)

TRAIN_STREAM = 0
EVAL_STREAM = 1

# Most state values, (N+1) * paths * d, in one block of the held-out
# evaluation, so that its memory does not grow with eval_batch_size.
# With 2 MiB of states, an eval process of 250 paths at d=100, N=50
# peaks at ~48 MiB of RSS (2-core x86 VM; 84 MiB in one pass, 75 MiB with
# 8 MiB blocks); 1 MiB blocks peaked at 44 MiB, at 0.22-0.23 s of wall
# time against 0.20-0.27 s (3 processes each).  The block size changes no
# figure.
EVAL_BLOCK_VALUES = 2**18

# distinct simulation substreams for independent runs of a study;
# ``run_convergence_study`` refuses more iterations than this, so that no
# two runs share a batch seed
RUN_SEED_STRIDE = 1_000_003


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, seeds included.

    ``checkpoint_interval`` sets how often the held-out evaluation runs;
    each evaluation also saves the checkpoint."""

    problem: ProblemSpec
    steps: int
    batch_size: int
    architecture: nn.MlpArchitecture
    schedule: optim.Piecewise | optim.Cosine
    iterations: int
    checkpoint_interval: int
    eval_batch_size: int
    seed_simulation: int
    seed_init: int
    seed_evaluation: int
    name: str = "experiment"

    def __post_init__(self):
        for name, least in (("steps", 1), ("batch_size", 1), ("iterations", 1),
                            ("checkpoint_interval", 1), ("eval_batch_size", 1),
                            ("seed_simulation", 0), ("seed_init", 0), ("seed_evaluation", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        try:  # the jump counts' Poisson mean per interval, as simulate_forward draws them
            jumpsim.poisson_from_uniforms(np.empty(0), self.problem.intensity * self.grid.dt)
        except OverflowError as exc:  # T / N for an N beyond the float range
            raise ConfigError(f"steps must fit in a float, got an integer of "
                              f"{self.steps.bit_length()} bits") from exc
        except ValueError as exc:
            raise ConfigError(f"jump intensity {self.problem.intensity} over {self.steps} "
                              f"steps: {exc}") from exc

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.problem.total_time, self.steps)


_CONFIG_KEYS = frozenset({
    "problem", "steps", "batch_size", "hidden", "activation", "leaky_alpha", "lr_schedule",
    "iterations", "checkpoint_interval", "eval_batch_size", "seeds",
})
_SEED_KEYS = frozenset({"simulation", "init", "evaluation"})


def _integer(value, what: str) -> int:
    """A JSON integer of a config; a bool, a string or a float is a config error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON int or float of a config as a float; a bool or a string is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def config_from_dict(data: dict, name: str = "experiment") -> TrainConfig:
    """The run a config describes.

    The keys, with their JSON types (a default marks an optional key):

    - ``problem``, object: ``name``, one of ``pure_jump_1d``, ``pide_1d``,
      ``highdim_pide`` and ``bsb_jumps``, and keyword arguments of that
      problem's constructor in ``problems``, each a number or a list of
      numbers.
    - ``steps``, integer >= 1: time steps N of the grid on
      [0, ``problem.total_time``].
    - ``batch_size``, integer >= 1: paths simulated per iteration.
    - ``hidden``, list of integers >= 1: the widths of the hidden layers.
    - ``activation``, string, default ``"tanh"``: ``"tanh"`` or
      ``"leaky_relu"``; relu is ``"leaky_relu"`` at ``leaky_alpha`` 0.
    - ``leaky_alpha``, number in [0, 1], default 0.01: leaky relu's
      negative slope.
    - ``lr_schedule``, object: ``{"kind": "constant", "rate"}``,
      ``{"kind": "piecewise", "milestones": [[step, rate], ...]}`` with
      integer steps from 0, or ``{"kind": "cosine", "start", "end",
      "total_steps"}`` (``optim.schedule_from_dict``).
    - ``iterations``, integer >= 1: Adam steps, at the settings
      ``optim.BETA1``, ``optim.BETA2`` and ``optim.EPS``.
    - ``checkpoint_interval``, integer >= 1, default 1000: iterations
      between held-out evaluations, each of which saves the checkpoint.
    - ``eval_batch_size``, integer >= 1, default 2000: held-out paths.
    - ``seeds``, object of exactly ``simulation``, ``init`` and
      ``evaluation``, integers >= 0.

    Unknown keys, counts that are not JSON integers and other numbers that
    are not JSON numbers are config errors.
    """
    try:
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        prob_spec = dict(data["problem"])
        prob_name = prob_spec.pop("name")
        for key, value in prob_spec.items():
            for v in value if isinstance(value, list) else [value]:
                _number(v, f"problem.{key}")
        problem = problems.by_name(prob_name, **prob_spec)
        seeds = data["seeds"]
        if set(seeds) != _SEED_KEYS:
            raise ConfigError(f"seeds must be exactly {sorted(_SEED_KEYS)}, got {sorted(seeds)}")
        if not isinstance(data["hidden"], list):
            raise ConfigError(f"hidden must be a list of layer widths, got {data['hidden']!r}")
        return TrainConfig(
            problem=problem,
            steps=_integer(data["steps"], "steps"),
            batch_size=_integer(data["batch_size"], "batch_size"),
            architecture=nn.MlpArchitecture(
                input_dim=1 + problem.dim,
                hidden=tuple(_integer(w, "hidden width") for w in data["hidden"]),
                activation=data.get("activation", "tanh"),
                alpha=_number(data.get("leaky_alpha", 0.01), "leaky_alpha"),
            ),
            schedule=optim.schedule_from_dict(data["lr_schedule"]),
            iterations=_integer(data["iterations"], "iterations"),
            checkpoint_interval=_integer(data.get("checkpoint_interval", 1000),
                                         "checkpoint_interval"),
            eval_batch_size=_integer(data.get("eval_batch_size", 2000), "eval_batch_size"),
            seed_simulation=_integer(seeds["simulation"], "seeds.simulation"),
            seed_init=_integer(seeds["init"], "seeds.init"),
            seed_evaluation=_integer(seeds["evaluation"], "seeds.evaluation"),
            name=name,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _finite_number(token: str) -> float:
    """A JSON number of a config or checkpoint; NaN, Infinity and out-of-range literals are
    config errors."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"number {token} is not finite")
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

def _evaluate(config: TrainConfig, params: nn.MlpParams, iteration, lr, started,
              error_grid: bool = False):
    """Held-out report from the loss on blocks of paths, and the error grid if asked for.

    The held-out batch has its own seed on its own generator stream.  It
    is simulated here, at every call, one block of paths at a time: a
    block holds at most ``EVAL_BLOCK_VALUES`` state values, and it and its
    tape die before the next block is simulated, so the pass's memory does
    not grow with ``eval_batch_size``.  Each block runs
    ``scheme.squared_residuals`` and writes its squares, network values
    and exact values into its columns of (N, B), (B,) and (N+1, B)
    arrays; ``scheme.reduce_residuals`` and ``metrics.evaluation_errors``
    then run once over them.  The keyed generator makes a block the same
    paths, bit for bit, as the one batch, and every row of the first
    stage depends on its own path alone, so every figure is that of one
    ``scheme.loss`` over the whole batch.  ``error_grid`` asks for
    ``metrics.error_grid``'s rows (a 1-D problem); otherwise the second
    result is None.

    Nothing differentiates this loss, so the params go on each block's
    tape as constants: the network node then keeps no VJP state, and the
    block peaks at its values, not at every chunk's gradient chain.
    """
    problem, grid, size = config.problem, config.grid, config.eval_batch_size
    if error_grid and problem.dim != 1:
        raise ValueError("error_grid is only defined for one-dimensional problems")
    block = max(1, EVAL_BLOCK_VALUES // ((grid.steps + 1) * problem.dim))
    for lo in range(0, size, block):
        hi = min(size, lo + block)
        batch = jumpsim.simulate_forward(problem, grid, hi - lo, config.seed_evaluation,
                                         stream=EVAL_STREAM, first_path=lo)
        squares, terminal, node_values = scheme.squared_residuals(
            nn.TapeMlp(Tape(), params, trainable=False), batch, problem)
        if lo == 0:  # made in memory that the first block's network pass has freed
            interval_sq = np.empty((grid.steps, size))
            terminal_sq = np.empty(size)
            values = np.empty((grid.steps + 1, size))
            exact = np.empty_like(values)
            xs = np.empty_like(values) if error_grid else None
        interval_sq[:, lo:hi] = squares.value.reshape(grid.steps, hi - lo)
        terminal_sq[lo:hi] = terminal.value[:, 0]
        values[:, lo:hi] = node_values
        metrics.exact_values(batch, problem, out=exact[:, lo:hi])
        if xs is not None:
            xs[:, lo:hi] = batch.states[:, :, 0]
        del batch, squares, terminal, node_values  # the block and its tape, before the next
    tape = Tape()
    breakdown = scheme.reduce_residuals(tape.constant(interval_sq.reshape(-1, 1)),
                                        tape.constant(terminal_sq[:, None]), grid.steps)[1]
    mean_rel_err, node_errors, max_sq_err = metrics.evaluation_errors(values, exact)
    report = metrics.MetricsReport(
        iteration=iteration,
        loss=breakdown.total,
        mean_rel_err=mean_rel_err,
        node_errors=node_errors,
        max_sq_err=max_sq_err,
        lr=lr,
        wall_clock=time.perf_counter() - started,
    )
    rows = None if xs is None else metrics.error_grid(values, exact, xs, grid.times)
    return report, rows


# A checkpoint stores ``MlpParams.theta`` as base64 of its little-endian float64
# bytes under "params" and names this format under "array_format"; no other is read.
CHECKPOINT_ARRAY_FORMAT = "theta-base64-float64-le"


def save_checkpoint(path, params: nn.MlpParams, iteration: int, lr: float) -> None:
    """Iteration, lr and the model (architecture, ``theta``'s float64 bytes) as JSON, bit-exact.

    The file at ``path`` is replaced whole: it holds this checkpoint or the one before.
    """
    arch = params.arch
    model = {
        "architecture": {"input_dim": arch.input_dim, "hidden": list(arch.hidden),
                         "activation": arch.activation, "alpha": arch.alpha},
        "params": base64.b64encode(params.theta.astype("<f8").tobytes()).decode("ascii"),
    }
    payload = {"iteration": iteration, "lr": lr, "array_format": CHECKPOINT_ARRAY_FORMAT,
               "model": model}
    # written beside the target and moved into place, so a crash mid-write
    # leaves the previous checkpoint whole
    partial = Path(f"{path}.partial")
    with open(partial, "w") as fh:
        fh.write(json.dumps(payload))  # the C encoder; json.dump runs the Python one
    os.replace(partial, path)


def load_checkpoint(path) -> tuple[nn.MlpParams, int, float]:
    """The params, iteration and lr of a checkpoint, with a config's types; else a config error.

    As in a config, a number that is not finite is a config error.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        except ValueError as exc:
            raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from exc
    if not isinstance(payload, dict) or payload.get("array_format") != CHECKPOINT_ARRAY_FORMAT:
        raise ConfigError(f"checkpoint {path} is not in format {CHECKPOINT_ARRAY_FORMAT!r} "
                          "(the parameter vector as base64 of little-endian float64 bytes); "
                          "no other checkpoint format is read")
    try:
        model = payload["model"]
        arch = model["architecture"]
        params = nn.MlpParams(
            nn.MlpArchitecture(
                input_dim=_integer(arch["input_dim"], "checkpoint input_dim"),
                hidden=tuple(_integer(w, "checkpoint hidden width") for w in arch["hidden"]),
                activation=arch["activation"],
                alpha=_number(arch["alpha"], "checkpoint alpha"),
            ),
            np.frombuffer(base64.b64decode(model["params"], validate=True), "<f8").astype(float),
        )
        return (params, _integer(payload["iteration"], "checkpoint iteration"),
                _number(payload["lr"], "checkpoint lr"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from exc


def _train_step(config: TrainConfig, params: nn.MlpParams, state: AdamState, it: int, lr: float):
    """One iteration: fresh batch, loss on a new tape, backward, Adam step.

    The batch goes once the loss is built: the tape's VJPs keep what they
    read of it, the Brownian increments and the constants made from it,
    and the states die before the backward starts.  The tape and
    everything on it, the breakdown's values included, die when this
    returns, before the next iteration builds its own.
    """
    batch = jumpsim.simulate_forward(
        config.problem, config.grid, config.batch_size, config.seed_simulation + it,
        stream=TRAIN_STREAM,
    )
    tape = Tape()
    net = nn.TapeMlp(tape, params)
    total, breakdown = scheme.loss(net, batch, config.problem)
    del batch
    (grad,) = tape.backward(total, [net.param_var])
    theta = optim.adam_step(params.theta, grad, state, lr)
    return nn.MlpParams(params.arch, theta), breakdown.to_dict()


def run_experiment(config: TrainConfig, out_dir) -> tuple[list[metrics.MetricsReport], nn.MlpParams]:
    """Train per the config, writing metrics.csv, report files and a checkpoint.

    Every iteration simulates a fresh path batch, assembles the loss on a
    new tape, backpropagates and applies one Adam step.  Held-out metrics
    come from an evaluation batch on its own generator stream, which each
    evaluation simulates afresh and drops, so the run holds no held-out
    batch between evaluations.  Each evaluation appends its row to
    ``metrics.csv`` and replaces ``checkpoint.json`` with the params it
    evaluated, so a run that stops early keeps both up to its last
    evaluation.  A numerical abort writes ``abort.json`` with the error
    and the iteration: the training batch's, or the evaluation's when
    simulating its held-out batch fails.  An ``abort.json`` that an
    earlier run left in ``out_dir`` goes before the first iteration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "abort.json").unlink(missing_ok=True)
    problem, grid = config.problem, config.grid

    params = nn.init(config.architecture, seed=config.seed_init)
    state = AdamState.for_params(params.theta)

    reports: list[metrics.MetricsReport] = []
    metrics.write_metrics_csv(out / "metrics.csv", [])  # the header; evaluations append rows
    try:
        started = time.perf_counter()
        with open(out / "breakdown.jsonl", "w") as breakdown_log:
            for it in range(1, config.iterations + 1):
                lr = optim.lr_at(config.schedule, it - 1)
                params, breakdown = _train_step(config, params, state, it, lr)
                breakdown_log.write(json.dumps({"iteration": it, **breakdown}) + "\n")
                if it % config.checkpoint_interval == 0 or it == config.iterations:
                    report, grid_rows = _evaluate(
                        config, params, it, lr, started,
                        error_grid=problem.dim == 1 and it == config.iterations)
                    reports.append(report)
                    metrics.append_metrics_csv(out / "metrics.csv", report)
                    breakdown_log.flush()  # so that after a kill it ends where the checkpoint does
                    save_checkpoint(out / "checkpoint.json", params, it, lr)
                    _log_progress(reports, config.iterations)
    except (NumericalAbortError, SimulationError, NonFiniteGradientError) as exc:
        _dump_abort(out, it, exc)
        raise NumericalAbortError(
            f"aborted at iteration {it}: {exc}",
            interval=getattr(exc, "interval", None),
            breakdown=getattr(exc, "breakdown", None),
        ) from exc

    metrics.write_error_by_time_csv(out / "error_by_time.csv", grid.times, report.node_errors)
    if grid_rows is not None:
        metrics.write_error_grid_csv(out / "error_grid.csv", grid_rows)
    return reports, params


def _log_progress(reports: list[metrics.MetricsReport], iterations: int) -> None:
    """One line for the latest report: timed per iteration since the one before it,
    the time left at that pace and the process's peak RSS so far."""
    last = reports[-1]
    prev = reports[-2] if len(reports) > 1 else None
    prev_it, prev_clock = (prev.iteration, prev.wall_clock) if prev else (0, 0.0)
    ms_per_iter = 1e3 * (last.wall_clock - prev_clock) / (last.iteration - prev_it)
    eta_s = ms_per_iter * (iterations - last.iteration) / 1e3
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    log.info("iteration %d/%d loss %.6e mean_rel_err %.4e %.1f ms/iter eta %.0f s "
             "peak_rss %.1f MiB", last.iteration, iterations, last.loss, last.mean_rel_err,
             ms_per_iter, eta_s, peak_mib)


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

    Run r offsets the init seed by r and the simulation seed by r times
    ``RUN_SEED_STRIDE``, so no two runs share batches; more iterations
    than the stride are a config error, and so is an N whose config
    ``TrainConfig`` refuses, before any run trains.  A failed run is
    logged and excluded rather than killing the study.
    """
    if runs < keep or keep < 1:
        raise ConfigError(f"need runs >= keep >= 1, got runs={runs}, keep={keep}")
    if runs > 1 and config.iterations > RUN_SEED_STRIDE:
        raise ConfigError(f"{config.iterations} iterations exceed the seed stride of "
                          f"{RUN_SEED_STRIDE} between runs: runs would share batch seeds")
    if len(set(steps_list)) < len(steps_list):
        raise ConfigError(f"step counts repeat in {steps_list}")
    for n_steps in steps_list:  # TrainConfig's checks of each N, before any run
        replace(config, steps=n_steps)
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
            except NumericalAbortError as exc:
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
    try:
        steps_list = [int(s) for s in args.steps.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"bad --steps list: {args.steps!r}") from exc
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
    report, _ = _evaluate(config, params, iteration, lr, time.perf_counter())
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
