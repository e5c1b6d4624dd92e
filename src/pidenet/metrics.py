"""Errors of node-major (node, path) network values against exact solutions, and report files."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .jumpsim import PathBatch
from .problems import ProblemSpec

log = logging.getLogger(__name__)

REL_ERR_FLOOR = 1e-8  # denominator floor so zero crossings of u stay finite


@dataclass
class MetricsReport:
    """One evaluation row: losses and errors of the current parameters."""

    iteration: int
    loss: float
    mean_rel_err: float
    node_errors: np.ndarray  # length N+1
    max_sq_err: float
    lr: float
    wall_clock: float = 0.0

    @property
    def rel_err_t0(self) -> float:
        return float(self.node_errors[0])

    def csv_row(self) -> str:
        cols = (self.iteration, self.loss, self.mean_rel_err,
                self.rel_err_t0, self.max_sq_err, self.lr)
        return ",".join(_fmt(c) for c in cols)


METRICS_CSV_HEADER = "iteration,loss,mean_rel_err,rel_err_t0,max_sq_err,lr"


@dataclass
class ConvergenceRow:
    steps: int
    dt: float
    max_sq_err: float
    order: Optional[float]  # empty for the first row


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))


def _exact_values(batch: PathBatch, problem: ProblemSpec) -> np.ndarray:
    """Values of u at every (node, path), shape (N+1, B)."""
    times = batch.grid.times
    exact = np.empty((batch.grid.steps + 1, batch.batch_size))
    for n in range(batch.grid.steps + 1):
        exact[n] = problem.exact(times[n], batch.states[n])[:, 0]
    return exact


def evaluation_errors(
    values: np.ndarray, batch: PathBatch, problem: ProblemSpec
) -> tuple[float, np.ndarray, float]:
    """Three error figures against u of the loss's network values (N+1, B) on ``batch``.

    - mean relative error: mean over paths and time nodes of
      |net - u| / max(floor, |u|);
    - error by time: the same per node, length N+1;
    - max square error: max over nodes of the batch-mean squared gap
      (net - u)^2.
    """
    exact = _exact_values(batch, problem)
    rel = np.abs(values - exact) / np.maximum(REL_ERR_FLOOR, np.abs(exact))
    max_sq = float(np.max(np.mean((values - exact) ** 2, axis=1)))
    return float(rel.mean()), rel.mean(axis=1), max_sq


def error_grid(
    values: np.ndarray, batch: PathBatch, problem: ProblemSpec, bins: int = 40
) -> list[tuple[float, float, float]]:
    """(t, x-bin center, mean absolute error) triples for scalar problems.

    Heat-map input from the ``evaluation_errors`` values; only defined for dim 1.
    """
    if problem.dim != 1:
        raise ValueError("error_grid is only defined for one-dimensional problems")
    abs_err = np.abs(values - _exact_values(batch, problem))
    xs = batch.states[:, :, 0]  # (N+1, B)
    edges = np.linspace(xs.min(), xs.max() + 1e-12, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = []
    times = batch.grid.times
    for n in range(batch.grid.steps + 1):
        which = np.clip(np.digitize(xs[n], edges) - 1, 0, bins - 1)
        for b in range(bins):
            mask = which == b
            if mask.any():
                rows.append((float(times[n]), float(centers[b]), float(abs_err[n, mask].mean())))
    return rows


def convergence_table(
    errors_by_steps: dict[int, Sequence[float]],
    total_time: float,
    keep: int,
) -> list[ConvergenceRow]:
    """Aggregate per-run max-square-errors into a step-size study table.

    For each step count the ``keep`` smallest finite errors are averaged;
    non-finite entries are dropped with a warning.  The order column
    compares consecutive rows on the log-log scale.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    rows: list[ConvergenceRow] = []
    prev: Optional[ConvergenceRow] = None
    for steps in sorted(errors_by_steps):
        errors = np.asarray(list(errors_by_steps[steps]), dtype=np.float64)
        finite = errors[np.isfinite(errors)]
        if finite.size < errors.size:
            log.warning(
                "excluding %d non-finite run(s) at N=%d", errors.size - finite.size, steps
            )
        if finite.size == 0:
            log.warning("no usable runs at N=%d; skipping row", steps)
            continue
        kept = np.sort(finite)[: min(keep, finite.size)]
        err = float(kept.mean())
        dt = total_time / steps
        order = (None if prev is None
                 else float(np.log(prev.max_sq_err / err) / np.log(prev.dt / dt)))
        row = ConvergenceRow(steps=steps, dt=dt, max_sq_err=err, order=order)
        rows.append(row)
        prev = row
    return rows


# ----------------------------------------------------------------------
# report files

def _write_csv(path, header: str, rows: Iterable[str]) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_metrics_csv(path, reports: Sequence[MetricsReport]) -> None:
    _write_csv(path, METRICS_CSV_HEADER, (rep.csv_row() for rep in reports))


def write_error_by_time_csv(path, grid_times: np.ndarray, node_errors: np.ndarray) -> None:
    _write_csv(path, "node,t,rel_err", (f"{n},{_fmt(float(t))},{_fmt(float(e))}"
                                        for n, (t, e) in enumerate(zip(grid_times, node_errors))))


def write_convergence_csv(path, rows: Sequence[ConvergenceRow]) -> None:
    _write_csv(path, "N,dt,max_sq_err,order",
               (f"{row.steps},{_fmt(row.dt)},{_fmt(row.max_sq_err)},"
                + ("" if row.order is None else _fmt(row.order)) for row in rows))


def write_error_grid_csv(path, rows: Sequence[tuple[float, float, float]]) -> None:
    _write_csv(path, "t,x_bin,mean_abs_err", (f"{_fmt(t)},{_fmt(x)},{_fmt(e)}" for t, x, e in rows))
