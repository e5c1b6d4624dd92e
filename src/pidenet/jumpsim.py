"""Forward simulation of jump-diffusion paths on a uniform time grid.

Randomness comes from a counter-based keyed generator: every draw is a
pure function of (seed, stream, path, step, slot), so path i's noise
never depends on the batch size or on evaluation order, and re-running
with the same seed reproduces a batch bit for bit.  Uniform bits are
produced by chained splitmix64 avalanche rounds and turned into normals
through the inverse CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .problems import ProblemSpec


class SimulationError(FloatingPointError):
    """Raised when a path state becomes non-finite during the recursion."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    total_time: float
    steps: int

    def __post_init__(self):
        if self.total_time <= 0 or self.steps < 1:
            raise ValueError(f"need T > 0 and N >= 1, got T={self.total_time}, N={self.steps}")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    @property
    def times(self) -> np.ndarray:
        n = np.arange(self.steps + 1)
        return n * self.total_time / self.steps


# ----------------------------------------------------------------------
# keyed counter generator

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# draw kinds, folded into the key together with the caller's stream tag
_KIND_BROWNIAN = 1
_KIND_COUNT = 2
_KIND_MARK = 3

# largest float64 below 1: 53-bit uniforms that round up to 1.0 are
# clamped here, which keeps the inverse-CDF transforms finite
_U_MAX = 1.0 - 2.0**-53

# Most Brownian draws made in one block of whole paths (at least one
# path per block).  A block's hash chain and inverse CDF then run on
# arrays that stay in cache; every draw is keyed by its own counters, so
# the block size changes no value.
NOISE_BLOCK = 2**15


def _mix64(x):
    x = x + _GOLD
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    x = x ^ (x >> np.uint64(31))
    return x


def keyed_uniforms(seed: int, kind: int, path, step, slot) -> np.ndarray:
    """Uniforms in (0, 1), one per broadcast element of (path, step, slot)."""
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(int(seed) % 2**64))
        h = _mix64(h ^ np.uint64(kind))
        h = _mix64(h ^ np.asarray(path, dtype=np.uint64))
        h = _mix64(h ^ np.asarray(step, dtype=np.uint64))
        h = _mix64(h ^ np.asarray(slot, dtype=np.uint64))
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _U_MAX, out=u)


def _kind(stream: int, draw_kind: int) -> int:
    return (int(stream) << 8) | draw_kind


def poisson_from_uniforms(u: np.ndarray, mean: float) -> np.ndarray:
    """Inverse-CDF Poisson transform, exact for the small means used here.

    The float CDF can settle just below 1; a draw above it stops at the
    first count whose probability no longer moves the CDF.
    """
    if mean < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mean}")
    k = np.zeros(u.shape, dtype=np.int64)
    if mean == 0.0:
        return k
    pmf = np.full(u.shape, np.exp(-mean))
    cdf = pmf.copy()
    pending = u >= cdf
    while pending.any():
        k[pending] += 1
        pmf = np.where(pending, pmf * (mean / np.maximum(k, 1)), pmf)
        grown = np.where(pending, cdf + pmf, cdf)
        pending = (u >= grown) & (grown > cdf)
        cdf = grown
    return k


def sample_poisson_counts(
    seed: int, lam: float, dt: float, paths: int, steps: int, stream: int = 0
) -> np.ndarray:
    """Per-path, per-interval jump counts, Poisson(lam * dt) distributed."""
    if lam < 0:
        raise ValueError(f"jump intensity must be >= 0, got {lam}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = keyed_uniforms(
        seed, _kind(stream, _KIND_COUNT),
        np.arange(paths)[:, None], np.arange(steps)[None, :], 0,
    )
    return poisson_from_uniforms(u, lam * dt)


# ----------------------------------------------------------------------
# path batches

@dataclass
class PathBatch:
    """Simulated forward trajectories plus every random draw they consumed.

    Jump events are stored flat in interval-major order; ``events(n)``
    slices out the paths and marks of interval n.
    """

    grid: TimeGrid
    states: np.ndarray          # (B, N+1, d)
    brownian: np.ndarray        # (B, N, d), increments with variance dt
    counts: np.ndarray          # (B, N) integer jump counts
    event_paths: np.ndarray     # (E,) path index per jump event
    event_intervals: np.ndarray  # (E,) interval index per jump event
    event_marks: np.ndarray     # (E, mark_dim)
    seed: int
    stream: int = 0
    _bounds: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self._bounds is None:
            self._bounds = np.searchsorted(
                self.event_intervals, np.arange(self.grid.steps + 1)
            )

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def events(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._bounds[n], self._bounds[n + 1]
        return self.event_paths[lo:hi], self.event_marks[lo:hi]


def _draw_noise(problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int):
    n_steps, d, m = grid.steps, problem.dim, problem.mark_dim
    step_idx = np.arange(n_steps)[None, :, None]
    slot_idx = np.arange(d)[None, None, :]

    # Brownian increments, NOISE_BLOCK draws of whole paths at a time
    brownian = np.empty((batch_size, n_steps, d))
    scale = np.sqrt(grid.dt)
    block_paths = max(1, NOISE_BLOCK // (n_steps * d))
    for lo in range(0, batch_size, block_paths):
        hi = min(batch_size, lo + block_paths)
        u = keyed_uniforms(
            seed, _kind(stream, _KIND_BROWNIAN),
            np.arange(lo, hi)[:, None, None], step_idx, slot_idx,
        )
        block = ndtri(u, out=brownian[lo:hi])
        block *= scale

    counts = sample_poisson_counts(seed, problem.intensity, grid.dt, batch_size, n_steps, stream)

    # flatten events interval-major: all of interval 0 (paths ascending),
    # then interval 1, ...
    counts_by_interval = counts.T.ravel()  # index = n * B + p
    total = int(counts_by_interval.sum())
    if total:
        cell = np.repeat(np.arange(n_steps * batch_size), counts_by_interval)
        ev_interval = cell // batch_size
        ev_path = cell % batch_size
        starts = np.cumsum(counts_by_interval) - counts_by_interval
        within = np.arange(total) - np.repeat(starts, counts_by_interval)
        mark_u = keyed_uniforms(
            seed, _kind(stream, _KIND_MARK),
            ev_path[:, None], ev_interval[:, None],
            within[:, None] * m + np.arange(m)[None, :],
        )
        ev_marks = problem.sample_marks(mark_u)
    else:
        ev_interval = np.zeros(0, dtype=np.int64)
        ev_path = np.zeros(0, dtype=np.int64)
        ev_marks = np.zeros((0, m))
    return brownian, counts, ev_path, ev_interval, ev_marks


def _jump_sum(problem: ProblemSpec, batch: PathBatch, n: int, t, x: np.ndarray) -> np.ndarray:
    """Per-path sum of the jump sizes of interval n, zero on paths without events."""
    jump_sum = np.zeros_like(x)
    ids, marks = batch.events(n)
    if ids.size:
        np.add.at(jump_sum, ids, problem.jump_size(t, x[ids], marks))
    return jump_sum


def simulate_forward(
    problem: ProblemSpec,
    grid: TimeGrid,
    batch_size: int,
    seed: int,
    stream: int = 0,
) -> PathBatch:
    """Euler steps with compound-Poisson jumps and compensator correction.

    Each interval applies, with coefficients frozen at the left endpoint:
    drift * dt, the diffusion diagonal times the Brownian increment
    elementwise, the sum of jump sizes over the interval's marks, minus the
    closed-form compensator integral times dt.  The ``stream`` tag
    separates independent uses of the same seed (training batches versus
    held-out evaluation batches).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    brownian, counts, ev_path, ev_interval, ev_marks = _draw_noise(
        problem, grid, batch_size, seed, stream
    )
    batch = PathBatch(
        grid=grid,
        states=np.empty((batch_size, grid.steps + 1, problem.dim)),
        brownian=brownian,
        counts=counts,
        event_paths=ev_path,
        event_intervals=ev_interval,
        event_marks=ev_marks,
        seed=seed,
        stream=stream,
    )
    x_all = batch.states
    x_all[:, 0, :] = problem.x0
    dt = grid.dt
    times = grid.times
    for n in range(grid.steps):
        t = times[n]
        x = x_all[:, n, :]
        nxt = (
            x
            + problem.drift(t, x) * dt
            + problem.diffusion(t, x) * brownian[:, n, :]
            + _jump_sum(problem, batch, n, t, x)
            - problem.compensator(t, x) * dt
        )
        if not np.all(np.isfinite(nxt)):
            bad = np.argwhere(~np.isfinite(nxt))[0]
            raise SimulationError(
                f"non-finite state at interval {n + 1}, path {int(bad[0])}"
            )
        x_all[:, n + 1, :] = nxt
    return batch
