"""Forward simulation of jump-diffusion paths on a uniform time grid.

Randomness comes from a counter-based keyed generator: every draw is a
pure function of (seed, stream, path, step, slot), so path i's noise
never depends on the batch size or on evaluation order, and re-running
with the same seed reproduces a batch bit for bit.  The path in a key
is absolute: ``simulate_forward(..., first_path=lo)`` with ``hi - lo``
paths gives paths lo..hi-1 of any larger batch of the same seed and
stream, bit for bit, so a batch can be simulated in blocks of paths.
Uniform bits are produced by chained splitmix64 avalanche rounds and
turned into normals through the inverse CDF, ``normal.ndtri``, a numpy
port of Cephes' ``ndtri``: central-branch draws are Cephes' bytes, tail
draws lie within the bound stated in ``normal``'s docstring.  Each
normal depends on its own uniform alone, so the blocks the Brownian
draws are made in change no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .normal import ndtri
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

    The CDF is summed term by term in float64 until a term no longer
    moves it, and a draw's count is the number of its values at or below
    the draw; a draw above where the CDF settles gets the number of terms.
    At mean 0 the CDF starts at 1, above every keyed uniform, so every
    count is 0.
    """
    if mean < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mean}")
    pmf = float(np.exp(-mean))
    cdf = [pmf]
    k = 1
    while True:
        pmf *= mean / k
        grown = cdf[-1] + pmf
        if not grown > cdf[-1]:
            break
        cdf.append(grown)
        k += 1
    return np.searchsorted(np.array(cdf), u, side="right").astype(np.int64, copy=False)


def sample_poisson_counts(
    seed: int, lam: float, dt: float, paths: int, steps: int, stream: int = 0,
    first_path: int = 0,
) -> np.ndarray:
    """Jump counts, Poisson(lam * dt), of paths first_path.., shape (steps, paths)."""
    if lam < 0:
        raise ValueError(f"jump intensity must be >= 0, got {lam}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = keyed_uniforms(
        seed, _kind(stream, _KIND_COUNT),
        np.arange(first_path, first_path + paths)[None, :], np.arange(steps)[:, None], 0,
    )
    return poisson_from_uniforms(u, lam * dt)


# ----------------------------------------------------------------------
# path batches

@dataclass
class PathBatch:
    """Simulated forward trajectories plus every random draw they consumed.

    Every per-(node, path) array is node-major: axis 0 indexes the time
    node or interval, axis 1 the path, and ``simulate_forward`` stores
    each one C-contiguous, so a (N*B, d) reshape of ``brownian`` is a
    view.  Jump events are stored flat in interval-major order;
    ``events(n)`` slices out the paths and marks of interval n.
    """

    grid: TimeGrid
    states: np.ndarray          # (N+1, B, d)
    brownian: np.ndarray        # (N, B, d), increments with variance dt
    counts: np.ndarray          # (N, B) integer jump counts
    event_paths: np.ndarray     # (E,) path index per jump event
    event_intervals: np.ndarray  # (E,) interval index per jump event
    event_marks: np.ndarray     # (E, mark_dim)
    stream: int = 0
    _bounds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._bounds = np.searchsorted(self.event_intervals, np.arange(self.grid.steps + 1))

    @property
    def batch_size(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def events(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._bounds[n], self._bounds[n + 1]
        return self.event_paths[lo:hi], self.event_marks[lo:hi]


def _draw_noise(problem: ProblemSpec, grid: TimeGrid, batch_size: int, seed: int, stream: int,
                first_path: int):
    """The batch's draws; ``ev_path`` is local to the batch, the keys use the absolute path."""
    n_steps, d, m = grid.steps, problem.dim, problem.mark_dim
    counts = sample_poisson_counts(seed, problem.intensity, grid.dt, batch_size, n_steps, stream,
                                   first_path)

    # flatten events interval-major: all of interval 0 (paths ascending),
    # then interval 1, ...
    counts_by_interval = counts.ravel()  # index = n * B + p
    cell = np.repeat(np.arange(n_steps * batch_size), counts_by_interval)
    ev_interval = cell // batch_size
    ev_path = cell % batch_size
    starts = np.cumsum(counts_by_interval) - counts_by_interval
    within = np.arange(cell.size) - np.repeat(starts, counts_by_interval)
    mark_u = keyed_uniforms(
        seed, _kind(stream, _KIND_MARK),
        first_path + ev_path[:, None], ev_interval[:, None],
        within[:, None] * m + np.arange(m)[None, :],
    )

    # Brownian increments drawn NOISE_BLOCK at a time, in blocks of whole
    # paths; the last block's inverse CDF also takes the marks' uniforms,
    # so a small batch makes one kernel call.  Every draw is keyed and
    # every normal depends on its own uniform alone, so neither the
    # blocking nor the shared call changes a value
    step_idx = np.arange(n_steps)[:, None, None]
    slot_idx = np.arange(d)[None, None, :]
    brownian = np.empty((n_steps, batch_size, d))
    scale = np.sqrt(grid.dt)
    block_paths = max(1, NOISE_BLOCK // (n_steps * d))
    for lo in range(0, batch_size, block_paths):
        hi = min(batch_size, lo + block_paths)
        u = keyed_uniforms(
            seed, _kind(stream, _KIND_BROWNIAN),
            np.arange(first_path + lo, first_path + hi)[None, :, None], step_idx, slot_idx,
        ).reshape(-1)
        size = u.size
        if hi == batch_size:
            u = np.concatenate([u, mark_u.reshape(-1)])
        z = ndtri(u)
        block = z[:size].reshape(n_steps, hi - lo, d)
        block *= scale
        brownian[:, lo:hi] = block
    marks = problem.sample_marks(z[size:].reshape(mark_u.shape))
    return brownian, counts, ev_path, ev_interval, marks


def _jump_sum(problem: ProblemSpec, batch: PathBatch, n: int, t, x: np.ndarray) -> np.ndarray:
    """Per-path sum of the jump sizes of interval n, zero on paths without events."""
    jump_sum = np.zeros_like(x)
    ids, marks = batch.events(n)
    np.add.at(jump_sum, ids, problem.jump_size(t, x[ids], marks))
    return jump_sum


def simulate_forward(
    problem: ProblemSpec,
    grid: TimeGrid,
    batch_size: int,
    seed: int,
    stream: int = 0,
    first_path: int = 0,
) -> PathBatch:
    """Euler steps with compound-Poisson jumps and compensator correction.

    Each interval applies, with coefficients frozen at the left endpoint:
    drift * dt, the diffusion diagonal times the Brownian increment
    elementwise, the sum of jump sizes over the interval's marks, minus the
    closed-form compensator integral times dt.  The ``stream`` tag
    separates independent uses of the same seed (training batches versus
    held-out evaluation batches).

    The batch holds paths ``first_path`` to ``first_path + batch_size - 1``
    of the seed and stream: each is the same path, bit for bit, in every
    batch that holds it.  ``event_paths`` index the batch's own paths,
    from 0; a ``SimulationError`` names the absolute path.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    brownian, counts, ev_path, ev_interval, ev_marks = _draw_noise(
        problem, grid, batch_size, seed, stream, first_path
    )
    batch = PathBatch(
        grid=grid,
        states=np.empty((grid.steps + 1, batch_size, problem.dim)),
        brownian=brownian,
        counts=counts,
        event_paths=ev_path,
        event_intervals=ev_interval,
        event_marks=ev_marks,
        stream=stream,
    )
    x_all = batch.states
    x_all[0] = problem.x0
    dt = grid.dt
    times = grid.times
    for n in range(grid.steps):
        t = times[n]
        x = x_all[n]
        nxt = (
            x
            + problem.drift(t, x) * dt
            + problem.diffusion(t, x) * brownian[n]
            + _jump_sum(problem, batch, n, t, x)
            - problem.compensator(t, x) * dt
        )
        if not np.all(np.isfinite(nxt)):
            bad = np.argwhere(~np.isfinite(nxt))[0]
            raise SimulationError(
                f"non-finite state at interval {n + 1}, path {first_path + int(bad[0])}"
            )
        x_all[n + 1] = nxt
    return batch
