"""Benchmark problem definitions: coefficients, jump laws, drivers, exact solutions.

Each problem bundles the forward-process coefficients (drift, diagonal
diffusion, jump size), the jump intensity with its mark sampler and the
closed-form compensator integral of the jump size, the backward driver,
the terminal condition, and the exact solution and its gradient, which
every problem carries.  ``pure_jump_1d`` is ``pide_1d`` at tau = eps = 0.
Every problem has a diagonal diffusion, so it stores only the diagonal.
A coefficient that does not depend on the state comes back as one (1, d)
row, which broadcasts over the rows.

Drivers follow the sign convention of the backward one-step map
``Y_next = Y - f*dt + Z.dW + I*dt``: the source term that the benchmark
recursions add with a plus sign is stored negated inside ``f``.  Drivers
accept either numpy arrays or tape variables for (y, z, i), so the same
callable serves simulation-side checks and the differentiable loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient bundle for one PIDE / forward-backward jump system.

    Coefficient callables receive the state as (rows, d) and the time as
    either a scalar or a (rows, 1) column; implementations must broadcast
    over both.  ``drift``, ``diffusion`` and ``compensator`` return
    arrays that broadcast to (rows, d): a coefficient that does not
    depend on the state may return one (1, d) row.  ``diffusion`` gives
    the diagonal of the diffusion matrix; the forward step multiplies it
    elementwise with the Brownian increment and the loss with the
    network's input gradient.
    """

    name: str
    dim: int
    x0: np.ndarray = field(repr=False)
    total_time: float
    intensity: float
    mark_dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    jump_size: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sample_marks: Callable[[np.ndarray], np.ndarray]
    compensator: Callable[[float, np.ndarray], np.ndarray]
    driver: Callable
    terminal: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[float, np.ndarray], np.ndarray]
    exact_grad: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=np.float64))
        if self.x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected ({self.dim},)")
        if self.intensity < 0:
            raise ValueError(f"jump intensity must be >= 0, got {self.intensity}")
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")


def _normal_mark_sampler(mean: float, std: float) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse-CDF transform from uniforms to i.i.d. normal mark coordinates."""

    def sample(uniforms: np.ndarray) -> np.ndarray:
        return mean + std * ndtri(uniforms)

    return sample


# Elements per row block of ``_squared_radius``: its temporary stays near 32 KiB.
_RADIUS_BLOCK = 2**12


def _squared_radius(x: np.ndarray) -> np.ndarray:
    """|x|^2 per row as a (rows, 1) column, summed one row block at a time.

    Each row's sum is ``np.sum(x * x, axis=1)``'s bit for bit, but no
    (rows, d) temporary exists; ``einsum`` would sum in another order.
    """
    out = np.empty((x.shape[0], 1))
    block = max(1, _RADIUS_BLOCK // x.shape[1])
    for lo in range(0, x.shape[0], block):
        xb = x[lo:lo + block]
        np.sum(xb * xb, axis=1, keepdims=True, out=out[lo:lo + block])
    return out


def pide_1d(
    lam: float = 0.3,
    tau: float = 0.4,
    eps: float = 0.25,
    mark_mean: float = 0.4,
    mark_std: float = 0.25,
    total_time: float = 1.0,
    x0: float = 1.0,
) -> ProblemSpec:
    """Scalar benchmark: convection eps*x, diffusion tau, multiplicative jumps.

    Jumps send x to x*exp(z) with normal marks z, compensated in closed
    form.  The backward recursion adds a source eps*x, so the driver
    stores its negation; the value function is u(t, x) = x.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if mark_std <= 0:
        raise ValueError("mark_std must be positive")
    kappa = np.exp(mark_mean + 0.5 * mark_std**2) - 1.0

    return ProblemSpec(
        name="pide_1d",
        dim=1,
        x0=np.array([x0]),
        total_time=total_time,
        intensity=lam,
        mark_dim=1,
        drift=lambda t, x: eps * x,
        diffusion=lambda t, x: np.full((1, 1), tau),
        jump_size=lambda t, x, z: x * (np.exp(z) - 1.0),
        sample_marks=_normal_mark_sampler(mark_mean, mark_std),
        compensator=lambda t, x: lam * kappa * x,
        driver=lambda t, x, y, z, i: -eps * x[:, :1],
        terminal=lambda x: x[:, :1].copy(),
        exact=lambda t, x: x[:, :1].copy(),
        exact_grad=lambda t, x: np.ones_like(x),
    )


def pure_jump_1d(
    lam: float = 0.3,
    mark_mean: float = 0.4,
    mark_std: float = 0.25,
    total_time: float = 1.0,
    x0: float = 1.0,
) -> ProblemSpec:
    """``pide_1d`` at tau = eps = 0: multiplicative jumps alone, u(t, x) = x."""
    return replace(pide_1d(lam, 0.0, 0.0, mark_mean, mark_std, total_time, x0),
                   name="pure_jump_1d")


def highdim_pide(
    dim: int,
    lam: float = 0.3,
    tau: float = 0.1,
    eps: float = 0.25,
    mark_mean: float = 0.01,
    mark_std: float = 0.1,
    total_time: float = 1.0,
    x0: Optional[np.ndarray] = None,
) -> ProblemSpec:
    """d-dimensional benchmark with additive vector jumps.

    Marks are d-dimensional with i.i.d. normal coordinates so that the
    jump integral of the squared radius matches the lam*(mean^2+std^2)
    source term; the value function is u(t, x) = |x|^2 / d.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x0 = np.ones(dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    source_const = lam * (mark_mean**2 + mark_std**2) + tau**2

    def driver(t, x, y, z, i):
        return -(source_const + (eps / dim) * _squared_radius(x))

    return ProblemSpec(
        name="highdim_pide",
        dim=dim,
        x0=x0,
        total_time=total_time,
        intensity=lam,
        mark_dim=dim,
        drift=lambda t, x: 0.5 * eps * x,
        diffusion=lambda t, x: np.full((1, dim), tau),
        jump_size=lambda t, x, e: e,
        sample_marks=_normal_mark_sampler(mark_mean, mark_std),
        compensator=lambda t, x: np.full((1, dim), lam * mark_mean),
        driver=driver,
        terminal=lambda x: _squared_radius(x) / dim,
        exact=lambda t, x: _squared_radius(x) / dim,
        exact_grad=lambda t, x: (2.0 / dim) * x,
    )


def bsb_jumps(
    dim: int,
    lam: float = 0.3,
    r: float = 0.05,
    tau: float = 0.4,
    mark_mean: float = 0.02,
    mark_std: float = 0.01,
    total_time: float = 1.0,
    x0: Optional[np.ndarray] = None,
) -> ProblemSpec:
    """Black-Scholes-Barenblatt dynamics with additive vector jumps.

    State-proportional drift and diagonal diffusion; the driver couples to
    the value through r*y, and the exact solution carries the factor
    exp((r + tau^2)(T - t)).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x0 = np.ones(dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    T = total_time
    mark_msq = mark_mean**2 + mark_std**2

    def driver(t, x, y, z, i):
        return -(r * y + lam * np.exp((r + tau**2) * (T - t)) * mark_msq)

    def exact(t, x):
        return np.exp((r + tau**2) * (T - t)) * _squared_radius(x) / dim

    return ProblemSpec(
        name="bsb_jumps",
        dim=dim,
        x0=x0,
        total_time=T,
        intensity=lam,
        mark_dim=dim,
        drift=lambda t, x: r * x,
        diffusion=lambda t, x: tau * x,
        jump_size=lambda t, x, e: e,
        sample_marks=_normal_mark_sampler(mark_mean, mark_std),
        compensator=lambda t, x: np.full((1, dim), lam * mark_mean),
        driver=driver,
        terminal=lambda x: _squared_radius(x) / dim,
        exact=exact,
        exact_grad=lambda t, x: (2.0 / dim) * np.exp((r + tau**2) * (T - t)) * x,
    )


_FACTORIES = {
    "pure_jump_1d": pure_jump_1d,
    "pide_1d": pide_1d,
    "highdim_pide": highdim_pide,
    "bsb_jumps": bsb_jumps,
}


def by_name(name: str, **kwargs) -> ProblemSpec:
    """Problem lookup used by the experiment configs."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; known: {sorted(_FACTORIES)}") from None
    return factory(**kwargs)
