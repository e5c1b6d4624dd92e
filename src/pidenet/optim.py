"""Adam parameter updates and the learning-rate schedules used by the experiments.

A schedule is one of two frozen records, ``Piecewise`` (piecewise-constant
milestones; a constant rate is one milestone) or ``Cosine`` (cosine
annealing); each checks its own fields and gives the rate of a step
through ``rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteGradientError(FloatingPointError):
    """Raised when an update would consume NaN or Inf gradients."""


@dataclass
class AdamState:
    """First/second moment accumulators matching the parameter layout."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], beta1=0.9, beta2=0.999, eps=1e-8) -> "AdamState":
        beta1, beta2, eps = float(beta1), float(beta2), float(eps)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0 and eps > 0.0):
            raise ValueError("Adam needs 0 <= beta1, beta2 < 1 and eps > 0, "
                             f"got beta1={beta1}, beta2={beta2}, eps={eps}")
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> list[np.ndarray]:
    """One bias-corrected Adam update; returns new arrays, mutates the state."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient and state layouts differ")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch in adam_step: {p.shape} vs {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient passed to adam_step")

    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / bias1
        v_hat = state.v[i] / bias2
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


@dataclass(frozen=True)
class Piecewise:
    """Piecewise-constant rates: milestones [(start_step, rate), ...].

    The first milestone is at step 0; each rate applies until the next
    milestone.  A constant rate is one milestone.  Steps are ints and
    rates ints or floats, never bools (``type`` is exact, unlike
    ``isinstance``).
    """

    milestones: tuple[tuple[int, float], ...]

    def __post_init__(self):
        ms = tuple((s, r) for s, r in self.milestones)
        if not all(type(s) is int and type(r) in (int, float) and r > 0 for s, r in ms):
            raise ValueError(f"piecewise milestones must be [integer step, positive rate], got {ms}")
        if not ms or ms[0][0] != 0:
            raise ValueError("piecewise schedule must start with a milestone at step 0")
        steps = [s for s, _ in ms]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("piecewise milestones must be strictly increasing")
        object.__setattr__(self, "milestones", tuple((s, float(r)) for s, r in ms))

    def rate(self, step: int) -> float:
        return next(r for s, r in reversed(self.milestones) if step >= s)


@dataclass(frozen=True)
class Cosine:
    """Start rate at step 0 easing to the end rate at total_steps, the end rate after.

    Rates are ints or floats and total_steps an int, never bools.
    """

    start: float
    end: float
    total_steps: int

    def __post_init__(self):
        if not (type(self.start) in (int, float) and type(self.end) in (int, float)
                and type(self.total_steps) is int
                and self.start > 0 and self.end > 0 and self.total_steps >= 1):
            raise ValueError("cosine schedule needs positive rates and an integer total_steps "
                             f">= 1, got {self.start!r}, {self.end!r}, {self.total_steps!r}")

    def rate(self, step: int) -> float:
        frac = min(step, self.total_steps) / self.total_steps
        return self.end + (self.start - self.end) * 0.5 * (1.0 + math.cos(math.pi * frac))


def lr_at(schedule: Piecewise | Cosine, step: int) -> float:
    """Rate for a 0-based optimizer step."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return schedule.rate(step)


def schedule_from_dict(spec: dict) -> Piecewise | Cosine:
    """Build a schedule from the experiment config encoding; "constant" is one milestone.

    A key that the kind does not read is an error.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"lr_schedule must be an object, got {spec!r}")
    fields = dict(spec)
    kind = fields.pop("kind", None)
    if kind == "constant":
        return Piecewise(((0, fields.pop("rate")),), **fields)
    if kind == "piecewise":
        return Piecewise(**fields)
    if kind == "cosine":
        return Cosine(**fields)
    raise ValueError(f"unknown schedule kind {kind!r}")
