"""Adam parameter updates and the learning-rate schedules used by the experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class LrSchedule:
    """Piecewise-constant decay or cosine annealing.

    kind "piecewise": milestones [(start_step, rate), ...] with the first
        milestone at step 0; each rate applies until the next milestone.
        A constant rate is one milestone.
    kind "cosine": start rate at step 0 easing to end rate at total_steps,
        clamped to the end rate afterwards.
    """

    kind: str
    milestones: tuple[tuple[int, float], ...] = field(default=())
    start: float = 0.0
    end: float = 0.0
    total_steps: int = 0

    def __post_init__(self):
        if self.kind == "piecewise":
            ms = tuple((int(s), float(r)) for s, r in self.milestones)
            object.__setattr__(self, "milestones", ms)
            if not ms or ms[0][0] != 0:
                raise ValueError("piecewise schedule must start with a milestone at step 0")
            steps = [s for s, _ in ms]
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise ValueError("piecewise milestones must be strictly increasing")
            if any(r <= 0 for _, r in ms):
                raise ValueError("learning rates must be positive")
        elif self.kind == "cosine":
            if self.start <= 0 or self.end <= 0 or self.total_steps < 1:
                raise ValueError("cosine schedule needs positive rates and total_steps >= 1")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


def constant(rate: float) -> LrSchedule:
    return piecewise([(0, rate)])


def piecewise(milestones) -> LrSchedule:
    return LrSchedule(kind="piecewise", milestones=tuple(milestones))


def cosine(start: float, end: float, total_steps: int) -> LrSchedule:
    return LrSchedule(kind="cosine", start=float(start), end=float(end), total_steps=int(total_steps))


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Rate for a 0-based optimizer step."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if schedule.kind == "piecewise":
        rate = schedule.milestones[0][1]
        for start_step, r in schedule.milestones:
            if step >= start_step:
                rate = r
            else:
                break
        return rate
    frac = min(step, schedule.total_steps) / schedule.total_steps
    return schedule.end + (schedule.start - schedule.end) * 0.5 * (1.0 + math.cos(math.pi * frac))


def schedule_from_dict(spec: dict) -> LrSchedule:
    """Build a schedule from the experiment config encoding; "constant" is one milestone."""
    if not isinstance(spec, dict):
        raise TypeError(f"lr_schedule must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        return constant(spec["rate"])
    if kind == "piecewise":
        return piecewise([(int(s), float(r)) for s, r in spec["milestones"]])
    if kind == "cosine":
        return cosine(spec["start"], spec["end"], spec["total_steps"])
    raise ValueError(f"unknown schedule kind {kind!r}")
