"""Adam parameter updates and the learning-rate schedules used by the experiments.

Adam runs at the settings of Kingma & Ba, the module constants ``BETA1``,
``BETA2`` and ``EPS``; its state is the two moment vectors and the step.

A schedule is one of two frozen records, ``Piecewise`` (piecewise-constant
milestones; a constant rate is one milestone) or ``Cosine`` (cosine
annealing); each checks its own fields and gives the rate of a step
through ``rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Adam's moment decay rates and the denominator's floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(FloatingPointError):
    """Raised when an update would consume NaN or Inf gradients."""


@dataclass
class AdamState:
    """First/second moment vectors of the parameter vector's shape, and the steps taken."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update; returns a new parameter vector, mutates the state."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if theta.ndim != 1 or grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ValueError(f"shape mismatch in adam_step: parameters {theta.shape}, "
                         f"gradient {grad.shape}, moments {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError("non-finite gradient passed to adam_step")

    state.step += 1
    bias1 = 1.0 - BETA1 ** state.step
    bias2 = 1.0 - BETA2 ** state.step
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * (grad * grad)
    m_hat = state.m / bias1
    v_hat = state.v / bias2
    return theta - lr * m_hat / (np.sqrt(v_hat) + EPS)


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
