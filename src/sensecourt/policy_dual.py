"""Dual-decomposition online selection with subgradient multiplier updates.

Each user carries a non-negative multiplier that acts as a discount on its
cost; the per-slot allocation maximizes coverage value minus discounted
costs. After each slot the multiplier moves against the gap between the
user's running allocation frequency and its threshold, projected at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import freeze_ineligible, regulated_allocate
from .solver import solve  # noqa: F401  (instrumented by perfbench/tracer.py)
from .world import frozen_array

__all__ = [
    "StepSchedule",
    "dual_allocate",
    "dual_step",
    "dual_update",
    "largest_step_coeff",
]


@dataclass(frozen=True)
class StepSchedule:
    """Subgradient step sizes: harmonic(c) gives c/t, constant(eps) gives eps.

    The harmonic schedule is diminishing and non-summable, which is the
    condition under which the multipliers converge; a constant step keeps a
    persistent approximation error.
    """

    kind: str = "harmonic"
    coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("harmonic", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.coeff < math.inf:  # NaN fails both
            raise ValueError("step coefficient must be a finite number > 0")

    @classmethod
    def harmonic(cls, c: float = 1.0) -> "StepSchedule":
        return cls("harmonic", c)

    @classmethod
    def constant(cls, eps: float) -> "StepSchedule":
        return cls("constant", eps)

    def step(self, t: int) -> float:
        if t < 1:
            raise ValueError("step index starts at 1")
        if self.kind == "harmonic":
            return self.coeff / t
        return self.coeff


# maximize value - cost + sum(multiplier * x) over eligible users
dual_allocate = regulated_allocate


def largest_step_coeff(kind: str, d_max: float, steps: int, limit: float) -> float:
    """The largest coefficient of a `kind` step schedule that keeps every
    multiplier at most `limit` over `steps` dual steps from 0 against
    thresholds at most d_max (inf if d_max is 0).

    xbar >= 0, so a step adds at most eps_t d_max to a multiplier, and the
    steps sum to steps * eps for a constant step and to at most
    c (1 + ln steps) for a harmonic one.
    """
    growth = d_max * (steps if kind == "constant" else 1.0 + math.log(steps))
    return float(limit) / growth if growth else math.inf


def dual_step(lam: np.ndarray, xbar: np.ndarray, d: np.ndarray, eps) -> np.ndarray:
    """lambda <- [lambda - eps (xbar - D)]^+ elementwise: the projected subgradient step."""
    return np.maximum(lam - eps * (xbar - d), 0.0)


def dual_update(
    multipliers: np.ndarray,
    xbar: np.ndarray,
    thresholds: np.ndarray,
    eps: float,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """dual_step on one multiplier row at step size eps against the running
    allocation frequency xbar, which the caller keeps; ineligible users'
    multipliers stay unchanged."""
    lam = frozen_array(multipliers, "multipliers", nonneg=True)
    xbar = frozen_array(xbar, "xbar", nonneg=True, size=lam.size)
    if not 0 < eps < math.inf:  # NaN fails both
        raise ValueError("eps must be a finite number > 0")
    return freeze_ineligible(dual_step(lam, xbar, thresholds, eps), lam, eligible)
