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
from .world import Allocation, frozen_array

__all__ = ["StepSchedule", "DualState", "dual_allocate", "dual_step", "dual_update"]


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


@dataclass(frozen=True, eq=False)
class DualState:
    """Multipliers plus the selection history that feeds their updates."""

    multipliers: np.ndarray
    cumulative_selected: np.ndarray
    slot_index: int
    schedule: StepSchedule

    def __post_init__(self):
        lam = frozen_array(self.multipliers, "multipliers", nonneg=True)
        cum = frozen_array(self.cumulative_selected, "cumulative_selected", np.int64, nonneg=True)
        if lam.shape != cum.shape:
            raise ValueError("multipliers and counters must have equal length")
        if self.slot_index < 1:
            raise ValueError("slot_index starts at 1")
        if np.any(cum > self.slot_index - 1):
            raise ValueError("cumulative selections cannot exceed elapsed slots")
        object.__setattr__(self, "multipliers", lam)
        object.__setattr__(self, "cumulative_selected", cum)

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's cost: its multiplier."""
        return self.multipliers

    @classmethod
    def initial(cls, n_users: int, schedule: StepSchedule | None = None) -> "DualState":
        if schedule is None:
            schedule = StepSchedule()
        return cls(
            multipliers=np.zeros(n_users),
            cumulative_selected=np.zeros(n_users, dtype=np.int64),
            slot_index=1,
            schedule=schedule,
        )


# maximize value - cost + sum(multiplier * x) over eligible users
dual_allocate = regulated_allocate


def dual_step(lam: np.ndarray, xbar: np.ndarray, d: np.ndarray, eps) -> np.ndarray:
    """lambda <- [lambda - eps (xbar - D)]^+ elementwise: the projected subgradient step."""
    return np.maximum(lam - eps * (xbar - d), 0.0)


def dual_update(
    state: DualState,
    alloc: Allocation,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> DualState:
    """Projected subgradient step against the running allocation frequency.

    The frequency includes the slot just allocated, so at slot t the noisy
    subgradient is (1/t) * selections(1..t) - threshold. Ineligible users'
    multipliers stay unchanged.
    """
    t = state.slot_index
    cum = state.cumulative_selected + alloc.selected
    lam = dual_step(state.multipliers, cum / t, thresholds, state.schedule.step(t))
    lam = freeze_ineligible(lam, state.multipliers, eligible)
    return DualState(lam, cum, t + 1, state.schedule)
