"""Literature baselines: RADP-VPC virtual credits, greedy, random order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import SolveOptions, freeze_ineligible, regulated_allocate
from .solver import solve, solve_greedy  # noqa: F401  (instrumented by perfbench/tracer.py)
from .streams import Stream
from .world import Allocation, SlotRealization, eligible_mask, frozen_array

__all__ = [
    "VpcState",
    "vpc_step",
    "vpc_update",
    "radp_vpc_step",
    "greedy_baseline_step",
    "random_baseline_step",
]


@dataclass(frozen=True, eq=False)
class VpcState:
    """RADP-VPC virtual credits: losers gain alpha per slot, winners reset to 0."""

    credits: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:  # NaN fails both
            raise ValueError("alpha must be a finite number >= 0")
        object.__setattr__(self, "credits", frozen_array(self.credits, "credits", nonneg=True))

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's cost: its credit."""
        return self.credits

    @classmethod
    def initial(cls, n_users: int, alpha: float) -> "VpcState":
        return cls(credits=np.zeros(n_users), alpha=alpha)


def vpc_step(credits: np.ndarray, x: np.ndarray, alpha) -> np.ndarray:
    """Winners' credits reset to 0 and the others' grow by alpha, elementwise."""
    return np.where(x, 0.0, credits + alpha)


def vpc_update(
    state: VpcState,
    alloc: Allocation,
    thresholds: np.ndarray | None = None,
    eligible: np.ndarray | None = None,
) -> VpcState:
    """vpc_step on one state; ineligible users keep their credits. thresholds
    is unused; it keeps the common update signature."""
    credits = vpc_step(state.credits, alloc.selected, state.alpha)
    return VpcState(freeze_ineligible(credits, state.credits, eligible), state.alpha)


def radp_vpc_step(
    state: VpcState,
    realization: SlotRealization,
    eligible: np.ndarray | None = None,
    options: SolveOptions = SolveOptions(),
) -> tuple[Allocation, VpcState]:
    """Allocate with credit-discounted costs, then update the credits."""
    alloc = regulated_allocate(state, realization, eligible, options)
    return alloc, vpc_update(state, alloc, eligible=eligible)


def greedy_baseline_step(
    realization: SlotRealization, eligible: np.ndarray | None = None
) -> Allocation:
    """Admit users in descending marginal-welfare order while the gain is positive."""
    return regulated_allocate(None, realization, eligible, SolveOptions(mode="greedy"))


def random_baseline_step(
    realization: SlotRealization,
    eligible: np.ndarray | None,
    rng: Stream,
) -> Allocation:
    """Admit users in a random order, stopping at the first non-positive gain."""
    order = rng.permutation(np.flatnonzero(eligible_mask(eligible, realization.n_users)))
    w_rem = realization.weights.values.copy()
    regions = realization.regions
    costs = realization.true_costs.tolist()
    selected = np.zeros(realization.n_users, dtype=bool)
    for u in order.tolist():
        gain = float(np.add.reduce(w_rem[regions[u]])) - costs[u]
        if gain <= 0.0:
            break
        selected[u] = True
        w_rem[regions[u]] = 0.0
    return Allocation.built(selected)
