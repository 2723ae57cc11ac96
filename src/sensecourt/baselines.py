"""Literature baselines: RADP-VPC virtual credits, greedy, random order."""

from __future__ import annotations

import numpy as np

from .solver import SolveOptions, freeze_ineligible, regulated_allocate
from .solver import solve, solve_greedy  # noqa: F401  (instrumented by perfbench/tracer.py)
from .streams import Stream
from .world import SlotRealization, eligible_mask, frozen_array

__all__ = [
    "check_alpha",
    "vpc_step",
    "vpc_update",
    "radp_vpc_step",
    "greedy_baseline_step",
    "random_baseline_step",
]


def check_alpha(alpha) -> float:
    """alpha, the credit a loser gains per slot, as a float: a finite number >= 0."""
    if not 0 <= alpha < np.inf:  # NaN fails both
        raise ValueError("alpha must be a finite number >= 0")
    return float(alpha)


def vpc_step(credits: np.ndarray, x: np.ndarray, alpha) -> np.ndarray:
    """Winners' credits reset to 0 and the others' grow by alpha, elementwise."""
    return np.where(x, 0.0, credits + alpha)


def vpc_update(
    credits: np.ndarray,
    selected: np.ndarray,
    alpha: float,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """vpc_step on one credit row; ineligible users keep their credits."""
    c = frozen_array(credits, "credits", nonneg=True)
    selected = frozen_array(selected, "selected", bool, size=c.size)
    return freeze_ineligible(vpc_step(c, selected, check_alpha(alpha)), c, eligible)


def radp_vpc_step(
    credits: np.ndarray,
    alpha: float,
    realization: SlotRealization,
    eligible: np.ndarray | None = None,
    options: SolveOptions = SolveOptions(),
) -> tuple[np.ndarray, np.ndarray]:
    """Select with credit-discounted costs, then update the credits: the
    selection and the new credits."""
    credits = frozen_array(credits, "credits", nonneg=True, size=realization.n_users)
    selected = regulated_allocate(credits, realization, eligible, options)
    return selected, vpc_update(credits, selected, alpha, eligible)


def greedy_baseline_step(
    realization: SlotRealization, eligible: np.ndarray | None = None
) -> np.ndarray:
    """Admit users in descending marginal-welfare order while the gain is positive."""
    return regulated_allocate(0.0, realization, eligible, SolveOptions(mode="greedy"))


def random_baseline_step(
    realization: SlotRealization,
    eligible: np.ndarray | None,
    rng: Stream,
) -> np.ndarray:
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
    selected.flags.writeable = False
    return selected
