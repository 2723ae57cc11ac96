"""Regulated reverse VCG auction for slots with private sensing costs.

Users bid their costs, one entry per user in a plain array, and each user's
regulation factor r_n comes in an array of the same length; both are
checked where they are read. The platform maximizes coverage value minus
regulated bids (bid minus regulation factor) and pays each winner its
pivot: the realized value, minus the other winners' regulated bids, minus
the best regulated welfare achievable without the winner, plus the
winner's regulation factor. Payments need exact leave-one-out optima: the
allocation's own subset table in tie-break order, with the subsets holding
the winner at -inf, has the pick of an exact solve without the winner, bit
for bit. Auction slots refuse to run when the eligible set exceeds the
exact solver limit rather than quietly breaking truthfulness with
approximate pivots.

Scaled by phi, the regulation factors follow exactly the virtual-queue
recursion of the drift-plus-penalty policy, so under truthful bidding the
auction reproduces that policy's allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import (
    DEFAULT_EXACT_LIMIT,
    SolveOptions,
    allocate_many,
    freeze_ineligible,
    subset_linear_table,
    subset_value_table,
    tiebreak_order,
    tiebreak_picks,
    TIE_TOL,
)
from .solver import solve_exact  # noqa: F401  (instrumented by perfbench/tracer.py)
from .world import Allocation, SlotRealization, eligible_mask, evaluate_allocation, frozen_array

__all__ = [
    "ExactPivotsRequiredError",
    "RegulationState",
    "AuctionOutcome",
    "TruthfulnessReport",
    "pivot_payment",
    "require_exact_pivots",
    "run_auction_slot",
    "regulation_step",
    "regulation_update",
    "truthfulness_sweep",
]


class ExactPivotsRequiredError(RuntimeError):
    """Auction refused: payments require exact leave-one-out solves."""


def require_exact_pivots(m: int, exact_limit: int) -> None:
    """Refuse an auction over more than exact_limit eligible users."""
    if m > exact_limit:
        raise ExactPivotsRequiredError(
            f"auction requires exact pivots: {m} eligible users exceed {exact_limit}"
        )


@dataclass(frozen=True, eq=False)
class RegulationState:
    """Per-user regulation factors r_n; phi * r_n evolves like a virtual queue."""

    factors: np.ndarray
    phi: float

    def __post_init__(self):
        if not (0 < self.phi < np.inf and 1 / float(self.phi) < np.inf):  # NaN fails
            raise ValueError("phi must be a finite number > 0 whose inverse is finite")
        object.__setattr__(self, "factors", frozen_array(self.factors, "factors", nonneg=True))

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's bid: its factor r_n."""
        return self.factors

    @classmethod
    def initial(cls, thresholds: np.ndarray, phi: float) -> "RegulationState":
        # one virtual arrival pre-loaded: phi * r0 = D, the backlog a zero
        # queue reaches after its first update
        return cls(factors=np.divide(thresholds, phi), phi=phi)


@dataclass(frozen=True, eq=False)
class AuctionOutcome:
    alloc: Allocation
    payments: np.ndarray


@dataclass(frozen=True, eq=False)
class TruthfulnessReport:
    """One user's utility sweep over a bid grid, other bids held truthful."""

    user: int
    bid_grid: np.ndarray
    utilities: np.ndarray
    payments: np.ndarray
    selected: np.ndarray
    truthful_utility: float
    best_bid: float
    best_utility: float
    regret: float
    truthful: bool


def pivot_payment(value_term, others_cost, welfare_without, regulation):
    """Pivot payment: realized value minus others' regulated cost minus the
    best welfare without the winner, plus the winner's regulation factor."""
    return value_term - others_cost - welfare_without + regulation


def run_auction_slot(
    factors: np.ndarray,
    realization: SlotRealization,
    bids: np.ndarray,
    eligible: np.ndarray | None = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    solved: tuple[Allocation, np.ndarray, float] | None = None,
) -> AuctionOutcome:
    """Allocate on the bids regulated by the factors r_n (a RegulationState's
    `factors`) and pay winners their pivots; regulation_step moves the
    factors. Bids and factors are finite, non-negative, one per user. The
    allocation and every pivot come from one exact objective row of
    allocate_many; a caller that has solved the slot on these regulated
    bids passes `solved`: the allocation, that row and its value."""
    n = realization.n_users
    factors = frozen_array(factors, "factors", nonneg=True, size=n)
    kappa = frozen_array(bids, "bids", nonneg=True, size=n) - factors
    eligible = eligible_mask(eligible, n)
    users = np.flatnonzero(eligible)
    require_exact_pivots(users.size, exact_limit)
    if solved is None:
        options = SolveOptions("exact", exact_limit)
        (result,), objective = allocate_many(realization, kappa[None], eligible, options)
        solved = result.alloc, objective[0], evaluate_allocation(realization, result.alloc).value
    alloc, objective, value_term = solved

    # row i: the objective with the subsets holding winner i at -inf
    winners = alloc.indices()
    bits = np.left_shift(1, np.searchsorted(users, winners))
    has = np.bitwise_and.outer(bits, tiebreak_order(users.size)) != 0
    _, picks, _ = tiebreak_picks(np.where(has, -np.inf, objective), 0.0)
    payments = np.zeros(n)
    payments[winners] = pivot_payment(
        value_term, kappa[winners].sum() - kappa[winners], objective[picks], factors[winners]
    )
    return AuctionOutcome(alloc=alloc, payments=payments)


def regulation_step(r: np.ndarray, x: np.ndarray, d: np.ndarray, phi) -> np.ndarray:
    """r <- ([phi r - x]^+ + D) / phi elementwise, the virtual-queue recursion over phi."""
    return (np.maximum(phi * r - x, 0.0) + d) / phi


def regulation_update(
    state: RegulationState,
    alloc: Allocation,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> RegulationState:
    """regulation_step on one state; ineligible users' factors stay unchanged."""
    r = regulation_step(state.factors, alloc.selected, thresholds, state.phi)
    return RegulationState(factors=freeze_ineligible(r, state.factors, eligible), phi=state.phi)


def _sorted_group(base: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A group's scores in ascending order and the least column of each suffix.

    base is in tie-break order, so a column is its subset's rank. Both get a
    sentinel at the end: score inf and column 2^m, past every column, so an
    empty suffix never wins the pick.
    """
    order = cols[np.argsort(base[cols])]
    vals = np.append(base[order], np.inf)
    least = np.minimum.accumulate(order[::-1])[::-1]
    return vals, np.append(least, base.size)


def truthfulness_sweep(
    realization: SlotRealization,
    factors: np.ndarray,
    true_costs: np.ndarray,
    user: int,
    bid_grid: np.ndarray,
    eligible: np.ndarray | None = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> TruthfulnessReport:
    """Utility of every bid in the grid, all other bids held at true costs,
    with the regulation factors r_n: finite, non-negative, one per user.

    The sweep is its own oracle: truthfulness means no grid point beats the
    truthful bid's utility by more than the tie tolerance. The sweep's table
    is taken in tie-break order, so a column is its subset's rank. The
    leave-one-out welfare does not depend on the swept bid; it is read once,
    as the pick of the group without the user at its own maximum.

    A bid b enters only through d = b - r_n: a subset without the swept
    user scores base[s], one with the user scores fl(base[s] - d). Rounding
    keeps order, so fl(x - d) never falls as x grows. Each group is
    therefore sorted by base once, its best score sits last, and the row
    maximum is exactly max(A, fl(B - d)) for the two groups' maxima A and B.
    The tie set {score >= fl(best - TIE_TOL)} is a suffix of each sorted
    group, so the pick is the smaller of the two groups' suffix-minimum
    columns at their cutoffs. The cutoff without the user is a
    searchsorted for the threshold. The cutoff with the user is a bisection
    on the exact predicate fl(base[s] - d) >= threshold: searching base for
    fl(threshold + d) rounds differently and can move a subset across the
    tie boundary. Each bid costs O(m) instead of a pass over all 2^m
    subsets.
    """
    n = realization.n_users
    factors = frozen_array(factors, "factors", nonneg=True, size=n)
    true_costs = frozen_array(true_costs, "true_costs", nonneg=True, size=n)
    if not 0 <= user < n:
        raise IndexError(f"user {user} out of range")
    eligible = eligible_mask(eligible, n)
    if not eligible[user]:
        raise ValueError("swept user must be eligible")
    bid_grid = frozen_array(bid_grid, "bid_grid", nonneg=True)
    if bid_grid.size == 0:
        raise ValueError("bid_grid must not be empty")

    users = np.flatnonzero(eligible)
    m = users.size
    require_exact_pivots(m, exact_limit)
    pos = int(np.flatnonzero(users == user)[0])

    kappa = true_costs - factors
    values = subset_value_table(realization, users)
    per_user = kappa[users].copy()
    per_user[pos] = 0.0  # swept user's charge handled per bid
    others_cost = subset_linear_table(per_user)
    by_rank = tiebreak_order(m)
    base = (values - others_cost)[by_rank]
    member = ((by_rank >> pos) & 1).astype(bool)
    r_n = float(factors[user])
    c_n = float(true_costs[user])

    vals_out, ranks_out = _sorted_group(base, np.flatnonzero(~member))
    vals_in, ranks_in = _sorted_group(base, np.flatnonzero(member))
    n_in = vals_in.size - 1
    # the pick without the user, which no bid moves
    without = ranks_out[np.searchsorted(vals_out, vals_out[-2] - TIE_TOL)]
    welfare_without = float(base[without])

    d = np.append(bid_grid, c_n) - r_n  # the truthful bid rides along last
    threshold = np.maximum(vals_out[-2], vals_in[-2] - d) - TIE_TOL
    cut_out = np.searchsorted(vals_out, threshold)
    # first k with vals_in[k] - d >= threshold; the inf sentinel always passes
    lo = np.zeros(d.shape, dtype=np.intp)
    hi = np.full(d.shape, n_in, dtype=np.intp)
    for _ in range(n_in.bit_length()):
        mid = (lo + hi) >> 1
        ok = vals_in[mid] - d >= threshold
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    picks = np.minimum(ranks_out[cut_out], ranks_in[hi])
    sel = member[picks]
    masks = by_rank[picks]
    pay = np.where(
        sel,
        pivot_payment(values[masks], others_cost[masks], welfare_without, r_n),
        0.0,
    )
    util = np.where(sel, pay - c_n, 0.0)
    selected, payments, utilities = sel[:-1], pay[:-1], util[:-1]
    truthful_utility = float(util[-1])

    best_idx = int(utilities.argmax())
    best_utility = float(utilities[best_idx])
    regret = max(best_utility - truthful_utility, 0.0)
    return TruthfulnessReport(
        user=user,
        bid_grid=bid_grid,
        utilities=utilities,
        payments=payments,
        selected=selected,
        truthful_utility=truthful_utility,
        best_bid=float(bid_grid[best_idx]),
        best_utility=best_utility,
        regret=float(regret),
        truthful=bool(regret <= TIE_TOL),
    )
