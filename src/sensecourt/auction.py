"""Regulated reverse VCG auction for slots with private sensing costs.

Users bid their costs; the platform maximizes coverage value minus
regulated bids (bid minus regulation factor) and pays each winner its
pivot: the realized value, minus the other winners' regulated bids, minus
the best regulated welfare achievable without the winner, plus the
winner's regulation factor. Payments need exact leave-one-out optima. They
are read from the allocation's own subset table, as the tie-break maximum
over the subsets that leave the winner out, which equals an exact solve
without the winner bit for bit. Auction slots refuse to run when the
eligible set exceeds the exact solver limit rather than quietly breaking
truthfulness with approximate pivots.

Scaled by phi, the regulation factors follow exactly the virtual-queue
recursion of the drift-plus-penalty policy, so under truthful bidding the
auction reproduces that policy's allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import (
    DEFAULT_EXACT_LIMIT,
    RegulatedInstance,
    freeze_ineligible,
    slot_value_table,
    solve_exact,
    subset_linear_table,
    subset_value_table,
    tiebreak_argmax_without,
    tiebreak_order,
    TIE_TOL,
)
from .world import Allocation, SlotRealization, evaluate_allocation

__all__ = [
    "ExactPivotsRequiredError",
    "RegulationState",
    "BidVector",
    "AuctionOutcome",
    "TruthfulnessReport",
    "pivot_payment",
    "require_exact_pivots",
    "run_auction_slot",
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
        r = np.array(self.factors, dtype=float, copy=True)
        if np.any(r < 0):
            raise ValueError("regulation factors must be non-negative")
        if not self.phi > 0:
            raise ValueError("phi must be positive")
        r.flags.writeable = False
        object.__setattr__(self, "factors", r)

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's bid: its factor r_n."""
        return self.factors

    @classmethod
    def initial(cls, thresholds: np.ndarray, phi: float) -> "RegulationState":
        # one virtual arrival pre-loaded: phi * r0 = D, the backlog a zero
        # queue reaches after its first update
        d = np.asarray(thresholds, dtype=float)
        return cls(factors=d / phi, phi=phi)


@dataclass(frozen=True, eq=False)
class BidVector:
    """Reported per-user costs for one slot."""

    bids: np.ndarray

    def __post_init__(self):
        b = np.array(self.bids, dtype=float, copy=True)
        if b.ndim != 1:
            raise ValueError("bids must be one-dimensional")
        if not np.all(np.isfinite(b)):
            raise ValueError("bids must be finite")
        if np.any(b < 0):
            raise ValueError("bids must be non-negative")
        b.flags.writeable = False
        object.__setattr__(self, "bids", b)

    @property
    def n_users(self) -> int:
        return self.bids.size


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
    state: RegulationState,
    realization: SlotRealization,
    bids: BidVector,
    eligible: np.ndarray | None = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> AuctionOutcome:
    """Allocate on regulated bids and pay winners their pivots; regulation_update
    moves the factors."""
    n = realization.n_users
    if bids.n_users != n:
        raise ValueError("bid vector length must match user count")
    kappa = bids.bids - state.bonus
    inst = RegulatedInstance.of(realization, kappa, eligible)
    require_exact_pivots(int(inst.eligible.sum()), exact_limit)
    result = solve_exact(inst, exact_limit)

    winners = result.alloc.indices()
    value_term = evaluate_allocation(realization, result.alloc).value

    payments = np.zeros(n)
    if winners.size:
        # solve_exact left this table on the slot; costs are rebuilt the same way
        users = np.flatnonzero(inst.eligible)
        objective = slot_value_table(realization, users) - subset_linear_table(
            kappa[users]
        )
    for u in winners:
        u = int(u)
        others_cost = float(kappa[winners].sum() - kappa[u])
        j = int(np.searchsorted(users, u))
        welfare_without = float(objective[tiebreak_argmax_without(objective, users.size, j)])
        payments[u] = pivot_payment(
            value_term, others_cost, welfare_without, float(state.factors[u])
        )

    return AuctionOutcome(alloc=result.alloc, payments=payments)


def regulation_update(
    state: RegulationState,
    alloc: Allocation,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> RegulationState:
    """r <- ([phi r - x]^+ + D) / phi, the virtual-queue recursion over phi;
    ineligible users' factors stay unchanged."""
    x = alloc.selected.astype(float)
    d = np.asarray(thresholds, dtype=float)
    r = (np.maximum(state.phi * state.factors - x, 0.0) + d) / state.phi
    r = freeze_ineligible(r, state.factors, eligible)
    return RegulationState(factors=r, phi=state.phi)


def _sorted_group(
    base: np.ndarray, masks: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A group's scores in ascending order and the least rank of each suffix.

    Both get a sentinel at the end: score inf and rank 2^m, more than any
    mask's rank, so an empty suffix never wins the pick.
    """
    order = masks[np.argsort(base[masks])]
    vals = np.append(base[order], np.inf)
    least = np.minimum.accumulate(rank[order][::-1])[::-1]
    return vals, np.append(least, rank.size)


def truthfulness_sweep(
    realization: SlotRealization,
    state: RegulationState,
    true_costs: np.ndarray,
    user: int,
    bid_grid: np.ndarray,
    eligible: np.ndarray | None = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> TruthfulnessReport:
    """Utility of every bid in the grid, all other bids held at true costs.

    The sweep is its own oracle: truthfulness means no grid point beats the
    truthful bid's utility by more than the tie tolerance. The leave-one-out
    welfare does not depend on the swept bid; it is read once from the
    sweep's table.

    A bid b enters only through d = b - r_n: a subset without the swept
    user scores base[s], one with the user scores fl(base[s] - d). Rounding
    keeps order, so fl(x - d) never falls as x grows. Each group is
    therefore sorted by base once, its best score sits last, and the row
    maximum is exactly max(A, fl(B - d)) for the two groups' maxima A and B.
    The tie set {score >= fl(best - TIE_TOL)} is a suffix of each sorted
    group, so the pick is the smaller of the two groups' suffix-minimum
    tie-break ranks at their cutoffs. The cutoff without the user is a
    searchsorted for the threshold. The cutoff with the user is a bisection
    on the exact predicate fl(base[s] - d) >= threshold: searching base for
    fl(threshold + d) rounds differently and can move a subset across the
    tie boundary. Each bid costs O(m) instead of a pass over all 2^m
    subsets.
    """
    n = realization.n_users
    true_costs = np.asarray(true_costs, dtype=float)
    if true_costs.shape != (n,):
        raise ValueError("true_costs length must match user count")
    if not 0 <= user < n:
        raise IndexError(f"user {user} out of range")
    if eligible is None:
        eligible = np.ones(n, dtype=bool)
    if not eligible[user]:
        raise ValueError("swept user must be eligible")
    bid_grid = np.asarray(bid_grid, dtype=float)
    if not np.all(np.isfinite(bid_grid)):
        raise ValueError("bid grid must be finite")

    users = np.flatnonzero(eligible)
    m = users.size
    require_exact_pivots(m, exact_limit)
    pos = int(np.flatnonzero(users == user)[0])

    kappa = true_costs - state.factors
    values = subset_value_table(realization, users)
    per_user = kappa[users].copy()
    per_user[pos] = 0.0  # swept user's charge handled per bid
    others_cost = subset_linear_table(per_user)
    base = values - others_cost
    member = ((np.arange(1 << m) >> pos) & 1).astype(bool)
    r_n = float(state.factors[user])
    c_n = float(true_costs[user])
    welfare_without = float(base[tiebreak_argmax_without(base, m, pos)])

    by_rank, rank = tiebreak_order(m)
    vals_out, ranks_out = _sorted_group(base, np.flatnonzero(~member), rank)
    vals_in, ranks_in = _sorted_group(base, np.flatnonzero(member), rank)
    n_in = vals_in.size - 1

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
    picks = by_rank[np.minimum(ranks_out[cut_out], ranks_in[hi])]
    sel = member[picks]
    pay = np.where(
        sel,
        pivot_payment(values[picks], others_cost[picks], welfare_without, r_n),
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
