"""Regulated reverse VCG auction for slots with private sensing costs.

Users bid their costs, one entry per user in a plain array, and each user's
regulation factor r_n comes in an array of the same length; both are
checked where they are read. The platform maximizes coverage value minus
regulated bids (bid minus regulation factor) and pays each winner its
pivot: the realized value, minus the other winners' regulated bids, minus
the best regulated welfare achievable without the winner, plus the
winner's regulation factor. Payments need exact leave-one-out optima. The
allocation's own objective is indexed by local bit mask. With the winner
at bit b, the objective's half at bit b = 0,
`objective.reshape(-1, 2, 1 << b)[:, 0]` read in C order, is the objective
of the users without the winner, indexed by their own local masks: the
masks with bit b dropped. Dropping a bit that no mask of the half holds
keeps each popcount, and it renumbers the members above b down by one,
which keeps the order of selected-index vectors; so tiebreak_key orders
the half as it orders the masks the half came from, and the half's pick
is that of an exact solve without the winner, bit for bit. Auction slots
refuse to run when the eligible set exceeds the exact solver limit rather
than quietly breaking truthfulness with approximate pivots.

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
    tiebreak_key,
    tiebreak_picks,
    TIE_TOL,
)
from .solver import solve_exact  # noqa: F401  (instrumented by perfbench/tracer.py)
from .world import SlotRealization, eligible_mask, evaluate_allocation, frozen_array

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
    selected: np.ndarray
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
    critical_bid: float  # r_n + B - A: wins below it, loses above it


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
    solved: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> AuctionOutcome:
    """Select on the bids regulated by the factors r_n (a RegulationState's
    `factors`) and pay winners their pivots; regulation_step moves the
    factors. Bids and factors are finite, non-negative, one per user. The
    selection, a read-only bool array of one flag per user, and every pivot
    come from one exact objective row of allocate_many; a caller that has
    solved the slot on these regulated bids passes `solved`: the selection,
    that row and the selection's value."""
    n = realization.n_users
    factors = frozen_array(factors, "factors", nonneg=True, size=n)
    kappa = frozen_array(bids, "bids", nonneg=True, size=n) - factors
    eligible = eligible_mask(eligible, n)
    users = np.flatnonzero(eligible)
    require_exact_pivots(users.size, exact_limit)
    if solved is None:
        options = SolveOptions("exact", exact_limit)
        (result,), objective = allocate_many(realization, kappa[None], eligible, options)
        value = evaluate_allocation(realization, result.selected).value
        solved = result.selected, objective[0], value
    selected, objective, value_term = solved
    selected = frozen_array(selected, "selected", bool, size=n)

    # winner i's pivot: the pick among the subsets without i, the half of the
    # objective at i's bit 0, copied out one winner at a time
    winners = np.flatnonzero(selected)
    welfare_without = np.empty(winners.size)
    for i, b in enumerate(np.searchsorted(users, winners).tolist()):
        half = objective.reshape(-1, 2, 1 << b)[:, 0].reshape(1, -1)
        welfare_without[i] = half[0, tiebreak_picks(half, 0.0)[1][0]]
    payments = np.zeros(n)
    payments[winners] = pivot_payment(
        value_term, kappa[winners].sum() - kappa[winners], welfare_without, factors[winners]
    )
    return AuctionOutcome(selected=selected, payments=payments)


def regulation_step(r: np.ndarray, x: np.ndarray, d: np.ndarray, phi) -> np.ndarray:
    """r <- ([phi r - x]^+ + D) / phi elementwise, the virtual-queue recursion over phi."""
    return (np.maximum(phi * r - x, 0.0) + d) / phi


def regulation_update(
    state: RegulationState,
    selected: np.ndarray,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> RegulationState:
    """regulation_step on one state; ineligible users' factors stay unchanged."""
    selected = frozen_array(selected, "selected", bool, size=state.factors.size)
    r = regulation_step(state.factors, selected, thresholds, state.phi)
    return RegulationState(factors=freeze_ineligible(r, state.factors, eligible), phi=state.phi)


def _tie_bands(base: np.ndarray, pos: int, floors: np.ndarray):
    """The subsets that can reach a tie set, and each group's order.

    base is in mask order. The band of the subsets without user pos holds
    those scoring at least floors[0], the band of those with it those
    scoring at least floors[1]. Returns the bands' local masks sorted by
    tiebreak_key, so an index into them is a subset's rank, and for each
    group, the one without the user first, its scores in ascending order and
    the least rank of each suffix. Both get a sentinel at the end: score inf
    and a rank past every rank, so an empty suffix never wins the pick.
    """
    band = np.flatnonzero(base.reshape(-1, 2, 1 << pos) >= floors[:, None])
    band = band[np.argsort(tiebreak_key(band, base.size.bit_length() - 1))]
    scores = base[band]
    member = (band >> pos & 1).astype(bool)
    groups = []
    for cols in np.flatnonzero(~member), np.flatnonzero(member):
        order = cols[np.argsort(scores[cols])]
        least = np.minimum.accumulate(order[::-1])[::-1]
        groups += [np.append(scores[order], np.inf), np.append(least, band.size)]
    return band, *groups


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
    truthful bid's utility by more than the tie tolerance. The report also
    carries the critical bid r_n + B - A, where B and A are the best scores
    of the subsets with and without the swept user: below it the user wins,
    above it the user loses, up to TIE_TOL and rounding.

    A bid b enters only through d = b - r_n: a subset without the swept
    user scores base[s], one with the user scores fl(base[s] - d). Rounding
    keeps order, so fl(x - d) never falls as x grows, and the row maximum is
    exactly max(A, fl(B - d)). A subset ties when its score is at least
    threshold(d) = fl(max(A, fl(B - d)) - TIE_TOL), so the tie set is a
    suffix of each group sorted by base, and the pick is the subset of least
    tiebreak_key over the two groups' suffixes at their cutoffs. A cutoff
    never splits equal scores, so their order does not matter.

    Only each group's tie band is sorted; the table is read in mask order
    and no tie-break order is built. Every threshold is at least
    fl(A - TIE_TOL), since rounding is monotone, so no subset without the
    user scoring below that ever ties: the band without the user, cut
    there, is exact, and its least rank is the leave-one-out pick, which no
    bid moves. The band with the user starts at fl(B - TIE_TOL). One check
    over the bids certifies it: the best score with the user below the
    band, x', must have fl(x' - d) < threshold(d) for every d, and then so
    does every lower score. Where rounding lets x' reach a threshold (|d|
    far above TIE_TOL / eps), the band is the whole group.

    The cutoff without the user is a searchsorted for the threshold. The
    cutoff with the user is a bisection on the exact predicate
    fl(base[s] - d) >= threshold: searching base for fl(threshold + d)
    rounds differently and can move a subset across the tie boundary. The
    sweep costs O(2^m) for the table passes, O(k log k) for bands of k
    subsets and O(log k) per bid.
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
    # one 2^m table: base[s] is the payment's first step, fl(value - others)
    base = np.subtract(values, subset_linear_table(per_user), out=values)
    outs, ins = base.reshape(-1, 2, 1 << pos).swapaxes(0, 1)  # without, with the user
    best_out, best_in = outs.max(), ins.max()
    r_n = float(factors[user])
    c_n = float(true_costs[user])

    d = np.append(bid_grid, c_n) - r_n  # the truthful bid rides along last
    threshold = np.maximum(best_out, best_in - d) - TIE_TOL
    # the band with the user holds if its best score below the band ties at no bid
    floors = np.array([best_out, best_in]) - TIE_TOL
    below = np.max(ins, where=ins < floors[1], initial=-np.inf)
    if np.any(below - d >= threshold):
        floors[1] = -np.inf
    band, vals_out, ranks_out, vals_in, ranks_in = _tie_bands(base, pos, floors)
    # the pick without the user, which no bid moves: its whole band ties
    welfare_without = float(base[band[ranks_out[0]]])

    cut_out = np.searchsorted(vals_out, threshold)
    # first k with vals_in[k] - d >= threshold; the inf sentinel always passes
    n_in = vals_in.size - 1
    lo = np.zeros(d.shape, dtype=np.intp)
    hi = np.full(d.shape, n_in, dtype=np.intp)
    for _ in range(n_in.bit_length()):
        mid = (lo + hi) >> 1
        ok = vals_in[mid] - d >= threshold
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    masks = band[np.minimum(ranks_out[cut_out], ranks_in[hi])]
    sel = (masks >> pos & 1).astype(bool)
    pay = np.where(
        sel,
        pivot_payment(base[masks], 0.0, welfare_without, r_n),
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
        critical_bid=r_n + float(best_in - best_out),
    )
