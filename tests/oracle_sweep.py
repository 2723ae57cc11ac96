"""Reference truthfulness sweep: the dense bids x 2^m objective matrix.

Every bid in the grid is scored against every subset of the eligible
users at once, and each row's pick is the smallest tie-break rank among
the subsets within TIE_TOL of the row maximum; the leave-one-out pick is
the same argmin over the subsets without the swept user. The sorted-threshold
`sensecourt.auction.truthfulness_sweep` must reproduce this report bit for
bit. Test and benchmark helper only: at m = 16 and 201 bids every
temporary is about 105 MB.
"""

import numpy as np

from sensecourt.auction import TruthfulnessReport, pivot_payment
from sensecourt.solver import TIE_TOL, subset_linear_table, subset_value_table

from oracle_subset import tiebreak_tables


def truthfulness_sweep_dense(
    realization, factors, true_costs, user, bid_grid, eligible=None
) -> TruthfulnessReport:
    """Utility of every bid in the grid, all other bids held at true costs,
    with the regulation factors r_n, one per user."""
    n = realization.n_users
    factors = np.asarray(factors, dtype=float)
    true_costs = np.asarray(true_costs, dtype=float)
    if eligible is None:
        eligible = np.ones(n, dtype=bool)
    bid_grid = np.asarray(bid_grid, dtype=float)

    users = np.flatnonzero(eligible)
    m = users.size
    pos = int(np.flatnonzero(users == user)[0])

    kappa = true_costs - factors
    values = subset_value_table(realization, users)
    per_user = kappa[users].copy()
    per_user[pos] = 0.0  # swept user's charge handled per bid
    others_cost = subset_linear_table(per_user)
    base = values - others_cost
    member = ((np.arange(1 << m) >> pos) & 1).astype(float)
    r_n = float(factors[user])
    c_n = float(true_costs[user])

    _, _, tb = tiebreak_tables(m)
    big = np.iinfo(np.int64).max
    out = member == 0.0
    near = out & (base >= base[out].max() - TIE_TOL)
    welfare_without = float(base[np.where(near, tb, big).argmin()])

    def evaluate(bid_values):
        obj = base[None, :] - np.outer(bid_values - r_n, member)
        row_best = obj.max(axis=1)
        picks = np.where(obj >= row_best[:, None] - TIE_TOL, tb[None, :], big).argmin(
            axis=1
        )
        sel = member[picks].astype(bool)
        pay = np.where(
            sel,
            pivot_payment(values[picks], others_cost[picks], welfare_without, r_n),
            0.0,
        )
        util = np.where(sel, pay - c_n, 0.0)
        return sel, pay, util

    selected, payments, utilities = evaluate(bid_grid)
    _, _, util_truth = evaluate(np.array([c_n]))
    truthful_utility = float(util_truth[0])

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


def report_differences(got, want) -> list[str]:
    """Names of the report fields that differ in any bit.

    Arrays compare by dtype and bytes, scalars by repr, so 0.0 and -0.0 or
    two floats one ulp apart count as different.
    """
    differ = []
    for name in ("utilities", "payments", "selected"):
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype or not np.array_equal(a.view(np.uint8), b.view(np.uint8)):
            differ.append(name)
    for name in ("user", "truthful_utility", "best_bid", "best_utility", "regret", "truthful"):
        if repr(getattr(got, name)) != repr(getattr(want, name)):
            differ.append(name)
    return differ
