"""The sorted-threshold truthfulness sweep against the dense oracle, bit for bit.

Grids include the bids where the swept user's best subset meets the best
subset without it (the switch bid r_n + B - A), their float neighbours and
points within TIE_TOL of them, and the bids where single subsets with the
user cross the tie threshold, so a cutoff that rounds differently from the
dense comparison, or a pick that ignores the tie-break rank, shows up.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.auction import truthfulness_sweep
from sensecourt.solver import (
    TIE_TOL,
    subset_linear_table,
    subset_value_table,
)

from oracle_subset import tiebreak_tables
from oracle_sweep import report_differences, truthfulness_sweep_dense
from test_subset_table import coverage_instances
from test_world import make_realization


def sweep_base(real, factors, costs, users, pos):
    """The sweep's per-subset score without the swept user's charge."""
    per_user = (costs - factors)[users]
    per_user[pos] = 0.0
    return subset_value_table(real, users) - subset_linear_table(per_user)


def records(base, masks, m, keep=6):
    """Masks that are the tie-break pick of their suffix in base order.

    Moving a group's tie cutoff across one of these changes the pick; the
    `keep` with the highest scores are returned.
    """
    order = masks[np.argsort(base[masks], kind="stable")]
    ranks = tiebreak_tables(m)[2][order]
    least = np.minimum.accumulate(ranks[::-1])[::-1]
    return order[ranks == least][-keep:]


def boundary_bids(base, pos, r_n):
    """Bids where the pick can change, with their float neighbours.

    The switch bid r_n + B - A, where the best subsets with and without the
    swept user tie; bids where a pick candidate with the user meets the
    threshold set by A; and bids where the threshold set by the best subset
    with the user meets a candidate without it.
    """
    m = base.size.bit_length() - 1
    member = ((np.arange(base.size) >> pos) & 1).astype(bool)
    ins, outs = np.flatnonzero(member), np.flatnonzero(~member)
    a, b = base[outs].max(), base[ins].max()
    centres = [r_n + b - a]
    centres += [r_n + base[k] - (a - TIE_TOL) for k in records(base, ins, m)]
    centres += [r_n + (b - TIE_TOL) - base[k] for k in records(base, outs, m)]
    bids = []
    for c in centres:
        for edge in (c, c - TIE_TOL, c + TIE_TOL):
            bids += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
            bids += [edge - 2 * np.spacing(edge), edge + 2 * np.spacing(edge)]
        bids += [c + f * TIE_TOL for f in (-2.0, -0.5, 0.5, 2.0)]
    return [b for b in bids if b >= 0.0]  # the sweep refuses negative bids, as the auction does


class TestSweepMatchesDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(coverage_instances(m_max=10), st.data())
    def test_bit_for_bit(self, real, data):
        n = real.n_users
        if n == 0:
            return
        factor_kind = data.draw(st.sampled_from(["integer", "float"]))
        if factor_kind == "integer":
            elems = st.integers(0, 6).map(float)  # often above the 0..4 costs
        else:
            elems = st.floats(0, 8, allow_nan=False, allow_infinity=False)
        factors = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)))
        eligible = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        eligible[data.draw(st.integers(0, n - 1))] = True
        users = np.flatnonzero(eligible)
        pos = data.draw(st.sampled_from([0, users.size // 2, users.size - 1]))
        user = int(users[pos])
        costs = real.true_costs

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = sweep_base(real, factors, costs, users, pos)
        span = data.draw(st.sampled_from([0.0, 1.0, 3.0])) * (float(costs[user]) + 1.0)
        grid = np.concatenate(
            [
                np.linspace(0.0, span, data.draw(st.integers(1, 25))),
                boundary_bids(base, pos, float(factors[user])),
            ]
        )
        if data.draw(st.booleans()):
            grid = rng.permutation(grid)

        got = truthfulness_sweep(real, factors, costs, user, grid, eligible)
        want = truthfulness_sweep_dense(real, factors, costs, user, grid, eligible)
        assert report_differences(got, want) == []

    def test_tie_prefers_fewer_users_over_lower_mask(self):
        # at bid 0 the swept user 1 ties with user 0 against user 2 alone;
        # {2} (mask 4) has fewer users than {0, 1} (mask 3) and wins
        real = make_realization(2, [{0}, {1}, {0, 1}], costs=[0.0, 0.0, 0.0])
        factors = np.zeros(3)
        grid = np.array([0.0, 0.5])
        got = truthfulness_sweep(real, factors, real.true_costs, 1, grid)
        assert got.selected.tolist() == [False, False]
        want = truthfulness_sweep_dense(real, factors, real.true_costs, 1, grid)
        assert report_differences(got, want) == []

    def test_pivot_takes_the_preferred_subset_within_tie_tol(self):
        # without user 2, {1} beats {0} by 5e-10 < TIE_TOL: the pivot is {0}
        real = make_realization(3, [{0}, {0, 1}, {2}], [1.0, 5e-10, 1.0], [0.25] * 3)
        factors = np.zeros(3)
        grid = np.linspace(0.0, 1.0, 11)
        got = truthfulness_sweep(real, factors, real.true_costs, 2, grid)
        assert got.selected.any()
        want = truthfulness_sweep_dense(real, factors, real.true_costs, 2, grid)
        assert report_differences(got, want) == []

    def test_every_user_of_a_wider_slot(self):
        rng = np.random.default_rng(4)
        n, n_grids = 12, 60
        regions = [set(rng.choice(n_grids, size=9, replace=False).tolist()) for _ in range(n)]
        real = make_realization(
            n_grids, regions, rng.integers(0, 3, n_grids), rng.integers(0, 3, n)
        )
        factors = rng.integers(0, 4, n).astype(float)
        users = np.arange(n)
        for user in range(n):
            base = sweep_base(real, factors, real.true_costs, users, user)
            grid = np.concatenate(
                [
                    np.linspace(0.0, 6.0, 201),
                    boundary_bids(base, user, float(factors[user])),
                ]
            )
            got = truthfulness_sweep(real, factors, real.true_costs, user, grid)
            want = truthfulness_sweep_dense(real, factors, real.true_costs, user, grid)
            assert report_differences(got, want) == []


def test_no_bids_by_subsets_temporary():
    # the dense matrix at m = 14 and 201 bids is 26 MB per temporary
    rng = np.random.default_rng(5)
    n, n_grids = 14, 80
    regions = [set(rng.choice(n_grids, size=10, replace=False).tolist()) for _ in range(n)]
    real = make_realization(n_grids, regions, rng.random(n_grids), rng.random(n))
    factors = rng.random(n)
    grid = np.linspace(0.0, 3.0, 201)
    truthfulness_sweep(real, factors, real.true_costs, 3, grid)  # warm caches
    tracemalloc.start()
    try:
        truthfulness_sweep(real, factors, real.true_costs, 3, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bids_rejected(bad):
    real = make_realization(2, [{0}, {1}], costs=[0.5, 0.5])
    factors = np.zeros(2)
    with pytest.raises(ValueError, match="finite"):
        truthfulness_sweep(real, factors, real.true_costs, 0, np.array([0.0, bad]))


@pytest.mark.parametrize(
    "grid, eligible, match",
    [
        (np.linspace(0.0, 1.0, 5), np.ones(3, dtype=bool), "eligible"),  # 6 users
        (np.array([]), None, "bid_grid"),
        (np.zeros((2, 3)), None, "bid_grid"),
    ],
    ids=["short-eligible", "empty-grid", "2d-grid"],
)
def test_bad_input_rejected(grid, eligible, match):
    real = make_realization(
        4, [{0}, {1}, {2}, {3}, {0, 1}, {2, 3}], costs=[0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
    )
    factors = np.zeros(6)
    with pytest.raises(ValueError, match=match):
        truthfulness_sweep(real, factors, real.true_costs, 0, grid, eligible)
