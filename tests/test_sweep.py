"""The tie-band truthfulness sweep against the dense oracle, bit for bit, and
against the paper's critical point.

Grids include the bids where the swept user's best subset meets the best
subset without it (the critical bid r_n + B - A), their float neighbours and
points within TIE_TOL of them, and the bids where single subsets with the
user cross the tie threshold, so a cutoff that rounds differently from the
dense comparison, or a pick that ignores the tie-break rank, shows up.
Near ties are forced by a twin of one user whose cost is shifted by a gap
about TIE_TOL, so that subsets sit on the tie threshold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensecourt.auction as auction_mod
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



GAPS = (
    0.0, 0.5 * TIE_TOL, np.nextafter(TIE_TOL, 0.0), TIE_TOL, np.nextafter(TIE_TOL, 1.0),
    2 * TIE_TOL, 5e-9,
)


@st.composite
def near_tie_sweeps(draw):
    """A slot with a twin of one user, the factors and the swept user.

    The twin has its original's region and factor, and its cost shifted by
    a gap in GAPS either way, so that subsets holding one or the other sit
    on or near each other's tie threshold; it is inserted at a drawn index,
    before or after its original in the tie-break order. The swept user's
    factor is sometimes 1e8, where a float step is far above TIE_TOL.
    """
    real = draw(coverage_instances(m_max=7).filter(lambda r: r.n_users > 0))
    n = real.n_users
    factors = np.array(draw(st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n)))
    j, at = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
    gap = draw(st.sampled_from(GAPS)) * draw(st.sampled_from([1.0, -1.0]))
    regions = [r.tolist() for r in real.regions]
    regions.insert(at, regions[j])
    costs = np.insert(real.true_costs, at, max(float(real.true_costs[j]) + gap, 0.0))
    factors = np.insert(factors, at, factors[j])
    user = draw(st.integers(0, n))
    if draw(st.booleans()):
        factors[user] = 1e8
    return make_realization(real.n_grids, regions, real.weights.values, costs), factors, user


def group_bests(base, pos):
    """A and B: the best scores of the subsets without and with user pos."""
    member = ((np.arange(base.size) >> pos) & 1).astype(bool)
    return base[~member].max(), base[member].max()


def rounding_bound(base, pos, r_n, max_bid):
    """How far float rounding can move a payment or a verdict off the
    critical bid: 16 eps S, with S = |A| + |B| + r_n + max_bid + TIE_TOL.

    Between the scores and a payment or a verdict lie eight float
    operations: d = b - r_n, fl(B - d), the threshold's - TIE_TOL,
    fl(base[s] - d), the leave-one-out cut fl(A - TIE_TOL), the payment's
    two and the critical bid's two. No result exceeds 3 S in magnitude and
    each rounds by at most eps / 2 of it, so together they stay within
    8 * (eps / 2) * 3 S < 16 eps S.
    """
    a, b = group_bests(base, pos)
    scale = abs(a) + abs(b) + r_n + max_bid + TIE_TOL
    return 16 * np.finfo(float).eps * scale


def near_tie_sweep(real, factors, user, grid):
    """The sweep of a near-tie case, checked bit for bit against the oracle."""
    got = truthfulness_sweep(real, factors, real.true_costs, user, grid)
    want = truthfulness_sweep_dense(real, factors, real.true_costs, user, grid)
    assert report_differences(got, want) == []
    return got


class TestCriticalBid:
    """The paper's critical point (case c): the swept user wins below
    r_n + B - A and loses above it, and every win pays it, up to TIE_TOL
    and rounding_bound."""

    @settings(max_examples=200, deadline=None)
    @given(near_tie_sweeps(), st.integers(2, 25))
    @example(  # a twin of user 1 costs 4 - 0.999...e-9: {0, 3, 4} sits on the edge
        (
            make_realization(
                7,
                [[], [], [], [], range(6), []],
                [0.0, 0.0, 0.0, 1.0, 3.0, 3.0, 0.0],
                [0.0, 4.0 - np.nextafter(TIE_TOL, 0.0), 0.0, 0.0, 0.0, 4.0],
            ),
            np.array([5.0, 4.0, 0.0, 3.0, 6.0, 4.0]),
            0,
        ),
        2,
    )
    def test_selection_turns_back_on_only_on_the_tie_edge(self, case, points):
        # in exact arithmetic a win never comes back as the bid rises (case
        # b). In floats a subset with the user whose score sits within
        # rounding of B - TIE_TOL can leave the tie set at one bid and rejoin
        # it at a higher one, within TIE_TOL and rounding of the critical bid
        real, factors, user = case
        r_n = float(factors[user])
        base = sweep_base(real, factors, real.true_costs, np.arange(real.n_users), user)
        grid = np.sort(
            np.concatenate(
                [
                    np.linspace(0.0, 3.0 * (float(real.true_costs[user]) + 1.0), points),
                    boundary_bids(base, user, r_n),
                ]
            )
        )
        report = near_tie_sweep(real, factors, user, grid)
        turns = np.flatnonzero(report.selected[1:] & ~report.selected[:-1])
        if turns.size:
            rounding = rounding_bound(base, user, r_n, grid.max())
            ins = base[((np.arange(base.size) >> user) & 1).astype(bool)]
            edge = np.abs(ins - (group_bests(base, user)[1] - TIE_TOL)) <= rounding
            assert edge.any()
            near = np.abs(grid[np.append(turns, turns + 1)] - report.critical_bid)
            assert np.all(near <= TIE_TOL + rounding)

    @settings(max_examples=200, deadline=None)
    @given(near_tie_sweeps())
    def test_every_winning_payment_is_the_critical_bid(self, case):
        real, factors, user = case
        r_n = float(factors[user])
        base = sweep_base(real, factors, real.true_costs, np.arange(real.n_users), user)
        grid = np.array(boundary_bids(base, user, r_n) + [0.0])
        report = near_tie_sweep(real, factors, user, grid)
        # payment - critical bid = (base[pick] - B) - (base[pivot] - A), and
        # each term lies in [-TIE_TOL, 0], so TIE_TOL bounds it, not 2 TIE_TOL
        bound = TIE_TOL + rounding_bound(base, user, r_n, grid.max())
        gaps = np.abs(report.payments[report.selected] - report.critical_bid)
        assert np.all(gaps <= bound)

    @settings(max_examples=200, deadline=None)
    @given(near_tie_sweeps(), st.sampled_from([1.5, 4.0, 1e3]))
    def test_clear_bids_win_below_and_lose_above(self, case, k):
        real, factors, user = case
        r_n = float(factors[user])
        base = sweep_base(real, factors, real.true_costs, np.arange(real.n_users), user)
        critical = truthfulness_sweep(real, factors, real.true_costs, user, [0.0]).critical_bid
        # both bids lie within 1.0 of the critical bid
        step = k * (TIE_TOL + rounding_bound(base, user, r_n, abs(critical) + 1.0))
        below = [critical - step] if critical - step >= 0.0 else []
        above = [max(critical + step, 0.0)]
        report = near_tie_sweep(real, factors, user, np.array(below + above))
        assert report.selected.tolist() == [True] * len(below) + [False]


def test_band_widens_to_the_whole_group_when_rounding_reaches_the_threshold(monkeypatch):
    # with r_n = 1e8 a float step near -d is 1.5e-8, so {0, 2}, 5e-9 below
    # B = {0, 1}, rounds onto the threshold though it is outside B - TIE_TOL
    real = make_realization(2, [{0}, {1}, {1}], [1.0, 1.0], [0.5, 0.25, 0.25 + 5e-9])
    factors = np.array([1e8, 0.0, 0.0])
    sizes, tie_bands = [], auction_mod._tie_bands

    def recorded(base, pos, floors):
        _, vals_out, _, vals_in, _ = bands = tie_bands(base, pos, floors)
        sizes.append((vals_out.size - 1, vals_in.size - 1))  # inf sentinels are no subsets
        return bands

    monkeypatch.setattr(auction_mod, "_tie_bands", recorded)
    grid = np.linspace(0.0, 3.0, 31)
    got = truthfulness_sweep(real, factors, real.true_costs, 0, grid)
    assert sizes == [(1, 4)]  # without user 0 only {1} ties; with it, all 4 subsets
    want = truthfulness_sweep_dense(real, factors, real.true_costs, 0, grid)
    assert report_differences(got, want) == []


def test_sweep_peak_is_a_few_tables():
    # value, cost and score tables at m = 16 are 512 KiB each; the bands
    # and the per-bid arrays are small next to them
    rng = np.random.default_rng(7)
    n, n_grids = 16, 80
    regions = [set(rng.choice(n_grids, size=10, replace=False).tolist()) for _ in range(n)]
    real = make_realization(n_grids, regions, rng.random(n_grids), rng.random(n))
    factors = rng.random(n)
    grid = np.linspace(0.0, 3.0, 201)
    truthfulness_sweep(real, factors, real.true_costs, 9, grid)  # warm caches
    tracemalloc.start()
    try:
        truthfulness_sweep(real, factors, real.true_costs, 9, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 2**16  # four tables; 1.6 MiB measured

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
