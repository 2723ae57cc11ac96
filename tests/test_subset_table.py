"""The vectorized subset table and everything read from it, bit for bit.

The scalar loop in oracle_subset is the reference for the table. Every
leave-one-out welfare read from a table (auction pivots, truthfulness
sweeps) is checked against solve_exact on the reduced eligible set: same
float bits, same tie-break allocation.
"""

import contextlib
import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensecourt.auction as auction_mod
import sensecourt.cli as cli_mod
import sensecourt.solver as solver_mod
from sensecourt.auction import run_auction_slot, truthfulness_sweep
from sensecourt.scenarios import realization_stream
from sensecourt.solver import (
    RegulatedInstance,
    solve_exact,
    subset_linear_table,
    subset_value_rows,
    subset_value_table,
)
from sensecourt.world import evaluate_allocation

from oracle_engine import tiebreak_pick
from oracle_subset import subset_linear_table_loop, subset_value_table_loop
from oracle_sweep import report_differences, truthfulness_sweep_dense
from test_world import make_realization

ROOT = Path(__file__).resolve().parent.parent
ALL_VIEWS, NO_VIEWS = 0, 13  # _VIEW_LEVEL_BITS sending every level, or none at m <= 12, to views


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def draw_slot(draw, n_grids, n_users):
    """Regions drawn to collide: empty, identical, nested and disjoint."""
    regions = []
    for _ in range(n_users):
        kind = draw(st.sampled_from(["random", "empty", "copy", "nested", "disjoint"]))
        grids = set(draw(st.sets(st.integers(0, n_grids - 1), max_size=n_grids)))
        if kind == "empty":
            grids = set()
        elif regions and kind == "copy":
            grids = set(draw(st.sampled_from(regions)))
        elif regions and kind == "nested":
            base = sorted(draw(st.sampled_from(regions)))
            grids = set(base[: draw(st.integers(0, len(base)))])
        elif kind == "disjoint":
            taken = set().union(*regions)
            grids = grids - taken
        regions.append(grids)
    weight_kind = draw(st.sampled_from(["float", "integer", "zero"]))
    if weight_kind == "float":
        elems = st.floats(0, 10, allow_nan=False, allow_infinity=False)
    elif weight_kind == "integer":
        elems = st.integers(0, 3).map(float)
    else:
        elems = st.just(0.0)
    weights = draw(st.lists(elems, min_size=n_grids, max_size=n_grids))
    costs = draw(
        st.lists(st.integers(0, 4).map(float), min_size=n_users, max_size=n_users)
    )
    return make_realization(n_grids, regions, weights, costs)


@st.composite
def coverage_instances(draw, m_max=10):
    return draw_slot(draw, draw(st.integers(1, 24)), draw(st.integers(0, m_max)))


@st.composite
def coverage_blocks(draw):
    """One to six slots of the same user and grid counts, so region lengths
    mix within the block."""
    n_grids, n_users = draw(st.integers(1, 24)), draw(st.integers(0, 10))
    return [draw_slot(draw, n_grids, n_users) for _ in range(draw(st.integers(1, 6)))]


def user_sets(real):
    everyone = np.arange(real.n_users)
    return [everyone, everyone[::2], everyone[1::2]]


class TestTableMatchesLoop:
    @pytest.mark.parametrize("view_bits", [ALL_VIEWS, NO_VIEWS])
    @settings(max_examples=300, deadline=None)
    @given(real=coverage_instances(m_max=12))
    def test_bit_for_bit(self, view_bits, real):
        with mock.patch.object(solver_mod, "_VIEW_LEVEL_BITS", view_bits):
            for users in user_sets(real):
                got = subset_value_table(real, users)
                want = subset_value_table_loop(real, users)
                assert got.shape == want.shape == (1 << users.size,)
                assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("view_bits", [ALL_VIEWS, NO_VIEWS])
    @pytest.mark.parametrize(
        "case", ["covers_all", "zero_weights", "owned_above", "identical", "nested"]
    )
    def test_region_shapes(self, monkeypatch, case, view_bits):
        rng = np.random.default_rng(11)
        n_grids, m = 30, 10
        regions = [set(rng.choice(n_grids, size=8, replace=False).tolist()) for _ in range(m)]
        weights = rng.random(n_grids)
        if case == "covers_all":  # a low, a middle and the highest user
            regions[0] = regions[4] = regions[m - 1] = set(range(n_grids))
        elif case == "zero_weights":
            weights = np.zeros(n_grids)
        elif case == "owned_above":  # every grid of users 0 and 3 has owners above them
            regions[0] = regions[5] | regions[8]
            regions[3] = set(sorted(regions[4])[:3]) | set(sorted(regions[9])[:3])
        elif case == "identical":
            regions = [regions[0]] * m
        else:
            base = sorted(range(n_grids), key=lambda g: rng.random())
            regions = [set(base[: 3 * (k + 1)]) for k in range(m)]
            regions[2::3] = [set(base[: 3 * (m - k)]) for k in range(2, m, 3)]
        real = make_realization(n_grids, regions, weights, np.zeros(m))
        monkeypatch.setattr(solver_mod, "_VIEW_LEVEL_BITS", view_bits)
        for users in user_sets(real) + [np.arange(m)[::-1]]:
            got = subset_value_table(real, users)
            assert np.array_equal(bits(got), bits(subset_value_table_loop(real, users)))

    @pytest.mark.parametrize("view_bits", [0, 3, 5, 6])
    def test_levels_split_at_the_view_threshold(self, monkeypatch, view_bits):
        # level j has 2^(m-1-j) parents; from 2^view_bits parents on it goes by views
        rng = np.random.default_rng(12)
        regions = [set(rng.choice(20, size=7, replace=False).tolist()) for _ in range(6)]
        real = make_realization(20, regions, rng.random(20), np.zeros(6))
        parents = []
        on_views = solver_mod._add_on_views

        def recording(rows, above, weights):
            parents.append(rows.shape[0])
            on_views(rows, above, weights)

        monkeypatch.setattr(solver_mod, "_VIEW_LEVEL_BITS", view_bits)
        monkeypatch.setattr(solver_mod, "_add_on_views", recording)
        got = subset_value_table(real, np.arange(6))
        assert parents == [1 << d for d in range(view_bits, 6)]
        assert np.array_equal(bits(got), bits(subset_value_table_loop(real, np.arange(6))))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e-9, 2.0**25, 1e300])
            | st.floats(-1e6, 1e6, allow_nan=False),
            max_size=9,
        )
    )
    def test_linear_table_bit_for_bit(self, per_user):
        got = subset_linear_table(np.array(per_user, dtype=float))
        assert np.array_equal(bits(got), bits(subset_linear_table_loop(per_user)))

    def test_blocks_split_the_parent_rows(self, monkeypatch):
        # blocks of a few rows still reproduce the loop
        rng = np.random.default_rng(0)
        regions = [set(rng.choice(40, size=12, replace=False).tolist()) for _ in range(9)]
        real = make_realization(40, regions, rng.random(40), np.zeros(9))
        users = np.arange(9)
        monkeypatch.setattr(solver_mod, "_BLOCK_CELLS", 40)
        monkeypatch.setattr(solver_mod, "_VIEW_LEVEL_BITS", NO_VIEWS)
        got = subset_value_table(real, users)
        assert np.array_equal(bits(got), bits(subset_value_table_loop(real, users)))

    def test_empty_user_set(self):
        real = make_realization(3, [{0}], costs=[1.0])
        table = subset_value_table(real, np.arange(0))
        assert bits(table).tolist() == bits([0.0]).tolist()


def test_truthcheck_slot_at_fourteen_users():
    """One slot of configs/truthcheck.json at 14 users, swept as `truthcheck`
    sweeps it: levels of both strategies at the default threshold."""
    cfg = cli_mod.load_config(str(ROOT / "configs" / "truthcheck.json"))
    scenario = dataclasses.replace(cfg.scenario, n_users=14)
    real = next(iter(realization_stream(scenario, 1)))
    users = np.arange(14)
    got = subset_value_table(real, users)
    assert np.array_equal(bits(got), bits(subset_value_table_loop(real, users)))

    rng = np.random.default_rng([scenario.seed, cli_mod._TRUTHCHECK_STREAM, 1])
    costs = real.true_costs
    candidates = np.flatnonzero(costs > 0)
    rng.choice(candidates)  # truthcheck's swept user; every candidate is swept here
    check = cfg.truthcheck
    factors = rng.uniform(0.0, 0.5 * float(costs.max()), 14)
    for user in candidates.tolist():
        grid = np.linspace(0.0, check.bid_span * float(costs[user]), check.bid_points)
        report = truthfulness_sweep(real, factors, costs, user, grid)
        want = truthfulness_sweep_dense(real, factors, costs, user, grid)
        assert report_differences(report, want) == []


class TestRowsMatchLoop:
    """subset_value_rows builds a block of slots at once; every row must be
    that slot's scalar-loop table, and subset_linear_table's rows likewise."""

    @settings(max_examples=150, deadline=None)
    @given(coverage_blocks())
    def test_every_row_bit_for_bit(self, slots):
        users = np.arange(slots[0].n_users)
        rows = subset_value_rows(slots)
        assert rows.shape == (len(slots), 1 << users.size)
        for slot, row in zip(slots, rows):
            assert np.array_equal(bits(row), bits(subset_value_table_loop(slot, users)))

    def test_mixed_lengths_nested_and_identical_regions(self):
        # user 1's region is longest in one slot and empty or shortest in the others
        slots = [
            make_realization(6, [{0, 1, 2}, set(range(6)), {2}], [1.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
            make_realization(6, [{5}, set(), {5}], [0.3] * 6),
            make_realization(6, [{1, 2, 3}, {2}, {1, 2, 3}], np.linspace(0.0, 1.0, 6)),
        ]
        for slot, row in zip(slots, subset_value_rows(slots)):
            assert np.array_equal(bits(row), bits(subset_value_table_loop(slot, np.arange(3))))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 9).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=m, max_size=m),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_linear_rows_bit_for_bit(self, per_slot):
        got = subset_linear_table(np.array(per_slot, dtype=float).reshape(len(per_slot), -1))
        for terms, row in zip(per_slot, got, strict=True):
            assert np.array_equal(bits(row), bits(subset_linear_table_loop(terms)))


def pick_without(objective, m, j):
    """The leave-one-out pick: the tiebreak_pick of the table with the
    subsets holding local user j at -inf."""
    return tiebreak_pick(np.where((np.arange(1 << m) >> j) & 1, -np.inf, objective))


def reduced_solve(real, kappa, eligible, user):
    without = eligible.copy()
    without[user] = False
    return solve_exact(RegulatedInstance(real, kappa, without))


def assert_same_solve(mask, users, objective, reduced, n_users):
    sel = np.zeros(n_users, dtype=bool)
    sel[users[[j for j in range(users.size) if (mask >> j) & 1]]] = True
    assert np.array_equal(sel, reduced.selected)
    assert bits(objective[mask]) == bits(reduced.objective)


@contextlib.contextmanager
def recorded_pivots():
    """Record every welfare_without handed to the payment rule, one per
    winner whether it comes alone or in an array of every winner's."""
    seen = []
    original = auction_mod.pivot_payment

    def recording(value_term, others_cost, welfare_without, regulation):
        seen.extend(np.atleast_1d(welfare_without).tolist())
        return original(value_term, others_cost, welfare_without, regulation)

    auction_mod.pivot_payment = recording
    try:
        yield seen
    finally:
        auction_mod.pivot_payment = original


class TestLeaveOneOutFromTable:
    @settings(max_examples=200, deadline=None)
    @given(coverage_instances(m_max=8), st.data())
    def test_every_user_matches_reduced_solve(self, real, data):
        n = real.n_users
        # zero charges make supersets tie with their subsets
        charges = st.sampled_from([0.0, 0.0, 0.0, -1.0, 1.0, 2.0])
        kappa = np.array(data.draw(st.lists(charges, min_size=n, max_size=n)))
        for users in user_sets(real):
            eligible = np.zeros(n, dtype=bool)
            eligible[users] = True
            objective = subset_value_table(real, users) - subset_linear_table(kappa[users])
            for j, u in enumerate(users.tolist()):
                mask = pick_without(objective, users.size, j)
                assert not (mask >> j) & 1
                reduced = reduced_solve(real, kappa, eligible, u)
                assert_same_solve(mask, users, objective, reduced, n)

    def test_tie_prefers_fewer_users_over_lower_mask(self):
        # without user 3, {2} ties {0, 1} and {0, 1, 2}; the tie-break takes
        # {2}, whose mask 0b100 is larger than 0b011
        real = make_realization(2, [{0}, {1}, {0, 1}, {0, 1}], costs=np.zeros(4))
        kappa = np.array([0.0, 0.0, 0.0, -1.0])
        users = np.arange(4)
        objective = subset_value_table(real, users) - subset_linear_table(kappa)
        mask = pick_without(objective, 4, 3)
        assert mask == 0b100
        reduced = reduced_solve(real, kappa, np.ones(4, dtype=bool), 3)
        assert_same_solve(mask, users, objective, reduced, 4)

    @settings(max_examples=100, deadline=None)
    @given(coverage_instances(m_max=8), st.data())
    def test_auction_and_sweep_pivots(self, real, data):
        n = real.n_users
        if n == 0:
            return
        factors = np.array(
            data.draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
        )
        eligible = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        kappa = real.true_costs - factors

        with recorded_pivots() as seen:
            outcome = run_auction_slot(factors, real, real.true_costs, eligible)
        winners = np.flatnonzero(outcome.selected)
        value = evaluate_allocation(real, outcome.selected).value
        assert len(seen) == winners.size
        for u, without in zip(winners.tolist(), seen):
            reduced = reduced_solve(real, kappa, eligible, u)
            assert bits(without) == bits(reduced.objective)
            # the payment rule's arithmetic on the leave-one-out solve
            others_cost = float(kappa[winners].sum() - kappa[u])
            expected = value - others_cost - reduced.objective + float(factors[u])
            assert bits(outcome.payments[u]) == bits(expected)
        assert np.all(outcome.payments[~outcome.selected] == 0.0)

        for user in np.flatnonzero(eligible).tolist():
            with recorded_pivots() as seen:
                truthfulness_sweep(
                    real, factors, real.true_costs, user, np.linspace(0.0, 5.0, 7), eligible
                )
            reduced = reduced_solve(real, kappa, eligible, user)
            assert seen and all(bits(w) == bits(reduced.objective) for w in seen)


class TestSlotMemo:
    def counting_tables(self, monkeypatch):
        calls = []
        original = solver_mod.subset_value_table

        def counting(realization, users):
            calls.append(users.tolist())
            return original(realization, users)

        monkeypatch.setattr(solver_mod, "subset_value_table", counting)
        return calls

    def instance(self):
        rng = np.random.default_rng(3)
        regions = [set(rng.choice(12, size=5, replace=False).tolist()) for _ in range(6)]
        return make_realization(12, regions, rng.random(12), rng.uniform(0.5, 2.0, 6))

    def test_auction_slot_builds_one_table(self, monkeypatch):
        calls = self.counting_tables(monkeypatch)
        real = self.instance()
        outcome = run_auction_slot(np.full(6, 0.4), real, real.true_costs)
        assert outcome.selected.sum() >= 2
        assert calls == [list(range(6))]
