"""The vectorized subset table and everything read from it, bit for bit.

The scalar loop in oracle_subset is the reference for the table. Every
leave-one-out welfare read from a table (auction pivots, truthfulness
sweeps) is checked against solve_exact on the reduced eligible set: same
float bits, same tie-break allocation.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensecourt.auction as auction_mod
import sensecourt.solver as solver_mod
from sensecourt.auction import BidVector, RegulationState, run_auction_slot, truthfulness_sweep
from sensecourt.solver import (
    RegulatedInstance,
    slot_value_table,
    solve_exact,
    subset_linear_table,
    subset_value_table,
    tiebreak_argmax_without,
)
from sensecourt.world import evaluate_allocation

from oracle_subset import subset_value_table_loop
from test_world import make_realization


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@st.composite
def coverage_instances(draw, m_max=10):
    """Regions drawn to collide: empty, identical, nested and disjoint."""
    n_grids = draw(st.integers(1, 24))
    n_users = draw(st.integers(0, m_max))
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


def user_sets(real):
    everyone = np.arange(real.n_users)
    return [everyone, everyone[::2], everyone[1::2]]


class TestTableMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(coverage_instances())
    def test_bit_for_bit(self, real):
        for users in user_sets(real):
            got = subset_value_table(real, users)
            want = subset_value_table_loop(real, users)
            assert got.shape == want.shape == (1 << users.size,)
            assert np.array_equal(bits(got), bits(want))

    def test_blocks_split_the_parent_rows(self, monkeypatch):
        # blocks of a few rows still reproduce the loop
        rng = np.random.default_rng(0)
        regions = [set(rng.choice(40, size=12, replace=False).tolist()) for _ in range(9)]
        real = make_realization(40, regions, rng.random(40), np.zeros(9))
        users = np.arange(9)
        monkeypatch.setattr(solver_mod, "_BLOCK_CELLS", 40)
        got = subset_value_table(real, users)
        assert np.array_equal(bits(got), bits(subset_value_table_loop(real, users)))

    def test_empty_user_set(self):
        real = make_realization(3, [{0}], costs=[1.0])
        table = subset_value_table(real, np.arange(0))
        assert bits(table).tolist() == bits([0.0]).tolist()


def reduced_solve(real, kappa, eligible, user):
    without = eligible.copy()
    without[user] = False
    return solve_exact(RegulatedInstance(real, kappa, without))


def assert_same_solve(mask, users, objective, reduced, n_users):
    sel = np.zeros(n_users, dtype=bool)
    sel[users[[j for j in range(users.size) if (mask >> j) & 1]]] = True
    assert np.array_equal(sel, reduced.alloc.selected)
    assert bits(objective[mask]) == bits(reduced.objective)


@contextlib.contextmanager
def recorded_pivots():
    """Record every welfare_without handed to the payment rule."""
    seen = []
    original = auction_mod.pivot_payment

    def recording(value_term, others_cost, welfare_without, regulation):
        seen.append(welfare_without)
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
                mask = tiebreak_argmax_without(objective, users.size, j)
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
        mask = tiebreak_argmax_without(objective, 4, 3)
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
        state = RegulationState(factors, phi=4.0)
        eligible = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        kappa = real.true_costs - factors

        with recorded_pivots() as seen:
            outcome = run_auction_slot(state, real, BidVector(real.true_costs), eligible)
        winners = outcome.alloc.indices()
        value = evaluate_allocation(real, outcome.alloc).value
        assert len(seen) == winners.size
        for u, without in zip(winners.tolist(), seen):
            reduced = reduced_solve(real, kappa, eligible, u)
            assert bits(without) == bits(reduced.objective)
            # the payment rule's arithmetic on the leave-one-out solve
            others_cost = float(kappa[winners].sum() - kappa[u])
            expected = value - others_cost - reduced.objective + float(factors[u])
            assert bits(outcome.payments[u]) == bits(expected)
        assert np.all(outcome.payments[~outcome.alloc.selected] == 0.0)

        for user in np.flatnonzero(eligible).tolist():
            with recorded_pivots() as seen:
                truthfulness_sweep(
                    real, state, real.true_costs, user, np.linspace(0.0, 5.0, 7), eligible
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

    def test_same_slot_and_eligible_set_share_one_table(self, monkeypatch):
        calls = self.counting_tables(monkeypatch)
        real = self.instance()
        kappa = real.true_costs - 0.7
        first = solve_exact(RegulatedInstance.of(real, kappa))
        solve_exact(RegulatedInstance.of(real, real.true_costs))  # another lane
        assert len(calls) == 1
        fewer = np.ones(6, dtype=bool)
        fewer[2] = False
        solve_exact(RegulatedInstance(real, kappa, fewer))
        assert len(calls) == 2
        # another slot object with the same data builds its own
        copy = make_realization(
            12, [set(r.indices.tolist()) for r in real.regions],
            real.weights.values, real.true_costs,
        )
        assert bits(solve_exact(RegulatedInstance.of(copy, kappa)).objective) == bits(
            first.objective
        )
        assert len(calls) == 3

    def test_auction_slot_builds_one_table(self, monkeypatch):
        calls = self.counting_tables(monkeypatch)
        real = self.instance()
        state = RegulationState(np.full(6, 0.4), phi=5.0)
        outcome = run_auction_slot(state, real, BidVector(real.true_costs))
        assert outcome.alloc.indices().size >= 2
        assert calls == [list(range(6))]

    def test_table_is_read_only_and_dropped_with_the_slot(self):
        real = self.instance()
        table = slot_value_table(real, np.arange(6))
        with pytest.raises(ValueError):
            table[0] = 1.0
        assert slot_value_table(real, np.arange(6)) is table
        ref = weakref.ref(table)
        del table, real
        gc.collect()
        assert ref() is None
