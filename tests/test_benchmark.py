import itertools

import numpy as np
import pytest

from sensecourt.benchmark import (
    BenchmarkCapacityError,
    BenchmarkResult,
    Trace,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
    welfare_tables,
)
from sensecourt.solver import RegulatedInstance, solve_exact
from sensecourt.world import Allocation, evaluate_allocation

from test_world import make_realization


def random_slot(rng, n_users, n_grids):
    regions = [
        set(rng.choice(n_grids, size=rng.integers(0, n_grids + 1), replace=False).tolist())
        for _ in range(n_users)
    ]
    weights = rng.random(n_grids) * 2
    costs = rng.random(n_users)
    return make_realization(n_grids, regions, weights, costs)


def random_trace(rng, n_users, t_slots, n_grids=8, thresholds=None):
    slots = tuple(random_slot(rng, n_users, n_grids) for _ in range(t_slots))
    if thresholds is None:
        thresholds = rng.uniform(0.0, 0.8, size=n_users)
    return Trace(slots, np.asarray(thresholds, dtype=float))


def oracle_joint_enumerate(trace):
    """Second independent brute force: product of per-slot subsets."""
    n, t = trace.n_users, trace.t_slots
    best = None
    for plan in itertools.product(range(1 << n), repeat=t):
        counts = np.zeros(n)
        welfare = 0.0
        for k, s in enumerate(plan):
            sel = np.array([(s >> u) & 1 for u in range(n)], dtype=bool)
            welfare += evaluate_allocation(trace.slots[k], Allocation(sel)).welfare
            counts += sel
        if np.all(counts / t >= trace.thresholds - 1e-12):
            if best is None or welfare > best + 1e-15:
                best = welfare
    return None if best is None else best / t


class TestBruteforce:
    def test_vacuous_constraint_decouples(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 3, 1, thresholds=[0.0, 0.0, 0.0])
        res = solve_complete_bruteforce(trace)
        slot = trace.slots[0]
        per_slot = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
        assert res.feasible
        assert res.avg_welfare == pytest.approx(per_slot.objective, abs=1e-9)

    def test_full_threshold_forces_everyone(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 2, 2, thresholds=[1.0, 1.0])
        res = solve_complete_bruteforce(trace)
        assert res.feasible
        assert np.allclose(res.per_user_alloc_prob, 1.0)
        expected = sum(
            evaluate_allocation(s, Allocation(np.ones(2, dtype=bool))).welfare
            for s in trace.slots
        ) / 2
        assert res.avg_welfare == pytest.approx(expected, abs=1e-9)

    def test_matches_independent_joint_enumerator(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            trace = random_trace(rng, 3, 4)
            res = solve_complete_bruteforce(trace)
            oracle = oracle_joint_enumerate(trace)
            assert res.feasible and oracle is not None
            assert res.avg_welfare == pytest.approx(oracle, abs=1e-9)
            assert np.all(res.per_user_alloc_prob >= trace.thresholds - 1e-12)

    def test_capacity_error(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 5, 5)
        with pytest.raises(BenchmarkCapacityError):
            solve_complete_bruteforce(trace)


class TestDualUpperBound:
    def test_zero_thresholds_equal_unconstrained(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 3, 6, thresholds=[0.0, 0.0, 0.0])
        bound = dual_upper_bound(trace, iterations=30)
        unconstrained = unconstrained_trace_welfare(trace)
        assert bound.avg_welfare == pytest.approx(unconstrained.avg_welfare, abs=1e-9)

    def test_weak_duality_on_tiny_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            trace = random_trace(rng, 3, 4)
            bound = dual_upper_bound(trace, iterations=40)
            exact = solve_complete_bruteforce(trace)
            assert bound.avg_welfare >= exact.avg_welfare - 1e-9

    def test_iterations_validated(self):
        rng = np.random.default_rng(6)
        trace = random_trace(rng, 2, 2)
        with pytest.raises(ValueError):
            dual_upper_bound(trace, iterations=0)

    def test_probs_in_unit_interval(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 3, 5)
        bound = dual_upper_bound(trace, iterations=25)
        assert np.all(bound.per_user_alloc_prob >= 0)
        assert np.all(bound.per_user_alloc_prob <= 1)


class TestUnconstrained:
    def test_single_slot_equals_exact(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 4, 1)
        res = unconstrained_trace_welfare(trace)
        slot = trace.slots[0]
        assert res.avg_welfare == pytest.approx(
            solve_exact(RegulatedInstance.of(slot, slot.true_costs)).objective, abs=1e-9
        )

    def test_zero_costs_selects_everyone_worth(self):
        rng = np.random.default_rng(9)
        slots = []
        for _ in range(3):
            slot = random_slot(rng, 3, 6)
            slots.append(make_realization(
                6,
                [set(r.indices.tolist()) for r in slot.regions],
                slot.weights.values,
                np.zeros(3),
            ))
        trace = Trace(tuple(slots), np.zeros(3))
        res = unconstrained_trace_welfare(trace)
        expected = sum(
            evaluate_allocation(s, Allocation(np.ones(3, dtype=bool))).value
            for s in slots
        ) / 3
        assert res.avg_welfare == pytest.approx(expected, abs=1e-9)

    def test_table_rows_equal_per_slot_solves(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, 5, 30)
        read = unconstrained_trace_welfare(trace, welfare_tables(trace))
        solved = unconstrained_trace_welfare(trace)
        total = 0.0
        selections = np.zeros(5)
        for slot in trace.slots:
            res = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
            total += res.objective
            selections += res.alloc.selected
        for result in (read, solved):
            assert np.float64(result.avg_welfare).view(np.int64) == np.float64(
                total / 30
            ).view(np.int64)
            assert np.array_equal(result.per_user_alloc_prob, selections / 30)

    def test_dominates_constrained(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            trace = random_trace(rng, 3, 4)
            unc = unconstrained_trace_welfare(trace)
            con = solve_complete_bruteforce(trace)
            assert unc.avg_welfare >= con.avg_welfare - 1e-9


class TestIncentiveCost:
    def _result(self, value):
        return BenchmarkResult(value, np.zeros(1), True, "unconstrained")

    def test_identical_inputs_zero(self):
        assert incentive_cost(self._result(2.0), self._result(2.0)) == 0.0

    def test_six_percent(self):
        assert incentive_cost(self._result(1.0), self._result(0.94)) == pytest.approx(0.06)

    def test_vacuous_constraint_zero(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, 3, 4, thresholds=[0.0, 0.0, 0.0])
        unc = unconstrained_trace_welfare(trace)
        con = solve_complete_bruteforce(trace)
        assert incentive_cost(unc, con) == 0.0

    def test_nonpositive_unconstrained_rejected(self):
        with pytest.raises(ValueError):
            incentive_cost(self._result(0.0), self._result(0.0))

    def test_clamped_at_zero(self):
        assert incentive_cost(self._result(1.0), self._result(1.1)) == 0.0


def binding_trace(rng, n_users, t_slots, n_grids=8, threshold=0.6):
    """Trace whose participatory constraint genuinely binds (costly users)."""
    slots = []
    for _ in range(t_slots):
        regions = [
            set(rng.choice(n_grids, size=rng.integers(1, n_grids + 1), replace=False).tolist())
            for _ in range(n_users)
        ]
        weights = rng.random(n_grids) * 2
        costs = rng.uniform(0.3, 2.5, size=n_users)
        slots.append(make_realization(n_grids, regions, weights, costs))
    return Trace(tuple(slots), np.full(n_users, threshold))


class TestLemmaOneTrend:
    def test_gap_shrinks_with_longer_traces(self):
        # same stationary generator at two horizons; the duality gap should
        # shrink for most paired draws as the horizon grows
        from oracle_dp import constrained_optimum_dp

        shrunk = 0
        pairs = 10
        for p in range(pairs):
            gaps = []
            for t_slots in (4, 32):
                gen = np.random.default_rng(3000 + p)
                trace = binding_trace(gen, 3, t_slots)
                bound = dual_upper_bound(trace, iterations=150)
                opt = constrained_optimum_dp(trace)
                assert bound.avg_welfare >= opt - 1e-9
                gaps.append(bound.avg_welfare - opt)
            if gaps[1] <= gaps[0] + 1e-9:
                shrunk += 1
        assert shrunk >= 7

    def test_dp_oracle_agrees_with_joint_enumeration(self):
        from oracle_dp import constrained_optimum_dp

        rng = np.random.default_rng(13)
        for _ in range(6):
            trace = random_trace(rng, 3, 4, thresholds=[0.5, 0.5, 0.5])
            bf = solve_complete_bruteforce(trace)
            assert constrained_optimum_dp(trace) == pytest.approx(
                bf.avg_welfare, abs=1e-9
            )
