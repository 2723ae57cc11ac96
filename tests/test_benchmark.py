import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensecourt.benchmark as benchmark_mod
import sensecourt.solver as solver_mod
from sensecourt.benchmark import (
    BenchmarkCapacityError,
    BenchmarkResult,
    Trace,
    check_bruteforce_capacity,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
)
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import (
    RegulatedInstance,
    solve_exact,
    subset_linear_table,
    subset_value_table,
)
from sensecourt.world import GridMap, SlotRealization, evaluate_allocation

from oracle_engine import tiebreak_pick
from oracle_subset import subset_value_table_loop
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
    """The slots drawn and the trace built from them."""
    slots = tuple(random_slot(rng, n_users, n_grids) for _ in range(t_slots))
    if thresholds is None:
        thresholds = rng.uniform(0.0, 0.8, size=n_users)
    return slots, Trace(slots, np.asarray(thresholds, dtype=float))


def oracle_joint_enumerate(slots, trace):
    """Second independent brute force: product of per-slot subsets."""
    n, t = trace.n_users, trace.t_slots
    best = None
    for plan in itertools.product(range(1 << n), repeat=t):
        counts = np.zeros(n)
        welfare = 0.0
        for k, s in enumerate(plan):
            sel = np.array([(s >> u) & 1 for u in range(n)], dtype=bool)
            welfare += evaluate_allocation(slots[k], sel).welfare
            counts += sel
        if np.all(counts / t >= trace.thresholds - 1e-12):
            if best is None or welfare > best + 1e-15:
                best = welfare
    return None if best is None else best / t


class TestBruteforce:
    def test_vacuous_constraint_decouples(self):
        rng = np.random.default_rng(0)
        (slot,), trace = random_trace(rng, 3, 1, thresholds=[0.0, 0.0, 0.0])
        res = solve_complete_bruteforce(trace)
        per_slot = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
        assert res.avg_welfare == pytest.approx(per_slot.objective, abs=1e-9)

    def test_full_threshold_forces_everyone(self):
        rng = np.random.default_rng(1)
        slots, trace = random_trace(rng, 2, 2, thresholds=[1.0, 1.0])
        res = solve_complete_bruteforce(trace)
        assert np.allclose(res.per_user_alloc_prob, 1.0)
        expected = sum(
            evaluate_allocation(s, np.ones(2, dtype=bool)).welfare
            for s in slots
        ) / 2
        assert res.avg_welfare == pytest.approx(expected, abs=1e-9)

    def test_matches_independent_joint_enumerator(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            slots, trace = random_trace(rng, 3, 4)
            res = solve_complete_bruteforce(trace)
            oracle = oracle_joint_enumerate(slots, trace)
            assert oracle is not None
            assert res.avg_welfare == pytest.approx(oracle, abs=1e-9)
            assert np.all(res.per_user_alloc_prob >= trace.thresholds - 1e-12)

    def test_capacity_error(self):
        rng = np.random.default_rng(3)
        _, trace = random_trace(rng, 5, 5)
        with pytest.raises(BenchmarkCapacityError, match=r"N\*T = 25 exceeds 24"):
            solve_complete_bruteforce(trace)

    def test_capacity_rule_at_its_edge(self):
        check_bruteforce_capacity(4, 6)
        check_bruteforce_capacity(24, 1)
        with pytest.raises(BenchmarkCapacityError, match=r"N\*T = 25 exceeds 24.*shrink"):
            check_bruteforce_capacity(1, 25)


class TestTrace:
    @pytest.mark.parametrize("bad", [np.nan, -0.2, 1.5])
    def test_out_of_range_threshold_refused(self, bad):
        slots, _ = random_trace(np.random.default_rng(8), 3, 2)
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            Trace(slots, np.array([bad, 0.5, 0.5]))

    def test_thresholds_at_the_bounds_accepted(self):
        slots, _ = random_trace(np.random.default_rng(8), 3, 2)
        assert Trace(slots, np.array([0.0, 1.0, 0.5])).thresholds.tolist() == [0.0, 1.0, 0.5]


def costly_slots(rng, n_users, t_slots, n_grids=8):
    """Random slots whose costs span nine decades, so a sum of them in
    another order would round differently."""
    slots = []
    for _ in range(t_slots):
        slot = random_slot(rng, n_users, n_grids)
        scale = 10.0 ** rng.integers(-3, 7, n_users)
        slots.append(SlotRealization(slot.weights, slot.regions, slot.true_costs * scale))
    return tuple(slots)


def untouchable():
    """A slot stream that fails if a slot is drawn."""
    raise AssertionError("a slot was drawn")
    yield


class TestStreamedTrace:
    # _ROW_CELLS = 400: 2^5 + 8 = 40 cells a random slot, blocks of 10, so 31
    # slots end in a block of 1; 2^6 + 100 = 164 cells a stream slot, blocks
    # of 2, so 151 slots end in a block of 1
    @pytest.mark.parametrize("row_cells", [None, 400])
    def test_generator_build_equals_tuple_build(self, monkeypatch, row_cells):
        if row_cells is not None:
            monkeypatch.setattr(benchmark_mod, "_ROW_CELLS", row_cells)
        slots = costly_slots(np.random.default_rng(16), 5, 31)
        d = np.full(5, 0.5)
        want = Trace(slots, d)
        got = Trace((slot for slot in slots), d, 31)
        assert got.tables.tobytes() == want.tables.tobytes()
        assert got.mean_cost.hex() == want.mean_cost.hex()
        costs = np.array([slot.true_costs for slot in slots])
        assert want.mean_cost.hex() == float(costs.mean(axis=1).mean()).hex()

        scenario = ScenarioConfig(map=GridMap(10, 10, 200.0), n_users=6, seed=5)
        want = Trace(tuple(realization_stream(scenario, 151)), np.zeros(6))
        got = Trace(realization_stream(scenario, 151), np.zeros(6), 151)
        assert got.tables.tobytes() == want.tables.tobytes()
        assert got.mean_cost.hex() == want.mean_cost.hex()

    def test_holds_one_block_of_slots_at_most(self, monkeypatch):
        monkeypatch.setattr(benchmark_mod, "_ROW_CELLS", 400)  # blocks of 10 slots
        rng = np.random.default_rng(17)
        refs, alive = [], []

        def stream():
            for _ in range(35):
                slot = random_slot(rng, 5, 8)
                refs.append(weakref.ref(slot))
                alive.append(sum(ref() is not None for ref in refs))
                yield slot

        trace = Trace(stream(), np.zeros(5), 35)
        gc.collect()
        assert max(alive) == 10 and len(alive) == 35
        assert [ref() for ref in refs] == [None] * 35
        assert trace.t_slots == 35 and trace.n_users == 5

    @pytest.mark.parametrize(
        "thresholds, t_slots, error, match",
        [
            (np.array([0.5, 2.0]), 3, ValueError, r"thresholds must lie in \[0, 1\]"),
            (np.zeros(20), 17, BenchmarkCapacityError, "welfare table cap"),
            (np.zeros(3), None, ValueError, "Trace needs t_slots for slots without a len"),
            (np.zeros(3), 0, ValueError, "at least one slot"),
        ],
        ids=["thresholds", "capacity", "unsized", "empty"],
    )
    def test_refused_before_a_slot_is_drawn(self, thresholds, t_slots, error, match):
        with pytest.raises(error, match=match):
            Trace(untouchable(), thresholds, t_slots)

    @pytest.mark.parametrize(
        "drawn, t_slots, match",
        [
            (9, 10, "slots ended after 9 of t_slots=10 slots"),  # inside the first block
            (10, 11, "slots ended after 10 of t_slots=11 slots"),  # at a block's edge
            (0, 3, "slots ended after 0 of t_slots=3 slots"),
            (12, 11, "slots yielded at least 12 slots, more than t_slots=11"),
        ],
    )
    def test_stream_of_another_length_refused(self, monkeypatch, drawn, t_slots, match):
        monkeypatch.setattr(benchmark_mod, "_ROW_CELLS", 400)  # blocks of 10 slots
        slots = costly_slots(np.random.default_rng(18), 5, drawn)
        with pytest.raises(ValueError, match=match):
            Trace(iter(slots), np.zeros(5), t_slots)
        with pytest.raises(ValueError, match=match):
            Trace(slots, np.zeros(5), t_slots)

    @pytest.mark.parametrize("odd", ["users", "grids"])
    def test_slot_of_other_users_or_grids_refused(self, odd):
        rng = np.random.default_rng(19)
        slots = list(costly_slots(rng, 3, 5))
        slots[3] = random_slot(rng, 4, 8) if odd == "users" else random_slot(rng, 3, 9)
        with pytest.raises(ValueError, match="every slot must have 3 users, one per threshold, "
                                             "and the first slot's 8 grids"):
            Trace(slots, np.zeros(3))
        with pytest.raises(ValueError, match="every slot must have 2 users"):
            Trace(slots[:3], np.zeros(2))


def overflowing_slot(weights, costs):
    """Two users on two grids: user 0 covers both, user 1 only grid 0."""
    return make_realization(2, [{0, 1}, {0}], weights, costs)


class TestTraceTable:
    # user 0's value sums both weights and the pair's cost sums both costs,
    # so each passes the largest float, and the pair holds both
    @pytest.mark.parametrize(
        "weights, costs",
        [
            ([1e308, 1e308], [0.5, 0.5]),  # value inf
            ([1.0, 1.0], [1e308, 1e308]),  # cost sum inf, welfare -inf
            ([1e308, 1e308], [1e308, 1e308]),  # inf - inf is NaN
        ],
        ids=["inf", "-inf", "nan"],
    )
    def test_overflowing_table_refused(self, weights, costs):
        slot = overflowing_slot(weights, costs)
        with np.errstate(all="raise"):  # no overflow warning reaches the caller
            with pytest.raises(ValueError, match="tables must hold no NaN or infinite"):
                Trace((slot, slot), np.array([0.5, 0.5]))

    def test_thresholds_checked_before_the_table(self):
        slot = overflowing_slot([1e308, 1e308], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            Trace((slot,), np.array([0.5, 2.0]))

    @pytest.mark.parametrize(
        "reference",
        [unconstrained_trace_welfare, lambda trace: dual_upper_bound(trace, 3),
         solve_complete_bruteforce],
        ids=["unconstrained", "dual", "bruteforce"],
    )
    def test_references_build_no_rows(self, monkeypatch, reference):
        # 3 users, 5 slots: each slot's rows are built once, by the Trace
        built = []
        rows = benchmark_mod.subset_value_rows
        monkeypatch.setattr(
            benchmark_mod, "subset_value_rows", lambda b: built.extend(map(id, b)) or rows(b)
        )
        slots, trace = random_trace(np.random.default_rng(15), 3, 5)
        assert built == [id(slot) for slot in slots]

        def refused(*args):
            raise AssertionError("a reference built welfare rows")

        monkeypatch.setattr(benchmark_mod, "subset_value_rows", refused)
        monkeypatch.setattr(benchmark_mod, "subset_value_table", refused)
        reference(trace)


class TestDualUpperBound:
    def test_zero_thresholds_equal_unconstrained(self):
        rng = np.random.default_rng(4)
        _, trace = random_trace(rng, 3, 6, thresholds=[0.0, 0.0, 0.0])
        bound = dual_upper_bound(trace, iterations=30)
        unconstrained = unconstrained_trace_welfare(trace)
        assert bound.avg_welfare == pytest.approx(unconstrained.avg_welfare, abs=1e-9)

    def test_weak_duality_on_tiny_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            _, trace = random_trace(rng, 3, 4)
            bound = dual_upper_bound(trace, iterations=40)
            exact = solve_complete_bruteforce(trace)
            assert bound.avg_welfare >= exact.avg_welfare - 1e-9

    def test_iterations_validated(self):
        rng = np.random.default_rng(6)
        _, trace = random_trace(rng, 2, 2)
        with pytest.raises(ValueError):
            dual_upper_bound(trace, iterations=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), t=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_default_step_scale_is_the_mean_of_slot_means(self, n, t, seed):
        # the scale sets every step, so its bits must stay those of the mean
        # of each slot's mean cost, whatever form computes it; costs span
        # nine decades, so a sum in another order would round differently
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 1.0, (t, n)) * 10.0 ** rng.integers(-3, 7, (t, n))
        slots = tuple(make_realization(1, [()] * n, [1.0], row) for row in costs)
        coeffs = []

        class Recording(StepSchedule):
            @classmethod
            def harmonic(cls, c=1.0):
                coeffs.append(c)
                return StepSchedule.harmonic(c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(benchmark_mod, "StepSchedule", Recording)
            dual_upper_bound(Trace(slots, np.zeros(n)), 1)
        scale = float(np.mean([s.true_costs.mean() for s in slots]))
        assert [c.hex() for c in coeffs] == [max(1.0, 2.0 * scale).hex()]

    def test_probs_in_unit_interval(self):
        rng = np.random.default_rng(7)
        _, trace = random_trace(rng, 3, 5)
        bound = dual_upper_bound(trace, iterations=25)
        assert np.all(bound.per_user_alloc_prob >= 0)
        assert np.all(bound.per_user_alloc_prob <= 1)


class TestUnconstrained:
    def test_single_slot_equals_exact(self):
        rng = np.random.default_rng(8)
        (slot,), trace = random_trace(rng, 4, 1)
        res = unconstrained_trace_welfare(trace)
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
                [set(r.tolist()) for r in slot.regions],
                slot.weights.values,
                np.zeros(3),
            ))
        trace = Trace(tuple(slots), np.zeros(3))
        res = unconstrained_trace_welfare(trace)
        expected = sum(
            evaluate_allocation(s, np.ones(3, dtype=bool)).value
            for s in slots
        ) / 3
        assert res.avg_welfare == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "module, constant, blocks",
        [
            (None, None, [30]),
            # row blocks of 2 slots: 2^5 + 8 grids = 40 cells each
            (benchmark_mod, "_ROW_CELLS", [2] * 15),
            # pick blocks of 3 rows of 2^5 cells
            (solver_mod, "_BLOCK_CELLS", [30]),
        ],
        ids=["None", "100", "pick-100"],
    )
    def test_table_rows_equal_per_slot_solves(self, monkeypatch, module, constant, blocks):
        if module is not None:
            monkeypatch.setattr(module, constant, 100)
        built = []
        rows = benchmark_mod.subset_value_rows
        monkeypatch.setattr(
            benchmark_mod, "subset_value_rows", lambda b: built.append(len(b)) or rows(b)
        )
        slots, trace = random_trace(np.random.default_rng(11), 5, 30)
        assert built == blocks
        for slot, row in zip(slots, trace.tables, strict=True):
            own = subset_value_table(slot, np.arange(5)) - subset_linear_table(slot.true_costs)
            assert row.tobytes() == own.tobytes()
        result = unconstrained_trace_welfare(trace)
        total = 0.0
        selections = np.zeros(5)
        for slot in slots:
            res = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
            total += res.objective
            selections += res.selected
        assert np.float64(result.avg_welfare).view(np.int64) == np.float64(
            total / 30
        ).view(np.int64)
        assert np.array_equal(result.per_user_alloc_prob, selections / 30)

    def test_rows_at_ten_users_in_blocks_that_do_not_divide_the_trace(self):
        # 2^10 + 8 cells a slot: 63 slots a block, so 100 slots end in a partial one
        slots, trace = random_trace(np.random.default_rng(14), 10, 100)
        for slot, row in zip(slots, trace.tables, strict=True):
            own = subset_value_table_loop(slot, np.arange(10)) - subset_linear_table(
                slot.true_costs
            )
            assert row.tobytes() == own.tobytes()

    def test_references_peak_within_a_tenth_over_the_table(self):
        # N = 16, T = 64: a 32 MB table, one slot per block of rows
        scenario = ScenarioConfig(map=GridMap(10, 10, 200.0), n_users=16, seed=3)
        slots = tuple(realization_stream(scenario, 64))
        tracemalloc.start()
        try:
            trace = Trace(slots, np.full(16, 0.5))
            unconstrained_trace_welfare(trace)
            dual_upper_bound(trace, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * trace.tables.nbytes

    def test_trace_above_the_table_cap_refused(self):
        # the trace builds the whole (T, 2^N) table, so 2^20 * 17 > 2^24 is refused
        with pytest.raises(BenchmarkCapacityError, match="welfare table cap"):
            random_trace(np.random.default_rng(13), 20, 17)

    def test_first_near_max_column_is_the_exact_solve(self):
        # tie-heavy slots too: equal welfare must resolve as solve_exact resolves it
        rng = np.random.default_rng(12)
        slots = list(random_trace(rng, 6, 20)[0])
        for _ in range(20):
            regions = [
                set(rng.choice(8, size=rng.integers(0, 4), replace=False).tolist())
                for _ in range(6)
            ]
            weights = rng.choice([0.0, 0.5, 1.0], 8)
            slots.append(make_realization(8, regions, weights, rng.choice([0.0, 0.5], 6)))
        tables = Trace(tuple(slots), np.zeros(6)).tables
        for slot, row in zip(slots, tables):
            s = tiebreak_pick(row)  # the first near-max column in tie-break order
            res = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
            assert s == int(res.selected @ (1 << np.arange(6)))
            assert np.float64(row[s]).view(np.int64) == np.float64(res.objective).view(np.int64)

    def test_dominates_constrained(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            _, trace = random_trace(rng, 3, 4)
            unc = unconstrained_trace_welfare(trace)
            con = solve_complete_bruteforce(trace)
            assert unc.avg_welfare >= con.avg_welfare - 1e-9


class TestIncentiveCost:
    def _result(self, value):
        return BenchmarkResult(value, np.zeros(1))

    def test_identical_inputs_zero(self):
        assert incentive_cost(self._result(2.0), self._result(2.0)) == 0.0

    def test_six_percent(self):
        assert incentive_cost(self._result(1.0), self._result(0.94)) == pytest.approx(0.06)

    def test_vacuous_constraint_zero(self):
        rng = np.random.default_rng(11)
        _, trace = random_trace(rng, 3, 4, thresholds=[0.0, 0.0, 0.0])
        unc = unconstrained_trace_welfare(trace)
        con = solve_complete_bruteforce(trace)
        assert incentive_cost(unc, con) == 0.0

    def test_nonpositive_unconstrained_rejected(self):
        with pytest.raises(ValueError):
            incentive_cost(self._result(0.0), self._result(0.0))

    def test_clamped_at_zero(self):
        assert incentive_cost(self._result(1.0), self._result(1.1)) == 0.0


def binding_trace(rng, n_users, t_slots, n_grids=8, threshold=0.6):
    """Slots and the trace built from them, whose participatory constraint
    genuinely binds (costly users)."""
    slots = []
    for _ in range(t_slots):
        regions = [
            set(rng.choice(n_grids, size=rng.integers(1, n_grids + 1), replace=False).tolist())
            for _ in range(n_users)
        ]
        weights = rng.random(n_grids) * 2
        costs = rng.uniform(0.3, 2.5, size=n_users)
        slots.append(make_realization(n_grids, regions, weights, costs))
    return slots, Trace(tuple(slots), np.full(n_users, threshold))


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
                slots, trace = binding_trace(gen, 3, t_slots)
                bound = dual_upper_bound(trace, iterations=150)
                opt = constrained_optimum_dp(slots, trace.thresholds)
                assert bound.avg_welfare >= opt - 1e-9
                gaps.append(bound.avg_welfare - opt)
            if gaps[1] <= gaps[0] + 1e-9:
                shrunk += 1
        assert shrunk >= 7

    def test_dp_oracle_agrees_with_joint_enumeration(self):
        from oracle_dp import constrained_optimum_dp

        rng = np.random.default_rng(13)
        for _ in range(6):
            slots, trace = random_trace(rng, 3, 4, thresholds=[0.5, 0.5, 0.5])
            bf = solve_complete_bruteforce(trace)
            assert constrained_optimum_dp(slots, trace.thresholds) == pytest.approx(
                bf.avg_welfare, abs=1e-9
            )
