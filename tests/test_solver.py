import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.solver import (
    TIE_TOL,
    RegulatedInstance,
    SolveOptions,
    SolverCapacityError,
    allocate_many,
    branch_and_bound,
    solve,
    solve_exact,
    solve_greedy,
    tiebreak_key,
)
from sensecourt.world import evaluate_allocation

from oracle_engine import objective_alone, solve_exact_alone
from oracle_subset import tiebreak_tables
from test_subset_table import bits, coverage_instances
from test_world import make_realization

TOL = 1e-9


def oracle_enumerate(inst):
    """Independent exhaustive enumerator with the documented tie-breaking.

    Scans every subset of eligible users with plain set arithmetic, finds
    the maximum objective, then picks the candidate within tolerance with
    the fewest users and the lexicographically smallest index vector.
    """
    real = inst.realization
    weights = real.weights.values
    eligible = [int(u) for u in np.flatnonzero(inst.eligible)]
    entries = []
    for size in range(len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            covered = set()
            for u in combo:
                covered |= set(real.regions[u].tolist())
            obj = sum(weights[g] for g in sorted(covered)) - sum(
                inst.effective_costs[u] for u in combo
            )
            entries.append((obj, size, combo))
    best = max(e[0] for e in entries)
    winner = min(
        (e for e in entries if e[0] >= best - TOL), key=lambda e: (e[1], e[2])
    )
    sel = np.zeros(real.n_users, dtype=bool)
    for u in winner[2]:
        sel[u] = True
    return sel, winner[0]


def random_instance(rng, n_max=6, grids_max=20, tie_prone=False):
    n_grids = int(rng.integers(3, grids_max + 1))
    n_users = int(rng.integers(1, n_max + 1))
    regions = []
    for _ in range(n_users):
        k = int(rng.integers(0, n_grids + 1))
        regions.append(set(rng.choice(n_grids, size=k, replace=False).tolist()))
    if tie_prone:
        weights = np.ones(n_grids)
        kappa = rng.choice([0.0, 0.5, 1.0, 2.0], size=n_users)
        if n_users >= 2 and rng.random() < 0.5:
            regions[1] = set(regions[0])  # duplicate user regions force ties
            kappa[1] = kappa[0]
    else:
        weights = rng.random(n_grids) * 4
        kappa = rng.random(n_users) * 5 - 1.0  # charges may be negative
    real = make_realization(n_grids, regions, weights, np.maximum(kappa, 0.0))
    eligible = rng.random(n_users) < 0.9
    return RegulatedInstance(real, kappa, eligible)


class TestSolveExact:
    def test_two_overlapping_users_tie(self):
        # A covers {0,1}, B covers {1,2}, both charge 1.5: pick exactly one
        real = make_realization(3, [{0, 1}, {1, 2}])
        inst = RegulatedInstance.of(real, np.array([1.5, 1.5]))
        res = solve_exact(inst)
        assert res.exact
        assert res.objective == pytest.approx(0.5, abs=TOL)
        assert np.flatnonzero(res.selected).tolist() == [0]  # lexicographic tie-break

    def test_negative_charge_forces_selection(self):
        real = make_realization(6, [set(range(5))])
        inst = RegulatedInstance.of(real, np.array([-1.0]))
        res = solve_exact(inst)
        assert res.selected[0]
        assert res.objective == pytest.approx(6.0, abs=TOL)

    def test_all_loss_making_disjoint_users(self):
        real = make_realization(6, [{0, 1}, {2, 3}], costs=[5.0, 5.0])
        inst = RegulatedInstance.of(real, real.true_costs)
        res = solve_exact(inst)
        assert not res.selected.any()
        assert res.objective == 0.0

    def test_capacity_error(self):
        regions = [{0} for _ in range(4)]
        real = make_realization(3, regions)
        inst = RegulatedInstance.of(real, np.zeros(4))
        with pytest.raises(SolverCapacityError):
            solve_exact(inst, exact_limit=3)

    def test_ineligible_never_selected(self):
        real = make_realization(4, [{0, 1}, {2, 3}])
        inst = RegulatedInstance(real, np.array([-1.0, -1.0]), np.array([False, True]))
        res = solve_exact(inst)
        assert res.selected.tolist() == [False, True]


class TestSolveGreedy:
    def test_hand_simulated_trace(self):
        # picks A (gain 10), then C (gain 1.9), skips B (gain -0.1)
        regions = [set(range(10)), set(range(6)), set(range(6, 12))]
        real = make_realization(12, regions)
        inst = RegulatedInstance.of(real, np.array([0.0, 0.1, 0.1]))
        res = solve_greedy(inst)
        assert np.flatnonzero(res.selected).tolist() == [0, 2]
        assert res.objective == pytest.approx(11.9, abs=TOL)
        assert not res.exact

    def test_empty_eligible_set(self):
        real = make_realization(3, [{0}])
        inst = RegulatedInstance(real, np.zeros(1), np.zeros(1, dtype=bool))
        res = solve_greedy(real and inst)
        assert not res.selected.any()
        assert res.objective == 0.0

    def test_never_beats_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = random_instance(rng)
            assert (
                solve_greedy(inst).objective
                <= solve_exact(inst).objective + TOL
            )

    def test_negative_charges_always_selected(self):
        real = make_realization(4, [set(), {0}], costs=[0.0, 0.0])
        inst = RegulatedInstance.of(real, np.array([-0.2, 3.0]))
        res = solve_greedy(inst)
        assert res.selected[0]  # empty region, still profitable
        assert not res.selected[1]

    def test_at_least_best_singleton_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng)
            kappa = np.where(inst.effective_costs < 0, 0.1, inst.effective_costs)
            inst = RegulatedInstance(inst.realization, kappa, inst.eligible)
            res = solve_greedy(inst)
            assert res.objective >= -TOL
            for u in np.flatnonzero(inst.eligible):
                alone = np.arange(inst.realization.n_users) == u
                singleton = evaluate_allocation(inst.realization, alone).value - kappa[u]
                assert res.objective >= singleton - TOL


class TestBranchAndBound:
    def test_matches_exact_on_random_instances(self):
        rng = np.random.default_rng(23)
        for k in range(200):
            inst = random_instance(rng, tie_prone=(k % 3 == 0))
            exact = solve_exact(inst)
            bnb = branch_and_bound(inst, node_budget=1 << 14)
            assert bnb.exact
            assert bnb.objective == pytest.approx(exact.objective, abs=TOL)
            assert bnb.selected.tolist() == exact.selected.tolist()

    def test_budget_exhaustion_returns_greedy_incumbent(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n_max=6)
        greedy = solve_greedy(inst)
        res = branch_and_bound(inst, node_budget=1)
        assert not res.exact
        assert res.objective >= greedy.objective - TOL

    def test_empty_optimum_completes_with_tiny_budget(self):
        real = make_realization(6, [{0, 1}, {2, 3}], costs=[5.0, 5.0])
        inst = RegulatedInstance.of(real, real.true_costs)
        res = branch_and_bound(inst, node_budget=1)
        assert res.exact
        assert not res.selected.any()
        assert res.objective == 0.0


class TestOracleEquivalence:
    def test_exact_matches_independent_enumerator(self):
        rng = np.random.default_rng(42)
        for k in range(120):
            inst = random_instance(rng, tie_prone=(k % 4 == 0))
            res = solve_exact(inst)
            oracle_alloc, oracle_obj = oracle_enumerate(inst)
            assert res.objective == pytest.approx(oracle_obj, abs=TOL)
            assert res.selected.tolist() == oracle_alloc.tolist()

    def test_objective_consistency_with_world(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            inst = random_instance(rng)
            res = solve_exact(inst)
            wb = evaluate_allocation(inst.realization, res.selected)
            recomputed = wb.value - inst.effective_costs[res.selected].sum()
            assert res.objective == pytest.approx(recomputed, abs=TOL)

    def test_regulation_monotonicity_at_argmax(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(80):
            inst = random_instance(rng)
            res = solve_exact(inst)
            selected = np.flatnonzero(res.selected)
            if selected.size == 0:
                continue
            u = int(rng.choice(selected))
            kappa = inst.effective_costs.copy()
            kappa[u] -= rng.random() * 2 + 1e-3
            lowered = solve_exact(RegulatedInstance(inst.realization, kappa, inst.eligible))
            assert lowered.selected[u]
            checked += 1
        assert checked > 20


class TestDispatch:
    def test_auto_uses_exact_within_limit(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n_max=5)
        auto = solve(inst, SolveOptions(mode="auto", exact_limit=10))
        assert auto.exact

    def test_auto_falls_back_to_bnb(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n_max=6)
        res = solve(inst, SolveOptions(mode="auto", exact_limit=2, node_budget=1 << 14))
        exact = solve_exact(inst)
        assert res.objective == pytest.approx(exact.objective, abs=TOL)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(mode="magic")

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"node_budget": 0}, "node_budget"), ({"node_budget": -1}, "node_budget"),
         ({"exact_limit": -1}, "exact_limit")],
    )
    def test_limits_no_solve_can_use_refused(self, kwargs, field):
        # a zero budget would turn every bnb solve into its greedy incumbent
        with pytest.raises(ValueError, match=field):
            SolveOptions("bnb", **kwargs)

    def test_smallest_usable_limits_accepted(self):
        assert SolveOptions("auto", exact_limit=0, node_budget=1).route(0) == "exact"

    @pytest.mark.parametrize("m", [0, 3, 4, 5])
    def test_auto_is_exact_up_to_the_limit_then_bnb(self, m):
        assert SolveOptions("auto", exact_limit=4).route(m) == ("exact" if m <= 4 else "bnb")

    @pytest.mark.parametrize("mode", ["greedy", "bnb"])
    def test_other_modes_route_to_themselves_at_any_size(self, mode):
        assert [SolveOptions(mode, exact_limit=2).route(m) for m in (0, 2, 30)] == [mode] * 3

    def test_exact_past_the_limit_refused(self):
        assert SolveOptions("exact", exact_limit=4).route(4) == "exact"
        with pytest.raises(SolverCapacityError, match="5 eligible users exceed exact_limit=4"):
            SolveOptions("exact", exact_limit=4).route(5)


class TestTiebreakOrder:
    """The order tiebreak_key sorts all 2^m local masks in."""

    @pytest.mark.parametrize("m", range(13))
    def test_matches_oracle_ranks(self, m):
        keys = tiebreak_key(np.arange(1 << m, dtype=np.int64), m)
        assert np.argsort(keys).tolist() == np.argsort(tiebreak_tables(m)[2]).tolist()

    @pytest.mark.parametrize("m", range(7))
    def test_fewer_users_then_smaller_index_vector(self, m):
        def users(mask):
            return [j for j in range(m) if (mask >> j) & 1]

        want = sorted(range(1 << m), key=lambda mask: (len(users(mask)), users(mask)))
        assert sorted(range(1 << m), key=lambda mask: tiebreak_key(mask, m)) == want


def masks_of(m):
    """Local masks of m users: uniform ones, and few-member ones so that
    user counts differ."""
    sparse = st.sets(st.integers(0, m - 1), max_size=4).map(lambda b: sum(1 << j for j in b))
    return st.lists(st.integers(0, (1 << m) - 1) | sparse, max_size=20)


class TestTiebreakKey:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(63, 100).flatmap(lambda m: st.tuples(st.just(m), masks_of(m))))
    def test_python_ints_past_int64_order_by_count_then_index_vector(self, case):
        m, masks = case

        def rule(mask):
            users = [j for j in range(m) if (mask >> j) & 1]
            return (len(users), users)

        for a, b in itertools.product(masks, repeat=2):
            assert (tiebreak_key(a, m) < tiebreak_key(b, m)) == (rule(a) < rule(b))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 20).flatmap(lambda m: st.tuples(st.just(m), masks_of(max(m, 1)))))
    def test_int64_arrays_equal_python_ints(self, case):
        m, masks = case
        masks = [s & ((1 << m) - 1) for s in masks]
        keys = tiebreak_key(np.array(masks, dtype=np.int64), m)
        assert keys.dtype == np.int64
        assert keys.tolist() == [tiebreak_key(s, m) for s in masks]


NUDGES = {
    "same": lambda c: c,
    "+tol": lambda c: c + TIE_TOL,
    "-tol": lambda c: c - TIE_TOL,
    "up": lambda c: np.nextafter(c, np.inf),
    "down": lambda c: np.nextafter(c, -np.inf),
}


# every route, auto on both sides of exact_limit, and a node budget that
# stops some searches early
ROUTES = {
    "exact": SolveOptions("exact", exact_limit=10),
    "greedy": SolveOptions("greedy"),
    "bnb": SolveOptions("bnb", node_budget=4),
    "auto_exact": SolveOptions("auto", exact_limit=10),
    "auto_bnb": SolveOptions("auto", exact_limit=0, node_budget=4),
}


def route_solver(route, options):
    """The solver a route runs, called on one instance."""
    if route == "exact":
        return solve_exact_alone
    if route == "greedy":
        return solve_greedy
    return lambda inst: branch_and_bound(inst, options.node_budget)


def assert_same_result(got, want):
    assert got.selected.tobytes() == want.selected.tobytes()
    assert bits(got.objective) == bits(want.objective)
    assert got.exact is want.exact


def assert_read_only_selection(result, n):
    """A solver keeps the selection it built without a checked copy; it must
    still be a read-only bool array of n."""
    selected = result.selected
    assert selected.dtype == bool and selected.shape == (n,)
    assert not selected.flags.writeable


class TestAllocateMany:
    """allocate_many row by row against each row solved alone."""

    @settings(max_examples=300, deadline=None)
    @given(coverage_instances(m_max=10), st.data())
    def test_each_row_equals_its_own_solve(self, real, data):
        n = real.n_users
        eligible = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        levels = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        base = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)))
        # rows that tie, or nearly tie, within and across rows: the base
        # charges moved by +-TIE_TOL or to a float neighbour, user by user
        rows = [base]
        for _ in range(data.draw(st.integers(0, 5))):
            moves = data.draw(st.lists(st.sampled_from(sorted(NUDGES)), min_size=n, max_size=n))
            rows.append(np.array([NUDGES[how](c) for how, c in zip(moves, base)]))
        if data.draw(st.booleans()):
            rows.append(rows[-1].copy())  # identical rows
        charges = np.array(rows).reshape(len(rows), n)
        name = data.draw(st.sampled_from(sorted(ROUTES)))
        options = ROUTES[name]
        users = np.flatnonzero(eligible)
        route = options.route(users.size)
        results, objective = allocate_many(real, charges, eligible, options)
        assert len(results) == len(rows)
        if route == "exact":
            assert objective.shape == (len(rows), 1 << users.size)
        else:
            assert objective is None
        for i, row in enumerate(charges):
            inst = RegulatedInstance(real, row, eligible)
            alone = route_solver(route, options)(inst)
            assert_read_only_selection(results[i], n)
            assert_read_only_selection(alone, n)
            assert_same_result(results[i], solve(inst, options))
            assert_same_result(results[i], alone)
            if route == "exact":
                alone = objective_alone(real, row, users)
                assert bits(objective[i]).tobytes() == bits(alone).tobytes()
                assert_same_result(results[i], solve_exact(inst))

    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_no_rows(self, name):
        real = make_realization(3, [{0}, {1, 2}], costs=[0.5, 0.5])
        results, objective = allocate_many(
            real, np.empty((0, 2)), np.ones(2, dtype=bool), ROUTES[name]
        )
        assert results == []
        if ROUTES[name].route(2) == "exact":
            assert objective.shape == (0, 4)
        else:
            assert objective is None

    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_one_row_of_an_empty_eligible_set(self, name):
        real = make_realization(3, [{0}, {1, 2}], costs=[0.5, 0.5])
        eligible = np.zeros(2, dtype=bool)
        charges = np.array([[0.5, 0.5]])
        (result,), objective = allocate_many(real, charges, eligible, ROUTES[name])
        assert_read_only_selection(result, 2)
        assert not result.selected.any() and result.objective == 0.0
        assert_same_result(result, solve(RegulatedInstance(real, charges[0], eligible), ROUTES[name]))
        if ROUTES[name].route(0) == "exact":
            assert objective.tolist() == [[0.0]]
        else:
            assert objective is None

    def test_exact_mode_past_the_limit_refused(self):
        real = make_realization(3, [{0}, {1, 2}], costs=[0.5, 0.5])
        with pytest.raises(SolverCapacityError, match="2 eligible users exceed exact_limit=1"):
            allocate_many(real, np.zeros((1, 2)), np.ones(2, dtype=bool), SolveOptions("exact", 1))
