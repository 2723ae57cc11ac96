import itertools

import numpy as np
import pytest

from sensecourt.solver import (
    RegulatedInstance,
    SolveOptions,
    SolverCapacityError,
    branch_and_bound,
    solve,
    solve_exact,
    solve_greedy,
    tiebreak_order,
)
from sensecourt.world import Allocation, evaluate_allocation

from oracle_subset import tiebreak_tables
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
                covered |= set(real.regions[u].indices.tolist())
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
    return Allocation(sel), winner[0]


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
        assert res.alloc.indices().tolist() == [0]  # lexicographic tie-break

    def test_negative_charge_forces_selection(self):
        real = make_realization(6, [set(range(5))])
        inst = RegulatedInstance.of(real, np.array([-1.0]))
        res = solve_exact(inst)
        assert res.alloc.selected[0]
        assert res.objective == pytest.approx(6.0, abs=TOL)

    def test_all_loss_making_disjoint_users(self):
        real = make_realization(6, [{0, 1}, {2, 3}], costs=[5.0, 5.0])
        inst = RegulatedInstance.of(real, real.true_costs)
        res = solve_exact(inst)
        assert res.alloc.indices().size == 0
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
        assert res.alloc.selected.tolist() == [False, True]


class TestSolveGreedy:
    def test_hand_simulated_trace(self):
        # picks A (gain 10), then C (gain 1.9), skips B (gain -0.1)
        regions = [set(range(10)), set(range(6)), set(range(6, 12))]
        real = make_realization(12, regions)
        inst = RegulatedInstance.of(real, np.array([0.0, 0.1, 0.1]))
        res = solve_greedy(inst)
        assert res.alloc.indices().tolist() == [0, 2]
        assert res.objective == pytest.approx(11.9, abs=TOL)
        assert not res.exact

    def test_empty_eligible_set(self):
        real = make_realization(3, [{0}])
        inst = RegulatedInstance(real, np.zeros(1), np.zeros(1, dtype=bool))
        res = solve_greedy(real and inst)
        assert res.alloc.indices().size == 0
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
        assert res.alloc.selected[0]  # empty region, still profitable
        assert not res.alloc.selected[1]

    def test_at_least_best_singleton_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng)
            kappa = np.where(inst.effective_costs < 0, 0.1, inst.effective_costs)
            inst = RegulatedInstance(inst.realization, kappa, inst.eligible)
            res = solve_greedy(inst)
            assert res.objective >= -TOL
            for u in np.flatnonzero(inst.eligible):
                singleton = evaluate_allocation(
                    inst.realization, Allocation.of(inst.realization.n_users, [u])
                ).value - kappa[u]
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
            assert bnb.alloc.selected.tolist() == exact.alloc.selected.tolist()

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
        assert res.alloc.indices().size == 0
        assert res.objective == 0.0


class TestOracleEquivalence:
    def test_exact_matches_independent_enumerator(self):
        rng = np.random.default_rng(42)
        for k in range(120):
            inst = random_instance(rng, tie_prone=(k % 4 == 0))
            res = solve_exact(inst)
            oracle_alloc, oracle_obj = oracle_enumerate(inst)
            assert res.objective == pytest.approx(oracle_obj, abs=TOL)
            assert res.alloc.selected.tolist() == oracle_alloc.selected.tolist()

    def test_objective_consistency_with_world(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            inst = random_instance(rng)
            res = solve_exact(inst)
            wb = evaluate_allocation(inst.realization, res.alloc)
            recomputed = wb.value - inst.effective_costs[res.alloc.selected].sum()
            assert res.objective == pytest.approx(recomputed, abs=TOL)

    def test_regulation_monotonicity_at_argmax(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(80):
            inst = random_instance(rng)
            res = solve_exact(inst)
            selected = res.alloc.indices()
            if selected.size == 0:
                continue
            u = int(rng.choice(selected))
            kappa = inst.effective_costs.copy()
            kappa[u] -= rng.random() * 2 + 1e-3
            lowered = solve_exact(RegulatedInstance(inst.realization, kappa, inst.eligible))
            assert lowered.alloc.selected[u]
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


class TestTiebreakOrder:
    @pytest.mark.parametrize("m", range(13))
    def test_matches_oracle_ranks(self, m):
        by_rank, rank = tiebreak_order(m)
        assert by_rank.tolist() == np.argsort(tiebreak_tables(m)[2]).tolist()
        assert rank[by_rank].tolist() == list(range(1 << m))
        assert not by_rank.flags.writeable and not rank.flags.writeable

    @pytest.mark.parametrize("m", range(7))
    def test_fewer_users_then_smaller_index_vector(self, m):
        def users(mask):
            return [j for j in range(m) if (mask >> j) & 1]

        want = sorted(range(1 << m), key=lambda mask: (len(users(mask)), users(mask)))
        assert tiebreak_order(m)[0].tolist() == want
