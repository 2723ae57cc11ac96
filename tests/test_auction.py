import itertools
import tracemalloc

import numpy as np
import pytest

from sensecourt.auction import (
    ExactPivotsRequiredError,
    regulation_update,
    run_auction_slot,
    truthfulness_sweep,
)
from sensecourt.engine import PolicySpec, run_policy
from sensecourt.policy_lyapunov import queue_update
from sensecourt.solver import RegulatedInstance, SolveOptions, allocate_many, solve_exact
from sensecourt.world import evaluate_allocation

from oracle_engine import auction_slot_alone
from test_world import make_realization

TOL = 1e-9


def random_auction_instance(rng, n_max=6, grids_max=16):
    n_grids = int(rng.integers(4, grids_max + 1))
    n_users = int(rng.integers(2, n_max + 1))
    regions = [
        set(rng.choice(n_grids, size=rng.integers(1, n_grids + 1), replace=False).tolist())
        for _ in range(n_users)
    ]
    weights = rng.random(n_grids) * 2
    costs = rng.uniform(0.1, 2.0, size=n_users)
    real = make_realization(n_grids, regions, weights, costs)
    factors = rng.uniform(0, 0.5, size=n_users)
    return real, factors


class TestSingleBidder:
    def test_profitable_single_user(self):
        real = make_realization(6, [set(range(5))], costs=[2.0])
        outcome = run_auction_slot(np.zeros(1), real, np.array([2.0]))
        assert outcome.selected[0]
        assert outcome.payments[0] == pytest.approx(5.0, abs=TOL)
        # utility against the true cost of 2 is +3
        assert outcome.payments[0] - 2.0 == pytest.approx(3.0, abs=TOL)

    def test_loss_making_single_user(self):
        real = make_realization(6, [set(range(5))], costs=[6.0])
        outcome = run_auction_slot(np.zeros(1), real, np.array([6.0]))
        assert not outcome.selected[0]
        assert outcome.payments[0] == 0.0


class TestPivots:
    def test_two_disjoint_users_marginal_payment(self):
        real = make_realization(8, [{0, 1, 2}, {3, 4, 5, 6}], costs=[1.0, 1.0])
        outcome = run_auction_slot(np.zeros(2), real, real.true_costs)
        assert outcome.selected.tolist() == [True, True]
        # payment to user 0: value 7 - others' cost 1 - welfare without (3) = 3
        assert outcome.payments[0] == pytest.approx(3.0, abs=TOL)
        assert outcome.payments[1] == pytest.approx(4.0, abs=TOL)

    def test_pivot_matches_exhaustive_subset_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            real, factors = random_auction_instance(rng, n_max=5)
            n = real.n_users
            outcome = run_auction_slot(factors, real, real.true_costs)
            kappa = real.true_costs - factors
            weights = real.weights.values
            winners = np.flatnonzero(outcome.selected)
            value = evaluate_allocation(real, outcome.selected).value
            for u in winners.tolist():
                # independent leave-one-out optimum over all subsets
                best = 0.0
                others = [v for v in range(n) if v != u]
                for size in range(len(others) + 1):
                    for combo in itertools.combinations(others, size):
                        covered = set()
                        for v in combo:
                            covered |= set(real.regions[v].tolist())
                        obj = sum(weights[g] for g in covered) - sum(
                            kappa[v] for v in combo
                        )
                        best = max(best, obj)
                others_cost = kappa[winners].sum() - kappa[u]
                expected = value - others_cost - best + factors[u]
                assert outcome.payments[u] == pytest.approx(expected, abs=TOL)

    def test_losers_paid_zero_and_payments_finite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            real, factors = random_auction_instance(rng)
            outcome = run_auction_slot(factors, real, real.true_costs)
            assert np.all(np.isfinite(outcome.payments))
            assert np.all(outcome.payments[~outcome.selected] == 0.0)

    def test_individual_rationality_under_truthful_bids(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            real, factors = random_auction_instance(rng)
            outcome = run_auction_slot(factors, real, real.true_costs)
            for u in np.flatnonzero(outcome.selected):
                assert outcome.payments[u] - real.true_costs[u] >= -TOL

    def test_pivot_rows_built_one_winner_at_a_time(self):
        # each winner's half of the objective is copied and scored alone: a
        # half and a block of half a table, about one table in all, where
        # every winner's half built at once would hold half a table each
        m = 16
        rng = np.random.default_rng(3)
        regions = [{u, (u + 1) % m, m + u} for u in range(m)]  # overlapping neighbours
        real = make_realization(2 * m, regions, rng.uniform(1, 2, 2 * m), rng.uniform(0, 1, m))
        factors = rng.uniform(0, 0.5, m)
        kappa = real.true_costs - factors
        (result,), objective = allocate_many(real, kappa[None], None, SolveOptions("exact", m))
        solved = result.selected, objective[0], evaluate_allocation(real, result.selected).value
        assert result.selected.sum() >= 8
        run_auction_slot(factors, real, real.true_costs, None, m, solved)  # warm caches
        tracemalloc.start()
        try:
            outcome = run_auction_slot(factors, real, real.true_costs, None, m, solved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * objective[0].nbytes
        alloc, payments = auction_slot_alone(factors, real, np.ones(m, bool))
        assert outcome.selected.tobytes() == alloc.tobytes()
        assert outcome.payments.tobytes() == payments.tobytes()

    def test_refuses_oversized_instances(self):
        real = make_realization(4, [{0}] * 5, costs=[0.1] * 5)
        with pytest.raises(ExactPivotsRequiredError):
            run_auction_slot(np.zeros(5), real, real.true_costs, exact_limit=4)


class TestLeaveOneOutAssert:
    def test_restricted_allocation_remains_optimal(self):
        # removing a winner and the grids it sensed leaves the rest optimal
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(30):
            real, factors = random_auction_instance(rng, n_max=6)
            n = real.n_users
            kappa = real.true_costs - factors
            res = solve_exact(RegulatedInstance.of(real, kappa))
            for u in np.flatnonzero(res.selected):
                u = int(u)
                removed = set(real.regions[u].tolist())
                rest_regions = [
                    set(real.regions[v].tolist()) - removed for v in range(n)
                ]
                weights = real.weights.values.copy()
                for g in removed:
                    weights[g] = 0.0
                restricted = make_realization(
                    real.n_grids, rest_regions, weights, real.true_costs
                )
                eligible = np.ones(n, dtype=bool)
                eligible[u] = False
                best = solve_exact(RegulatedInstance(restricted, kappa, eligible))
                rest_sel = res.selected.copy()
                rest_sel[u] = False
                achieved = sum(
                    weights[g]
                    for g in set().union(
                        *(rest_regions[v] for v in np.flatnonzero(rest_sel)), set()
                    )
                ) - kappa[rest_sel].sum()
                assert achieved == pytest.approx(best.objective, abs=TOL)
                checked += 1
        assert checked >= 20


class TestRegulationUpdate:
    def test_one_step_formula(self):
        new = regulation_update(np.array([0.2]), np.array([True]), np.array([0.5]), 10.0)
        assert new[0] == pytest.approx(0.15, abs=1e-12)

    def test_zero_fixed_point(self):
        new = regulation_update(np.array([0.0]), np.array([False]), np.array([0.0]), 10.0)
        assert new[0] == 0.0

    def test_scaled_trace_equals_queue_trace(self):
        rng = np.random.default_rng(5)
        phi = 6.0
        n = 4
        d = rng.random(n)
        reg, queue = np.zeros(n), np.zeros(n)
        for _ in range(60):
            alloc = rng.random(n) < 0.5
            reg = regulation_update(reg, alloc, d, phi)
            queue = queue_update(queue, alloc, d)
            assert np.allclose(phi * reg, queue, atol=1e-12)

    def test_engine_preloads_one_arrival(self):
        d = np.array([0.5, 0.2])
        real = make_realization(4, [{0}, {1}], costs=[0.1, 0.1])
        run = run_policy([real], PolicySpec("auction", phi=4.0), d, warmup_slots=1)
        assert np.allclose(4.0 * run.regulation[0], d)


class TestTruthfulnessSweep:
    def test_truthful_bid_is_optimal_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            real, factors = random_auction_instance(rng)
            user = int(rng.integers(0, real.n_users))
            grid = np.linspace(0, 3 * real.true_costs[user], 101)
            report = truthfulness_sweep(
                real, factors, real.true_costs, user, grid
            )
            assert report.regret <= TOL
            assert report.truthful

    def test_sweep_matches_slotwise_auction(self):
        rng = np.random.default_rng(7)
        real, factors = random_auction_instance(rng, n_max=5)
        user = 1
        grid = np.linspace(0, 2.5 * real.true_costs[user], 11)
        report = truthfulness_sweep(real, factors, real.true_costs, user, grid)
        for i, bid in enumerate(grid):
            bids = real.true_costs.copy()
            bids[user] = bid
            outcome = run_auction_slot(factors, real, bids)
            assert bool(outcome.selected[user]) == bool(report.selected[i])
            assert outcome.payments[user] == pytest.approx(
                report.payments[i] if report.selected[i] else 0.0, abs=TOL
            )

    def test_win_win_bids_get_equal_payment(self):
        # a cheap user keeps winning across a bid range; payment is constant
        rng = np.random.default_rng(8)
        witnessed = 0
        for _ in range(40):
            real, factors = random_auction_instance(rng)
            user = int(rng.integers(0, real.n_users))
            costs = real.true_costs.copy()
            costs[user] = 0.05  # cheap enough to win at many bids
            grid = np.linspace(0, 1.0, 51)
            report = truthfulness_sweep(real, factors, costs, user, grid)
            winning = report.payments[report.selected]
            if winning.size >= 2:
                assert np.ptp(winning) <= TOL
                witnessed += 1
        assert witnessed >= 20

    def test_loss_win_underbidding_never_profits(self):
        # truthful bid loses; any winning underbid yields non-positive utility
        rng = np.random.default_rng(9)
        witnessed = 0
        for _ in range(60):
            real, factors = random_auction_instance(rng)
            user = int(rng.integers(0, real.n_users))
            costs = real.true_costs.copy()
            costs[user] = 50.0  # hopelessly expensive at truth
            grid = np.linspace(0.0, 5.0, 51)
            report = truthfulness_sweep(real, factors, costs, user, grid)
            if report.truthful_utility == 0.0 and report.selected.any():
                assert np.all(report.utilities[report.selected] <= TOL)
                witnessed += 1
        assert witnessed >= 20

    def test_requires_eligible_user(self):
        rng = np.random.default_rng(10)
        real, factors = random_auction_instance(rng)
        eligible = np.ones(real.n_users, dtype=bool)
        eligible[0] = False
        with pytest.raises(ValueError):
            truthfulness_sweep(
                real, factors, real.true_costs, 0, np.array([0.5]), eligible
            )
