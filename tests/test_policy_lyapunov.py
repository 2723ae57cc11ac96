import itertools

import numpy as np
import pytest

from sensecourt.policy_lyapunov import lyapunov_allocate, penalty_bound_B, queue_update
from sensecourt.solver import RegulatedInstance, SolveOptions, solve_exact

from oracle_lyapunov import drift_plus_penalty_diag, lyapunov_drift, lyapunov_function
from test_solver import random_instance


class TestQueueUpdate:
    def test_one_step_formula(self):
        new = queue_update(np.array([2.0]), np.array([True]), np.array([0.5]))
        assert new[0] == pytest.approx(1.5)

    def test_projection_active(self):
        new = queue_update(np.array([0.3]), np.array([True]), np.array([0.5]))
        assert new[0] == pytest.approx(0.5)

    def test_zero_fixed_point(self):
        q = np.array([0.0])
        for _ in range(10):
            q = queue_update(q, np.array([False]), np.array([0.0]))
        assert q[0] == 0.0

    def test_backlogs_stay_nonnegative(self):
        rng = np.random.default_rng(0)
        q = np.zeros(4)
        d = rng.random(4)
        for _ in range(100):
            q = queue_update(q, rng.random(4) < 0.5, d)
            assert np.all(q >= 0)

    def test_negative_backlog_refused(self):
        with pytest.raises(ValueError, match="backlogs must be non-negative"):
            queue_update(np.array([-1.0]), np.array([True]), np.array([0.5]))


class TestPenaltyBound:
    def test_closed_forms(self):
        assert penalty_bound_B(np.array([0.5, 0.5])) == pytest.approx(1.25)
        assert penalty_bound_B(np.array([])) == 0.0
        assert penalty_bound_B(np.array([1.0])) == pytest.approx(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            penalty_bound_B(np.array([1.5]))


class TestAllocate:
    def test_zero_queues_unregulated(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng)
        real = inst.realization
        alloc = lyapunov_allocate(np.zeros(real.n_users), real, options=SolveOptions(mode="exact"))
        plain = solve_exact(RegulatedInstance.of(real, real.true_costs))
        assert alloc.tolist() == plain.selected.tolist()

    def test_large_backlog_selects_empty_region_user(self):
        from test_world import make_realization

        real = make_realization(4, [set(), {0, 1}], costs=[0.5, 0.2])
        q, phi = np.array([10.0, 0.0]), 2.0
        alloc = lyapunov_allocate(q / phi, real, options=SolveOptions(mode="exact"))
        assert alloc[0]


class TestDriftPlusPenalty:
    def test_empty_system(self):
        from test_world import make_realization

        real = make_realization(2, [], weights=[1.0, 1.0], costs=[])
        value = drift_plus_penalty_diag(
            np.zeros(0), 1.0, np.zeros(0, dtype=bool), real, np.zeros(0)
        )
        assert value == 0.0

    def test_chosen_allocation_minimizes_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            inst = random_instance(rng, n_max=6)
            real = inst.realization
            n = real.n_users
            d = rng.random(n)
            q, phi = rng.random(n) * 3, rng.uniform(1, 10)
            chosen = lyapunov_allocate(q / phi, real, options=SolveOptions(mode="exact"))
            bound_at = drift_plus_penalty_diag(q, phi, chosen, real, d)
            for bits in itertools.product([False, True], repeat=n):
                other = np.array(bits)
                assert bound_at <= drift_plus_penalty_diag(q, phi, other, real, d) + 1e-9

    def test_reduces_to_B_minus_welfare(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        real = inst.realization
        n = real.n_users
        d = rng.random(n)
        alloc = rng.random(n) < 0.5
        from sensecourt.world import evaluate_allocation

        expected = penalty_bound_B(d) - evaluate_allocation(real, alloc).welfare
        assert drift_plus_penalty_diag(np.zeros(n), 1.0, alloc, real, d) == pytest.approx(expected)


class TestDiagnostics:
    def test_lyapunov_function_and_drift(self):
        a, b = np.array([3.0, 4.0]), np.array([0.0, 0.0])
        assert lyapunov_function(a) == pytest.approx(12.5)
        assert lyapunov_drift(a, b) == pytest.approx(-12.5)
