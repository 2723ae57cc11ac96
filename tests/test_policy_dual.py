import numpy as np
import pytest

from sensecourt.policy_dual import StepSchedule, dual_allocate, dual_update
from sensecourt.policy_lyapunov import lyapunov_allocate
from sensecourt.solver import RegulatedInstance, SolveOptions, solve_exact

from test_solver import random_instance


class TestStepSchedule:
    def test_harmonic_sequence(self):
        sched = StepSchedule.harmonic(1.0)
        assert [sched.step(t) for t in (1, 2, 3)] == [1.0, 0.5, 1.0 / 3.0]

    def test_constant(self):
        assert StepSchedule.constant(0.2).step(17) == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule("quadratic", 1.0)
        with pytest.raises(ValueError):
            StepSchedule.harmonic(0.0)
        with pytest.raises(ValueError):
            StepSchedule.harmonic(1.0).step(0)


class TestDualAllocate:
    def test_zero_multipliers_is_unregulated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = random_instance(rng)
            real = inst.realization
            alloc = dual_allocate(np.zeros(real.n_users), real, options=SolveOptions(mode="exact"))
            plain = solve_exact(RegulatedInstance.of(real, real.true_costs))
            assert alloc.tolist() == plain.selected.tolist()

    def test_negative_regulated_cost_selects_empty_region_user(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n_max=3)
        real = inst.realization
        lam = np.zeros(real.n_users)
        lam[0] = real.true_costs[0] + 1.0  # overshoots the cost
        regions = list(real.regions)
        # rebuild with an empty region for user 0
        from test_world import make_realization

        real2 = make_realization(
            real.n_grids,
            [set()] + [set(r.tolist()) for r in regions[1:]],
            real.weights.values,
            real.true_costs,
        )
        alloc = dual_allocate(lam, real2, options=SolveOptions(mode="exact"))
        assert alloc[0]

    def test_matches_lyapunov_at_scaled_queues(self):
        rng = np.random.default_rng(2)
        phi = 7.0
        for _ in range(30):
            inst = random_instance(rng)
            real = inst.realization
            lam = rng.random(real.n_users) * 2
            q = phi * lam
            a = dual_allocate(lam, real, options=SolveOptions(mode="exact"))
            b = lyapunov_allocate(q / phi, real, options=SolveOptions(mode="exact"))
            assert a.tolist() == b.tolist()


class TestDualUpdate:
    def test_one_step_formula(self):
        # lambda=0.3, eps=0.1 (constant), running freq 0.4 after this slot,
        # threshold 0.5 -> 0.3 - 0.1*(0.4-0.5) = 0.31
        new = dual_update(np.array([0.3]), np.array([2 / 5]), np.array([0.5]), 0.1)
        assert new[0] == pytest.approx(0.31, abs=1e-12)

    def test_projection_at_zero(self):
        new = dual_update(np.array([0.05]), np.array([1.0]), np.array([0.0]), 0.1)
        assert new[0] == 0.0

    def test_zero_thresholds_keep_lambda_zero(self):
        rng = np.random.default_rng(3)
        lam, counts, thresholds = np.zeros(4), np.zeros(4), np.zeros(4)
        schedule = StepSchedule.harmonic(1.0)
        for t in range(1, 51):
            counts += rng.random(4) < 0.5
            lam = dual_update(lam, counts / t, thresholds, schedule.step(t))
            assert np.all(lam == 0.0)

    def test_multipliers_stay_nonnegative(self):
        rng = np.random.default_rng(4)
        lam, counts, thresholds = np.zeros(5), np.zeros(5), rng.random(5)
        for t in range(1, 201):
            counts += rng.random(5) < 0.3
            lam = dual_update(lam, counts / t, thresholds, 0.7)
            assert np.all(lam >= 0.0)

    def test_ineligible_multipliers_stay(self):
        new = dual_update(np.array([0.3, 0.3]), np.array([0.0, 0.0]), np.full(2, 0.5), 1.0,
                          np.array([True, False]))
        assert new.tolist() == [0.8, 0.3]

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
    def test_bad_step_refused(self, eps):
        with pytest.raises(ValueError, match="eps must be"):
            dual_update(np.zeros(1), np.zeros(1), np.full(1, 0.5), eps)
