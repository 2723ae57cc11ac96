import numpy as np
import pytest

from sensecourt.policy_dual import DualState, StepSchedule, dual_allocate, dual_update
from sensecourt.policy_lyapunov import QueueState, lyapunov_allocate
from sensecourt.solver import RegulatedInstance, SolveOptions, solve_exact

from test_solver import random_instance


def state_with(multipliers, slot_index=1, cum=None, schedule=None):
    lam = np.asarray(multipliers, dtype=float)
    if cum is None:
        cum = np.zeros(lam.size, dtype=np.int64)
    return DualState(
        lam, cum, slot_index, schedule or StepSchedule.harmonic(1.0)
    )


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


class TestDualState:
    def test_initial_is_zero(self):
        state = DualState.initial(3)
        assert np.all(state.multipliers == 0)
        assert state.slot_index == 1

    def test_rejects_negative_multipliers(self):
        with pytest.raises(ValueError):
            state_with([-0.1])

    def test_rejects_counts_ahead_of_time(self):
        with pytest.raises(ValueError):
            state_with([0.0], slot_index=1, cum=np.array([1]))


class TestDualAllocate:
    def test_zero_multipliers_is_unregulated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = random_instance(rng)
            real = inst.realization
            state = DualState.initial(real.n_users)
            alloc = dual_allocate(state, real, options=SolveOptions(mode="exact"))
            plain = solve_exact(RegulatedInstance.of(real, real.true_costs))
            assert alloc.tolist() == plain.selected.tolist()

    def test_negative_regulated_cost_selects_empty_region_user(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n_max=3)
        real = inst.realization
        lam = np.zeros(real.n_users)
        lam[0] = real.true_costs[0] + 1.0  # overshoots the cost
        regions = list(real.regions)
        state = state_with(lam)
        # rebuild with an empty region for user 0
        from test_world import make_realization

        real2 = make_realization(
            real.n_grids,
            [set()] + [set(r.tolist()) for r in regions[1:]],
            real.weights.values,
            real.true_costs,
        )
        alloc = dual_allocate(state, real2, options=SolveOptions(mode="exact"))
        assert alloc[0]

    def test_matches_lyapunov_at_scaled_queues(self):
        rng = np.random.default_rng(2)
        phi = 7.0
        for _ in range(30):
            inst = random_instance(rng)
            real = inst.realization
            lam = rng.random(real.n_users) * 2
            dual_state = state_with(lam)
            queue_state = QueueState(backlogs=phi * lam, phi=phi)
            a = dual_allocate(dual_state, real, options=SolveOptions(mode="exact"))
            b = lyapunov_allocate(queue_state, real, options=SolveOptions(mode="exact"))
            assert a.tolist() == b.tolist()


class TestDualUpdate:
    def test_one_step_formula(self):
        # lambda=0.3, eps=0.1 (constant), running freq 0.4 after this slot,
        # threshold 0.5 -> 0.3 - 0.1*(0.4-0.5) = 0.31
        state = state_with(
            [0.3], slot_index=5, cum=np.array([1]), schedule=StepSchedule.constant(0.1)
        )
        alloc = np.array([True])
        new = dual_update(state, alloc, np.array([0.5]))
        assert new.multipliers[0] == pytest.approx(0.31, abs=1e-12)
        assert new.slot_index == 6
        assert new.cumulative_selected[0] == 2

    def test_projection_at_zero(self):
        state = state_with(
            [0.05], slot_index=1, schedule=StepSchedule.constant(0.1)
        )
        new = dual_update(state, np.array([True]), np.array([0.0]))
        assert new.multipliers[0] == 0.0

    def test_zero_thresholds_keep_lambda_zero(self):
        rng = np.random.default_rng(3)
        state = DualState.initial(4)
        thresholds = np.zeros(4)
        for t in range(50):
            alloc = rng.random(4) < 0.5
            state = dual_update(state, alloc, thresholds)
            assert np.all(state.multipliers == 0.0)

    def test_multipliers_stay_nonnegative(self):
        rng = np.random.default_rng(4)
        state = DualState.initial(5, StepSchedule.constant(0.7))
        thresholds = rng.random(5)
        for t in range(200):
            alloc = rng.random(5) < 0.3
            state = dual_update(state, alloc, thresholds)
            assert np.all(state.multipliers >= 0.0)
