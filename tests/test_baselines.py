import numpy as np
import pytest

from sensecourt.baselines import (
    VpcState,
    greedy_baseline_step,
    radp_vpc_step,
    random_baseline_step,
)
from sensecourt.solver import RegulatedInstance, solve_greedy
from sensecourt.world import evaluate_allocation

from test_solver import random_instance
from test_world import make_realization


class TestVpcState:
    def test_validation(self):
        with pytest.raises(ValueError):
            VpcState(np.array([-0.1]), alpha=1.0)
        with pytest.raises(ValueError):
            VpcState(np.array([0.0]), alpha=-1.0)


class TestRadpVpc:
    def test_loser_gains_alpha(self):
        real = make_realization(4, [set(), {0, 1, 2}], costs=[5.0, 0.5])
        state = VpcState(np.array([0.4, 0.0]), alpha=0.2)
        alloc, new = radp_vpc_step(state, real)
        assert not alloc.selected[0] and alloc.selected[1]
        assert new.credits[0] == pytest.approx(0.6)

    def test_winner_resets_to_zero(self):
        real = make_realization(4, [{0, 1, 2}], costs=[0.5])
        state = VpcState(np.array([1.3]), alpha=0.2)
        alloc, new = radp_vpc_step(state, real)
        assert alloc.selected[0]
        assert new.credits[0] == 0.0

    def test_alpha_zero_degenerates_to_greedy(self):
        from sensecourt.solver import SolveOptions

        rng = np.random.default_rng(0)
        for _ in range(15):
            inst = random_instance(rng)
            real = inst.realization
            state = VpcState.initial(real.n_users, alpha=0.0)
            for _ in range(3):
                alloc, state = radp_vpc_step(
                    state, real, options=SolveOptions(mode="greedy")
                )
                assert np.all(state.credits == 0.0)
                expected = greedy_baseline_step(real)
                assert alloc.selected.tolist() == expected.selected.tolist()

    def test_ineligible_credits_frozen(self):
        real = make_realization(4, [{0}, {1}], costs=[0.1, 0.1])
        state = VpcState(np.array([0.7, 0.2]), alpha=0.5)
        eligible = np.array([False, True])
        alloc, new = radp_vpc_step(state, real, eligible)
        assert not alloc.selected[0]
        assert new.credits[0] == 0.7

    def test_credit_bounded_by_losing_streak(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n_max=5)
        real = inst.realization
        n = real.n_users
        alpha = 0.3
        state = VpcState.initial(n, alpha)
        streak = np.zeros(n)
        for _ in range(50):
            alloc, state = radp_vpc_step(state, real)
            streak = np.where(alloc.selected, 0, streak + 1)
            assert np.all(state.credits <= alpha * streak + 1e-12)
            assert np.all(state.credits[alloc.selected] == 0.0)


class TestGreedyBaseline:
    def test_single_profitable_user(self):
        real = make_realization(4, [{0, 1}], costs=[0.5])
        assert greedy_baseline_step(real).selected[0]

    def test_identical_to_unregulated_solve_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = random_instance(rng)
            real = inst.realization
            expected = solve_greedy(RegulatedInstance.of(real, real.true_costs))
            got = greedy_baseline_step(real)
            assert got.selected.tolist() == expected.alloc.selected.tolist()

    def test_never_selects_double_negative_user(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            inst = random_instance(rng)
            real = inst.realization
            alloc = greedy_baseline_step(real)
            for u in range(real.n_users):
                singleton = (
                    real.weights.values[real.regions[u]].sum()
                    - real.true_costs[u]
                )
                if singleton < 0:
                    # negative standalone welfare implies negative marginal gain
                    assert not alloc.selected[u]


class TestRandomBaseline:
    def test_all_loss_making_disjoint_empty(self):
        real = make_realization(6, [{0, 1}, {2, 3}], costs=[5.0, 5.0])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            alloc = random_baseline_step(real, None, rng)
            assert alloc.indices().size == 0

    def test_fixed_seed_reproducible(self):
        rng_inst = np.random.default_rng(4)
        inst = random_instance(rng_inst)
        real = inst.realization
        a = random_baseline_step(real, None, np.random.default_rng(77))
        b = random_baseline_step(real, None, np.random.default_rng(77))
        assert a.selected.tolist() == b.selected.tolist()
        # kept as built, without a checked copy: still a read-only bool array of n
        assert a.selected.dtype == bool and a.selected.shape == (real.n_users,)
        assert not a.selected.flags.writeable

    def test_nonnegative_welfare_and_dominated_by_greedy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_instance(rng, n_max=5)
            real = inst.realization
            greedy_w = evaluate_allocation(real, greedy_baseline_step(real)).welfare
            total = 0.0
            runs = 200
            for seed in range(runs):
                alloc = random_baseline_step(real, None, np.random.default_rng(seed))
                w = evaluate_allocation(real, alloc).welfare
                assert w >= -1e-9
                total += w
            assert total / runs <= greedy_w + 1e-6
