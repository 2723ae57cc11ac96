import re
import warnings

import numpy as np
import pytest

from sensecourt.auction import ExactPivotsRequiredError
from sensecourt.engine import (
    PolicySpec,
    apply_dropping,
    compute_summary,
    run_policy,
    run_simulation,
)
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import SolveOptions, SolverCapacityError
from sensecourt.world import GridMap


def desk_config(**overrides):
    base = dict(
        map=GridMap(8, 8, 200.0),
        n_users=6,
        radius_min_m=300.0,
        radius_max_m=600.0,
        cost_to_weight_ratio=0.4,
        seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def drop(active, selections, seen, threshold):
    return apply_dropping(
        active, np.array([selections / seen]), np.array([threshold])
    ).tolist()


class TestApplyDropping:
    def test_strictly_below_threshold_drops(self):
        active = np.array([True])
        assert drop(active, 49, 100, 0.5) == [0]
        assert not active[0]

    def test_boundary_survives(self):
        active = np.array([True])
        assert drop(active, 50, 100, 0.5) == []
        assert active[0]

    def test_zero_threshold_never_drops(self):
        assert drop(np.array([True]), 0, 500, 0.0) == []

    def test_drop_is_permanent(self):
        active = np.array([True])
        drop(active, 0, 10, 0.5)
        # even if the ratio later recovers
        assert drop(active, 10, 11, 0.5) == []
        assert not active[0]

    def test_only_users_below_their_own_threshold_drop(self):
        active = np.array([True, True, False, True])
        dropped = apply_dropping(
            active, np.array([0.2, 0.6, 0.1, 0.39]), np.array([0.3, 0.5, 0.5, 0.4])
        )
        assert dropped.tolist() == [0, 3]
        assert active.tolist() == [False, True, False, False]


class TestRunSimulation:
    def test_all_warmup_full_probability(self):
        cfg = desk_config()
        metrics = run_simulation(
            cfg, PolicySpec("greedy"), t_slots=30, warmup_slots=30, thresholds=0.5
        )
        assert metrics.drop_events == ()
        assert np.all(metrics.alloc_prob_series[-1] == 1.0)

    def test_same_seed_identical_metrics(self):
        cfg = desk_config()
        a = run_simulation(cfg, PolicySpec("lyapunov", phi=5), 60, 10, 0.5)
        b = run_simulation(cfg, PolicySpec("lyapunov", phi=5), 60, 10, 0.5)
        assert np.array_equal(a.welfare_series, b.welfare_series)
        assert np.array_equal(a.selected, b.selected)
        assert a.drop_events == b.drop_events

    def test_random_policy_deterministic_given_seed(self):
        cfg = desk_config()
        a = run_simulation(cfg, PolicySpec("random"), 40, 5, 0.5)
        b = run_simulation(cfg, PolicySpec("random"), 40, 5, 0.5)
        assert np.array_equal(a.selected, b.selected)

    def test_no_inactive_user_ever_selected(self):
        cfg = desk_config(cost_to_weight_ratio=1.2)  # heavy dropping pressure
        metrics = run_simulation(cfg, PolicySpec("greedy"), 200, 10, 0.5)
        assert len(metrics.drop_events) > 0
        for u, slot in metrics.drop_events:
            assert not metrics.selected[slot:, u].any()
            assert not metrics.active[slot:, u].any()

    @pytest.mark.parametrize("ratio", [0.4, 1.2])
    def test_ledger_conservation(self, ratio):
        cfg = desk_config(cost_to_weight_ratio=ratio)
        metrics = run_simulation(cfg, PolicySpec("greedy"), 100, 10, 0.5)
        dropped_at = dict(metrics.drop_events)
        for u in range(cfg.n_users):
            seen = dropped_at.get(u, metrics.t_slots)
            assert metrics.active[:seen, u].all() and not metrics.active[seen:, u].any()
            # frequencies are Python's int / int of the counts, bit for bit
            for k in range(metrics.t_slots):
                n_seen = min(k + 1, seen)
                n_sel = int(metrics.selected[:n_seen, u].sum())
                assert metrics.alloc_prob_series[k, u] == n_sel / n_seen

    def test_warmup_counts_toward_probability(self):
        cfg = desk_config(cost_to_weight_ratio=1.2)
        metrics = run_simulation(cfg, PolicySpec("greedy"), 120, 40, 0.5)
        # nobody can drop before slot warmup+1, and with a full warmup the
        # earliest possible drop given frozen selections is slot 81
        first_drop = min(slot for _, slot in metrics.drop_events)
        assert first_drop > 80

    def test_auction_records_payments(self):
        cfg = desk_config(n_users=4)
        metrics = run_simulation(
            cfg,
            PolicySpec("auction", phi=10),
            30,
            5,
            0.5,
            solver=SolveOptions(mode="exact"),
        )
        assert metrics.payments_series is not None
        assert metrics.payments_series.shape == (30, 4)
        # warmup slots are forced selections, no auction payments
        assert np.all(metrics.payments_series[:5] == 0.0)

    def test_validates_slot_counts(self):
        cfg = desk_config()
        with pytest.raises(ValueError):
            run_simulation(cfg, PolicySpec("greedy"), 0, 0, 0.5)
        with pytest.raises(ValueError):
            run_simulation(cfg, PolicySpec("greedy"), 5, 9, 0.5)
        with pytest.raises(ValueError, match="warmup_slots"):
            run_simulation(cfg, PolicySpec("greedy"), 5, -1, 0.5)

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("simulated_annealing")

    @pytest.mark.parametrize(
        "kind, unread",
        [("lyapunov", {"alpha": -5.0}), ("auction", {"alpha": 2.0}),
         ("radp_vpc", {"phi": 20.0}), ("dual", {"phi": 20.0}), ("greedy", {"phi": 3.0}),
         ("random", {"schedule": StepSchedule.constant(0.5)})],
    )
    def test_parameter_the_kind_does_not_read_refused(self, kind, unread):
        with pytest.raises(ValueError, match=f"policy {kind} does not read {next(iter(unread))}"):
            PolicySpec(kind, **unread)

    def test_unread_parameters_at_their_defaults_accepted(self):
        spec = PolicySpec("greedy", phi=10.0, alpha=1.0, schedule=StepSchedule())
        assert spec == PolicySpec("greedy") and spec.label == "greedy"


def assert_same_run(a, b):
    for name in (
        "thresholds",
        "welfare_series",
        "running_avg_welfare",
        "alloc_prob_series",
        "selected",
        "active",
        "regulation",
    ):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    if a.payments_series is None:
        assert b.payments_series is None
    else:
        assert a.payments_series.tobytes() == b.payments_series.tobytes()
    assert a.summary == b.summary
    assert a.drop_events == b.drop_events


class TestLockstep:
    def test_each_policy_equals_its_solo_run(self):
        cfg = desk_config(cost_to_weight_ratio=1.2)
        specs = [PolicySpec("random"), PolicySpec("lyapunov", phi=5), PolicySpec("random")]
        together = run_simulation(cfg, specs, 120, 10, 0.5)
        assert [m.policy_label for m in together] == ["random", "lyapunov_phi5", "random"]
        for spec, metrics in zip(specs, together):
            assert_same_run(metrics, run_simulation(cfg, spec, 120, 10, 0.5))
        # each random entry has its own generator, so the two agree
        assert_same_run(together[0], together[2])
        assert len(together[0].drop_events) > 0

    def test_auction_lane_keeps_its_payments(self):
        cfg = desk_config(n_users=4)
        specs = [PolicySpec("greedy"), PolicySpec("auction", phi=10)]
        solver = SolveOptions(mode="exact")
        greedy, auct = run_simulation(cfg, specs, 30, 5, 0.5, solver=solver)
        assert greedy.payments_series is None
        assert_same_run(
            auct, run_simulation(cfg, specs[1], 30, 5, 0.5, solver=solver)
        )

    def test_stream_of_unknown_length_matches_list(self):
        cfg = desk_config()
        slots = list(realization_stream(cfg, 300))
        thresholds = np.full(cfg.n_users, 0.5)
        spec = PolicySpec("radp_vpc", alpha=0.5)
        from_list = run_policy(slots, spec, thresholds, 10)
        from_gen = run_policy((s for s in slots), spec, thresholds, 10, t_slots=300)
        assert from_gen.t_slots == 300
        assert_same_run(from_list, from_gen)

    def test_rejects_empty_policy_list(self):
        with pytest.raises(ValueError, match="at least one policy"):
            run_simulation(desk_config(), [], 10, 0, 0.5)


# 2 n (T + 1) max D / float max at 5 users, 25 slots and thresholds 0.5
SMALLEST_PHI = 2 * 5 * 26 * 0.5 / np.finfo(float).max
# the largest radp_vpc alpha whose credits cannot overflow: 25 slots of 5 users
LARGEST_ALPHA = np.finfo(float).max / (2 * 5 * 25)


def counting_stream(cfg, t_slots, calls):
    for realization in realization_stream(cfg, t_slots):
        calls.append(1)
        yield realization


class TestFailBeforeWork:
    def test_known_horizon_rejects_warmup_before_first_slot(self):
        cfg = desk_config()
        calls = []
        with pytest.raises(ValueError, match="warmup_slots"):
            run_policy(
                counting_stream(cfg, 5, calls), PolicySpec("greedy"),
                np.full(cfg.n_users, 0.5), warmup_slots=9, t_slots=5,
            )
        assert calls == []

    def test_sized_input_rejects_warmup_before_first_slot(self):
        cfg = desk_config()
        slots = list(realization_stream(cfg, 5))
        with pytest.raises(ValueError, match="warmup_slots"):
            run_policy(slots, PolicySpec("greedy"), np.full(cfg.n_users, 0.5), 9)

    def test_unknown_horizon_refused_before_first_slot(self):
        cfg = desk_config()
        calls = []
        with pytest.raises(ValueError, match="needs t_slots"):
            run_policy(
                counting_stream(cfg, 5, calls), PolicySpec("greedy"),
                np.full(cfg.n_users, 0.5), warmup_slots=0,
            )
        assert calls == []

    def test_auction_beyond_exact_limit_refused_before_first_slot(self):
        cfg = desk_config(n_users=5)
        calls = []
        specs = [PolicySpec("greedy"), PolicySpec("auction", phi=10)]
        with pytest.raises(ExactPivotsRequiredError, match="5 eligible users exceed 4"):
            run_policy(
                counting_stream(cfg, 5, calls), specs, np.full(5, 0.5),
                warmup_slots=4, solver=SolveOptions(exact_limit=4), t_slots=5,
            )
        assert calls == []

    def test_auction_beyond_exact_limit_runs_when_every_slot_is_warmup(self):
        cfg = desk_config(n_users=5)
        slots = list(realization_stream(cfg, 5))
        metrics = run_policy(
            slots, PolicySpec("auction", phi=10), np.full(5, 0.5),
            warmup_slots=5, solver=SolveOptions(exact_limit=4),
        )
        assert metrics.t_slots == 5

    @pytest.mark.parametrize("kind", ["radp_vpc", "lyapunov", "dual"])
    def test_exact_mode_beyond_exact_limit_refused_before_first_slot(self, kind):
        cfg = desk_config(n_users=5)
        calls = []
        specs = [PolicySpec("greedy"), PolicySpec(kind)]
        with pytest.raises(SolverCapacityError, match="5 eligible users exceed exact_limit=4"):
            run_policy(
                counting_stream(cfg, 5, calls), specs, np.full(5, 0.5),
                warmup_slots=4, solver=SolveOptions("exact", exact_limit=4), t_slots=5,
            )
        assert calls == []

    def test_exact_mode_beyond_exact_limit_runs_without_exact_lanes(self):
        # greedy keeps the greedy route, random solves nothing, auto goes to bnb
        cfg = desk_config(n_users=5)
        slots = list(realization_stream(cfg, 5))
        specs = [PolicySpec("greedy"), PolicySpec("random")]
        metrics = run_policy(
            slots, specs, np.full(5, 0.5), warmup_slots=1,
            solver=SolveOptions("exact", exact_limit=4),
        )
        assert [m.t_slots for m in metrics] == [5, 5]
        metrics = run_policy(
            slots, PolicySpec("dual"), np.full(5, 0.5), warmup_slots=1,
            solver=SolveOptions("auto", exact_limit=4),
        )
        assert metrics.t_slots == 5

    def test_exact_mode_beyond_exact_limit_runs_when_every_slot_is_warmup(self):
        cfg = desk_config(n_users=5)
        slots = list(realization_stream(cfg, 5))
        metrics = run_policy(
            slots, PolicySpec("dual"), np.full(5, 0.5),
            warmup_slots=5, solver=SolveOptions("exact", exact_limit=4),
        )
        assert metrics.t_slots == 5

    @pytest.mark.parametrize("kind", ["greedy", "random", "radp_vpc", "lyapunov", "dual"])
    @pytest.mark.parametrize("bad", [np.nan, -0.2, 1.5])
    def test_out_of_range_threshold_refused_before_first_slot(self, kind, bad):
        cfg = desk_config()
        calls = []
        thresholds = np.full(cfg.n_users, 0.5)
        thresholds[2] = bad
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            run_policy(
                counting_stream(cfg, 5, calls), PolicySpec(kind), thresholds,
                warmup_slots=0, t_slots=5,
            )
        assert calls == []

    @pytest.mark.parametrize("phi", [1e-308, np.nextafter(SMALLEST_PHI, 0.0)])
    @pytest.mark.parametrize("kind", ["auction", "lyapunov"])
    def test_phi_whose_bonuses_can_overflow_refused_before_first_slot(self, kind, phi):
        # 1e-308 used to let this run write non-finite auction payments and
        # overflow in the lyapunov lane
        cfg = desk_config(n_users=5, seed=0)
        calls = []
        with pytest.raises(ValueError, match=f"policy {kind}: phi = {phi:g} lets its bonuses"):
            run_policy(
                counting_stream(cfg, 25, calls), [PolicySpec("greedy"), PolicySpec(kind, phi=phi)],
                np.full(5, 0.5), warmup_slots=0, solver=SolveOptions("exact"), t_slots=25,
            )
        assert calls == []

    @pytest.mark.parametrize("mode", ["exact", "greedy", "bnb"])
    @pytest.mark.parametrize("seed", range(6))
    def test_smallest_accepted_phi_runs_without_overflow(self, seed, mode):
        cfg = desk_config(n_users=5, seed=seed)
        specs = [PolicySpec("auction", phi=SMALLEST_PHI), PolicySpec("lyapunov", phi=SMALLEST_PHI)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            auction, lyapunov = run_simulation(cfg, specs, 25, 0, 0.5, SolveOptions(mode))
        assert np.isfinite(auction.payments_series).all()
        assert np.isfinite(auction.regulation).all() and np.isfinite(lyapunov.regulation).all()

    @pytest.mark.parametrize("alpha", [1e308, np.nextafter(LARGEST_ALPHA, np.inf)])
    def test_alpha_whose_credits_can_overflow_refused_before_first_slot(self, alpha):
        # 1e308 used to overflow in both the exact and the greedy route
        cfg = desk_config(n_users=5, seed=0)
        calls = []
        match = re.escape(
            f"policy radp_vpc: alpha = {alpha:g} lets its credits overflow over 25 slots; "
            f"alpha must be at most {LARGEST_ALPHA:.17g}"
        )
        with pytest.raises(ValueError, match=match):
            run_policy(
                counting_stream(cfg, 25, calls),
                [PolicySpec("greedy"), PolicySpec("radp_vpc", alpha=alpha)],
                np.full(5, 0.5), warmup_slots=0, solver=SolveOptions("exact"), t_slots=25,
            )
        assert calls == []

    @pytest.mark.parametrize("mode", ["exact", "greedy", "bnb"])
    @pytest.mark.parametrize("seed", range(6))
    def test_largest_accepted_alpha_runs_without_overflow(self, seed, mode):
        cfg = desk_config(n_users=5, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vpc = run_simulation(
                cfg, PolicySpec("radp_vpc", alpha=LARGEST_ALPHA), 25, 0, 0.5, SolveOptions(mode)
            )
        assert np.isfinite(vpc.regulation).all() and np.isfinite(vpc.welfare_series).all()

    @pytest.mark.parametrize("actual", [4, 6])
    def test_stream_length_must_match_horizon(self, actual):
        cfg = desk_config()
        with pytest.raises(ValueError, match="t_slots=5"):
            run_policy(
                counting_stream(cfg, actual, []), PolicySpec("greedy"),
                np.full(cfg.n_users, 0.5), warmup_slots=0, t_slots=5,
            )


class TestPolicyEquivalences:
    def test_auction_truthful_matches_lyapunov_trace(self):
        cfg = desk_config(n_users=5)
        slots = list(realization_stream(cfg, 80))
        thresholds = np.full(5, 0.5)
        lyap = run_policy(
            slots, PolicySpec("lyapunov", phi=8), thresholds, 10,
            solver=SolveOptions(mode="exact"),
        )
        auct = run_policy(
            slots, PolicySpec("auction", phi=8), thresholds, 10,
            solver=SolveOptions(mode="exact"),
        )
        assert np.array_equal(lyap.selected, auct.selected)
        assert np.array_equal(lyap.welfare_series, auct.welfare_series)

    def test_dual_zero_thresholds_equals_greedyless_regulation(self):
        cfg = desk_config(n_users=5)
        slots = list(realization_stream(cfg, 40))
        thresholds = np.zeros(5)
        dual = run_policy(
            slots, PolicySpec("dual"), thresholds, 0,
            solver=SolveOptions(mode="exact"),
        )
        assert np.all(dual.regulation == 0.0)


# the regulated value each policy's state carries per user
REGULATED = {
    "dual": "multipliers",
    "lyapunov": "backlogs",
    "auction": "factors",
    "radp_vpc": "credits",
}


class TestFreeze:
    @pytest.mark.parametrize(
        "spec",
        [
            PolicySpec("dual"),
            PolicySpec("lyapunov", phi=5),
            PolicySpec("auction", phi=5),
            PolicySpec("radp_vpc", alpha=0.5),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_dropped_user_keeps_its_value_from_the_drop_slot(self, spec):
        cfg = desk_config(n_users=5, cost_to_weight_ratio=1.2)
        slots = list(realization_stream(cfg, 120))
        thresholds = np.full(5, 0.5)
        solver = SolveOptions(mode="exact")
        full = run_policy(slots, spec, thresholds, 10, solver=solver)
        assert len(full.drop_events) == 5
        final = getattr(full.final_policy_state, REGULATED[spec.kind])
        for user, slot in full.drop_events:
            cut = run_policy(slots[:slot], spec, thresholds, 10, solver=solver)
            at_drop = getattr(cut.final_policy_state, REGULATED[spec.kind])
            assert at_drop[user].tobytes() == final[user].tobytes()


class TestComputeSummary:
    def _metrics(self, welfare, warmup=0, drops=(), n=10):
        from sensecourt.engine import TraceMetrics

        t = len(welfare)
        welfare = np.asarray(welfare, dtype=float)
        return TraceMetrics(
            policy_label="greedy",
            replication=0,
            seed=0,
            t_slots=t,
            warmup_slots=warmup,
            thresholds=np.full(n, 0.5),
            welfare_series=welfare,
            running_avg_welfare=np.cumsum(welfare) / np.arange(1, t + 1),
            alloc_prob_series=np.ones((t, n)),
            selected=np.ones((t, n), dtype=bool),
            active=np.ones((t, n), dtype=bool),
            regulation=np.zeros((t, n)),
            payments_series=None,
            drop_events=tuple(drops),
            final_policy_state=None,
        )

    def test_constant_series(self):
        m = self._metrics([2.5] * 10)
        assert compute_summary(m)["avg_welfare"] == pytest.approx(2.5)

    def test_dropping_fraction(self):
        m = self._metrics([1.0] * 10, drops=[(0, 5), (3, 6), (7, 9)])
        assert compute_summary(m)["dropping_fraction"] == pytest.approx(0.3)
