"""Simulation driver: warmup, policy stepping, dropping model, metrics.

One pass over a realization stream steps every configured policy in
lockstep: each slot is taken from the stream once and handed to every
policy before the next slot is drawn, so all policies of a replication see
the same slots (common random numbers) and only one slot is in memory at a
time. A single-policy run is the same pass with one policy. The CLI runs
one such pass per replication, and one replication is its parallel unit.

The four regulated policies (dual, lyapunov, auction, radp_vpc) share one
contract: each user is charged its true cost minus the state's `bonus`, and
the policy's update(state, alloc, thresholds, eligible) advances the state
from the selection and leaves ineligible users' values unchanged. Dual,
lyapunov and radp_vpc allocate through `solver.regulated_allocate` on that
bonus, and greedy is the same allocation with bonus 0 in greedy mode; only
the allocation branches by kind, since the auction prices and random draws
an order.

Each policy keeps its state and per-user selection and seen counts. Every
user is force-selected during the warmup slots (regulation states still
update as if selected); afterwards the policy allocates among active users
only, and any active user whose running selection frequency falls strictly
below its threshold drops permanently. Dropped users keep their regulation
frozen and leave the eligibility set for good.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import auction as _auction
from . import baselines as _baselines
from . import policy_dual as _dual
from . import policy_lyapunov as _lyap
from .benchmark import BenchmarkResult, incentive_cost
from .policy_dual import StepSchedule
from .scenarios import (
    RANDOM_POLICY_STREAM,
    ScenarioConfig,
    realization_stream,
)
from .solver import SolveOptions, regulated_allocate
from .world import Allocation, SlotRealization, evaluate_allocation

__all__ = [
    "POLICY_KINDS",
    "PolicySpec",
    "TraceMetrics",
    "apply_dropping",
    "check_exact_pivots",
    "compute_summary",
    "run_policy",
    "run_simulation",
]

POLICY_KINDS = ("dual", "lyapunov", "auction", "radp_vpc", "greedy", "random")


@dataclass(frozen=True)
class PolicySpec:
    """A policy choice plus its parameters.

    phi applies to lyapunov and auction, alpha to radp_vpc, schedule to dual.
    """

    kind: str
    phi: float = 10.0
    alpha: float = 1.0
    schedule: StepSchedule = StepSchedule()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind in ("lyapunov", "auction"):
            return f"{self.kind}_phi{self.phi:g}"
        if self.kind == "radp_vpc":
            return f"radp_vpc_alpha{self.alpha:g}"
        if self.kind == "dual":
            return f"dual_{self.schedule.kind}{self.schedule.coeff:g}"
        return self.kind


@dataclass
class TraceMetrics:
    """Per-slot and cumulative statistics of one run."""

    policy_label: str
    replication: int
    seed: int
    t_slots: int
    warmup_slots: int
    thresholds: np.ndarray
    welfare_series: np.ndarray
    running_avg_welfare: np.ndarray
    alloc_prob_series: np.ndarray  # (T, N) running selection frequency
    selected: np.ndarray  # (T, N) bool
    active: np.ndarray  # (T, N) bool, eligibility at allocation time
    regulation: np.ndarray  # (T, N) bonus applied to each user's cost
    payments_series: np.ndarray | None  # (T, N), auction runs only
    drop_events: tuple[tuple[int, int], ...]  # (user, slot)
    final_policy_state: object
    summary: dict = field(default_factory=dict)


def apply_dropping(
    active: np.ndarray, alloc_prob: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Drop every active user whose frequency is strictly below its threshold.

    Clears the dropped users in `active` in place and returns their indices.
    Drops are permanent: an inactive user is never dropped again.
    """
    dropped = np.flatnonzero(active & (alloc_prob < thresholds))
    active[dropped] = False
    return dropped


def _regulator(spec: PolicySpec, thresholds: np.ndarray):
    """A policy's initial state and its update(state, alloc, thresholds,
    eligible), or (None, None) for greedy and random, which carry no state."""
    n = thresholds.size
    if spec.kind == "dual":
        return _dual.DualState.initial(n, spec.schedule), _dual.dual_update
    if spec.kind == "lyapunov":
        return _lyap.QueueState.initial(n, spec.phi), _lyap.queue_update
    if spec.kind == "auction":
        return _auction.RegulationState.initial(thresholds, spec.phi), _auction.regulation_update
    if spec.kind == "radp_vpc":
        return _baselines.VpcState.initial(n, spec.alpha), _baselines.vpc_update
    return None, None


class _Lane:
    """One policy inside a lockstep pass: its state, counts and (T, N) rows."""

    def __init__(
        self,
        spec: PolicySpec,
        thresholds: np.ndarray,
        options: SolveOptions,
        seed: int,
        t_slots: int,
    ):
        n = thresholds.size
        self.spec = spec
        self.thresholds = thresholds
        self.options = options
        # each random policy draws from its own generator, as it would alone
        self.rng = np.random.default_rng([seed, RANDOM_POLICY_STREAM])
        self.state, self.update = _regulator(spec, thresholds)
        self.eligible = np.ones(n, dtype=bool)
        self.selections = np.zeros(n, dtype=np.int64)
        self.seen = np.zeros(n, dtype=np.int64)
        self.drop_events: list[tuple[int, int]] = []
        self.welfare = np.empty(t_slots)
        self.alloc_prob = np.empty((t_slots, n))
        self.selected = np.empty((t_slots, n), dtype=bool)
        self.active = np.empty((t_slots, n), dtype=bool)
        self.regulation = np.empty((t_slots, n))
        # warmup slots pay nothing
        self.payments = np.zeros((t_slots, n)) if spec.kind == "auction" else None

    def step(
        self, realization: SlotRealization, t: int, warmup_slots: int, dropping: bool
    ) -> None:
        """Allocate, record and update for 1-based slot t."""
        k = t - 1
        eligible = self.eligible
        bonus = 0.0 if self.state is None else self.state.bonus
        self.regulation[k] = np.where(eligible, bonus, 0.0)
        self.active[k] = eligible

        if t <= warmup_slots:
            alloc = Allocation(eligible)
        elif self.spec.kind == "auction":
            bids = _auction.BidVector(realization.true_costs)
            outcome = _auction.run_auction_slot(
                self.state, realization, bids, eligible, self.options.exact_limit
            )
            alloc = outcome.alloc
            self.payments[k] = outcome.payments
        elif self.spec.kind == "random":
            alloc = _baselines.random_baseline_step(realization, eligible, self.rng)
        elif self.spec.kind == "greedy":
            alloc = _baselines.greedy_baseline_step(realization, eligible)
        else:
            alloc = regulated_allocate(self.state, realization, eligible, self.options)

        self.welfare[k] = evaluate_allocation(realization, alloc).welfare
        self.selected[k] = alloc.selected
        self.seen += eligible
        self.selections += alloc.selected
        np.divide(self.selections, self.seen, out=self.alloc_prob[k])

        if self.update is not None:
            self.state = self.update(self.state, alloc, self.thresholds, eligible)

        if dropping and t > warmup_slots:
            dropped = apply_dropping(eligible, self.alloc_prob[k], self.thresholds)
            self.drop_events.extend((u, t) for u in dropped.tolist())

    def metrics(
        self, t: int, warmup_slots: int, replication: int, seed: int
    ) -> TraceMetrics:
        welfare = self.welfare[:t]
        metrics = TraceMetrics(
            policy_label=self.spec.label,
            replication=replication,
            seed=seed,
            t_slots=t,
            warmup_slots=warmup_slots,
            thresholds=self.thresholds,
            welfare_series=welfare,
            running_avg_welfare=np.cumsum(welfare) / np.arange(1, t + 1),
            alloc_prob_series=self.alloc_prob[:t],
            selected=self.selected[:t],
            active=self.active[:t],
            regulation=self.regulation[:t],
            payments_series=None if self.payments is None else self.payments[:t],
            drop_events=tuple(self.drop_events),
            final_policy_state=self.state,
        )
        metrics.summary = compute_summary(metrics)
        return metrics


def check_exact_pivots(
    specs: Sequence[PolicySpec],
    n_users: int,
    solver: SolveOptions,
    t_slots: int,
    warmup_slots: int,
) -> None:
    """Refuse an auction whose pivots cannot all be solved exactly.

    No user drops before the warmup ends, so the first auction slot after
    it has all n_users eligible.
    """
    if t_slots > warmup_slots and any(spec.kind == "auction" for spec in specs):
        _auction.require_exact_pivots(n_users, solver.exact_limit)


def run_policy(
    realizations: Iterable[SlotRealization],
    policy: PolicySpec | Sequence[PolicySpec],
    thresholds: np.ndarray,
    warmup_slots: int,
    solver: SolveOptions = SolveOptions(mode="greedy"),
    replication: int = 0,
    seed: int = 0,
    dropping: bool = True,
    t_slots: int | None = None,
) -> TraceMetrics | list[TraceMetrics]:
    """Run one policy, or several in lockstep, over a realization sequence.

    Each slot is drawn once and stepped through every policy in order. Given
    one PolicySpec this returns its TraceMetrics; given a sequence it returns
    one TraceMetrics per entry, each equal to what that policy gives alone.
    seed is the scenario seed recorded in the metrics; every random policy
    draws from its own generator keyed by (seed, RANDOM_POLICY_STREAM).

    t_slots is the number of slots the sequence yields; it defaults to its
    len(), and an iterable without one is refused unless t_slots is given.
    A warmup longer than the run, and an auction over more users than
    solver.exact_limit that runs past the warmup, are rejected before the
    first slot is drawn; a sequence that yields a different number of slots
    is an error.

    dropping=False keeps every user active regardless of frequency, which
    is the setting policy-level stability statements are about.
    """
    single = isinstance(policy, PolicySpec)
    specs = (policy,) if single else tuple(policy)
    if not specs:
        raise ValueError("run_policy needs at least one policy")
    if warmup_slots < 0:
        raise ValueError("warmup_slots must be non-negative")
    if t_slots is None:
        if not isinstance(realizations, Sized):
            raise ValueError("run_policy needs t_slots for realizations without a len()")
        t_slots = len(realizations)
    if t_slots < 1:
        raise ValueError("simulation needs at least one slot")
    if warmup_slots > t_slots:
        raise ValueError("warmup_slots cannot exceed the number of slots")
    thresholds = np.asarray(thresholds, dtype=float)
    n = thresholds.size
    check_exact_pivots(specs, n, solver, t_slots, warmup_slots)
    lanes = [_Lane(spec, thresholds, solver, seed, t_slots) for spec in specs]

    t = 0
    for realization in realizations:
        if realization.n_users != n:
            raise ValueError("realization user count does not match thresholds")
        if t == t_slots:
            raise ValueError(f"realizations yielded more than t_slots={t_slots} slots")
        t += 1
        for lane in lanes:
            lane.step(realization, t, warmup_slots, dropping)
    if t < t_slots:
        raise ValueError(f"realizations ended after {t} of t_slots={t_slots} slots")

    results = [lane.metrics(t, warmup_slots, replication, seed) for lane in lanes]
    return results[0] if single else results


def run_simulation(
    config: ScenarioConfig,
    policy: PolicySpec | Sequence[PolicySpec],
    t_slots: int,
    warmup_slots: int,
    thresholds,
    solver: SolveOptions = SolveOptions(mode="greedy"),
    replication: int = 0,
) -> TraceMetrics | list[TraceMetrics]:
    """Generate the scenario stream once and run the policy or policies over it.

    Returns what run_policy returns for the same policy argument.
    """
    thresholds = np.broadcast_to(
        np.asarray(thresholds, dtype=float), (config.n_users,)
    ).copy()
    return run_policy(
        realization_stream(config, t_slots),
        policy,
        thresholds,
        warmup_slots,
        solver=solver,
        replication=replication,
        seed=config.seed,
        t_slots=t_slots,
    )


def compute_summary(
    metrics: TraceMetrics,
    benchmarks: tuple[BenchmarkResult, BenchmarkResult] | None = None,
) -> dict:
    """Headline numbers of one run; incentive cost when benchmarks are given.

    avg_welfare averages the post-warmup slots (all slots when the whole run
    is warmup). benchmarks is (unconstrained, constrained).
    """
    t, w = metrics.t_slots, metrics.warmup_slots
    post = metrics.welfare_series[w:] if t > w else metrics.welfare_series
    n = metrics.thresholds.size
    summary = {
        "policy": metrics.policy_label,
        "replication": metrics.replication,
        "seed": metrics.seed,
        "t_slots": t,
        "warmup_slots": w,
        "n_users": n,
        "avg_welfare": float(post.mean()),
        "dropping_fraction": len(metrics.drop_events) / n,
        "min_alloc_prob": float(metrics.alloc_prob_series[-1].min()),
    }
    if benchmarks is not None:
        unconstrained, constrained = benchmarks
        summary["incentive_cost"] = incentive_cost(unconstrained, constrained)
    return summary
