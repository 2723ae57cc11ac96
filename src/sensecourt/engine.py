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
from the selection and leaves ineligible users' values unchanged. Each slot
allocates, records and updates every policy. Every lane but random, which
draws an order, gets its row from one `solver.allocate_many` per eligible
set and solver route (`SolveOptions.route`): greedy is the greedy route at
bonus 0, and the auction takes the exact route, whose objective rows also
give it its pivots. Each distinct selection is evaluated once per slot.

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
from .policy_dual import StepSchedule
from .scenarios import (
    RANDOM_POLICY_STREAM,
    ScenarioConfig,
    realization_stream,
)
from .solver import SolveOptions, allocate_many
from .world import Allocation, SlotRealization, WelfareBreakdown, evaluate_allocation
from .world import thresholds_array

__all__ = [
    "POLICY_KINDS",
    "PolicySpec",
    "TraceMetrics",
    "apply_dropping",
    "check_exact_solves",
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
        _regulator(self, np.zeros(0))  # the kind's state refuses the phi or alpha it reads

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


def _lane_options(kind: str, solver: SolveOptions) -> SolveOptions:
    """How a lane of this kind solves: greedy greedily (at bonus 0), an auction
    exactly within the run's exact_limit, the others as the run says."""
    if kind == "greedy":
        return SolveOptions("greedy")
    return SolveOptions("exact", solver.exact_limit) if kind == "auction" else solver


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
        self.options = _lane_options(spec.kind, options)
        # each random policy draws from its own generator, as it would alone
        self.rng = np.random.default_rng([seed, RANDOM_POLICY_STREAM])
        self.state, self.advance = _regulator(spec, thresholds)
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

    @property
    def bonus(self):
        """The amount taken off each user's cost: 0.0 for greedy and random."""
        return 0.0 if self.state is None else self.state.bonus

    def allocate(self, realization: SlotRealization, t: int, warmup: int, solved) -> Allocation:
        """Allocation of 1-based slot t: everyone eligible during the warmup, then a
        random order, or the lane's solved (allocation, objective row, value) of its
        group's allocate_many, on which an auction pays its winners."""
        if t <= warmup:
            return Allocation(self.eligible)
        if self.spec.kind == "random":
            return _baselines.random_baseline_step(realization, self.eligible, self.rng)
        if self.spec.kind == "auction":
            bids = _auction.BidVector(realization.true_costs)
            self.payments[t - 1] = _auction.run_auction_slot(
                self.state, realization, bids, self.eligible, self.options.exact_limit, solved
            ).payments
        return solved[0]

    def record(self, k: int, alloc: Allocation, welfare: float) -> None:
        """Write slot index k's row, at the eligibility the slot began with."""
        eligible = self.eligible
        self.regulation[k] = np.where(eligible, self.bonus, 0.0)
        self.active[k] = eligible
        self.welfare[k] = welfare
        self.selected[k] = alloc.selected
        self.seen += eligible
        self.selections += alloc.selected
        np.divide(self.selections, self.seen, out=self.alloc_prob[k])

    def update(self, alloc: Allocation, t: int, drop: bool) -> None:
        """Advance the state past 1-based slot t, then drop users if asked."""
        if self.advance is not None:
            self.state = self.advance(self.state, alloc, self.thresholds, self.eligible)
        if drop:
            dropped = apply_dropping(self.eligible, self.alloc_prob[t - 1], self.thresholds)
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


def _solve_lanes(lanes: list[_Lane], realization: SlotRealization, memo: dict) -> dict:
    """(allocation, objective row, value) of every lane but random: one allocate_many
    per eligible set and route. The row is None off the exact route."""
    groups: dict[tuple[bytes, str], list[_Lane]] = {}
    for lane in lanes:
        if lane.spec.kind != "random":
            key = lane.eligible.tobytes(), lane.options.route(int(lane.eligible.sum()))
            groups.setdefault(key, []).append(lane)
    solved = {}
    for group in groups.values():
        charges = np.stack([realization.true_costs - lane.bonus for lane in group])
        eligible, options = group[0].eligible, group[0].options
        results, objective = allocate_many(realization, charges, eligible, options)
        for i, (lane, result) in enumerate(zip(group, results)):
            row = None if objective is None else objective[i]
            solved[lane] = result.alloc, row, _evaluate(realization, result.alloc, memo).value
    return solved


def _evaluate(realization: SlotRealization, alloc: Allocation, memo: dict) -> WelfareBreakdown:
    """evaluate_allocation on one slot, made once per distinct selection; memo is the slot's."""
    key = alloc.selected.tobytes()
    if key not in memo:
        memo[key] = evaluate_allocation(realization, alloc)
    return memo[key]


def check_exact_solves(
    specs: Sequence[PolicySpec],
    n_users: int,
    solver: SolveOptions,
    t_slots: int,
    warmup_slots: int,
) -> None:
    """Refuse a run whose exact solves cannot all fit: an auction past
    exact_limit (ExactPivotsRequiredError), then any lane whose route is
    exact past it (SolverCapacityError, from SolveOptions.route).

    No user drops before the warmup ends, so the first slot after it has all
    n_users eligible and no later slot has more.
    """
    if t_slots <= warmup_slots:
        return
    if any(spec.kind == "auction" for spec in specs):
        _auction.require_exact_pivots(n_users, solver.exact_limit)
    for spec in specs:
        if spec.kind != "random":
            _lane_options(spec.kind, solver).route(n_users)


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
    A warmup longer than the run, thresholds outside [0, 1] (NaN too), and
    an exact solve (an auction, or exact mode) over more users than
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
    thresholds = thresholds_array(thresholds)
    n = thresholds.size
    check_exact_solves(specs, n, solver, t_slots, warmup_slots)
    lanes = [_Lane(spec, thresholds, solver, seed, t_slots) for spec in specs]

    t = 0
    for realization in realizations:
        if realization.n_users != n:
            raise ValueError("realization user count does not match thresholds")
        if t == t_slots:
            raise ValueError(f"realizations yielded more than t_slots={t_slots} slots")
        t += 1
        post, memo = t > warmup_slots, {}
        solved = _solve_lanes(lanes, realization, memo) if post else {}
        for lane in lanes:
            alloc = lane.allocate(realization, t, warmup_slots, solved.get(lane))
            lane.record(t - 1, alloc, _evaluate(realization, alloc, memo).welfare)
            lane.update(alloc, t, dropping and post)
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
    return run_policy(
        realization_stream(config, t_slots),
        policy,
        np.broadcast_to(np.asarray(thresholds, dtype=float), (config.n_users,)),
        warmup_slots,
        solver=solver,
        replication=replication,
        seed=config.seed,
        t_slots=t_slots,
    )


def compute_summary(metrics: TraceMetrics) -> dict:
    """Headline numbers of one run.

    avg_welfare averages the post-warmup slots (all slots when the whole run
    is warmup).
    """
    t, w = metrics.t_slots, metrics.warmup_slots
    post = metrics.welfare_series[w:] if t > w else metrics.welfare_series
    n = metrics.thresholds.size
    return {
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
