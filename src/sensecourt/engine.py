"""Simulation driver: warmup, policy stepping, dropping model, metrics.

One pass over a realization stream steps every configured policy in
lockstep: each slot is taken from the stream once and handed to every
policy before the next slot is drawn, so all policies of a replication see
the same slots (common random numbers) and only one slot is in memory at a
time. A single-policy run is the same pass with one policy. The CLI runs
one such pass per replication, and one replication is its parallel unit.

Each slot's rows go to a `Recorder` once the slot is stepped, into a
buffer that it flushes when full. By default the buffer holds the whole
run, which run_policy returns as TraceMetrics. The CLI's recorder holds
one block of slots and writes each to the run files, so under `simulate`
one slot (and one block of output rows) is in memory for the outputs too:
a run holds each lane's (T,) welfare series and its drop events, and
nothing else grows with T.

The four regulated policies (dual, lyapunov, auction, radp_vpc) charge each
user its true cost minus a bonus, then move the bonus with the selection.
One ledger keeps each policy (lane) as a row of (L, n) arrays: its level
(dual lambda, lyapunov q, auction r, RADP-VPC credits; 0 for greedy and
random), eligibility and counts. A slot allocates, records, updates and
drops over all lanes at once. Charges are costs -
level / scale (phi for lyapunov, else 1.0); every lane but random, which
draws an order, gets its row from one `solver.allocate_many` per eligible
set and `SolveOptions.route`: greedy takes the greedy route, the auction the
exact one, whose objective rows also give its pivots. Each distinct
selection is evaluated once per slot. Each kind's elementwise step moves its
rows, with phi, alpha or eps_t as a per-row column, and one
`freeze_ineligible` keeps the dropped users' levels.

Every user is force-selected during the warmup slots (levels still update
as if selected); afterwards a lane allocates among its active users, and an
active user whose running selection frequency falls strictly below its
threshold drops for good. A lane's state (`DualState`, `QueueState`,
`RegulationState`, `VpcState`) is built from its row after the run. Inputs
are checked before the first slot and each level is a step's output on
checked values, so no slot checks one.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import auction as _auction
from . import baselines as _baselines
from . import policy_dual as _dual
from . import policy_lyapunov as _lyap
from .policy_dual import StepSchedule
from .scenarios import RANDOM_POLICY_STREAM, ScenarioConfig, realization_stream
from .solver import SolveOptions, allocate_many, freeze_ineligible
from .streams import Stream
from .world import Allocation, SlotRealization, WelfareBreakdown, evaluate_allocation
from .world import thresholds_array

__all__ = [
    "POLICY_KINDS",
    "PolicySpec",
    "Recorder",
    "TraceMetrics",
    "apply_dropping",
    "check_exact_solves",
    "check_finite_bonuses",
    "compute_summary",
    "run_policy",
    "run_simulation",
]

# kind -> (the PolicySpec field it reads, its step over (k, n) ledger rows,
# step(level, x, prob, d, knob) with knob the column of phi, alpha or eps_t,
# and its state from a ledger row, state(spec, level, selections, t))
_KINDS = {
    "dual": ("schedule", lambda lam, x, p, d, eps: _dual.dual_step(lam, p, d, eps),
             lambda spec, lam, sel, t: _dual.DualState(lam, sel, t + 1, spec.schedule)),
    "lyapunov": ("phi", lambda q, x, p, d, phi: _lyap.queue_step(q, x, d),
                 lambda spec, q, sel, t: _lyap.QueueState(q, spec.phi)),
    "auction": ("phi", lambda r, x, p, d, phi: _auction.regulation_step(r, x, d, phi),
                lambda spec, r, sel, t: _auction.RegulationState(r, spec.phi)),
    "radp_vpc": ("alpha", lambda c, x, p, d, alpha: _baselines.vpc_step(c, x, alpha),
                 lambda spec, c, sel, t: _baselines.VpcState(c, spec.alpha)),
    "greedy": (None, None, lambda spec, level, sel, t: None),
    "random": (None, None, lambda spec, level, sel, t: None),
}
POLICY_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class PolicySpec:
    """A policy choice plus its parameters.

    phi applies to lyapunov and auction, alpha to radp_vpc, schedule to dual;
    a kind refuses any other parameter that is not at its default.
    """

    kind: str
    phi: float = 10.0
    alpha: float = 1.0
    schedule: StepSchedule = StepSchedule()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        reads, _, state = _KINDS[self.kind]
        for f in fields(self):
            if f.name not in ("kind", reads) and getattr(self, f.name) != f.default:
                raise ValueError(f"policy {self.kind} does not read {f.name}")
        state(self, np.zeros(0), np.zeros(0, dtype=np.int64), 0)  # refuses a bad phi or alpha

    @property
    def label(self) -> str:
        read = _KINDS[self.kind][0]
        if read == "schedule":
            return f"dual_{self.schedule.kind}{self.schedule.coeff:g}"
        return self.kind if read is None else f"{self.kind}_{read}{getattr(self, read):g}"


def _knob(spec: PolicySpec, t: int) -> float:
    """What a kind's step reads at 1-based slot t: phi, alpha or eps_t."""
    read = _KINDS[spec.kind][0]
    return spec.schedule.step(t) if read == "schedule" else getattr(spec, read)


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

    active is one row of users, or one row per lane. Clears the dropped
    entries in place and returns their flat indices, row-major. Drops are
    permanent: an inactive user is never dropped again.
    """
    dropped = active & (alloc_prob < thresholds)
    active[dropped] = False
    return np.flatnonzero(dropped)


def _lane_options(kind: str, solver: SolveOptions) -> SolveOptions:
    """How a lane of this kind solves: greedy greedily (at bonus 0), an auction
    exactly within the run's exact_limit, the others as the run says."""
    if kind == "greedy":
        return SolveOptions("greedy")
    return SolveOptions("exact", solver.exact_limit) if kind == "auction" else solver


class Recorder:
    """Takes each slot of a lockstep run as the ledger records it: every
    lane's (T,) welfare series and drop events, and a buffer of height()
    rows, (L, rows, n) arrays and (P, rows, n) payments of the paying lanes
    in `paying` order. Slot k goes to row k % rows; flush() is called when
    the buffer is full and after the last slot. This base holds the whole
    run and flushes nothing: run_policy returns its rows as TraceMetrics."""

    def height(self, lanes: int, n: int, t_slots: int) -> int:
        """The buffer's rows: slots held before a flush."""
        return t_slots

    def start(self, lanes: int, n: int, t_slots: int, paying: tuple[int, ...]) -> None:
        """Called once run_policy's checks pass, before the first slot;
        paying names the auction lanes."""
        self.t_slots, self.paying = t_slots, paying
        self.rows = self.height(lanes, n, t_slots)
        self.welfare = np.empty((lanes, t_slots))
        self.drop_events: list[list[tuple[int, int]]] = [[] for _ in range(lanes)]
        shape = lanes, self.rows, n
        self.prob, self.regulation = np.empty(shape), np.empty(shape)
        self.selected, self.active = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        self.payments = np.empty((len(paying), self.rows, n))

    def record(self, k, welfare, selected, regulation, payments, active, alloc_prob, dropped):
        """Slot index k of every lane, at the eligibility the slot began with:
        welfare is (L,), payments (P, n), 0 in warmup slots, and the other
        arrays (L, n); dropped holds the (lane, user) pairs that drop once
        the slot is stepped. The arrays are the ledger's own and change with
        the next slot, so each is copied in; rows 0 to filled - 1 hold slot
        lo on."""
        i = k % self.rows
        self.lo, self.filled = k - i, i + 1
        self.welfare[:, k] = welfare
        self.prob[:, i] = alloc_prob
        self.regulation[:, i] = regulation
        self.selected[:, i] = selected
        self.active[:, i] = active
        self.payments[:, i] = payments
        for lane, user in dropped:
            self.drop_events[lane].append((user, k + 1))
        if self.filled == self.rows or k + 1 == self.t_slots:
            self.flush()

    def flush(self) -> None:
        """Called with the buffer full and after the last slot."""

    def summary(self, lane: int, label: str, replication: int, seed: int, warmup_slots: int):
        """compute_summary of the lane's run, under label, once the run ends."""
        return _summary(
            label, replication, seed, warmup_slots, self.welfare[lane],
            len(self.drop_events[lane]), self.prob[lane, (self.t_slots - 1) % self.rows],
        )


class _Ledger:
    """Every lane of a lockstep pass as one row of (L, n) arrays; each
    recorded slot goes to the recorder."""

    def __init__(self, specs, thresholds: np.ndarray, solver: SolveOptions, seed: int, recorder):
        lanes, n = len(specs), thresholds.size
        rows = {kind: [lane for lane, s in enumerate(specs) if s.kind == kind] for kind in _KINDS}
        self.specs, self.thresholds, self.recorder = specs, thresholds, recorder
        self.options = [_lane_options(spec.kind, solver) for spec in specs]
        # each random policy draws from its own stream, as it would alone
        self.streams = {lane: Stream.of(seed, RANDOM_POLICY_STREAM) for lane in rows["random"]}
        self.paying = tuple(rows["auction"])
        self.paid = np.zeros((len(self.paying), n))  # warmup slots pay nothing
        self.level = np.zeros((lanes, n))
        for lane in self.paying:
            self.level[lane] = _auction.RegulationState.initial(thresholds, specs[lane].phi).factors
        self.scale = np.array([[s.phi if s.kind == "lyapunov" else 1.0] for s in specs])
        self.steps = [(_KINDS[kind][1], r) for kind, r in rows.items() if r and _KINDS[kind][1]]
        self.eligible = np.ones((lanes, n), dtype=bool)
        self.selections = np.zeros((lanes, n), dtype=np.int64)
        self.seen = np.zeros((lanes, n), dtype=np.int64)
        self.prob = np.empty((lanes, n))

    def allocate(self, realization: SlotRealization, memo: dict) -> list[Allocation]:
        """Every lane's allocation of a post-warmup slot: a random order, or
        its row of one allocate_many per eligible set and route, on which an
        auction pays its winners."""
        allocs, groups, bonus = [None] * len(self.specs), {}, self.level / self.scale
        for lane, spec in enumerate(self.specs):
            eligible = self.eligible[lane]
            if spec.kind == "random":
                stream = self.streams[lane]
                allocs[lane] = _baselines.random_baseline_step(realization, eligible, stream)
            else:
                key = eligible.tobytes(), self.options[lane].route(int(eligible.sum()))
                groups.setdefault(key, []).append(lane)
        for rows in groups.values():
            eligible, options = self.eligible[rows[0]], self.options[rows[0]]
            charges = realization.true_costs - bonus[rows]
            results, objective = allocate_many(realization, charges, eligible, options)
            for i, (lane, result) in enumerate(zip(rows, results)):
                allocs[lane] = result.alloc
                if lane in self.paying:
                    value = _evaluate(realization, result.alloc, memo).value
                    self.paid[self.paying.index(lane)] = _auction.run_auction_slot(
                        self.level[lane], realization, realization.true_costs, eligible,
                        options.exact_limit, (result.alloc, objective[i], value),
                    ).payments
        return allocs

    def step(self, k: int, x: np.ndarray, welfare: np.ndarray, drop: bool) -> None:
        """Record slot index k of every lane at the eligibility the slot began
        with, step every level past it, keep the ineligible users' levels,
        drop users if asked, and hand the slot to the recorder. An eligible
        user's seen is k + 1, so the dual step reads its frequency from the
        row just recorded."""
        t, eligible = k + 1, self.eligible.copy()
        regulation = np.where(eligible, self.level / self.scale, 0.0)
        self.seen += eligible
        self.selections += x
        prob = np.divide(self.selections, self.seen, out=self.prob)
        level = self.level.copy()
        for step, rows in self.steps:
            knob = np.array([[_knob(self.specs[lane], t)] for lane in rows], dtype=float)
            level[rows] = step(self.level[rows], x[rows], prob[rows], self.thresholds, knob)
        self.level = freeze_ineligible(level, self.level, self.eligible)
        dropped = []
        if drop:
            flat = apply_dropping(self.eligible, prob, self.thresholds)
            dropped = [divmod(i, self.thresholds.size) for i in flat.tolist()]
        self.recorder.record(k, welfare, x, regulation, self.paid, eligible, prob, dropped)

    def metrics(self, lane: int, warmup_slots: int, replication: int, seed: int):
        spec, series = self.specs[lane], self.recorder
        t, welfare = series.t_slots, series.welfare[lane]
        state = _KINDS[spec.kind][2](spec, self.level[lane], self.selections[lane], t)
        metrics = TraceMetrics(
            policy_label=spec.label,
            replication=replication,
            seed=seed,
            t_slots=t,
            warmup_slots=warmup_slots,
            thresholds=self.thresholds,
            welfare_series=welfare,
            running_avg_welfare=np.cumsum(welfare) / np.arange(1, t + 1),
            alloc_prob_series=series.prob[lane],
            selected=series.selected[lane],
            active=series.active[lane],
            regulation=series.regulation[lane],
            payments_series=dict(zip(self.paying, series.payments)).get(lane),
            drop_events=tuple(series.drop_events[lane]),
            final_policy_state=state,
        )
        metrics.summary = compute_summary(metrics)
        return metrics


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


def check_finite_bonuses(
    specs: Sequence[PolicySpec], thresholds: np.ndarray, t_slots: int
) -> None:
    """Refuse a lyapunov or auction phi, or a radp_vpc alpha, whose bonuses
    can overflow in t_slots slots; thresholds are the checked D, one per user.

    A backlog gains at most max D a slot: q_t <= t max D, and phi r_t <=
    (t + 1) max D from phi r_0 = D. So no bonus, q / phi or r, exceeds
    B = (T + 1) max D / phi. A credit grows by alpha a slot from 0 and resets
    on selection, so it never exceeds B = T alpha. A charge sum, an objective
    or a pivot payment adds at most n bonuses to values and costs, so n B is
    kept to half the largest float: phi >= 2 n (T + 1) max D / float max and
    alpha <= float max / (2 n T).
    """
    n, big = thresholds.size, np.finfo(float).max
    d_max = float(thresholds.max(initial=0.0))
    phi_min = 2 * n * (t_slots + 1) * d_max / big
    alpha_max = big / (2 * max(1, n * t_slots))
    for spec in specs:
        if spec.kind in ("lyapunov", "auction") and spec.phi < phi_min:
            raise ValueError(
                f"policy {spec.kind}: phi = {spec.phi:g} lets its bonuses overflow over "
                f"{t_slots} slots; phi must be at least {phi_min:.17g}"
            )
        if spec.kind == "radp_vpc" and spec.alpha > alpha_max:
            raise ValueError(
                f"policy radp_vpc: alpha = {spec.alpha:g} lets its credits overflow over "
                f"{t_slots} slots; alpha must be at most {alpha_max:.17g}"
            )


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
    recorder: Recorder | None = None,
) -> TraceMetrics | list[TraceMetrics] | None:
    """Run one policy, or several in lockstep, over a realization sequence.

    Each slot is drawn once and stepped through every policy in order. Given
    one PolicySpec this returns its TraceMetrics; given a sequence it returns
    one TraceMetrics per entry, each equal to what that policy gives alone.
    seed is the scenario seed recorded in the metrics; every random policy
    draws from its own stream keyed by (seed, RANDOM_POLICY_STREAM).

    t_slots is the number of slots the sequence yields; it defaults to its
    len(), and an iterable without one is refused unless t_slots is given.
    A warmup longer than the run, thresholds outside [0, 1] (NaN too), an
    exact solve (an auction, or exact mode) over more users than
    solver.exact_limit that runs past the warmup, and a phi or alpha whose
    bonuses can overflow (check_finite_bonuses), are rejected before the first slot
    is drawn; a sequence that yields a different number of slots
    is an error.

    dropping=False keeps every user active regardless of frequency, which
    is the setting policy-level stability statements are about.

    Given a recorder, each slot's rows go to it (Recorder.start is called
    once the checks above pass) and run_policy returns None: nothing of the
    run is kept here.
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
    check_finite_bonuses(specs, thresholds, t_slots)
    series = Recorder() if recorder is None else recorder
    ledger = _Ledger(specs, thresholds, solver, seed, series)
    series.start(len(specs), n, t_slots, ledger.paying)
    everyone = Allocation(np.ones(n, dtype=bool))  # no user drops during the warmup
    x = np.empty((len(specs), n), dtype=bool)
    welfare = np.empty(len(specs))

    t = 0
    for realization in realizations:
        if realization.n_users != n:
            raise ValueError("realization user count does not match thresholds")
        if t == t_slots:
            raise ValueError(f"realizations yielded more than t_slots={t_slots} slots")
        k, t = t, t + 1
        post, memo = t > warmup_slots, {}
        allocs = ledger.allocate(realization, memo) if post else [everyone] * len(specs)
        for lane, alloc in enumerate(allocs):
            x[lane] = alloc.selected
            welfare[lane] = _evaluate(realization, alloc, memo).welfare
        ledger.step(k, x, welfare, dropping and post)
    if t < t_slots:
        raise ValueError(f"realizations ended after {t} of t_slots={t_slots} slots")
    if recorder is not None:
        return None

    results = [ledger.metrics(lane, warmup_slots, replication, seed) for lane in range(len(specs))]
    return results[0] if single else results


def run_simulation(
    config: ScenarioConfig,
    policy: PolicySpec | Sequence[PolicySpec],
    t_slots: int,
    warmup_slots: int,
    thresholds,
    solver: SolveOptions = SolveOptions(mode="greedy"),
    replication: int = 0,
    recorder: Recorder | None = None,
) -> TraceMetrics | list[TraceMetrics] | None:
    """Generate the scenario stream once and run the policy or policies over it.

    Returns what run_policy returns for the same policy and recorder arguments.
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
        recorder=recorder,
    )


def compute_summary(metrics: TraceMetrics) -> dict:
    """Headline numbers of one run.

    avg_welfare averages the post-warmup slots (all slots when the whole run
    is warmup).
    """
    return _summary(
        metrics.policy_label, metrics.replication, metrics.seed, metrics.warmup_slots,
        metrics.welfare_series, len(metrics.drop_events), metrics.alloc_prob_series[-1],
    )


def _summary(label, replication, seed, warmup_slots, welfare, drops, last_prob) -> dict:
    t, w, n = welfare.size, warmup_slots, last_prob.size
    post = welfare[w:] if t > w else welfare
    return {
        "policy": label,
        "replication": replication,
        "seed": seed,
        "t_slots": t,
        "warmup_slots": w,
        "n_users": n,
        "avg_welfare": float(post.mean()),
        "dropping_fraction": drops / n,
        "min_alloc_prob": float(last_prob.min()),
    }
