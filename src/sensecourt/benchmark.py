"""Offline benchmarks over a fixed trace of slot realizations.

Three reference quantities bracket what the online policies can achieve:
the unconstrained per-slot optimum, the complete-information constrained
optimum (joint enumeration, tiny instances only), and a Lagrangian dual
upper bound on the constrained optimum that stands in for the stochastic
benchmark on traces too large to enumerate. The relative gap between the
unconstrained and constrained values is the incentive cost. A Trace draws
its slots once, a block at a time, into its checked (T, 2^N) welfare table,
and keeps that table, the thresholds and the mean true cost, not the slots;
all three references read it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sized
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .policy_dual import StepSchedule, dual_step
from .solver import solve, subset_value_table  # noqa: F401  (traced by perfbench)
from .solver import (
    TIE_TOL,
    subset_linear_table,
    subset_value_rows,
    tiebreak_picks,
)
from .world import SlotRealization, thresholds_array

__all__ = [
    "BenchmarkCapacityError",
    "Trace",
    "BenchmarkResult",
    "check_table_capacity",
    "check_bruteforce_capacity",
    "solve_complete_bruteforce",
    "dual_upper_bound",
    "unconstrained_trace_welfare",
    "incentive_cost",
]

BRUTEFORCE_CELL_LIMIT = 24  # joint enumeration bounded by 2^(N*T)
_TABLE_CELL_CAP = 1 << 24  # slots x subsets cells of the welfare table
_FEAS_TOL = 1e-12
_CHUNK = 1 << 20
_ROW_CELLS = 1 << 15  # cells of a Trace build's temporaries per block of slots
_SLACK = 1e-12  # dual certificate slack per unit of max|W| + max|add|


class BenchmarkCapacityError(RuntimeError):
    """Instance too large for the requested exhaustive benchmark."""


@dataclass(frozen=True, eq=False, init=False)
class Trace:
    """The welfare table every reference reads, the per-user thresholds and
    the mean true cost of a fixed sequence of slot realizations; the slots
    themselves are not kept.

    `slots` is any iterable of slots, a generator included, that yields
    t_slots of them; t_slots defaults to its len(), and an iterable without
    one is refused unless t_slots is given. The thresholds (one per user,
    each in [0, 1]) and the table's size (check_table_capacity) are checked
    before the first slot is drawn, and a sequence that yields a different
    number of slots is an error.

    `tables` is the (T, 2^N) welfare of every subset in every slot, true
    costs, indexed by bit mask. Column s of row k is the objective
    solve_exact maximizes for slot k with every user eligible, at subset s,
    so a row's tiebreak_picks pick is that slot's exact optimum. The table
    is allocated once and filled a block of slots at a time, about
    _ROW_CELLS cells of temporaries each (2^N plus the first slot's grids
    per slot). Each block's slots must have N users and the first slot's
    grids; its subset_value_rows less its cost rows are written straight
    into the table, and its slots are dropped before the next block is
    drawn. Overflow is not warned about: one max and one min of the built
    table refuse any NaN or infinite entry, with a ValueError naming
    `tables`.

    `mean_cost` is the mean over the slots of each slot's mean true cost,
    with the bits of that mean over the whole (T, N) cost array: each
    block's row means fill one T-length array, whose mean it is.
    """

    tables: np.ndarray = field(repr=False)
    thresholds: np.ndarray
    mean_cost: float

    def __init__(
        self,
        slots: Iterable[SlotRealization],
        thresholds,
        t_slots: int | None = None,
    ):
        if t_slots is None:
            if not isinstance(slots, Sized):
                raise ValueError("Trace needs t_slots for slots without a len()")
            t_slots = len(slots)
        if t_slots < 1:
            raise ValueError("trace must contain at least one slot")
        d = thresholds_array(thresholds)
        n = d.size
        check_table_capacity(n, t_slots)
        tables, means = np.empty((t_slots, 1 << n)), np.empty(t_slots)
        slots = iter(slots)
        block = tuple(islice(slots, 1))  # the first slot's grids set the block length
        grids = block[0].n_grids if block else 0
        step = max(1, _ROW_CELLS // ((1 << n) + grids))
        lo = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while lo < t_slots:
                block += tuple(islice(slots, min(step, t_slots - lo) - len(block)))
                hi = lo + len(block)
                if hi < min(lo + step, t_slots):
                    raise ValueError(f"slots ended after {hi} of t_slots={t_slots} slots")
                if any(s.n_users != n or s.n_grids != grids for s in block):
                    raise ValueError(
                        f"every slot must have {n} users, one per threshold, and the "
                        f"first slot's {grids} grids"
                    )
                rows, costs = tables[lo:hi], np.stack([s.true_costs for s in block])
                means[lo:hi] = costs.mean(axis=1)
                subset_linear_table(costs, rows)
                np.subtract(subset_value_rows(block), rows, out=rows)
                lo, block = hi, ()  # the block's slots go before the next are drawn
        if next(slots, None) is not None:
            raise ValueError(
                f"slots yielded at least {t_slots + 1} slots, more than t_slots={t_slots}"
            )
        if not (np.isfinite(tables.max()) and np.isfinite(tables.min())):
            raise ValueError("tables must hold no NaN or infinite entries")
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "thresholds", d)
        object.__setattr__(self, "mean_cost", float(means.mean()))

    @property
    def n_users(self) -> int:
        return self.thresholds.size

    @property
    def t_slots(self) -> int:
        return len(self.tables)


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    avg_welfare: float
    per_user_alloc_prob: np.ndarray


def check_table_capacity(n_users: int, t_slots: int) -> None:
    """Refuse a welfare table of more than _TABLE_CELL_CAP cells."""
    if (1 << n_users) * t_slots > _TABLE_CELL_CAP:
        raise BenchmarkCapacityError(
            f"2^N * T = {(1 << n_users) * t_slots} exceeds the welfare table cap "
            f"{_TABLE_CELL_CAP}; reduce n_users or the trace length"
        )


def check_bruteforce_capacity(n_users: int, t_slots: int) -> None:
    """Refuse a joint enumeration of more than 2^BRUTEFORCE_CELL_LIMIT plans."""
    if n_users * t_slots > BRUTEFORCE_CELL_LIMIT:
        raise BenchmarkCapacityError(
            f"N*T = {n_users * t_slots} exceeds {BRUTEFORCE_CELL_LIMIT}, the joint "
            'enumeration limit; shrink n_users or t_slots, or set bruteforce to "auto" or false'
        )


def _user_counts(masks: np.ndarray, n: int) -> np.ndarray:
    """How many of the subset masks select each of the n users, 4096 masks at a time."""
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, masks.size, 4096):  # (n, k) bits: each row sum reads contiguous memory
        counts += ((masks[lo : lo + 4096] >> np.arange(n)[:, None]) & 1).sum(axis=1)
    return counts


def solve_complete_bruteforce(trace: Trace) -> BenchmarkResult:
    """Joint enumeration of all allocations over the whole trace, read from
    trace.tables; check_bruteforce_capacity refuses a long trace.

    Maximizes average welfare subject to every user's selection frequency
    meeting its threshold. Among equal-welfare feasible plans, the one with
    the lowest joint index (slot-major, user-minor bits) is kept. Trace
    keeps every threshold in [0, 1], so selecting everyone in every slot is
    always feasible and some plan is always found.
    """
    n, t = trace.n_users, trace.t_slots
    check_bruteforce_capacity(n, t)
    tables, d = trace.tables, trace.thresholds
    slot_mask = (1 << n) - 1

    best_w = -np.inf
    best_j = -1
    total = 1 << (n * t)
    for lo in range(0, total, _CHUNK):
        js = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        welf = np.zeros(js.size)
        feas = np.ones(js.size, dtype=bool)
        counts = np.zeros((n, js.size), dtype=np.int8)
        for k in range(t):
            sub = (js >> (n * k)) & slot_mask
            welf += tables[k][sub]
            for u in range(n):
                counts[u] += ((sub >> u) & 1).astype(np.int8)
        for u in range(n):
            feas &= counts[u] / t >= d[u] - _FEAS_TOL
        if feas.any():
            fw = np.where(feas, welf, -np.inf)
            k = int(fw.argmax())
            if fw[k] > best_w:
                best_w = float(fw[k])
                best_j = int(js[k])

    plan = np.array([(best_j >> (n * k)) & slot_mask for k in range(t)])
    return BenchmarkResult(best_w / t, _user_counts(plan, n) / t)


def dual_upper_bound(
    trace: Trace, iterations: int, schedule: StepSchedule | None = None
) -> BenchmarkResult:
    """Subgradient descent on the trace-empirical dual objective.

    Each iteration sweeps the whole trace with the multipliers fixed,
    evaluating g_hat(lambda) = mean of per-slot maxima of
    (welfare + lambda . x) minus lambda . D, whose minimum over the visited
    multipliers (including the averaged iterate) upper-bounds the welfare
    of every trace-feasible plan by weak duality. The exact subgradient is
    the per-user allocation frequency minus the threshold.

    The default schedule is harmonic with a coefficient matched to the
    trace's mean cost: the optimal multipliers live on the cost scale, and
    a unit step cannot reach them on expensive instances.

    A sweep re-scores only the rows whose pick may have moved; every other
    row keeps its pick p, and its maximum is W[p] + add[p], with W the
    row of trace.tables and add the multiplier term of the sweep. Each sweep has
    a slack, _SLACK (1 + max|W| + max|add|). When a row is scored, with
    maximum b at its first maximum p and runner-up r, it stores its margin
    b - r - TIE_TOL - slack and the drift D of that sweep. D adds up, over
    the sweeps, the largest move of any subset's multiplier sum: the larger
    of the summed rises and the summed falls of lambda, rounded up. So
    D - D_row bounds how far any column of the row has moved since. A later
    sweep keeps p while margin > 2 (D - D_row) + slack: no column has come
    within TIE_TOL of p, so p is the only column of the tie set and the
    strict maximum. Each slack, a few dozen ulps of its scale with at most
    24 users, covers its sweep's roundings: add's subset sums, fl(W + add),
    fl(b - TIE_TOL) and the margin or the bound. The scoring sweep's slack
    also covers the rounding of the summed moves, which stay below its
    scale while the row is kept. A near tie has margin < 0 and is always
    re-scored, so a kept pick is always a first maximum. If an entry can
    overflow to inf, the slack is inf: every row is scored and none is
    kept. The bits are those of a dense sweep: a kept row's maximum is the
    same IEEE addition the dense block makes, the only entry of that value
    in its row, and the re-scored rows go through tiebreak_picks as every
    row did. The row maxima are summed in the same 4096-row groups as
    before. The per-user counts of the picks are integers kept between
    sweeps: only the rows whose pick moved change them. Besides
    tiebreak_picks' block, the sweep keeps four numbers per row (index,
    pick, margin, drift) and makes a few row-length temporaries.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if schedule is None:
        schedule = StepSchedule.harmonic(max(1.0, 2.0 * trace.mean_cost))
    n, t = trace.n_users, trace.t_slots
    tables, d = trace.tables, trace.thresholds
    w_max = max(float(tables.max()), -float(tables.min()))
    rows = np.arange(t)
    picks = np.zeros(t, dtype=np.intp)
    margin = np.full(t, -np.inf)  # every row is scored by the first sweep
    drift_at = np.zeros(t)
    drift, last = 0.0, None
    counts = _user_counts(picks, n)  # how many picks hold each user

    def sweep(lam: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal drift, last, counts
        if last is not None:  # the largest move of a subset sum of lam - last
            step = lam - last
            moved = max(float(step[step > 0].sum()), -float(step[step < 0].sum()))
            drift = float(np.nextafter(drift + np.nextafter(moved, np.inf), np.inf))
        last = lam
        add = subset_linear_table(lam)
        slack = _SLACK * (1.0 + w_max + max(float(add.max()), -float(add.min())))
        stale = np.flatnonzero(~(margin > 2.0 * (drift - drift_at) + slack))
        row_best = tables[rows, picks] + add[picks]
        was = picks[stale]
        scored, picks[stale], runner = tiebreak_picks(tables, add, stale)
        changed = picks[stale] != was  # the counts follow the picks that changed
        counts += _user_counts(picks[stale[changed]], n)
        counts -= _user_counts(was[changed], n)
        row_best[stale] = scored
        margin[stale] = scored - runner - TIE_TOL - slack
        drift_at[stale] = drift
        ghat_sum = 0.0
        for lo in range(0, t, 4096):  # the row groups that fix ghat's bits
            ghat_sum += float(row_best[lo : lo + 4096].sum())
        return ghat_sum / t - float(lam @ d), counts / t

    lam = np.zeros(n)
    lam_sum = np.zeros(n)
    best = (np.inf, lam, np.zeros(n))
    for k in range(1, iterations + 1):
        ghat, dbar = sweep(lam)
        if ghat < best[0]:
            best = (ghat, lam, dbar)
        lam_sum += lam
        lam = dual_step(lam, dbar, d, schedule.step(k))
    lam_avg = lam_sum / iterations
    ghat, dbar = sweep(lam_avg)
    if ghat < best[0]:
        best = (ghat, lam_avg, dbar)

    return BenchmarkResult(best[0], best[2])


def unconstrained_trace_welfare(trace: Trace) -> BenchmarkResult:
    """Slot-wise optimum with true costs and no participatory constraint:
    the average welfare and per-user selection frequency of each row's pick
    in trace.tables."""
    tables, n, t = trace.tables, trace.n_users, trace.t_slots
    _, picks, _ = tiebreak_picks(tables, np.zeros(1 << n))  # + 0.0 keeps every pick
    total = 0.0
    for value in tables[np.arange(t), picks].tolist():
        total += value  # left to right, as the per-slot solves add
    return BenchmarkResult(total / t, _user_counts(picks, n) / t)


def incentive_cost(unconstrained: BenchmarkResult, constrained: BenchmarkResult) -> float:
    """Relative welfare given up to keep users participating, clamped at 0."""
    u = unconstrained.avg_welfare
    if u <= 0:
        raise ValueError("incentive cost undefined for non-positive unconstrained welfare")
    return max(0.0, (u - constrained.avg_welfare) / u)
