"""Offline benchmarks over a fixed trace of slot realizations.

Three reference quantities bracket what the online policies can achieve:
the unconstrained per-slot optimum, the complete-information constrained
optimum (joint enumeration, tiny instances only), and a Lagrangian dual
upper bound on the constrained optimum that stands in for the stochastic
benchmark on traces too large to enumerate. The relative gap between the
unconstrained and constrained values is the incentive cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy_dual import StepSchedule
from .solver import solve  # noqa: F401  (instrumented by perfbench/tracer.py)
from .solver import (
    RegulatedInstance,
    solve_exact,
    subset_linear_table,
    subset_value_table,
    tiebreak_order,
    TIE_TOL,
    _BLOCK_CELLS,
)
from .world import SlotRealization

__all__ = [
    "BenchmarkCapacityError",
    "Trace",
    "BenchmarkResult",
    "welfare_tables",
    "check_dual_capacity",
    "solve_complete_bruteforce",
    "dual_upper_bound",
    "unconstrained_trace_welfare",
    "incentive_cost",
]

BRUTEFORCE_CELL_LIMIT = 24  # joint enumeration bounded by 2^(N*T)
_TABLE_CELL_CAP = 1 << 24  # slots x subsets cells for the dual table
_FEAS_TOL = 1e-12
_CHUNK = 1 << 20


class BenchmarkCapacityError(RuntimeError):
    """Instance too large for the requested exhaustive benchmark."""


@dataclass(frozen=True, eq=False)
class Trace:
    """A fixed sequence of slot realizations plus per-user thresholds."""

    slots: tuple[SlotRealization, ...]
    thresholds: np.ndarray

    def __post_init__(self):
        slots = tuple(self.slots)
        if not slots:
            raise ValueError("trace must contain at least one slot")
        n = slots[0].n_users
        i = slots[0].n_grids
        for s in slots:
            if s.n_users != n or s.n_grids != i:
                raise ValueError("all slots must share the same users and grids")
        d = np.array(self.thresholds, dtype=float, copy=True)
        if d.shape != (n,):
            raise ValueError("thresholds length must match user count")
        if np.any(d < 0) or np.any(d > 1):
            raise ValueError("thresholds must lie in [0, 1]")
        d.flags.writeable = False
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "thresholds", d)

    @property
    def n_users(self) -> int:
        return self.slots[0].n_users

    @property
    def t_slots(self) -> int:
        return len(self.slots)


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    avg_welfare: float
    per_user_alloc_prob: np.ndarray
    feasible: bool
    kind: str


def welfare_tables(trace: Trace) -> np.ndarray:
    """(T, 2^N) welfare of every subset in every slot, true costs.

    Row k equals the objective solve_exact maximizes for slot k with every
    user eligible, so a row's tie-break maximum is that slot's exact optimum.
    """
    n = trace.n_users
    users = np.arange(n)
    rows = []
    for slot in trace.slots:
        rows.append(
            subset_value_table(slot, users) - subset_linear_table(slot.true_costs)
        )
    return np.vstack(rows)


def check_dual_capacity(n_users: int, t_slots: int) -> None:
    """Refuse a dual table of more than _TABLE_CELL_CAP cells."""
    if (1 << n_users) * t_slots > _TABLE_CELL_CAP:
        raise BenchmarkCapacityError(
            f"2^N * T = {(1 << n_users) * t_slots} exceeds the dual table cap "
            f"{_TABLE_CELL_CAP}; reduce n_users or the trace length"
        )


def _near_max_picks(ranked: np.ndarray, add: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima of ranked + add, and each row's first column within TIE_TOL.

    `ranked` is a (T, 2^n) subset table with its columns in tiebreak_order(n)[0],
    and `add` is one row in the same order. The first near-maximum column is
    the pick tiebreak_argmax makes on the unpermuted row, found by a boolean
    argmax in place of an int64 rank array. Rows go in blocks of about
    _BLOCK_CELLS cells through one float and one boolean buffer.
    """
    t, size = ranked.shape
    rows = min(t, max(1, _BLOCK_CELLS // size))
    obj = np.empty((rows, size))
    hit = np.empty((rows, size), dtype=bool)
    row_best = np.empty(t)
    picks = np.empty(t, dtype=np.intp)
    for lo in range(0, t, rows):
        hi = min(lo + rows, t)
        block = np.add(ranked[lo:hi], add, out=obj[: hi - lo])
        best = np.max(block, axis=1, out=row_best[lo:hi])
        near = np.greater_equal(block, (best - TIE_TOL)[:, None], out=hit[: hi - lo])
        picks[lo:hi] = near.argmax(axis=1)
    return row_best, picks


def _slotwise_optimum(tables: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Average welfare and per-user selection frequency of each row's optimum."""
    order = tiebreak_order(n)[0]
    ranked = np.take(tables, order, axis=1)
    _, picks = _near_max_picks(ranked, np.zeros(1 << n))  # + 0.0 keeps every pick
    total = 0.0
    for value in ranked[np.arange(len(ranked)), picks].tolist():
        total += value  # left to right, as the per-slot solves add
    selections = ((order[picks][:, None] >> np.arange(n)) & 1).sum(axis=0)
    return total / len(tables), selections / len(tables)


def solve_complete_bruteforce(
    trace: Trace, tables: np.ndarray | None = None
) -> BenchmarkResult:
    """Joint enumeration of all allocations over the whole trace.

    Maximizes average welfare subject to every user's selection frequency
    meeting its threshold. Among equal-welfare feasible plans, the one with
    the lowest joint index (slot-major, user-minor bits) is kept. When no
    plan is feasible the unconstrained per-slot optimum is reported with
    feasible=False.
    """
    n, t = trace.n_users, trace.t_slots
    if n * t > BRUTEFORCE_CELL_LIMIT:
        raise BenchmarkCapacityError(
            f"N*T = {n * t} exceeds {BRUTEFORCE_CELL_LIMIT}; joint enumeration refused"
        )
    if tables is None:
        tables = welfare_tables(trace)
    d = trace.thresholds
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

    if best_j >= 0:
        probs = np.zeros(n)
        for k in range(t):
            sub = (best_j >> (n * k)) & slot_mask
            for u in range(n):
                probs[u] += (sub >> u) & 1
        return BenchmarkResult(best_w / t, probs / t, True, "complete_exact")

    # infeasible: best effort is the slot-wise unconstrained optimum
    avg, probs = _slotwise_optimum(tables, n)
    return BenchmarkResult(avg, probs, False, "complete_exact")


def dual_upper_bound(
    trace: Trace,
    iterations: int,
    schedule: StepSchedule | None = None,
    tables: np.ndarray | None = None,
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
    a unit step cannot reach them on expensive instances. `tables` is
    welfare_tables(trace), built here if absent.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if schedule is None:
        scale = float(np.mean([s.true_costs.mean() for s in trace.slots]))
        schedule = StepSchedule.harmonic(max(1.0, 2.0 * scale))
    n, t = trace.n_users, trace.t_slots
    check_dual_capacity(n, t)
    if tables is None:
        tables = welfare_tables(trace)
    d = trace.thresholds
    size = 1 << n
    member = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    order = tiebreak_order(n)[0]
    ranked = np.take(tables, order, axis=1)  # C-ordered; tables[:, order] is not

    def sweep(lam: np.ndarray) -> tuple[float, np.ndarray]:
        add = (member @ lam)[order]
        ghat_sum = 0.0
        counts = np.zeros(size, dtype=np.int64)
        for lo in range(0, t, 4096):  # the row groups that fix ghat's bits
            row_best, picks = _near_max_picks(ranked[lo : lo + 4096], add)
            ghat_sum += float(row_best.sum())
            counts += np.bincount(order[picks], minlength=size)
        return ghat_sum / t - float(lam @ d), counts @ member / t

    lam = np.zeros(n)
    lam_sum = np.zeros(n)
    best = (np.inf, lam, np.zeros(n))
    for k in range(1, iterations + 1):
        ghat, dbar = sweep(lam)
        if ghat < best[0]:
            best = (ghat, lam, dbar)
        lam_sum += lam
        lam = np.maximum(lam - schedule.step(k) * (dbar - d), 0.0)
    lam_avg = lam_sum / iterations
    ghat, dbar = sweep(lam_avg)
    if ghat < best[0]:
        best = (ghat, lam_avg, dbar)

    return BenchmarkResult(best[0], best[2], True, "dual_upper_bound")


def unconstrained_trace_welfare(
    trace: Trace, tables: np.ndarray | None = None
) -> BenchmarkResult:
    """Slot-wise optimum with true costs and no participatory constraint.

    Given welfare_tables(trace), the optimum is read from the table rows;
    otherwise each slot is solved exactly.
    """
    n = trace.n_users
    if tables is not None:
        avg, selections = _slotwise_optimum(tables, n)
        return BenchmarkResult(avg, selections, True, "unconstrained")
    selections = np.zeros(n)
    total = 0.0
    for slot in trace.slots:
        res = solve_exact(RegulatedInstance.of(slot, slot.true_costs))
        total += res.objective
        selections += res.alloc.selected
    return BenchmarkResult(
        total / trace.t_slots, selections / trace.t_slots, True, "unconstrained"
    )


def incentive_cost(unconstrained: BenchmarkResult, constrained: BenchmarkResult) -> float:
    """Relative welfare given up to keep users participating, clamped at 0."""
    u = unconstrained.avg_welfare
    if u <= 0:
        raise ValueError("incentive cost undefined for non-positive unconstrained welfare")
    return max(0.0, (u - constrained.avg_welfare) / u)
