#!/usr/bin/env python3
"""Slot-generation and exact-solver microbenchmark: median ms per generated
slot at desk and welfare scale, per subset_value_table and per solve_exact
at N = 8, 12, 16, 20, per truthfulness_sweep at N = 8, 12, 16 and per dual
sweep at (N, T) = (8, 800), (8, 10,000) and (12, 800) with the default
harmonic steps and at (8, 800) with constant steps of 50, with the share of
rows each dual case scores again, and the dual's peak memory over its table
at (N, T) = (12, 4,096), (16, 256) and (20, 16).

Slot generation times realization_stream, which builds blocks of slots,
over the first --slots slots of configs/dropping_desk.json (100 users, 2,500
grids) and configs/welfare_desk.json (8 users, 100 grids), each with its
uniform weights and again with hotspot weights and temporal noise: the
whole stream's time over its slot count, median of --instances runs. The
same slots are then rebuilt slot by slot by the per-user loop in
tests/oracle_regions.py, whose time is recorded too, and every region, cost
and weight must equal it bit for bit.

welfare_tables is timed per slot at (N, T) = (8, 800) and (16, 64) on the
welfare trace below, median of --instances builds; every row must equal the
slot's own subset_value_table minus its cost table, in tie-break order, bit
for bit, and its tracemalloc peak is recorded over the table's bytes.

Each solver instance is the first N users of one dropping-desk slot
(2,500 grids, disk regions), every user eligible, true costs as charges.
subset_value_table is timed on its own, then solve_exact, which builds the
table again. The table is compared bit for bit with the scalar loop in
tests/oracle_subset.py, whose time is recorded too.

allocate_many on the exact route is timed with MANY_ROWS charge rows (true
costs minus random bonuses) at N = 8 and 12 on the same slots, against
MANY_ROWS calls to solve_exact, one per row, as lanes solved one by one:
each side builds the slot's value table once per call. Every row's
allocation and objective must equal its own solve bit for bit.

allocate_many on the greedy route is timed on the charge rows a
configs/dropping_desk.json run gives it: the run goes through its warmup and
GREEDY_SLOTS slots after it, and a wrapper on sensecourt.engine.allocate_many
records every greedy-route call (the greedy, lyapunov and radp_vpc lanes,
one call per eligible set). Each slot's calls are timed together against the
lazy greedy as it was before the slot's region values were shared
(tests/oracle_greedy.py), one call per row; every row's allocation,
objective and exact flag must equal the oracle's bit for bit. Each side gets
its own fresh copy of the slot, so the allocate_many side builds
SlotRealization.region_values inside its time and neither side reads values
the other built. The share of rows with a negative eligible charge, whose
later marginals cannot come from region_values, is recorded too. The build
of region_values alone is timed on a fresh copy of each of the first
--instances slots at N = 100.

Each sweep scores 201 bids from 0 to 3x the swept user's cost, with
regulation factors drawn as `truthcheck` draws them; its time includes its
subset table. The dense bids x 2^N oracle in tests/oracle_sweep.py is timed
on the same inputs, and every report must equal it bit for bit.

Each dual trace is the first T slots of configs/welfare_desk.json at N users
with thresholds 0.5, as `benchmark` builds it. dual_upper_bound runs
DUAL_ITERATIONS iterations (one sweep each, plus one at the averaged
multipliers) on the prebuilt welfare tables; its ms per sweep is the run's
time over its sweep count, median of --instances runs. The dense per-chunk
oracle in tests/oracle_dual.py is timed the same way on the same tables, and
its bound and frequencies must equal the fast ones bit for bit. A wrapper on
sensecourt.benchmark.tiebreak_picks counts the rows one more run scores:
their share of T times the sweep count. The constant-step case moves the
multipliers so far each sweep that few rows keep their picks: the sweep's
worst case.

The dual's peak is the tracemalloc peak of dual_upper_bound, DUAL_PEAK_ITERATIONS
iterations on prebuilt welfare tables of 2^24 cells (128 MB), divided by the
table's bytes: what the sweep allocates beyond the table it reads.

tiebreak_order(m) at m = 16 and 20 is built from an empty cache: median ms of
--instances builds, and the tracemalloc peak and the bytes still held once
the build returns (the cached order) of one more build.

    PYTHONPATH=src python3 scripts/bench_solver.py --out BENCH_solver.json

With --baseline, a report the script wrote on another checkout (say, the
parent commit's src on PYTHONPATH) is kept under "baseline" in the new one.
"""

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sensecourt import benchmark, engine
from sensecourt.auction import RegulationState, truthfulness_sweep
from sensecourt.benchmark import Trace, dual_upper_bound, welfare_tables
from sensecourt.cli import load_config
from sensecourt.engine import run_simulation
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import realization_stream
from sensecourt.solver import (
    RegulatedInstance,
    SolveOptions,
    allocate_many,
    solve_exact,
    subset_linear_table,
    subset_value_table,
    tiebreak_order,
)
from sensecourt.world import SlotRealization

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle_dual import dual_upper_bound_dense  # noqa: E402
from oracle_greedy import solve_greedy_loop  # noqa: E402
from oracle_regions import realization_stream_loop  # noqa: E402
from oracle_subset import subset_value_table_loop  # noqa: E402
from oracle_sweep import report_differences, truthfulness_sweep_dense  # noqa: E402

CONFIG = ROOT / "configs" / "dropping_desk.json"
SLOT_CONFIGS = {"desk": CONFIG, "welfare": ROOT / "configs" / "welfare_desk.json"}
HOTSPOT = {"weight_mode": "hotspot", "temporal_noise": True}
SIZES = (8, 12, 16, 20)
SWEEP_SIZES = (8, 12, 16)
BID_POINTS = 201
DUAL_CASES = (  # (N, T, schedule), None the default harmonic steps
    (8, 800, None),
    (8, 10_000, None),
    (12, 800, None),
    (8, 800, StepSchedule.constant(50.0)),
)
DUAL_ITERATIONS = 50
DUAL_PEAK_SHAPES = ((12, 4096), (16, 256), (20, 16))
DUAL_PEAK_ITERATIONS = 3
TABLE_SHAPES = ((8, 800), (16, 64))
MANY_SIZES = (8, 12)
MANY_ROWS = 8
GREEDY_SLOTS = 160
ORDER_SIZES = (16, 20)


def first_users(slot: SlotRealization, n: int) -> SlotRealization:
    return SlotRealization(slot.weights, slot.regions[:n], slot.true_costs[:n])


def slot_bytes(slot: SlotRealization) -> list[bytes]:
    return [slot.weights.values.tobytes(), slot.true_costs.tobytes()] + [
        r.indices.tobytes() for r in slot.regions
    ]


def time_slots(scenario, t_slots: int, runs: int) -> tuple[float, float]:
    """Median ms per slot of realization_stream and of the slot-by-slot loop."""
    stream = []
    for _ in range(runs):
        start = time.perf_counter()
        slots = list(realization_stream(scenario, t_slots))
        stream.append((time.perf_counter() - start) * 1e3 / t_slots)

    start = time.perf_counter()
    oracle = list(realization_stream_loop(scenario, t_slots))
    loop = (time.perf_counter() - start) * 1e3 / t_slots
    for t, (slot, ref) in enumerate(zip(slots, oracle), start=1):
        if slot_bytes(slot) != slot_bytes(ref):
            raise AssertionError(f"slot {t} differs from the slot-by-slot loop")
    return statistics.median(stream), loop


def time_sweeps(slots: list[SlotRealization], n: int) -> tuple[float, float]:
    """Median ms of the sweep and of the dense oracle on the same inputs."""
    sweeps, dense = [], []
    for k, slot in enumerate(slots):
        real = first_users(slot, n)
        rng = np.random.default_rng([n, k])
        state = RegulationState(rng.uniform(0.0, 0.5 * real.true_costs.max(), n), 10.0)
        user = k % n
        grid = np.linspace(0.0, 3.0 * real.true_costs[user], BID_POINTS)
        start = time.perf_counter()
        report = truthfulness_sweep(real, state, real.true_costs, user, grid)
        sweeps.append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        oracle = truthfulness_sweep_dense(real, state, real.true_costs, user, grid)
        dense.append((time.perf_counter() - start) * 1e3)
        differ = report_differences(report, oracle)
        if differ:
            raise AssertionError(f"sweep differs from the dense oracle at N={n}: {differ}")
    return statistics.median(sweeps), statistics.median(dense)


def time_many(
    slots: list[SlotRealization], n: int, rows: int, options: SolveOptions, alone
) -> tuple[float, float]:
    """Median ms of one allocate_many over `rows` charge rows (the true costs
    minus random bonuses) at the first n users and of `rows` calls to `alone`,
    each on one row's instance; every row is checked against its own call.
    Each side has a fresh copy of the slot, so nothing one side caches on it is
    read by the other."""
    many, singles = [], []
    eligible = np.ones(n, dtype=bool)
    for k, slot in enumerate(slots):
        costs = slot.true_costs[:n]
        charges = costs - np.random.default_rng([n, k]).uniform(0.0, costs.max(), (rows, n))
        real = first_users(slot, n)
        start = time.perf_counter()
        results, _ = allocate_many(real, charges, eligible, options)
        many.append((time.perf_counter() - start) * 1e3)

        real = first_users(slot, n)
        start = time.perf_counter()
        solves = [alone(RegulatedInstance(real, row, eligible)) for row in charges]
        singles.append((time.perf_counter() - start) * 1e3)
        check_rows(results, solves, f"allocate_many ({options.mode}) differs at N={n}")
    return statistics.median(many), statistics.median(singles)


def check_rows(results, solves, message: str) -> None:
    """Each result equal to its own solve: allocation, objective bits, exact flag."""
    for got, solo in zip(results, solves, strict=True):
        if (
            got.alloc.selected.tobytes() != solo.alloc.selected.tobytes()
            or got.objective.hex() != solo.objective.hex()
            or got.exact != solo.exact
        ):
            raise AssertionError(message)


def record_greedy_calls(post_slots: int) -> list[tuple[SlotRealization, list]]:
    """Each dropping-desk slot's greedy-route allocate_many calls, as
    (charges, eligible) pairs, over the warmup and post_slots slots after it."""
    cfg = load_config(str(CONFIG))
    slots: list[tuple[SlotRealization, list]] = []

    def recording(realization, charges, eligible, options=SolveOptions()):
        if options.route(int(np.count_nonzero(eligible))) == "greedy":
            if not slots or slots[-1][0] is not realization:
                slots.append((realization, []))
            slots[-1][1].append((np.array(charges), np.array(eligible)))
        return allocate_many(realization, charges, eligible, options)

    engine.allocate_many = recording
    try:
        run_simulation(
            cfg.scenario, cfg.policies, cfg.warmup_slots + post_slots, cfg.warmup_slots,
            cfg.thresholds, cfg.solver,
        )
    finally:
        engine.allocate_many = allocate_many
    return slots


def time_greedy(slots: list[tuple[SlotRealization, list]]) -> tuple[float, float, int, float]:
    """Median ms per slot of its recorded greedy-route calls and of the oracle
    on each of their rows, every row checked against its own oracle solve;
    the rows and the share of them with a negative eligible charge."""
    many, oracle = [], []
    rows = negative = 0
    greedy = SolveOptions("greedy")
    for slot, calls in slots:
        real = first_users(slot, slot.n_users)
        start = time.perf_counter()
        results = [allocate_many(real, charges, eligible, greedy)[0] for charges, eligible in calls]
        many.append((time.perf_counter() - start) * 1e3)

        real = first_users(slot, slot.n_users)
        start = time.perf_counter()
        solves = [
            [solve_greedy_loop(RegulatedInstance(real, row, eligible)) for row in charges]
            for charges, eligible in calls
        ]
        oracle.append((time.perf_counter() - start) * 1e3)
        for (charges, eligible), got, want in zip(calls, results, solves):
            check_rows(got, want, "allocate_many (greedy) differs from the oracle")
            rows += len(charges)
            negative += int(np.count_nonzero((charges[:, eligible] < 0).any(axis=1)))
    return statistics.median(many), statistics.median(oracle), rows, negative / rows


def time_region_values(slots: list[SlotRealization], n: int) -> float:
    """Median ms to build region_values on a fresh copy of the first n users."""
    times = []
    for slot in slots:
        real = first_users(slot, n)
        start = time.perf_counter()
        real.region_values
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def welfare_trace(n: int, t: int) -> Trace:
    """The first t welfare-desk slots at n users, thresholds 0.5."""
    scenario = load_config(str(SLOT_CONFIGS["welfare"])).scenario
    scenario = dataclasses.replace(scenario, n_users=n)
    return Trace(tuple(realization_stream(scenario, t)), np.full(n, 0.5))


def time_dual(n: int, t: int, schedule, runs: int) -> tuple[float, float, float]:
    """Median ms per dual sweep, fast and dense oracle, on one welfare trace,
    and the share of the T x sweeps rows that the fast sweep scores."""
    trace = welfare_trace(n, t)
    tables = welfare_tables(trace)
    sweeps = DUAL_ITERATIONS + 1
    fast, dense = [], []
    for _ in range(runs):
        start = time.perf_counter()
        got = dual_upper_bound(trace, DUAL_ITERATIONS, schedule, tables)
        fast.append((time.perf_counter() - start) * 1e3 / sweeps)

        start = time.perf_counter()
        want = dual_upper_bound_dense(trace, DUAL_ITERATIONS, schedule, tables)
        dense.append((time.perf_counter() - start) * 1e3 / sweeps)
        if (
            got.avg_welfare.hex() != want.avg_welfare.hex()
            or got.per_user_alloc_prob.tobytes() != want.per_user_alloc_prob.tobytes()
        ):
            raise AssertionError(f"dual bound differs from the dense oracle at N={n}, T={t}")

    scored = 0
    original = benchmark.tiebreak_picks

    def counting(rows, add, which=None):
        nonlocal scored
        scored += len(rows) if which is None else len(which)
        return original(rows, add, which)

    benchmark.tiebreak_picks = counting
    try:
        dual_upper_bound(trace, DUAL_ITERATIONS, schedule, tables)
    finally:
        benchmark.tiebreak_picks = original
    return statistics.median(fast), statistics.median(dense), scored / (t * sweeps)


def time_tables(n: int, t: int, runs: int) -> tuple[float, float]:
    """Median ms per slot of welfare_tables, and its tracemalloc peak over the
    table's bytes; every row is checked against the slot's own table."""
    trace = welfare_trace(n, t)
    by_rank = tiebreak_order(n)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        tables = welfare_tables(trace)
        times.append((time.perf_counter() - start) * 1e3 / t)
    for k, (slot, row) in enumerate(zip(trace.slots, tables)):
        own = subset_value_table(slot, np.arange(n)) - subset_linear_table(slot.true_costs)
        if row.tobytes() != own[by_rank].tobytes():
            raise AssertionError(f"welfare_tables row {k} differs at N={n}, T={t}")
    del tables
    tracemalloc.start()
    try:
        tables = welfare_tables(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak / tables.nbytes


def dual_peak_ratio(n: int, t: int) -> float:
    """tracemalloc peak of dual_upper_bound on a prebuilt table, in table bytes."""
    trace = welfare_trace(n, t)
    tables = welfare_tables(trace)
    tiebreak_order(n)  # cached once per process, not part of the sweep
    tracemalloc.start()
    try:
        dual_upper_bound(trace, DUAL_PEAK_ITERATIONS, tables=tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / tables.nbytes


def time_order(m: int, runs: int) -> tuple[float, int, int]:
    """Median ms of tiebreak_order(m) from an empty cache, and the tracemalloc
    peak and retained bytes of one build."""
    times = []
    for _ in range(runs):
        tiebreak_order.cache_clear()
        start = time.perf_counter()
        tiebreak_order(m)
        times.append((time.perf_counter() - start) * 1e3)
    tiebreak_order.cache_clear()
    tracemalloc.start()
    try:
        tiebreak_order(m)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak, retained


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_solver.json")
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--slots", type=int, default=200)
    parser.add_argument("--baseline", help="an earlier report to keep under 'baseline'")
    args = parser.parse_args()
    if args.instances < 1:
        parser.error("--instances must be at least 1")
    if args.slots < 1:
        parser.error("--slots must be at least 1")

    slot_ms, slot_loop_ms, slot_shape = {}, {}, {}
    for name, path in SLOT_CONFIGS.items():
        uniform = load_config(str(path)).scenario
        for scale, scenario in (
            (name, uniform),
            (f"{name}_hotspot", dataclasses.replace(uniform, **HOTSPOT)),
        ):
            slot_ms[scale], slot_loop_ms[scale] = time_slots(
                scenario, args.slots, args.instances
            )
            slot_shape[scale] = {
                "users": scenario.n_users,
                "grids": scenario.map.n_grids,
                "weight_mode": scenario.weight_mode,
            }
            print(
                f"{scale:15s}: realization_stream {slot_ms[scale]:7.3f} ms per slot, oracle "
                f"loop {slot_loop_ms[scale]:7.3f} ms ({scenario.n_users} users, "
                f"{scenario.map.n_grids} grids, {args.slots} slots, median of "
                f"{args.instances})",
                flush=True,
            )

    scenario = load_config(str(CONFIG)).scenario
    slots = list(realization_stream(scenario, args.instances))
    table_only_ms, solve_ms, loop_ms, grids = {}, {}, {}, {}
    for n in SIZES:
        users = np.arange(n)
        tables, solves, loops = [], [], []
        for slot in slots:
            real = first_users(slot, n)
            start = time.perf_counter()
            table_only = subset_value_table(real, users)
            tables.append((time.perf_counter() - start) * 1e3)

            inst = RegulatedInstance.of(real, real.true_costs)
            start = time.perf_counter()
            solve_exact(inst, exact_limit=n)
            solves.append((time.perf_counter() - start) * 1e3)

            start = time.perf_counter()
            oracle = subset_value_table_loop(real, users)
            loops.append((time.perf_counter() - start) * 1e3)
            if not np.array_equal(table_only.view(np.int64), oracle.view(np.int64)):
                raise AssertionError(f"subset table differs from the loop at N={n}")
        table_only_ms[n] = statistics.median(tables)
        solve_ms[n] = statistics.median(solves)
        loop_ms[n] = statistics.median(loops)
        grids[n] = statistics.mean(r.size for s in slots for r in s.regions[:n])
        print(
            f"N={n:2d}: subset_value_table {table_only_ms[n]:8.2f} ms, solve_exact "
            f"{solve_ms[n]:9.2f} ms, oracle loop "
            f"{loop_ms[n]:9.2f} ms, {grids[n]:.1f} grids per region (median of "
            f"{len(slots)})",
            flush=True,
        )

    many_ms, many_alone_ms = {}, {}
    for n in MANY_SIZES:
        exact = SolveOptions("exact", exact_limit=n)
        many_ms[n], many_alone_ms[n] = time_many(
            slots, n, MANY_ROWS, exact, lambda inst: solve_exact(inst, n)
        )
        print(
            f"N={n:2d}: allocate_many (exact) {many_ms[n]:7.3f} ms for {MANY_ROWS} rows, "
            f"{MANY_ROWS} x solve_exact {many_alone_ms[n]:7.3f} ms (median of {len(slots)})",
            flush=True,
        )
    n_desk = scenario.n_users
    greedy_calls = record_greedy_calls(GREEDY_SLOTS)
    greedy_ms, greedy_alone_ms, greedy_rows, negative_share = time_greedy(greedy_calls)
    values_ms = time_region_values(slots, n_desk)
    print(
        f"N={n_desk}: allocate_many (greedy) {greedy_ms:7.3f} ms per slot, oracle greedy "
        f"{greedy_alone_ms:7.3f} ms ({greedy_rows} recorded rows over {len(greedy_calls)} "
        f"slots, {negative_share:.1%} with a negative charge), region_values "
        f"{values_ms:7.3f} ms (median of {len(slots)})",
        flush=True,
    )

    sweep_ms, dense_ms = {}, {}
    for n in SWEEP_SIZES:
        sweep_ms[n], dense_ms[n] = time_sweeps(slots, n)
        print(
            f"N={n:2d}: truthfulness_sweep {sweep_ms[n]:9.2f} ms, dense oracle "
            f"{dense_ms[n]:9.2f} ms ({BID_POINTS} bids, median of {len(slots)})",
            flush=True,
        )

    dual_ms, dual_dense_ms, dual_share = {}, {}, {}
    for n, t, schedule in DUAL_CASES:
        key = f"N={n},T={t}"
        if schedule is not None:
            key += f",{schedule.kind}={schedule.coeff}"
        dual_ms[key], dual_dense_ms[key], dual_share[key] = time_dual(
            n, t, schedule, args.instances
        )
        print(
            f"{key:26s}: dual sweep {dual_ms[key]:8.3f} ms, dense oracle "
            f"{dual_dense_ms[key]:8.3f} ms, {dual_share[key]:.1%} of rows scored "
            f"({DUAL_ITERATIONS + 1} sweeps, median of {args.instances})",
            flush=True,
        )

    table_ms, table_peak = {}, {}
    for n, t in TABLE_SHAPES:
        key = f"N={n},T={t}"
        table_ms[key], table_peak[key] = time_tables(n, t, args.instances)
        print(
            f"N={n:2d}, T={t:5d}: welfare_tables {table_ms[key]:8.4f} ms per slot, "
            f"peak {table_peak[key]:.3f} x the table (median of {args.instances})",
            flush=True,
        )

    dual_peak = {}
    for n, t in DUAL_PEAK_SHAPES:
        key = f"N={n},T={t}"
        dual_peak[key] = dual_peak_ratio(n, t)
        print(
            f"N={n:2d}, T={t:5d}: dual peak {dual_peak[key]:.3f} x the table "
            f"({DUAL_PEAK_ITERATIONS} iterations)",
            flush=True,
        )

    order_ms, order_peak, order_retained = {}, {}, {}
    for m in ORDER_SIZES:
        order_ms[m], order_peak[m], order_retained[m] = time_order(m, args.instances)
        print(
            f"m={m:2d}: tiebreak_order {order_ms[m]:8.2f} ms, peak {order_peak[m]} B, "
            f"retained {order_retained[m]} B (median of {args.instances})",
            flush=True,
        )

    report = {
        "slot_configs": {k: str(p.relative_to(ROOT)) for k, p in SLOT_CONFIGS.items()},
        "slot_hotspot_overrides": HOTSPOT,
        "slots": args.slots,
        "slot_shape": slot_shape,
        "slot_stream_ms_median": slot_ms,
        "slot_oracle_loop_ms_median": slot_loop_ms,
        "slots_bit_identical_to_oracle": True,
        "config": str(CONFIG.relative_to(ROOT)),
        "instances": len(slots),
        "solve_exact_ms_median": {str(n): solve_ms[n] for n in SIZES},
        "subset_value_table_ms_median": {str(n): table_only_ms[n] for n in SIZES},
        "oracle_loop_table_ms_median": {str(n): loop_ms[n] for n in SIZES},
        "mean_region_grids": {str(n): grids[n] for n in SIZES},
        "tables_bit_identical_to_oracle": True,
        "allocate_many_rows": MANY_ROWS,
        "allocate_many_ms_median": {str(n): many_ms[n] for n in MANY_SIZES},
        "allocate_many_solve_exact_rows_ms_median": {str(n): many_alone_ms[n] for n in MANY_SIZES},
        "allocate_many_bit_identical_to_solve_exact": True,
        "allocate_many_greedy_slots": len(greedy_calls),
        "allocate_many_greedy_rows": greedy_rows,
        "allocate_many_greedy_negative_row_share": negative_share,
        "allocate_many_greedy_ms_per_slot_median": {str(n_desk): greedy_ms},
        "allocate_many_greedy_oracle_ms_per_slot_median": {str(n_desk): greedy_alone_ms},
        "allocate_many_greedy_bit_identical_to_oracle": True,
        "region_values_ms_median": {str(n_desk): values_ms},
        "sweep_bid_points": BID_POINTS,
        "truthfulness_sweep_ms_median": {str(n): sweep_ms[n] for n in SWEEP_SIZES},
        "dense_sweep_oracle_ms_median": {str(n): dense_ms[n] for n in SWEEP_SIZES},
        "sweeps_bit_identical_to_oracle": True,
        "dual_iterations": DUAL_ITERATIONS,
        "dual_sweep_ms_median": dual_ms,
        "dense_dual_oracle_ms_median": dual_dense_ms,
        "dual_rescored_row_share": dual_share,
        "dual_bit_identical_to_oracle": True,
        "dual_peak_iterations": DUAL_PEAK_ITERATIONS,
        "dual_peak_over_table_bytes": dual_peak,
        "welfare_tables_ms_per_slot_median": table_ms,
        "welfare_tables_peak_over_table_bytes": table_peak,
        "welfare_tables_bit_identical_to_per_slot_tables": True,
        "tiebreak_order_ms_median": {str(m): order_ms[m] for m in ORDER_SIZES},
        "tiebreak_order_peak_bytes": {str(m): order_peak[m] for m in ORDER_SIZES},
        "tiebreak_order_retained_bytes": {str(m): order_retained[m] for m in ORDER_SIZES},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if args.baseline:
        report["baseline"] = json.loads(Path(args.baseline).read_text())
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
