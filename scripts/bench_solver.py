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

welfare_tables, the build a Trace runs once for its `tables`, is timed per
slot at (N, T) = (8, 800) and (16, 64) on the welfare trace below, median
of --instances builds; every row must equal the slot's own
subset_value_table minus its cost table, in tie-break order, bit for bit,
and its tracemalloc peak is recorded over the table's bytes.

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
multipliers) on the trace's welfare table, built with the trace; its ms per sweep is the run's
time over its sweep count, median of --instances runs. The dense per-chunk
oracle in tests/oracle_dual.py is timed the same way on the same table, and
its bound and frequencies must equal the fast ones bit for bit. A wrapper on
sensecourt.benchmark.tiebreak_picks counts the rows one more run scores:
their share of T times the sweep count. The constant-step case moves the
multipliers so far each sweep that few rows keep their picks: the sweep's
worst case.

The dual's peak is the tracemalloc peak of dual_upper_bound, DUAL_PEAK_ITERATIONS
iterations on traces whose welfare tables hold 2^24 cells (128 MB), divided
by the table's bytes: what the sweep allocates beyond the table it reads.

tiebreak_order(m) at m = 16 and 20 is built from an empty cache: median ms of
--instances builds, and the tracemalloc peak and the bytes still held once
the build returns (the cached order) of one more build. It runs first: after
the other sections its time depends on the state of the heap they leave.

Each measurement is one function in SECTIONS. It takes the flags and the first
--instances dropping-desk slots, prints a line per case and returns its report
entries. It times through timed(), reads tracemalloc through traced() and
compares with its oracle through check(), which raises naming the case.

    PYTHONPATH=src python3 scripts/bench_solver.py --out BENCH_solver.json

With --baseline, a report the script wrote on another checkout (say, the
parent commit's src on PYTHONPATH) is kept under "baseline" in the new one.
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import mean, median

import numpy as np

from sensecourt import benchmark, engine
from sensecourt.auction import truthfulness_sweep
from sensecourt.benchmark import Trace, dual_upper_bound, welfare_tables
from sensecourt.cli import load_config
from sensecourt.engine import run_simulation
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import realization_stream
from sensecourt.solver import (
    RegulatedInstance, SolveOptions, allocate_many, solve_exact, subset_linear_table,
    subset_value_table, tiebreak_order,
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
    (8, 800, None), (8, 10_000, None), (12, 800, None), (8, 800, StepSchedule.constant(50.0)),
)
DUAL_ITERATIONS = 50
DUAL_PEAK_SHAPES = ((12, 4096), (16, 256), (20, 16))
DUAL_PEAK_ITERATIONS = 3
TABLE_SHAPES = ((8, 800), (16, 64))
MANY_SIZES = (8, 12)
MANY_ROWS = 8
GREEDY_SLOTS = 160
ORDER_SIZES = (16, 20)


def timed(fn, runs: int = 1):
    """The last of `runs` results of fn() and the median ms of one call."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return out, median(times)


def traced(fn):
    """fn(), its tracemalloc peak and the bytes still held once it returns."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, retained


def check(ok: bool, case: str) -> None:
    """The harness's one oracle check: stop the run, naming the case."""
    if not ok:
        raise AssertionError(f"{case} differs from its oracle")


def same_solves(results, solves) -> bool:
    """Each result equal to its own solve: allocation, objective bits, exact flag."""
    return all(
        (got.alloc.selected.tobytes(), got.objective.hex(), got.exact)
        == (solo.alloc.selected.tobytes(), solo.objective.hex(), solo.exact)
        for got, solo in zip(results, solves, strict=True)
    )


def first_users(slot: SlotRealization, n: int) -> SlotRealization:
    return SlotRealization(slot.weights, slot.regions[:n], slot.true_costs[:n])


def slot_bytes(slot: SlotRealization) -> list[bytes]:
    arrays = [slot.weights.values, slot.true_costs, *(r.indices for r in slot.regions)]
    return [a.tobytes() for a in arrays]


def welfare_trace(n: int, t: int) -> Trace:
    """The first t welfare-desk slots at n users, thresholds 0.5."""
    scenario = dataclasses.replace(load_config(str(SLOT_CONFIGS["welfare"])).scenario, n_users=n)
    return Trace(tuple(realization_stream(scenario, t)), np.full(n, 0.5))


def slot_section(args, _slots) -> dict:
    """realization_stream per slot, uniform and hotspot, against the loop."""
    shape, stream_ms, loop_ms = {}, {}, {}
    for name, path in SLOT_CONFIGS.items():
        uniform = load_config(str(path)).scenario
        hotspot = dataclasses.replace(uniform, **HOTSPOT)
        for scale, scenario in ((name, uniform), (f"{name}_hotspot", hotspot)):
            got, ms = timed(lambda: list(realization_stream(scenario, args.slots)), args.instances)
            want, loop = timed(lambda: list(realization_stream_loop(scenario, args.slots)))
            for t, (slot, ref) in enumerate(zip(got, want), start=1):
                check(slot_bytes(slot) == slot_bytes(ref), f"{scale} slot {t}")
            stream_ms[scale], loop_ms[scale] = ms / args.slots, loop / args.slots
            users, grids = scenario.n_users, scenario.map.n_grids
            shape[scale] = {"users": users, "grids": grids, "weight_mode": scenario.weight_mode}
            print(f"{scale:15s}: realization_stream {stream_ms[scale]:7.3f} ms per slot, oracle "
                  f"loop {loop_ms[scale]:7.3f} ms ({users} users, {grids} grids, {args.slots} "
                  f"slots, median of {args.instances})", flush=True)
    return {
        "slot_configs": {k: str(p.relative_to(ROOT)) for k, p in SLOT_CONFIGS.items()},
        "slot_hotspot_overrides": HOTSPOT,
        "slots": args.slots,
        "slot_shape": shape,
        "slot_stream_ms_median": stream_ms,
        "slot_oracle_loop_ms_median": loop_ms,
        "slots_bit_identical_to_oracle": True,
    }


def exact_section(_args, slots) -> dict:
    """subset_value_table, then solve_exact, against the scalar table loop."""
    table_ms, solve_ms, loop_ms, grids = {}, {}, {}, {}
    for n in SIZES:
        users, times = np.arange(n), []
        for slot in slots:
            real = first_users(slot, n)
            table, table_t = timed(lambda: subset_value_table(real, users))
            inst = RegulatedInstance.of(real, real.true_costs)
            _, solve_t = timed(lambda: solve_exact(inst, exact_limit=n))
            want, loop_t = timed(lambda: subset_value_table_loop(real, users))
            check(np.array_equal(table.view(np.int64), want.view(np.int64)), f"table at N={n}")
            times.append((table_t, solve_t, loop_t))
        key = str(n)
        table_ms[key], solve_ms[key], loop_ms[key] = map(median, zip(*times))
        grids[key] = mean(r.size for s in slots for r in s.regions[:n])
        print(f"N={n:2d}: subset_value_table {table_ms[key]:8.2f} ms, solve_exact "
              f"{solve_ms[key]:9.2f} ms, oracle loop {loop_ms[key]:9.2f} ms, {grids[key]:.1f} "
              f"grids per region (median of {len(slots)})", flush=True)
    return {
        "config": str(CONFIG.relative_to(ROOT)),
        "instances": len(slots),
        "solve_exact_ms_median": solve_ms,
        "subset_value_table_ms_median": table_ms,
        "oracle_loop_table_ms_median": loop_ms,
        "mean_region_grids": grids,
        "tables_bit_identical_to_oracle": True,
    }


def many_section(_args, slots) -> dict:
    """allocate_many on the exact route over MANY_ROWS charge rows (true costs
    minus random bonuses) against one solve_exact per row, each side on a
    fresh copy of the slot; every row is checked against its own solve."""
    many_ms, alone_ms = {}, {}
    for n in MANY_SIZES:
        exact, ones, many, alone = SolveOptions("exact", n), np.ones(n, dtype=bool), [], []
        for k, slot in enumerate(slots):
            costs = slot.true_costs[:n]
            charges = costs - np.random.default_rng([n, k]).uniform(0, costs.max(), (MANY_ROWS, n))
            real = first_users(slot, n)
            (results, _), ms = timed(lambda: allocate_many(real, charges, ones, exact))
            many.append(ms)
            real = first_users(slot, n)
            solves, ms = timed(lambda: [solve_exact(RegulatedInstance(real, c, ones), n)
                                        for c in charges])
            alone.append(ms)
            check(same_solves(results, solves), f"allocate_many (exact) at N={n}")
        key = str(n)
        many_ms[key], alone_ms[key] = median(many), median(alone)
        print(f"N={n:2d}: allocate_many (exact) {many_ms[key]:7.3f} ms for {MANY_ROWS} rows, "
              f"{MANY_ROWS} x solve_exact {alone_ms[key]:7.3f} ms (median of {len(slots)})",
              flush=True)
    return {
        "allocate_many_rows": MANY_ROWS,
        "allocate_many_ms_median": many_ms,
        "allocate_many_solve_exact_rows_ms_median": alone_ms,
        "allocate_many_bit_identical_to_solve_exact": True,
    }


def greedy_section(_args, slots) -> dict:
    """The greedy-route calls of a dropping-desk run, slot by slot, against
    the oracle on each of their rows, and the build of region_values."""
    cfg = load_config(str(CONFIG))
    calls: list[tuple[SlotRealization, list]] = []  # per slot, its (charges, eligible)
    original = engine.allocate_many

    def recording(realization, charges, eligible, options=SolveOptions()):
        if options.route(int(np.count_nonzero(eligible))) == "greedy":
            if not calls or calls[-1][0] is not realization:
                calls.append((realization, []))
            calls[-1][1].append((np.array(charges), np.array(eligible)))
        return original(realization, charges, eligible, options)

    engine.allocate_many = recording
    try:
        run_simulation(
            cfg.scenario, cfg.policies, cfg.warmup_slots + GREEDY_SLOTS, cfg.warmup_slots,
            cfg.thresholds, cfg.solver,
        )
    finally:
        engine.allocate_many = original

    greedy, many, oracle = SolveOptions("greedy"), [], []
    rows = negative = 0
    for slot, pairs in calls:
        real = first_users(slot, slot.n_users)
        results, ms = timed(lambda: [allocate_many(real, c, e, greedy)[0] for c, e in pairs])
        many.append(ms)
        real = first_users(slot, slot.n_users)
        solves, ms = timed(lambda: [
            [solve_greedy_loop(RegulatedInstance(real, row, e)) for row in c] for c, e in pairs
        ])
        oracle.append(ms)
        for (charges, eligible), got, want in zip(pairs, results, solves):
            check(same_solves(got, want), "allocate_many (greedy)")
            rows += len(charges)
            negative += int(np.count_nonzero((charges[:, eligible] < 0).any(axis=1)))
    n, values = cfg.scenario.n_users, []
    for slot in slots:
        real = first_users(slot, n)
        values.append(timed(lambda: real.region_values)[1])
    key, many_ms, oracle_ms = str(n), median(many), median(oracle)
    print(f"N={n}: allocate_many (greedy) {many_ms:7.3f} ms per slot, oracle greedy "
          f"{oracle_ms:7.3f} ms ({rows} recorded rows over {len(calls)} slots, "
          f"{negative / rows:.1%} with a negative charge), region_values "
          f"{median(values):7.3f} ms (median of {len(slots)})", flush=True)
    return {
        "allocate_many_greedy_slots": len(calls),
        "allocate_many_greedy_rows": rows,
        "allocate_many_greedy_negative_row_share": negative / rows,
        "allocate_many_greedy_ms_per_slot_median": {key: many_ms},
        "allocate_many_greedy_oracle_ms_per_slot_median": {key: oracle_ms},
        "allocate_many_greedy_bit_identical_to_oracle": True,
        "region_values_ms_median": {key: median(values)},
    }


def sweep_section(_args, slots) -> dict:
    """truthfulness_sweep against the dense oracle on the same inputs."""
    sweep_ms, dense_ms = {}, {}
    for n in SWEEP_SIZES:
        sweeps, dense = [], []
        for k, slot in enumerate(slots):
            real, rng, user = first_users(slot, n), np.random.default_rng([n, k]), k % n
            factors = rng.uniform(0.0, 0.5 * real.true_costs.max(), n)
            grid = np.linspace(0.0, 3.0 * real.true_costs[user], BID_POINTS)
            inputs = (real, factors, real.true_costs, user, grid)
            got, ms = timed(lambda: truthfulness_sweep(*inputs))
            sweeps.append(ms)
            want, ms = timed(lambda: truthfulness_sweep_dense(*inputs))
            dense.append(ms)
            differ = report_differences(got, want)
            check(not differ, f"sweep at N={n} ({', '.join(differ)})")
        key = str(n)
        sweep_ms[key], dense_ms[key] = median(sweeps), median(dense)
        print(f"N={n:2d}: truthfulness_sweep {sweep_ms[key]:9.2f} ms, dense oracle "
              f"{dense_ms[key]:9.2f} ms ({BID_POINTS} bids, median of {len(slots)})", flush=True)
    return {
        "sweep_bid_points": BID_POINTS,
        "truthfulness_sweep_ms_median": sweep_ms,
        "dense_sweep_oracle_ms_median": dense_ms,
        "sweeps_bit_identical_to_oracle": True,
    }


def dual_section(args, _slots) -> dict:
    """ms per dual sweep, fast and dense oracle, on one welfare trace per
    case, and the share of the T x sweeps rows that the fast sweep scores."""
    sweep_ms, dense_ms, share = {}, {}, {}
    sweeps = DUAL_ITERATIONS + 1
    for n, t, schedule in DUAL_CASES:
        key = f"N={n},T={t}" + (f",{schedule.kind}={schedule.coeff}" if schedule else "")
        trace = welfare_trace(n, t)
        inputs = (trace, DUAL_ITERATIONS, schedule)
        fast, dense = [], []
        for _ in range(args.instances):
            got, ms = timed(lambda: dual_upper_bound(*inputs))
            fast.append(ms / sweeps)
            want, ms = timed(lambda: dual_upper_bound_dense(*inputs))
            dense.append(ms / sweeps)
            bits = [(b.avg_welfare.hex(), b.per_user_alloc_prob.tobytes()) for b in (got, want)]
            check(bits[0] == bits[1], f"dual bound at {key}")
        scored = 0
        original = benchmark.tiebreak_picks

        def counting(rows, add, which=None):
            nonlocal scored
            scored += len(rows) if which is None else len(which)
            return original(rows, add, which)

        benchmark.tiebreak_picks = counting
        try:
            dual_upper_bound(*inputs)
        finally:
            benchmark.tiebreak_picks = original
        del trace, inputs
        sweep_ms[key], dense_ms[key] = median(fast), median(dense)
        share[key] = scored / (t * sweeps)
        print(f"{key:26s}: dual sweep {sweep_ms[key]:8.3f} ms, dense oracle {dense_ms[key]:8.3f} "
              f"ms, {share[key]:.1%} of rows scored ({sweeps} sweeps, median of "
              f"{args.instances})", flush=True)
    return {
        "dual_iterations": DUAL_ITERATIONS,
        "dual_sweep_ms_median": sweep_ms,
        "dense_dual_oracle_ms_median": dense_ms,
        "dual_rescored_row_share": share,
        "dual_bit_identical_to_oracle": True,
    }


def tables_section(args, _slots) -> dict:
    """welfare_tables per slot, every row checked against the slot's own
    table, and its tracemalloc peak over the table's bytes."""
    ms_per_slot, peak = {}, {}
    for n, t in TABLE_SHAPES:
        key, trace, by_rank = f"N={n},T={t}", welfare_trace(n, t), tiebreak_order(n)
        tables, ms = timed(lambda: welfare_tables(trace.slots), args.instances)
        for k, (slot, row) in enumerate(zip(trace.slots, tables)):
            own = subset_value_table(slot, np.arange(n)) - subset_linear_table(slot.true_costs)
            check(row.tobytes() == own[by_rank].tobytes(), f"welfare_tables row {k} at {key}")
        del tables
        tables, bytes_peak, _ = traced(lambda: welfare_tables(trace.slots))
        ms_per_slot[key], peak[key] = ms / t, bytes_peak / tables.nbytes
        print(f"N={n:2d}, T={t:5d}: welfare_tables {ms_per_slot[key]:8.4f} ms per slot, "
              f"peak {peak[key]:.3f} x the table (median of {args.instances})", flush=True)
    return {
        "welfare_tables_ms_per_slot_median": ms_per_slot,
        "welfare_tables_peak_over_table_bytes": peak,
        "welfare_tables_bit_identical_to_per_slot_tables": True,
    }


def dual_peak_section(_args, _slots) -> dict:
    """tracemalloc peak of dual_upper_bound on a built trace, in table bytes."""
    ratio = {}
    for n, t in DUAL_PEAK_SHAPES:
        trace = welfare_trace(n, t)
        tiebreak_order(n)  # cached once per process, not part of the sweep
        _, peak, _ = traced(lambda: dual_upper_bound(trace, DUAL_PEAK_ITERATIONS))
        key = f"N={n},T={t}"
        ratio[key] = peak / trace.tables.nbytes
        del trace
        print(f"N={n:2d}, T={t:5d}: dual peak {ratio[key]:.3f} x the table "
              f"({DUAL_PEAK_ITERATIONS} iterations)", flush=True)
    return {"dual_peak_iterations": DUAL_PEAK_ITERATIONS, "dual_peak_over_table_bytes": ratio}


def order_section(args, _slots) -> dict:
    """tiebreak_order(m) from an empty cache: median ms, and the peak and
    retained bytes of one more build."""
    order_ms, peak, retained = {}, {}, {}
    for m in ORDER_SIZES:
        times = []
        for _ in range(args.instances):
            tiebreak_order.cache_clear()
            times.append(timed(lambda: tiebreak_order(m))[1])
        tiebreak_order.cache_clear()
        key = str(m)
        order_ms[key] = median(times)
        _, peak[key], retained[key] = traced(lambda: tiebreak_order(m))
        print(f"m={m:2d}: tiebreak_order {order_ms[key]:8.2f} ms, peak {peak[key]} B, "
              f"retained {retained[key]} B (median of {args.instances})", flush=True)
    return {
        "tiebreak_order_ms_median": order_ms,
        "tiebreak_order_peak_bytes": peak,
        "tiebreak_order_retained_bytes": retained,
    }


SECTIONS = (  # the order builds first, before the other sections have grown the heap
    order_section, slot_section, exact_section, many_section, greedy_section, sweep_section,
    dual_section, tables_section, dual_peak_section,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_solver.json")
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--slots", type=int, default=200)
    parser.add_argument("--baseline", help="an earlier report to keep under 'baseline'")
    args = parser.parse_args(argv)
    if args.instances < 1:
        parser.error("--instances must be at least 1")
    if args.slots < 1:
        parser.error("--slots must be at least 1")

    slots = list(realization_stream(load_config(str(CONFIG)).scenario, args.instances))
    report = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    for section in SECTIONS:
        report.update(section(args, slots))
    if args.baseline:
        report["baseline"] = json.loads(Path(args.baseline).read_text())
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
