#!/usr/bin/env python3
"""Slot-generation and exact-solver microbenchmark: median ms per generated
slot at desk and welfare scale, us of slot draws per slot at three shapes,
per subset_value_table and per solve_exact at N = 8, 12, 16, 20, per
truthfulness_sweep at N = 8, 12, 16 and per dual
sweep at (N, T) = (8, 800), (8, 10,000) and (12, 800) with the default
harmonic steps and at (8, 800) with constant steps of 50, with the share of
rows each dual case scores again, the dual's peak memory over its table
at (N, T) = (12, 4,096), (16, 256) and (20, 16), and the peak memory of a
streamed trace and its references over its table at (4, 16,384), (8, 800)
and (16, 256), and the CSV writers' ms per row and peak memory over one
series at (T, N) = (200, 100), (2,000, 100) and (200, 8).

The slot draws are the G + 4n doubles of each of the first --slots slots
at (G grids, n users) = (2,500, 100), (100, 8) and (64, 16):
streams.block_doubles, seeded with seed_blocks in the blocks
realization_stream makes at those shapes (1, 10 and 8 slots), against one
numpy.random.default_rng([seed, slot]).random(G + 4n) per slot, in us per
slot; every double must be equal bit for bit.

Slot generation times realization_stream, which builds blocks of slots,
over the first --slots slots of configs/dropping_desk.json (100 users, 2,500
grids) and configs/welfare_desk.json (8 users, 100 grids), each with its
uniform weights and again with hotspot weights and temporal noise: the
whole stream's time over its slot count. The same slots are then rebuilt
slot by slot by the per-user loop in tests/oracle_regions.py, whose time is
recorded too, and every region, cost and weight must equal it bit for bit.

The welfare table build, Trace(slots, thresholds) on slots the section
holds, is timed per slot at (N, T) = (8, 800) and (16, 64) on the welfare
trace below (the welfare_tables_* keys); every row must equal the slot's
own subset_value_table minus its cost table bit for bit, and its
tracemalloc peak is recorded over the table's bytes.

Each solver instance is the first N users of one dropping-desk slot
(2,500 grids, disk regions), every user eligible, true costs as charges.
subset_value_table is timed on its own, then solve_exact, which builds the
table again. The table is compared bit for bit with the scalar loop in
tests/oracle_subset.py, called once per instance and not timed: at N = 20
it takes several seconds a call, and no figure reads its time.

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
objective and exact flag must equal the oracle's bit for bit. Each timed
call gets its own fresh copy of the slot, so the allocate_many side builds
SlotRealization.region_values inside its time and neither side reads values
the other built. The share of rows with a negative eligible charge, whose
later marginals cannot come from region_values, is recorded too. The build
of region_values alone is timed on fresh copies of each of the first
--instances slots at N = 100.

Each sweep scores 201 bids from 0 to 3x the swept user's cost, with
regulation factors drawn as `truthcheck` draws them; its time includes its
subset table. The dense bids x 2^N oracle in tests/oracle_sweep.py is timed
on the same inputs, and every report must equal it bit for bit.

Each dual trace is the first T slots of configs/welfare_desk.json at N users
with thresholds 0.5, as `benchmark` builds it. dual_upper_bound runs
DUAL_ITERATIONS iterations (one sweep each, plus one at the averaged
multipliers) on the trace's welfare table, built with the trace; its ms per
sweep is the run's time over its sweep count. The dense per-chunk
oracle in tests/oracle_dual.py is timed the same way on the same table, and
its bound and frequencies must equal the fast ones bit for bit. A wrapper on
sensecourt.benchmark.tiebreak_picks counts the rows one more run scores:
their share of T times the sweep count. The constant-step case moves the
multipliers so far each sweep that few rows keep their picks: the sweep's
worst case.

The dual's peak is the tracemalloc peak of dual_upper_bound, DUAL_PEAK_ITERATIONS
iterations on traces whose welfare tables hold 2^24 cells (128 MB), divided
by the table's bytes: what the sweep allocates beyond the table it reads.

The streamed peak is the tracemalloc peak of what `sensecourt benchmark`
holds: Trace(realization_stream(...), thresholds, T) on the welfare desk at
N users, then unconstrained_trace_welfare, dual_upper_bound
(DUAL_PEAK_ITERATIONS iterations) and solve_complete_bruteforce where
check_bruteforce_capacity allows it (never at the shipped shapes), divided
by the table's bytes: the slot stream, one block of slots and its
temporaries, and the references, beyond the table.

The writers are timed in a `simulate` run of configs/dropping_desk.json
(N = 100) or configs/welfare_desk.json (N = 8) at T slots, all its lanes
in lockstep: the flushes of the RunFiles recorder passed to
run_simulation, each of which writes one block of slots of every lane,
over the L x T x N rows of trace.csv. The largest tracemalloc peak of one
flush, beyond what the run held as it began, is divided by the bytes of
one (T, N) float64 series: what writing holds beyond the run itself.
Every file must equal the one-format()-a-cell writer in
tests/oracle_writers.py byte for byte.

The simulate peak is the tracemalloc peak of cmd_simulate on
configs/dropping_desk.json at T slots, in bytes and over the bytes of one
(L, T, N) float64 series of its L policies: what a run holds while it
writes its run files as it goes, which should not grow with T. It is read
on a second run of the config, since the first run in a process also
makes one-time allocations.

Each measurement is one function in SECTIONS. It takes the flags and the first
--instances dropping-desk slots, prints a line per case and returns its report
entries. It times through timed(), reads tracemalloc through traced() and
compares with its oracle through check(), which raises naming the case.
timed() calls what it times REPEATS times, on every instance, so one host
state does not make a figure: each *_median key is the median of all those
calls of its case and the *_iqr key beside it their interquartile range,
both in ms (per slot or per sweep where the key says so).

    PYTHONPATH=src python3 scripts/bench_solver.py --out BENCH_solver.json

With --baseline, a report the script wrote on another checkout (say, the
parent commit's src on PYTHONPATH) is kept under "baseline" in the new one.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from statistics import mean

import numpy as np

from sensecourt import benchmark, engine
from sensecourt.auction import truthfulness_sweep
from sensecourt.benchmark import (
    BenchmarkCapacityError, Trace, dual_upper_bound, solve_complete_bruteforce,
    unconstrained_trace_welfare,
)
from sensecourt.cli import cmd_simulate, load_config
from sensecourt.engine import run_simulation
from sensecourt.policy_dual import StepSchedule
from sensecourt.runfiles import RunFiles
from sensecourt.scenarios import realization_stream
from sensecourt.solver import (
    RegulatedInstance, SolveOptions, allocate_many, solve_exact, subset_linear_table,
    subset_value_table,
)
from sensecourt.streams import block_doubles, seed_blocks
from sensecourt.world import SlotRealization

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle_dual import dual_upper_bound_dense  # noqa: E402
from oracle_greedy import solve_greedy_loop  # noqa: E402
from oracle_regions import realization_stream_loop  # noqa: E402
from oracle_subset import subset_value_table_loop  # noqa: E402
from oracle_sweep import report_differences, truthfulness_sweep_dense  # noqa: E402
from oracle_writers import write_per_cell  # noqa: E402

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
STREAM_PEAK_SHAPES = ((4, 16_384), (8, 800), (16, 256))
TABLE_SHAPES = ((8, 800), (16, 64))
MANY_SIZES = (8, 12)
MANY_ROWS = 8
GREEDY_SLOTS = 160
WRITER_RUNS = (("desk", 200), ("desk", 2_000), ("welfare", 200))  # (config, T)
SIMULATE_PEAK_RUNS = (("desk", 200), ("desk", 2_000))  # (config, T)
DRAW_SHAPES = ((2500, 100, 1), (100, 8, 10), (64, 16, 8))  # (grids, users, slots a block)
DRAW_SEED = 42
REPEATS = 5  # timed calls of each case on each instance


def timed(fn, fresh=None):
    """The last result of REPEATS calls of fn() and the ms of each call.
    With `fresh`, each call is fn(fresh()), fresh() made outside the timer."""
    times = []
    for _ in range(REPEATS):
        arg = () if fresh is None else (fresh(),)
        start = time.perf_counter()
        out = fn(*arg)
        times.append((time.perf_counter() - start) * 1e3)
    return out, times


def spread(samples, scale: float = 1.0) -> tuple[float, float]:
    """Median and interquartile range of the ms samples over scale."""
    q1, mid, q3 = np.percentile(np.divide(samples, scale), [25, 50, 75])
    return float(mid), float(q3 - q1)


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
        (got.selected.tobytes(), got.objective.hex(), got.exact)
        == (solo.selected.tobytes(), solo.objective.hex(), solo.exact)
        for got, solo in zip(results, solves, strict=True)
    )


def first_users(slot: SlotRealization, n: int) -> SlotRealization:
    return SlotRealization(slot.weights, slot.regions[:n], slot.true_costs[:n])


def slot_bytes(slot: SlotRealization) -> list[bytes]:
    arrays = [slot.weights.values, slot.true_costs, *slot.regions]
    return [a.tobytes() for a in arrays]


def report_times(prefix: str, cases: dict) -> dict:
    """The (median, IQR) of each case as two keys, prefix_median and prefix_iqr."""
    return {
        f"{prefix}_median": {key: mid for key, (mid, _) in cases.items()},
        f"{prefix}_iqr": {key: iqr for key, (_, iqr) in cases.items()},
    }


def welfare_scenario(n: int):
    """The welfare desk's scenario at n users."""
    return dataclasses.replace(load_config(str(SLOT_CONFIGS["welfare"])).scenario, n_users=n)


def welfare_trace(n: int, t: int) -> tuple[tuple[SlotRealization, ...], Trace]:
    """The first t welfare-desk slots at n users and their trace, thresholds 0.5."""
    slots = tuple(realization_stream(welfare_scenario(n), t))
    return slots, Trace(slots, np.full(n, 0.5))


def slot_section(args, _slots) -> dict:
    """realization_stream per slot, uniform and hotspot, against the loop."""
    shape, stream, loop = {}, {}, {}
    for name, path in SLOT_CONFIGS.items():
        uniform = load_config(str(path)).scenario
        hotspot = dataclasses.replace(uniform, **HOTSPOT)
        for scale, scenario in ((name, uniform), (f"{name}_hotspot", hotspot)):
            got, ms = timed(lambda: list(realization_stream(scenario, args.slots)))
            stream[scale] = spread(ms, args.slots)
            want, ms = timed(lambda: list(realization_stream_loop(scenario, args.slots)))
            loop[scale] = spread(ms, args.slots)
            for t, (slot, ref) in enumerate(zip(got, want), start=1):
                check(slot_bytes(slot) == slot_bytes(ref), f"{scale} slot {t}")
            users, grids = scenario.n_users, scenario.map.n_grids
            shape[scale] = {"users": users, "grids": grids, "weight_mode": scenario.weight_mode}
            print(f"{scale:15s}: realization_stream {stream[scale][0]:7.3f} ms per slot, oracle "
                  f"loop {loop[scale][0]:7.3f} ms ({users} users, {grids} grids, {args.slots} "
                  f"slots, median of {REPEATS})", flush=True)
    return {
        "slot_configs": {k: str(p.relative_to(ROOT)) for k, p in SLOT_CONFIGS.items()},
        "slot_hotspot_overrides": HOTSPOT,
        "slots": args.slots,
        "slot_shape": shape,
        **report_times("slot_stream_ms", stream),
        **report_times("slot_oracle_loop_ms", loop),
        "slots_bit_identical_to_oracle": True,
    }


def draws_section(args, _slots) -> dict:
    """Each slot's G + 4n doubles: streams.block_doubles, seeded and drawn in
    realization_stream's blocks, against one default_rng per slot."""
    kernel, generator = {}, {}
    for grids, users, block in DRAW_SHAPES:
        width, key = grids + 4 * users, f"{grids}x{users}"
        got, ms = timed(lambda: [
            block_doubles(seeds, width) for seeds in seed_blocks((DRAW_SEED,), 1, args.slots, block)
        ])
        kernel[key] = spread(ms, args.slots / 1e3)
        want, ms = timed(lambda: [
            np.random.default_rng([DRAW_SEED, t]).random(width) for t in range(1, args.slots + 1)
        ])
        generator[key] = spread(ms, args.slots / 1e3)
        check(np.concatenate(got).tobytes() == np.concatenate(want).tobytes(), f"draws at {key}")
        print(f"draws {key:8s}: kernel {kernel[key][0]:7.1f} us per slot "
              f"({kernel[key][0] * 1e3 / width:5.1f} ns a word, {block} slots a block), "
              f"default_rng {generator[key][0]:7.1f} us (median of {REPEATS})", flush=True)
    return {
        "draw_shapes": [list(shape) for shape in DRAW_SHAPES],
        **report_times("draws_kernel_us_per_slot", kernel),
        **report_times("draws_default_rng_us_per_slot", generator),
        "draws_bit_identical_to_default_rng": True,
    }


def exact_section(_args, slots) -> dict:
    """subset_value_table, then solve_exact, each table checked against one
    untimed call of the scalar table loop."""
    table, solve, grids = {}, {}, {}
    for n in SIZES:
        users, times = np.arange(n), ([], [])
        for slot in slots:
            real = first_users(slot, n)
            got, table_t = timed(lambda: subset_value_table(real, users))
            inst = RegulatedInstance.of(real, real.true_costs)
            _, solve_t = timed(lambda: solve_exact(inst, exact_limit=n))
            want = subset_value_table_loop(real, users)
            check(np.array_equal(got.view(np.int64), want.view(np.int64)), f"table at N={n}")
            for samples, ms in zip(times, (table_t, solve_t)):
                samples += ms
        key = str(n)
        table[key], solve[key] = map(spread, times)
        grids[key] = mean(r.size for s in slots for r in s.regions[:n])
        print(f"N={n:2d}: subset_value_table {table[key][0]:8.2f} ms, solve_exact "
              f"{solve[key][0]:9.2f} ms, {grids[key]:.1f} grids per region (median of "
              f"{REPEATS} x {len(slots)})", flush=True)
    return {
        "config": str(CONFIG.relative_to(ROOT)),
        "instances": len(slots),
        **report_times("solve_exact_ms", solve),
        **report_times("subset_value_table_ms", table),
        "mean_region_grids": grids,
        "tables_bit_identical_to_oracle": True,
    }


def many_section(_args, slots) -> dict:
    """allocate_many on the exact route over MANY_ROWS charge rows (true costs
    minus random bonuses) against one solve_exact per row, each side on a
    fresh copy of the slot; every row is checked against its own solve."""
    many, alone = {}, {}
    for n in MANY_SIZES:
        exact, ones, many_t, alone_t = SolveOptions("exact", n), np.ones(n, dtype=bool), [], []
        for k, slot in enumerate(slots):
            costs = slot.true_costs[:n]
            charges = costs - np.random.default_rng([n, k]).uniform(0, costs.max(), (MANY_ROWS, n))
            real = first_users(slot, n)
            (results, _), ms = timed(lambda: allocate_many(real, charges, ones, exact))
            many_t += ms
            real = first_users(slot, n)
            solves, ms = timed(lambda: [solve_exact(RegulatedInstance(real, c, ones), n)
                                        for c in charges])
            alone_t += ms
            check(same_solves(results, solves), f"allocate_many (exact) at N={n}")
        key = str(n)
        many[key], alone[key] = spread(many_t), spread(alone_t)
        print(f"N={n:2d}: allocate_many (exact) {many[key][0]:7.3f} ms for {MANY_ROWS} rows, "
              f"{MANY_ROWS} x solve_exact {alone[key][0]:7.3f} ms (median of {REPEATS} x "
              f"{len(slots)})", flush=True)
    return {
        "allocate_many_rows": MANY_ROWS,
        **report_times("allocate_many_ms", many),
        **report_times("allocate_many_solve_exact_rows_ms", alone),
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
        fresh = functools.partial(first_users, slot, slot.n_users)
        results, ms = timed(lambda real: [allocate_many(real, c, e, greedy)[0] for c, e in pairs],
                            fresh)
        many += ms
        solves, ms = timed(lambda real: [
            [solve_greedy_loop(RegulatedInstance(real, row, e)) for row in c] for c, e in pairs
        ], fresh)
        oracle += ms
        for (charges, eligible), got, want in zip(pairs, results, solves):
            check(same_solves(got, want), "allocate_many (greedy)")
            rows += len(charges)
            negative += int(np.count_nonzero((charges[:, eligible] < 0).any(axis=1)))
    n, values = cfg.scenario.n_users, []
    for slot in slots:
        values += timed(lambda real: real.region_values, functools.partial(first_users, slot, n))[1]
    key, many, oracle, values = str(n), spread(many), spread(oracle), spread(values)
    print(f"N={n}: allocate_many (greedy) {many[0]:7.3f} ms per slot, oracle greedy "
          f"{oracle[0]:7.3f} ms ({rows} recorded rows over {len(calls)} slots, "
          f"{negative / rows:.1%} with a negative charge), region_values "
          f"{values[0]:7.3f} ms (median of {REPEATS} x {len(slots)})", flush=True)
    return {
        "allocate_many_greedy_slots": len(calls),
        "allocate_many_greedy_rows": rows,
        "allocate_many_greedy_negative_row_share": negative / rows,
        **report_times("allocate_many_greedy_ms_per_slot", {key: many}),
        **report_times("allocate_many_greedy_oracle_ms_per_slot", {key: oracle}),
        "allocate_many_greedy_bit_identical_to_oracle": True,
        **report_times("region_values_ms", {key: values}),
    }


def sweep_section(_args, slots) -> dict:
    """truthfulness_sweep against the dense oracle on the same inputs."""
    sweep, dense = {}, {}
    for n in SWEEP_SIZES:
        sweeps, denses = [], []
        for k, slot in enumerate(slots):
            real, rng, user = first_users(slot, n), np.random.default_rng([n, k]), k % n
            factors = rng.uniform(0.0, 0.5 * real.true_costs.max(), n)
            grid = np.linspace(0.0, 3.0 * real.true_costs[user], BID_POINTS)
            inputs = (real, factors, real.true_costs, user, grid)
            got, ms = timed(lambda: truthfulness_sweep(*inputs))
            sweeps += ms
            want, ms = timed(lambda: truthfulness_sweep_dense(*inputs))
            denses += ms
            differ = report_differences(got, want)
            check(not differ, f"sweep at N={n} ({', '.join(differ)})")
        key = str(n)
        sweep[key], dense[key] = spread(sweeps), spread(denses)
        print(f"N={n:2d}: truthfulness_sweep {sweep[key][0]:9.2f} ms, dense oracle "
              f"{dense[key][0]:9.2f} ms ({BID_POINTS} bids, median of {REPEATS} x "
              f"{len(slots)})", flush=True)
    return {
        "sweep_bid_points": BID_POINTS,
        **report_times("truthfulness_sweep_ms", sweep),
        **report_times("dense_sweep_oracle_ms", dense),
        "sweeps_bit_identical_to_oracle": True,
    }


def dual_section(_args, _slots) -> dict:
    """ms per dual sweep, fast and dense oracle, on one welfare trace per
    case, and the share of the T x sweeps rows that the fast sweep scores."""
    fast, dense, share = {}, {}, {}
    sweeps = DUAL_ITERATIONS + 1
    for n, t, schedule in DUAL_CASES:
        key = f"N={n},T={t}" + (f",{schedule.kind}={schedule.coeff}" if schedule else "")
        slots, trace = welfare_trace(n, t)
        inputs = (trace, DUAL_ITERATIONS, schedule)
        got, ms = timed(lambda: dual_upper_bound(*inputs))
        fast[key] = spread(ms, sweeps)
        want, ms = timed(lambda: dual_upper_bound_dense(trace, slots, DUAL_ITERATIONS, schedule))
        dense[key] = spread(ms, sweeps)
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
        del slots, trace, inputs
        share[key] = scored / (t * sweeps)
        print(f"{key:26s}: dual sweep {fast[key][0]:8.3f} ms, dense oracle {dense[key][0]:8.3f} "
              f"ms, {share[key]:.1%} of rows scored ({sweeps} sweeps, median of {REPEATS})",
              flush=True)
    return {
        "dual_iterations": DUAL_ITERATIONS,
        **report_times("dual_sweep_ms", fast),
        **report_times("dense_dual_oracle_ms", dense),
        "dual_rescored_row_share": share,
        "dual_bit_identical_to_oracle": True,
    }


def tables_section(_args, _slots) -> dict:
    """The welfare table build per slot, every row checked against the
    slot's own table, and its tracemalloc peak over the table's bytes."""
    per_slot, peak = {}, {}
    for n, t in TABLE_SHAPES:
        key, d = f"N={n},T={t}", np.full(n, 0.5)
        slots = tuple(realization_stream(welfare_scenario(n), t))
        trace, ms = timed(lambda: Trace(slots, d))
        for k, (slot, row) in enumerate(zip(slots, trace.tables, strict=True)):
            own = subset_value_table(slot, np.arange(n)) - subset_linear_table(slot.true_costs)
            check(row.tobytes() == own.tobytes(), f"welfare table row {k} at {key}")
        del trace
        trace, bytes_peak, _ = traced(lambda: Trace(slots, d))
        per_slot[key], peak[key] = spread(ms, t), bytes_peak / trace.tables.nbytes
        del slots, trace
        print(f"N={n:2d}, T={t:5d}: welfare table {per_slot[key][0]:8.4f} ms per slot, "
              f"peak {peak[key]:.3f} x the table (median of {REPEATS})", flush=True)
    return {
        **report_times("welfare_tables_ms_per_slot", per_slot),
        "welfare_tables_peak_over_table_bytes": peak,
        "welfare_tables_bit_identical_to_per_slot_tables": True,
    }


def dual_peak_section(_args, _slots) -> dict:
    """tracemalloc peak of dual_upper_bound on a built trace, in table bytes."""
    ratio = {}
    for n, t in DUAL_PEAK_SHAPES:
        trace = Trace(realization_stream(welfare_scenario(n), t), np.full(n, 0.5), t)
        _, peak, _ = traced(lambda: dual_upper_bound(trace, DUAL_PEAK_ITERATIONS))
        key = f"N={n},T={t}"
        ratio[key] = peak / trace.tables.nbytes
        del trace
        print(f"N={n:2d}, T={t:5d}: dual peak {ratio[key]:.3f} x the table "
              f"({DUAL_PEAK_ITERATIONS} iterations)", flush=True)
    return {"dual_peak_iterations": DUAL_PEAK_ITERATIONS, "dual_peak_over_table_bytes": ratio}


def stream_peak_section(_args, _slots) -> dict:
    """tracemalloc peak of a streamed trace and the references `benchmark`
    runs on it, in table bytes."""
    ratio = {}
    for n, t in STREAM_PEAK_SHAPES:
        scenario = welfare_scenario(n)

        def run() -> int:
            trace = Trace(realization_stream(scenario, t), np.full(n, 0.5), t)
            unconstrained_trace_welfare(trace)
            dual_upper_bound(trace, DUAL_PEAK_ITERATIONS)
            with contextlib.suppress(BenchmarkCapacityError):  # as bruteforce "auto"
                solve_complete_bruteforce(trace)
            return trace.tables.nbytes

        table_bytes, peak, _ = traced(run)
        key = f"N={n},T={t}"
        ratio[key] = peak / table_bytes
        print(f"N={n:2d}, T={t:5d}: streamed trace and references peak {ratio[key]:.3f} x the "
              f"{table_bytes / 1e6:.1f} MB table", flush=True)
    return {"stream_trace_peak_over_table_bytes": ratio}


class FlushTimer(RunFiles):
    """simulate's recorder, timing each flush (its writers' share of a run)
    and, while tracemalloc traces, keeping the most any flush allocated
    beyond what the run held when the flush began."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ms, self.peak = 0.0, 0

    def flush(self) -> None:
        tracing = tracemalloc.is_tracing()
        if tracing:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        super().flush()
        self.ms += (time.perf_counter() - start) * 1e3
        if tracing:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - held)


def writers_section(_args, _slots) -> dict:
    """The flushes of a simulate run over all its lanes: ms per trace row,
    the largest flush's tracemalloc peak over one series' bytes, and every
    file checked against the per-cell oracle."""
    per_row, peak, runs = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp, "ref")
        ref.mkdir()

        for name, t in WRITER_RUNS:
            cfg = load_config(str(SLOT_CONFIGS[name]))
            n, labels = cfg.scenario.n_users, [spec.label for spec in cfg.policies]
            dirs = [Path(tmp, f"lane{lane}") for lane in range(len(labels))]
            args = cfg.scenario, cfg.policies, t, cfg.warmup_slots, cfg.thresholds, cfg.solver

            def simulate() -> FlushTimer:
                with FlushTimer(dirs, labels, 0) as run:
                    run_simulation(*args, recorder=run)
                return run

            ms = [simulate().ms for _ in range(REPEATS)]
            key = f"N={n},T={t}"
            runs[key] = str(SLOT_CONFIGS[name].relative_to(ROOT))
            per_row[key] = spread(ms, len(labels) * t * n)
            peak[key] = traced(simulate)[0].peak / (t * n * 8)
            for run_dir, metrics in zip(dirs, run_simulation(*args)):
                write_per_cell(ref, metrics)
                same = all(f.read_bytes() == (ref / f.name).read_bytes() for f in run_dir.iterdir())
                check(same, f"writers on {metrics.policy_label} at {key}")
            print(f"{name:7s} N={n:3d}, T={t:5d}: writers {per_row[key][0] * 1e3:7.3f} us per row, "
                  f"flush peak {peak[key]:.3f} x one (T, N) series (median of {REPEATS} runs "
                  f"of {len(labels)} lanes)", flush=True)
    return {
        "writer_runs": runs,
        **report_times("writers_ms_per_row", per_row),
        "writers_peak_over_series_bytes": peak,
        "writers_bit_identical_to_per_cell_oracle": True,
    }


def simulate_peak_section(_args, _slots) -> dict:
    """The tracemalloc peak of cmd_simulate at T slots, in bytes and over
    one (L, T, N) float64 series."""
    runs, peak, ratio = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, t in SIMULATE_PEAK_RUNS:
            raw = json.loads(SLOT_CONFIGS[name].read_text()) | {"t_slots": t}
            config = Path(tmp, f"{name}_{t}.json")
            config.write_text(json.dumps(raw))
            cfg = load_config(str(config))
            key = f"N={cfg.scenario.n_users},T={t}"
            runs[key] = str(SLOT_CONFIGS[name].relative_to(ROOT))
            run = functools.partial(cmd_simulate, str(config), out=str(Path(tmp, "out")))
            run()  # the first run in a process also makes one-time allocations
            _, peak[key], _ = traced(run)
            series = len(cfg.policies) * t * cfg.scenario.n_users * 8
            ratio[key] = peak[key] / series
            print(f"{name:7s} N={cfg.scenario.n_users:3d}, T={t:5d}: simulate peak "
                  f"{peak[key] / 1e6:.3f} MB, {ratio[key]:.3f} x one (L, T, N) series", flush=True)
    return {
        "simulate_peak_runs": runs,
        "simulate_peak_bytes": peak,
        "simulate_peak_over_series_bytes": ratio,
    }


SECTIONS = (
    slot_section, draws_section, exact_section, many_section, greedy_section, sweep_section,
    dual_section, tables_section, dual_peak_section, stream_peak_section, writers_section,
    simulate_peak_section,
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
