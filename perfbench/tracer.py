"""Outside-in span tracing of the sensecourt layers.

The program is not instrumented. Instead, while a command runs, every
public function that one layer calls in another is replaced at each module
that imported it by name (patching only the defining module would miss
those call sites) with a wrapper that records a span: name, start, end,
parent and a few attributes. Spans stay in memory until the command ends.
`aggregate` turns them into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

# Call sites that no shipped config reaches. Branch and bound is wrapped so
# that `solver.bnb.calls` counts it, but no workload routes to it today.
UNREACHED_SITES = frozenset({"solver.branch_and_bound"})


def _eligible_count(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    return {"eligible": int(inst.eligible.sum())}


def _bnb_attrs(args, kwargs, result):
    return _eligible_count(args, kwargs, result) | {"exact": bool(result.exact)}


def _table_attrs(args, kwargs, result):
    realization, users = args[0], args[1]
    key = hashlib.sha1(realization.weights.values.tobytes())
    key.update(bytes(memoryview(users.astype("int64"))))
    return {"m": int(len(users)), "key": key.hexdigest()}


# (module, attribute, span name, attribute function). Generators are listed
# under STREAM_SITES because their work happens on each next(), not on the call.
SITES = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run_simulation", "engine.run_simulation", None),
    ("cli", "write_trace_csv", "cli.write", None),
    ("cli", "write_plotdata", "cli.write", None),
    ("cli", "unconstrained_trace_welfare", "benchmark.unconstrained", None),
    ("cli", "dual_upper_bound", "benchmark.dual", None),
    ("engine", "run_policy", "engine.run_policy", None),
    ("engine", "evaluate_allocation", "world.evaluate", None),
    ("policy_dual", "dual_allocate", "policy.allocate", None),
    ("policy_dual", "dual_update", "policy.update", None),
    ("policy_dual", "solve", "solver.solve", None),
    ("policy_lyapunov", "lyapunov_allocate", "policy.allocate", None),
    ("policy_lyapunov", "queue_update", "policy.update", None),
    ("policy_lyapunov", "solve", "solver.solve", None),
    ("baselines", "radp_vpc_step", "policy.allocate", None),
    ("baselines", "greedy_baseline_step", "policy.allocate", None),
    ("baselines", "random_baseline_step", "policy.allocate", None),
    ("baselines", "solve", "solver.solve", None),
    ("baselines", "solve_greedy", "solver.greedy", _eligible_count),
    ("auction", "run_auction_slot", "auction.slot", None),
    ("auction", "regulation_update", "policy.update", None),
    ("auction", "truthfulness_sweep", "auction.sweep", None),
    ("auction", "solve_exact", "solver.exact", _eligible_count),
    ("auction", "subset_value_table", "solver.subset_table", _table_attrs),
    ("benchmark", "solve", "solver.solve", None),
    ("benchmark", "subset_value_table", "solver.subset_table", _table_attrs),
    ("solver", "solve_exact", "solver.exact", _eligible_count),
    ("solver", "solve_greedy", "solver.greedy", _eligible_count),
    ("solver", "branch_and_bound", "solver.bnb", _bnb_attrs),
    ("solver", "subset_value_table", "solver.subset_table", _table_attrs),
)
STREAM_SITES = (
    ("engine", "realization_stream"),
    ("cli", "realization_stream"),
)


def site_names() -> list[str]:
    return [f"{m}.{a}" for m, a, _, _ in SITES] + [f"{m}.{a}" for m, a in STREAM_SITES]


class Tracer:
    """Collects spans as [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.hits: dict[str, int] = dict.fromkeys(site_names(), 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _wrap(self, site: str, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.hits[site] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(args, kwargs, result)
            return result

        return traced

    def _wrap_stream(self, site: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            tracer.hits[site] += 1
            return tracer._stream(fn(config, *args, **kwargs), config.seed)

        return traced

    def _stream(self, gen, seed: int):
        slot = 0
        while True:
            idx = self.open("scenarios.slot")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(idx)
            slot += 1
            self.spans[idx][4] = {"seed": seed, "slot": slot}
            yield item

    def install(self) -> None:
        """Replace every call site; `restore` undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, attrs in SITES:
            module = importlib.import_module(f"sensecourt.{mod_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original, name, attrs))
        for mod_name, attr in STREAM_SITES:
            module = importlib.import_module(f"sensecourt.{mod_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap_stream(f"{mod_name}.{attr}", original))

    def restore(self) -> None:
        """Put every original back and check that each one is in place."""
        patched, self._patched = self._patched, []
        for module, attr, original in patched:
            setattr(module, attr, original)
        for module, attr, original in patched:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _pct(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return float(ordered[max(rank, 1) - 1])


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command (times in s or ms as named)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def count(name):
        return len(idx(name))

    def dur_s(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name)) / 1e9

    def self_s(name):
        return sum(own[i] for i in idx(name)) / 1e9

    def call_ms(name):
        return [(spans[i][2] - spans[i][1]) / 1e6 for i in idx(name)]

    def attr(name, key):
        return [spans[i][4][key] for i in idx(name)]

    built = [i for i in idx("scenarios.slot") if spans[i][4] is not None]
    slot_keys = {(spans[i][4]["seed"], spans[i][4]["slot"]) for i in built}
    slot_ms = [(spans[i][2] - spans[i][1]) / 1e6 for i in built]
    engine_slots = sum(
        1 for i in built if spans[spans[i][3]][0] == "engine.run_policy"
    )
    engine_self = self_s("engine.run_policy") + self_s("engine.run_simulation")

    tables = attr("solver.subset_table", "key")
    eligible = (
        attr("solver.exact", "eligible")
        + attr("solver.greedy", "eligible")
        + attr("solver.bnb", "eligible")
    )
    bnb_exact = attr("solver.bnb", "exact")

    def inside(i, ancestor):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    exact_in_auction = sum(1 for i in idx("solver.exact") if inside(i, "auction.slot"))

    return {
        "scenarios.slots_built": len(built),
        "scenarios.self_s": self_s("scenarios.slot"),
        "scenarios.ms_per_slot.p50": _pct(slot_ms, 50),
        "scenarios.ms_per_slot.p99": _pct(slot_ms, 99),
        "scenarios.unique_share": len(slot_keys) / len(built) if built else 0.0,
        "world.evaluate_calls": count("world.evaluate"),
        "world.evaluate_s": dur_s("world.evaluate"),
        "solver.greedy.calls": count("solver.greedy"),
        "solver.greedy.self_s": self_s("solver.greedy"),
        "solver.greedy.ms_p50": _pct(call_ms("solver.greedy"), 50),
        "solver.greedy.ms_p99": _pct(call_ms("solver.greedy"), 99),
        "solver.exact.calls": count("solver.exact"),
        "solver.exact.self_s": self_s("solver.exact"),
        "solver.exact.ms_p50": _pct(call_ms("solver.exact"), 50),
        "solver.exact.ms_p99": _pct(call_ms("solver.exact"), 99),
        "solver.subset_tables": len(tables),
        "solver.subset_cells": sum(1 << m for m in attr("solver.subset_table", "m")),
        "solver.subset_table_s": dur_s("solver.subset_table"),
        "solver.table_unique_share": len(set(tables)) / len(tables) if tables else 0.0,
        "solver.eligible_p50": _pct(eligible, 50),
        "solver.eligible_max": max(eligible, default=0),
        "solver.bnb.calls": len(bnb_exact),
        "solver.bnb.exact_share": sum(bnb_exact) / len(bnb_exact) if bnb_exact else 0.0,
        "policy.allocate_self_s": self_s("policy.allocate"),
        "policy.update_s": dur_s("policy.update"),
        "auction.slots": count("auction.slot"),
        "auction.pivot_solves": exact_in_auction - count("auction.slot"),
        "auction.self_s": self_s("auction.slot"),
        "auction.sweeps": count("auction.sweep"),
        "auction.sweep_self_s": self_s("auction.sweep"),
        "benchmark.dual_self_s": self_s("benchmark.dual"),
        "benchmark.unconstrained_self_s": self_s("benchmark.unconstrained"),
        "engine.self_s": engine_self,
        "engine.overhead_ms_per_slot": engine_self * 1e3 / engine_slots if engine_slots else 0.0,
        "cli.load_config_s": dur_s("cli.load_config"),
        "cli.write_s": dur_s("cli.write"),
    }


# Counters that must repeat exactly across repeats of one seed.
DETERMINISTIC = (
    "scenarios.slots_built",
    "scenarios.unique_share",
    "world.evaluate_calls",
    "solver.greedy.calls",
    "solver.exact.calls",
    "solver.subset_tables",
    "solver.subset_cells",
    "solver.table_unique_share",
    "solver.eligible_p50",
    "solver.eligible_max",
    "solver.bnb.calls",
    "auction.slots",
    "auction.pivot_solves",
    "auction.sweeps",
    "cli.rows_written",
    "cli.bytes_written",
)
