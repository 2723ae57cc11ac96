"""Command-line surface: simulate, benchmark, truthcheck.

Configs are JSON; outputs are deterministic CSV/JSON keyed by config+seed,
so reruns are byte-identical. Floats in CSVs carry 9 significant digits.

`simulate` writes each replication's run files while it runs: the engine
hands every slot to a `runfiles.RunFiles`, the engine's recorder with a
buffer one block of slots high, whose every flush writes the block to each
lane's trace.csv and plotdata_alloc_prob.csv, so only one slot, one block
of rows and each lane's (T,) welfare series are in memory. Each
replication job writes its own run directories and returns only its
summaries.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import auction as _auction
from .auction import ExactPivotsRequiredError
from .benchmark import (
    BenchmarkCapacityError,
    Trace,
    check_bruteforce_capacity,
    check_table_capacity,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
)
from .engine import PolicySpec, check_exact_solves, check_finite_bonuses
from .engine import run_simulation
from .policy_dual import StepSchedule, largest_step_coeff
from .runfiles import RunFiles, write_plotdata, write_trace_csv
from .scenarios import ScenarioConfig, realization_stream
from .solver import TIE_TOL, SolveOptions, SolverCapacityError
from .streams import Stream, seed_blocks
from .world import GridMap, thresholds_array

__all__ = ["main", "cmd_simulate", "cmd_benchmark", "cmd_truthcheck"]

THREADS_ENV = "SENSECOURT_THREADS"
_TRUTHCHECK_STREAM = 0x545254


class ConfigError(ValueError):
    """A config, or a command-line override, that the command cannot run: exit 1."""


class ConfigPathError(OSError):
    """A config path that exists but cannot be read, such as a directory: exit 2."""


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config sections: each dataclass holds its section's defaults and checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BenchmarkSettings:
    """The `benchmark` section. A step of None keeps dual_upper_bound's own
    default, a harmonic step scaled to the trace's mean cost."""

    iterations: int = 150
    bruteforce: typing.Literal[True, False, "auto"] = "auto"
    step: StepSchedule | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("benchmark.iterations must be at least 1")


@dataclasses.dataclass(frozen=True)
class TruthcheckSettings:
    """The `truthcheck` section: instances swept, bids per sweep and the bid
    range as a multiple of the swept user's cost. Each instance draws its
    regulation factors uniformly from [0, half the slot's largest cost]."""

    instances: int = 100
    bid_points: int = 201
    bid_span: float = 3.0

    def __post_init__(self):
        # NaN fails every comparison below, so each check also rejects it
        if self.instances < 0:
            raise ValueError("truthcheck.instances must be at least 0")
        if self.bid_points < 1:
            raise ValueError("truthcheck.bid_points must be at least 1")
        if not 0 <= self.bid_span < math.inf:
            raise ValueError("truthcheck.bid_span must be a finite number >= 0")


@dataclasses.dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A whole config file. thresholds is read as one number for every user
    or a list of one per user, and kept as a float array of n_users."""

    scenario: ScenarioConfig
    policies: tuple[PolicySpec, ...] = ()
    t_slots: int
    warmup_slots: int = 0
    thresholds: float | tuple[float, ...] = 0.5
    replications: int = 1
    output_dir: str = "out"
    # a solver section without a mode keeps greedy: a nested section starts
    # from its field default when that is an instance
    solver: SolveOptions = SolveOptions(mode="greedy")
    benchmark: BenchmarkSettings = BenchmarkSettings()
    truthcheck: TruthcheckSettings = TruthcheckSettings()

    def __post_init__(self):
        n = self.scenario.n_users
        thr = np.asarray(self.thresholds, dtype=float)
        thr = thresholds_array(np.full(n, thr) if thr.ndim == 0 else thr)
        if thr.size != n:
            raise ValueError("thresholds list length must equal scenario.n_users")
        object.__setattr__(self, "thresholds", thr)
        if self.t_slots < 1:
            raise ValueError("t_slots must be at least 1")
        if not 0 <= self.warmup_slots <= self.t_slots:
            raise ValueError("warmup_slots must lie in [0, t_slots]")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        check_finite_bonuses(self.policies, thr, self.t_slots)
        # the benchmark sums `iterations` iterates, n multipliers to a subset,
        # t_slots row maxima of such sums, and moves of at most 6 n multipliers
        step, iterations = self.benchmark.step, self.benchmark.iterations
        if step is not None:
            terms = max(iterations, n * max(6, self.t_slots))
            limit = sys.float_info.max / (2 * terms)
            coeff_max = largest_step_coeff(step.kind, float(thr.max()), iterations, limit)
            if step.coeff > coeff_max:
                raise ValueError(
                    f"benchmark.step coeff = {step.coeff:g} lets the multipliers overflow over "
                    f"{iterations} iterations; coeff must be at most {coeff_max:.17g}"
                )
        span, top = self.truthcheck.bid_span, self.scenario.max_cost
        if not span * top < math.inf:
            raise ValueError(
                f"truthcheck.bid_span = {span:g} overflows the bid grid: the largest cost a "
                f"slot can draw is {top:g}"
            )


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------
#
# Each section is read from the fields of the dataclass it builds: its keys
# are the field names, a key that is missing or null takes the field default,
# and a value must already have the field's type (an integral float counts
# as an int). Defaults and range checks live on the dataclasses only.


@functools.cache
def _fields(cls) -> dict[str, tuple[object, object]]:
    """name -> (resolved type, default) of each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)}


def _section(cls, raw: dict, name: str, base=None, **given):
    """Build dataclass `cls` from the JSON object `raw`, refusing by `name`.
    Missing keys keep `base`'s values if given; `given` fills keyless fields."""
    fields = _fields(cls)
    for key in raw:
        if key not in fields or key in given:
            raise ConfigError(f"unknown key {name}.{key}")
    values = dict(given)
    for key, (hint, default) in fields.items():
        value = raw.get(key)
        if value is not None:
            sub = key if name == "config" else f"{name}.{key}"
            try:
                values[key] = _convert(value, hint, sub, default)
            except TypeError as exc:
                raise ConfigError(
                    f"invalid {name} value: {name}.{key} must be {exc}, got {json.dumps(value)}"
                ) from None
        elif key not in given and base is None and default is dataclasses.MISSING:
            raise ConfigError(f"missing key {name}.{key}")
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} value: {exc}") from exc


def _convert(value, hint, name: str, default=None):
    """`value` as type `hint`, else a TypeError saying what it must be. A nested
    section keeps the values of `default` when that is an instance of it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        for arg in args:
            try:
                return _convert(value, arg, name, default)
            except TypeError:
                pass
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            if hint is ScenarioConfig:
                return _scenario(value)
            return _section(hint, value, name, default if isinstance(default, hint) else None)
    elif origin is typing.Literal:
        if any(type(value) is type(arg) and value == arg for arg in args):
            return value
    elif origin is tuple and isinstance(value, list):
        kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(kinds) == len(value):
            try:
                return tuple(
                    _convert(v, kind, f"{name}[{i}]")
                    for i, (v, kind) in enumerate(zip(value, kinds))
                )
            except TypeError:
                pass
    elif hint is float and (
        type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    ):
        return float(value)
    elif hint is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    elif type(value) is hint:  # str, bool
        return value
    raise TypeError(_describe(hint))


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return " or ".join(json.dumps(arg) for arg in args)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(arg) for arg in args)
    if origin is tuple:
        size = "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
        return f"{size}, each {_describe(args[0])}"
    if dataclasses.is_dataclass(hint):
        return "an object"
    names = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}
    return names.get(hint, "null")


def _scenario(raw: dict) -> ScenarioConfig:
    # the map's keys sit flat in the scenario section
    flat = _fields(GridMap)
    grid = _section(GridMap, {k: v for k, v in raw.items() if k in flat}, "scenario")
    rest = {k: v for k, v in raw.items() if k not in flat}
    return _with_seed(_section(ScenarioConfig, rest, "scenario", map=grid))


def _with_seed(scenario: ScenarioConfig, seed: int | None = None) -> ScenarioConfig:
    # streams._uint32_words refuses a negative seed only once the output directory exists
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    if scenario.seed < 0:
        raise ConfigError(f"invalid scenario value: seed must be at least 0, got {scenario.seed}")
    return scenario


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"config not found: {path}") from None
    except OSError as exc:  # a directory, or not readable
        raise ConfigPathError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return _section(ExperimentConfig, raw, "config")


def _make_out_dir(out: str | None, cfg: ExperimentConfig) -> Path:
    """The output directory, --out or the config's, made if missing."""
    out_dir = Path(out if out is not None else cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a path under one
        raise ConfigError(f"cannot use output directory {out_dir}: {exc.strerror}") from None
    return out_dir


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


class _RunFiles(RunFiles):
    """RunFiles that flushes each block through this module's write_trace_csv
    and write_plotdata: perfbench's tracer wraps those names, so its
    cli.write span covers the writes, nested in engine.run_simulation."""

    def flush(self) -> None:
        write_trace_csv(self)
        write_plotdata(self)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        print(
            f"warning: {THREADS_ENV}={raw!r} is not a positive integer; using 1 worker",
            file=sys.stderr,
        )
        cap = 1
    return min(cap, n_jobs)


def _simulate_job(args) -> list[dict]:
    """One replication: every policy steps over its stream in lockstep and
    writes its run directory as it goes. Returns each lane's summary."""
    scenario, policies, labels, t_slots, warmup, thresholds, solver, out_dir, rep = args
    with _RunFiles([out_dir / f"{label}_rep{rep}" for label in labels], labels, rep) as run:
        run_simulation(
            scenario, policies, t_slots, warmup, thresholds, solver=solver, replication=rep,
            recorder=run,
        )
    return [
        run.summary(lane, label, rep, scenario.seed, warmup) for lane, label in enumerate(labels)
    ]


def cmd_simulate(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    if not cfg.policies:
        raise ConfigError("simulate needs at least one entry in policies")
    check_exact_solves(
        cfg.policies, cfg.scenario.n_users, cfg.solver, cfg.t_slots, cfg.warmup_slots
    )
    scenario = _with_seed(cfg.scenario, seed)
    out_dir = _make_out_dir(out, cfg)

    labels = []
    seen: dict[str, int] = {}
    for policy in cfg.policies:
        label = policy.label
        if label in seen:
            seen[label] += 1
            label = f"{label}_{seen[label]}"
        else:
            seen[label] = 0
        labels.append(label)

    # one job per replication; it writes its own run directories and returns
    # only its summaries, so a parallel run moves no series between processes
    jobs = [
        (dataclasses.replace(scenario, seed=scenario.seed + rep), cfg.policies, labels,
         cfg.t_slots, cfg.warmup_slots, cfg.thresholds, cfg.solver, out_dir, rep)
        for rep in range(cfg.replications)
    ]

    workers = _worker_count(len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_job, jobs))
    else:
        results = [_simulate_job(job) for job in jobs]

    summaries = {
        f"{label}_rep{rep}": lanes[lane]
        for rep, lanes in enumerate(results)
        for lane, label in enumerate(labels)
    }
    (out_dir / "summary.json").write_text(_canonical_json({"runs": summaries}))
    return 0


def cmd_benchmark(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    scenario = _with_seed(cfg.scenario, seed)
    # refuse oversized tables and enumerations before the first slot is built
    n, t = scenario.n_users, cfg.t_slots
    check_table_capacity(n, t)
    run_bruteforce = cfg.benchmark.bruteforce is not False
    if run_bruteforce:
        try:
            check_bruteforce_capacity(n, t)
        except BenchmarkCapacityError:
            if cfg.benchmark.bruteforce is True:
                raise
            run_bruteforce = False  # "auto" skips a trace too long to enumerate

    out_dir = _make_out_dir(out, cfg)

    trace = Trace(realization_stream(scenario, t), cfg.thresholds, t)
    unconstrained = unconstrained_trace_welfare(trace)
    bound = dual_upper_bound(trace, cfg.benchmark.iterations, cfg.benchmark.step)
    bruteforce = solve_complete_bruteforce(trace) if run_bruteforce else None

    constrained = bruteforce if bruteforce is not None else bound
    try:
        cost = incentive_cost(unconstrained, constrained)
    except ValueError:  # undefined for a non-positive unconstrained optimum
        cost = None
    report = {
        "n_users": trace.n_users,
        "t_slots": trace.t_slots,
        "seed": scenario.seed,
        "unconstrained": unconstrained.avg_welfare,
        "dual_upper_bound": bound.avg_welfare,
        "bruteforce": None if bruteforce is None else bruteforce.avg_welfare,
        "bruteforce_feasible": None if bruteforce is None else True,  # always feasible
        "incentive_cost": cost,
        "iterations": cfg.benchmark.iterations,
    }
    (out_dir / "benchmark.json").write_text(_canonical_json(report))
    return 0


def cmd_truthcheck(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    scenario = _with_seed(cfg.scenario, seed)
    _auction.require_exact_pivots(scenario.n_users, cfg.solver.exact_limit)
    out_dir = _make_out_dir(out, cfg)

    settings = cfg.truthcheck

    max_regret = 0.0
    swept = 0
    counterexample = None
    seeds = seed_blocks((scenario.seed, _TRUTHCHECK_STREAM), 1, settings.instances, 1)
    for k, (realization, seed) in enumerate(
        zip(realization_stream(scenario, settings.instances), seeds), start=1
    ):
        rng = Stream(seed[0])
        costs = realization.true_costs
        candidates = np.flatnonzero(costs > 0)
        if candidates.size == 0:
            continue
        user = int(rng.choice(candidates))
        cap = float(costs.max())
        factors = rng.uniform(0.0, 0.5 * cap, costs.size)
        grid = np.linspace(0.0, settings.bid_span * float(costs[user]), settings.bid_points)
        report = _auction.truthfulness_sweep(
            realization, factors, costs, user, grid, exact_limit=cfg.solver.exact_limit
        )
        swept += 1
        if report.regret > max_regret:
            max_regret = report.regret
        if not report.truthful and counterexample is None:
            counterexample = {
                "instance": k,
                "user": user,
                "true_cost": float(costs[user]),
                "best_bid": report.best_bid,
                "best_utility": report.best_utility,
                "truthful_utility": report.truthful_utility,
                "regret": report.regret,
            }

    result = {
        "instances": settings.instances,
        "swept": swept,
        "vacuous": swept == 0,
        "max_regret": max_regret,
        "regret_tolerance": TIE_TOL,
        "counterexample": counterexample,
    }
    (out_dir / "truthfulness.json").write_text(_canonical_json(result))
    return 1 if counterexample is not None else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensecourt",
        description="Sensor-selection policy experiments with long-term incentives",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run every configured (policy, replication) pair"),
        ("benchmark", "offline benchmarks and incentive cost"),
        ("truthcheck", "empirical auction truthfulness sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "simulate": cmd_simulate,
        "benchmark": cmd_benchmark,
        "truthcheck": cmd_truthcheck,
    }[args.command]
    try:
        return handler(args.config, seed=args.seed, out=args.out)
    except (FileNotFoundError, ConfigPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ConfigError, BenchmarkCapacityError, ExactPivotsRequiredError, SolverCapacityError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
