"""Command-line surface: simulate, benchmark, truthcheck.

Configs are JSON; outputs are deterministic CSV/JSON keyed by config+seed,
so reruns are byte-identical. Floats in CSVs carry 9 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import auction as _auction
from .auction import ExactPivotsRequiredError
from .benchmark import (
    BRUTEFORCE_CELL_LIMIT,
    BenchmarkCapacityError,
    Trace,
    check_dual_capacity,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
    welfare_tables,
)
from .engine import PolicySpec, TraceMetrics, run_simulation
from .policy_dual import StepSchedule
from .scenarios import ScenarioConfig, realization_stream
from .solver import SolveOptions
from .world import GridMap

__all__ = ["main", "cmd_simulate", "cmd_benchmark", "cmd_truthcheck"]

THREADS_ENV = "SENSECOURT_THREADS"
REGRET_TOL = 1e-9
_TRUTHCHECK_STREAM = 0x545254


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _take(section: dict, context: str, known: dict, required: tuple[str, ...]) -> dict:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {context}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {context}.{key}")
    out = dict(known)
    out.update(section)
    return out


def _scenario_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ConfigError("scenario must be an object")
    known = {
        "width_grids": None,
        "height_grids": None,
        "grid_edge_m": None,
        "n_users": None,
        "seed": None,
        "radius_min_m": 400.0,
        "radius_max_m": 800.0,
        "weight_mode": "uniform_iid",
        "hotspot_sigma_fraction": 0.25,
        "mean_weight": 0.5,
        "temporal_noise": False,
        "cost_to_weight_ratio": 0.2,
        "cost_jitter": [0.8, 1.2],
        "step_max_m": 1000.0,
    }
    vals = _take(
        d,
        "scenario",
        known,
        ("width_grids", "height_grids", "grid_edge_m", "n_users", "seed"),
    )
    try:
        grid = GridMap(
            int(vals["width_grids"]), int(vals["height_grids"]), float(vals["grid_edge_m"])
        )
        jitter = vals["cost_jitter"]
        return ScenarioConfig(
            map=grid,
            n_users=int(vals["n_users"]),
            radius_min_m=float(vals["radius_min_m"]),
            radius_max_m=float(vals["radius_max_m"]),
            weight_mode=str(vals["weight_mode"]),
            hotspot_sigma_fraction=float(vals["hotspot_sigma_fraction"]),
            mean_weight=float(vals["mean_weight"]),
            temporal_noise=bool(vals["temporal_noise"]),
            cost_to_weight_ratio=float(vals["cost_to_weight_ratio"]),
            cost_jitter=(float(jitter[0]), float(jitter[1])),
            step_max_m=float(vals["step_max_m"]),
            seed=int(vals["seed"]),
        )
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario value: {exc}") from exc


def _schedule_from_dict(d: dict, context: str) -> StepSchedule:
    vals = _take(d, context, {"kind": "harmonic", "coeff": 1.0}, ())
    try:
        return StepSchedule(str(vals["kind"]), float(vals["coeff"]))
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _policy_from_dict(d: dict, index: int) -> PolicySpec:
    context = f"policies[{index}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object")
    vals = _take(
        d,
        context,
        {"kind": None, "phi": 10.0, "alpha": 1.0, "schedule": None},
        ("kind",),
    )
    schedule = (
        _schedule_from_dict(vals["schedule"], f"{context}.schedule")
        if vals["schedule"] is not None
        else StepSchedule.harmonic(1.0)
    )
    try:
        return PolicySpec(
            kind=str(vals["kind"]),
            phi=float(vals["phi"]),
            alpha=float(vals["alpha"]),
            schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _solver_from_dict(d: dict | None, default_mode: str) -> SolveOptions:
    if d is None:
        return SolveOptions(mode=default_mode)
    vals = _take(
        d,
        "solver",
        {"mode": default_mode, "exact_limit": 20, "node_budget": 20000},
        (),
    )
    try:
        return SolveOptions(
            mode=str(vals["mode"]),
            exact_limit=int(vals["exact_limit"]),
            node_budget=int(vals["node_budget"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solver: {exc}") from exc


def _number(section: dict, context: str, key: str, kind: type):
    try:
        return kind(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {context}.{key}: {exc}") from exc


def _check_runs(bench: dict, truth: dict) -> None:
    """Reject benchmark and truthcheck settings no run can use, before any work."""
    bench["iterations"] = _number(bench, "benchmark", "iterations", int)
    if bench["iterations"] < 1:
        raise ConfigError("benchmark.iterations must be at least 1")
    kinds = {"instances": int, "bid_points": int, "bid_span": float, "phi": float}
    for key, kind in kinds.items():
        truth[key] = _number(truth, "truthcheck", key, kind)
    if truth["instances"] < 0:
        raise ConfigError("truthcheck.instances must be at least 0")
    if truth["bid_points"] < 1:
        raise ConfigError("truthcheck.bid_points must be at least 1")
    if not (np.isfinite(truth["bid_span"]) and truth["bid_span"] >= 0):
        raise ConfigError("truthcheck.bid_span must be a finite number >= 0")
    if not truth["phi"] > 0:
        raise ConfigError("truthcheck.phi must be positive")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    policies: tuple[PolicySpec, ...]
    t_slots: int
    warmup_slots: int
    thresholds: np.ndarray
    replications: int
    output_dir: str
    solver: SolveOptions
    benchmark: dict
    truthcheck: dict


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise FileNotFoundError(f"config not found: {path}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    known = {
        "scenario": None,
        "policies": [],
        "t_slots": None,
        "warmup_slots": 0,
        "thresholds": 0.5,
        "replications": 1,
        "output_dir": "out",
        "solver": None,
        "benchmark": {},
        "truthcheck": {},
    }
    vals = _take(raw, "config", known, ("scenario", "t_slots"))
    scenario = _scenario_from_dict(vals["scenario"])

    policies = tuple(
        _policy_from_dict(p, i) for i, p in enumerate(vals["policies"])
    )
    thresholds = vals["thresholds"]
    if isinstance(thresholds, (int, float)):
        thr = np.full(scenario.n_users, float(thresholds))
    else:
        thr = np.asarray(thresholds, dtype=float)
        if thr.shape != (scenario.n_users,):
            raise ConfigError("thresholds list length must equal scenario.n_users")
    if np.any(thr < 0) or np.any(thr > 1):
        raise ConfigError("thresholds must lie in [0, 1]")

    t_slots = int(vals["t_slots"])
    warmup = int(vals["warmup_slots"])
    if t_slots < 1:
        raise ConfigError("t_slots must be at least 1")
    if not 0 <= warmup <= t_slots:
        raise ConfigError("warmup_slots must lie in [0, t_slots]")
    replications = int(vals["replications"])
    if replications < 1:
        raise ConfigError("replications must be at least 1")

    bench = _take(
        dict(vals["benchmark"]),
        "benchmark",
        {"iterations": 150, "bruteforce": "auto", "step": None},
        (),
    )
    truth = _take(
        dict(vals["truthcheck"]),
        "truthcheck",
        {"instances": 100, "bid_points": 201, "bid_span": 3.0, "phi": 10.0},
        (),
    )
    _check_runs(bench, truth)
    return ExperimentConfig(
        scenario=scenario,
        policies=policies,
        t_slots=t_slots,
        warmup_slots=warmup,
        thresholds=thr,
        replications=replications,
        output_dir=str(vals["output_dir"]),
        solver=_solver_from_dict(vals["solver"], "greedy"),
        benchmark=bench,
        truthcheck=truth,
    )


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _formatted(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Format each distinct value of a float array once.

    Values are keyed by their int64 bit pattern, not compared as floats:
    -0.0 and 0.0 print differently, and float keys would merge them.
    Returns the strings and, per element, the index of its string.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(arr.view(np.int64), return_inverse=True)
    return [_fmt(v) for v in keys.view(np.float64)], inverse.reshape(arr.shape)


def write_trace_csv(path: Path, metrics: TraceMetrics) -> None:
    n = metrics.thresholds.size
    payments = metrics.payments_series
    if payments is None:
        payments = np.zeros_like(metrics.regulation)
    regs, reg_idx = _formatted(metrics.regulation)
    pays, pay_idx = _formatted(payments)
    users = range(n)
    # one slot's rows at a time, so the whole file is never held in memory
    with path.open("w") as f:
        f.write("slot,policy,replication,user,selected,regulation,payment,active,welfare_slot\n")
        for t in range(metrics.t_slots):
            head = f"{t + 1},{metrics.policy_label},{metrics.replication},"
            welfare = _fmt(metrics.welfare_series[t])
            f.write(
                "".join(
                    f"{head}{u},{sel},{regs[r]},{pays[p]},{act},{welfare}\n"
                    for u, sel, r, p, act in zip(
                        users,
                        metrics.selected[t].astype(np.int8).tolist(),
                        reg_idx[t].tolist(),
                        pay_idx[t].tolist(),
                        metrics.active[t].astype(np.int8).tolist(),
                    )
                )
            )


def write_plotdata(run_dir: Path, metrics: TraceMetrics) -> None:
    n = metrics.thresholds.size
    t = metrics.t_slots

    lines = ["slot,welfare,running_avg"]
    for k in range(t):
        lines.append(
            f"{k + 1},{_fmt(metrics.welfare_series[k])},{_fmt(metrics.running_avg_welfare[k])}"
        )
    (run_dir / "plotdata_welfare.csv").write_text("\n".join(lines) + "\n")

    header = "slot," + ",".join(f"u{u}" for u in range(n))
    lines = [header]
    probs, prob_idx = _formatted(metrics.alloc_prob_series)
    for k in range(t):
        row = ",".join([probs[i] for i in prob_idx[k].tolist()])
        lines.append(f"{k + 1},{row}")
    (run_dir / "plotdata_alloc_prob.csv").write_text("\n".join(lines) + "\n")

    dropped = np.zeros(t)
    for _, slot in metrics.drop_events:
        dropped[slot - 1 :] += 1
    lines = ["slot,dropped_fraction"]
    for k in range(t):
        lines.append(f"{k + 1},{_fmt(dropped[k] / n)}")
    (run_dir / "plotdata_dropping.csv").write_text("\n".join(lines) + "\n")


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


def _simulate_job(args) -> list[TraceMetrics]:
    scenario, policies, t_slots, warmup, thresholds, solver, rep = args
    return run_simulation(
        scenario, policies, t_slots, warmup, thresholds, solver=solver, replication=rep
    )


def cmd_simulate(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    if not cfg.policies:
        raise ConfigError("simulate needs at least one entry in policies")
    scenario = cfg.scenario
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    out_dir = Path(out if out is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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

    # one job per replication: its stream is built once and every policy
    # steps over it in lockstep
    jobs = [
        (dataclasses.replace(scenario, seed=scenario.seed + rep), cfg.policies,
         cfg.t_slots, cfg.warmup_slots, cfg.thresholds, cfg.solver, rep)
        for rep in range(cfg.replications)
    ]

    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_job, jobs))
    else:
        results = [_simulate_job(job) for job in jobs]

    summaries: dict[str, dict] = {}
    for i, label in enumerate(labels):
        for rep in range(cfg.replications):
            metrics = results[rep][i]
            run_dir = out_dir / f"{label}_rep{rep}"
            run_dir.mkdir(parents=True, exist_ok=True)
            metrics.policy_label = label
            write_trace_csv(run_dir / "trace.csv", metrics)
            write_plotdata(run_dir, metrics)
            summaries[f"{label}_rep{rep}"] = metrics.summary | {"policy": label}
    (out_dir / "summary.json").write_text(_canonical_json({"runs": summaries}))
    return 0


def cmd_benchmark(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    scenario = cfg.scenario
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    # refuse oversized tables before the first slot is built
    n, t = scenario.n_users, cfg.t_slots
    check_dual_capacity(n, t)
    bf_mode = cfg.benchmark["bruteforce"]
    within = n * t <= BRUTEFORCE_CELL_LIMIT
    if bf_mode is True and not within:
        raise BenchmarkCapacityError(
            f"N*T = {n * t} exceeds "
            f"{BRUTEFORCE_CELL_LIMIT}; shrink n_users or t_slots, or set "
            'benchmark.bruteforce to "auto" or false'
        )

    out_dir = Path(out if out is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    slots = tuple(realization_stream(scenario, t))
    trace = Trace(slots, cfg.thresholds)
    tables = welfare_tables(trace)
    solver = dataclasses.replace(cfg.solver, mode="auto")

    unconstrained = unconstrained_trace_welfare(trace, solver, tables)
    step = cfg.benchmark["step"]
    schedule = (
        _schedule_from_dict(step, "benchmark.step") if step is not None else None
    )
    bound = dual_upper_bound(trace, cfg.benchmark["iterations"], schedule, tables)

    bruteforce = None
    if bf_mode is True or (bf_mode == "auto" and within):
        bruteforce = solve_complete_bruteforce(trace, tables)

    constrained = bruteforce if bruteforce is not None else bound
    report = {
        "n_users": trace.n_users,
        "t_slots": trace.t_slots,
        "seed": scenario.seed,
        "unconstrained": unconstrained.avg_welfare,
        "dual_upper_bound": bound.avg_welfare,
        "bruteforce": None if bruteforce is None else bruteforce.avg_welfare,
        "bruteforce_feasible": None if bruteforce is None else bruteforce.feasible,
        "incentive_cost": incentive_cost(unconstrained, constrained),
        "iterations": cfg.benchmark["iterations"],
    }
    (out_dir / "benchmark.json").write_text(_canonical_json(report))
    return 0


def cmd_truthcheck(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = load_config(config_path)
    scenario = cfg.scenario
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    if scenario.n_users > cfg.solver.exact_limit:
        raise ConfigError(
            f"truthcheck needs scenario.n_users <= solver.exact_limit "
            f"({cfg.solver.exact_limit}); auction pivots must be exact"
        )
    out_dir = Path(out if out is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    instances = cfg.truthcheck["instances"]
    bid_points = cfg.truthcheck["bid_points"]
    bid_span = cfg.truthcheck["bid_span"]
    phi = cfg.truthcheck["phi"]

    max_regret = 0.0
    swept = 0
    counterexample = None
    for k, realization in enumerate(
        realization_stream(scenario, instances), start=1
    ):
        rng = np.random.default_rng([scenario.seed, _TRUTHCHECK_STREAM, k])
        costs = realization.true_costs
        candidates = np.flatnonzero(costs > 0)
        if candidates.size == 0:
            continue
        user = int(rng.choice(candidates))
        cap = float(costs.max())
        state = _auction.RegulationState(rng.uniform(0.0, 0.5 * cap, costs.size), phi)
        grid = np.linspace(0.0, bid_span * float(costs[user]), bid_points)
        report = _auction.truthfulness_sweep(realization, state, costs, user, grid)
        swept += 1
        if report.regret > max_regret:
            max_regret = report.regret
        if report.regret > REGRET_TOL and counterexample is None:
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
        "instances": instances,
        "swept": swept,
        "vacuous": swept == 0,
        "max_regret": max_regret,
        "regret_tolerance": REGRET_TOL,
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
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConfigError, BenchmarkCapacityError, ExactPivotsRequiredError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
