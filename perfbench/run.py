"""Benchmark of the three sensecourt CLI commands, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One run is a closed loop: each repetition starts a fresh worker process
(`worker.py`, SENSECOURT_THREADS=1, the checkout's `src` on PYTHONPATH),
which sets up, runs the workload's command to completion and exits before
the next one starts. Repetitions continue until --seconds is used up.
With --trace 0 every repetition is untraced and the end-to-end metrics are
printed; with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics are printed. See perfbench/README.md for the workloads
and the metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the output digest, the environment and the sizes used.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORK_ROOT = Path(".perfbench_work")
REGRET_TOL = 1e-9
RUN_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s
MIN_UNTRACED = 3
MIN_TRACED = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str  # shipped config it is derived from
    command: str
    overrides: dict  # dotted keys; shrinks the run to a few seconds


WORKLOADS = {
    # 100 users on 2,500 grids, greedy solver, 4 policies: scenario
    # generation (each slot built once per policy) and the CSV writers.
    "dropping_desk": Workload("configs/dropping_desk.json", "simulate", {"t_slots": 200}),
    # 8 users, exact solver, 10 policies incl. the auction: thousands of
    # 256-cell subset tables and per-slot engine/policy overhead.
    "welfare_simulate": Workload("configs/welfare_desk.json", "simulate", {"t_slots": 200}),
    # Same scenario: each slot's table built twice, 301 dual sweeps.
    "welfare_benchmark": Workload("configs/welfare_desk.json", "benchmark", {"t_slots": 800}),
    # 16 users: a few 65,536-cell tables and 201 x 65,536 bid sweeps.
    "truthcheck_wide": Workload(
        "configs/truthcheck.json",
        "truthcheck",
        {"scenario.n_users": 16, "truthcheck.instances": 12},
    ),
}

END_TO_END = ("setup_s", "command_s", "peak_rss_mb")
PER_LAYER = (*tracer.aggregate([]), "cli.rows_written", "cli.bytes_written", "trace.overhead_s")


def unit_of(name: str) -> str:
    tokens = re.split(r"[._]", name)
    if tokens[-1] == "s":
        return "s"
    if tokens[-1] == "mb":
        return "MB"
    if tokens[-1] == "share":
        return "share"
    if "ms" in tokens:
        return "ms"
    if tokens[-2:] == ["bytes", "written"]:
        return "bytes"
    return "count"


def derive_config(workload: Workload) -> dict:
    raw = json.loads(Path(workload.config).read_text())
    for key, value in workload.overrides.items():
        section = raw
        *parents, leaf = key.split(".")
        for p in parents:
            section = section[p]
        section[leaf] = value
    return raw


def tree_digest(root: Path) -> str:
    """sha256 over sorted relative paths plus each file's bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def output_size(root: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) of every file the command wrote."""
    rows = nbytes = 0
    for path in root.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            nbytes += len(data)
            if path.suffix == ".csv":
                rows += data.count(b"\n") - 1
    return rows, nbytes


def check_outputs(command: str, cfg: dict, out: Path) -> list[str]:
    """Semantic checks on one repetition's outputs; returns the problems found."""
    problems = []
    n_users = cfg["scenario"]["n_users"]
    if command == "simulate":
        runs = json.loads((out / "summary.json").read_text())["runs"]
        expected = len(cfg["policies"]) * cfg.get("replications", 1)
        if len(runs) != expected:
            problems.append(f"summary.json has {len(runs)} runs, expected {expected}")
        for run in runs:
            lines = (out / run / "trace.csv").read_bytes().count(b"\n")
            if lines != cfg["t_slots"] * n_users + 1:
                problems.append(f"{run}/trace.csv has {lines} lines")
    elif command == "benchmark":
        report = json.loads((out / "benchmark.json").read_text())
        # lambda = 0 is one of the visited multipliers, so weak duality caps
        # the dual bound at the unconstrained optimum
        if report["dual_upper_bound"] > report["unconstrained"] + 1e-9:
            problems.append("dual upper bound exceeds the unconstrained optimum")
        if not 0.0 <= report["incentive_cost"] <= 1.0:
            problems.append(f"incentive cost {report['incentive_cost']} outside [0, 1]")
        if (report["t_slots"], report["n_users"]) != (cfg["t_slots"], n_users):
            problems.append("benchmark.json sizes differ from the config")
    else:
        report = json.loads((out / "truthfulness.json").read_text())
        if report["max_regret"] > REGRET_TOL or report["counterexample"] is not None:
            problems.append(f"truthfulness violated: max_regret {report['max_regret']}")
        if report["swept"] < 1:
            problems.append("truthcheck swept no instance")
    return problems


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["SENSECOURT_THREADS"] = "1"
    return env


def run_rep(
    command: str, config: Path, seed: int, out: Path, spans: Path | None, timeout: float
) -> dict:
    """Start one worker, wait for it, and return its report."""
    argv = [sys.executable, str(HERE / "worker.py"), command, str(config), str(seed), str(out)]
    if spans is not None:
        argv.append(str(spans))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker did not finish within {timeout:.0f} s"}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker printed no report: {proc.stdout[-2000:]!r}"}
    report["wall_s"] = wall
    if report["rc"] != 0:
        report["error"] = f"{command} returned {report['rc']}"
    if report["threads_env"] != "1":
        report["error"] = f"SENSECOURT_THREADS was {report['threads_env']!r} in the worker"
    return report


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()


def plain_cli_digest(workload: Workload, work: Path) -> str:
    """Digest of `python -m sensecourt.cli <command>` on the workload's
    derived config at the config's own seed."""
    cfg = derive_config(workload)
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    out = work / "plain-out"
    subprocess.run(
        [sys.executable, "-m", "sensecourt.cli", workload.command, "--config", str(config),
         "--seed", str(cfg["scenario"]["seed"]), "--out", str(out)],
        env=worker_env(), check=True, timeout=RUN_LIMIT_S,
    )
    return tree_digest(out)


def write_reference() -> None:
    """Rewrite reference_digests.json from plain CLI runs. Do this only for a
    change that is meant to alter the program's outputs, and say so."""
    digests = {}
    for name, workload in sorted(WORKLOADS.items()):
        work = WORK_ROOT / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            digests[name] = plain_cli_digest(workload, work)
        finally:
            remove_work(work)
    (HERE / "reference_digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None,
        "commit": None,
    }
    try:
        env["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    if Path(".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            env["commit"] = proc.stdout.strip()
    return env


def reference_digests() -> dict:
    return json.loads((HERE / "reference_digests.json").read_text())


def run(workload_name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    cfg = derive_config(workload)
    default_seed = cfg["scenario"]["seed"]
    seed = default_seed if seed is None else seed

    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg))
        return _measure(workload_name, workload, cfg, config_path, work, seed, default_seed, seconds, trace)
    finally:
        remove_work(work)


def _measure(workload_name, workload, cfg, config_path, work, seed, default_seed, seconds, trace) -> dict:
    start = time.perf_counter()
    reference = reference_digests().get(workload_name)
    errors: list[str] = []
    attempted = failed = 0
    first_digest = None

    def attempt(rep_seed: int, use_trace: bool) -> dict:
        """One repetition: run it, check its outputs and digest, and count it."""
        nonlocal attempted, failed, first_digest
        out = work / f"out-{attempted}"
        spans_path = work / f"spans-{attempted}.json" if use_trace else None
        attempted += 1
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))
        rep = run_rep(workload.command, config_path, rep_seed, out, spans_path, timeout)
        problems = [rep["error"]] if "error" in rep else []
        if not problems:
            try:
                problems = check_outputs(workload.command, cfg, out)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems:
            rep["digest"] = tree_digest(out)
            if rep_seed == default_seed and reference is not None and rep["digest"] != reference:
                problems.append(f"digest {rep['digest']} differs from the reference {reference}")
            if rep_seed == seed:
                first_digest = first_digest or rep["digest"]
                if rep["digest"] != first_digest:
                    problems.append("output digest differs between repetitions")
        if not problems and use_trace:
            data = json.loads(spans_path.read_text())
            rep["layers"] = tracer.aggregate(data["spans"])
            rep["layers"]["cli.rows_written"], rep["layers"]["cli.bytes_written"] = output_size(out)
            rep["hits"] = data["hits"]
        shutil.rmtree(out, ignore_errors=True)
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
        if problems:
            failed += 1
            errors.extend(problems)
            rep["error"] = "; ".join(problems)
        return rep

    if reference is not None and seed != default_seed:
        # one unmeasured repetition on the config's own seed, so that every
        # run checks the outputs byte for byte against the reference
        attempt(default_seed, False)

    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        use_trace = trace and len(untraced) > len(traced)
        (traced if use_trace else untraced).append(attempt(seed, use_trace))
        elapsed = time.perf_counter() - start
        done = [r["wall_s"] for r in untraced + traced if "wall_s" in r]
        next_s = statistics.median(done) if done else 0.0
        enough = len(untraced) >= MIN_UNTRACED and (not trace or len(traced) >= MIN_TRACED)
        if enough and elapsed + next_s > seconds or elapsed + next_s > RUN_LIMIT_S / 2:
            break

    metrics: dict[str, float] = {}
    good = [r for r in untraced if "error" not in r]
    layer_runs = [r["layers"] for r in traced if "error" not in r]
    if not trace and good:
        for name in END_TO_END:
            metrics[name] = statistics.median(r[name] for r in good)
    if trace and layer_runs:
        for name in tracer.DETERMINISTIC:
            if len({r[name] for r in layer_runs}) > 1:
                errors.append(f"{name} differs between traced repetitions")
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        traced_s = statistics.median(r["command_s"] for r in traced if "error" not in r)
        if good:
            metrics["trace.overhead_s"] = traced_s - statistics.median(r["command_s"] for r in good)

    hits: dict[str, int] = {}
    for r in traced:
        for site, n in r.get("hits", {}).items():
            hits[site] = hits.get(site, 0) + n
    return {
        "seed": seed,
        "digest": first_digest,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "hits": hits,
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "command_s": [round(r["command_s"], 4) for r in untraced + traced if "command_s" in r],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="scenario seed (default: the config's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference_digests.json from plain CLI runs and exit")
    args = parser.parse_args(argv)
    if not Path("src/sensecourt/cli.py").is_file():
        print("error: src/sensecourt/cli.py not found; run from the root of a sensecourt "
              "checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    if not Path(workload.config).is_file():
        print(f"error: {workload.config} not found", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit_of(name)}
        for name in names
        if name in result["metrics"]
    }
    missing = [name for name in names if name not in metrics]
    if missing:
        result["errors"].append(f"metrics not measured: {missing}")
    for problem in result["errors"]:
        print(f"error: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": result["seed"],
        "digest": result["digest"],
        "reps": result["reps"],
        "command_s": result["command_s"],
        "hits": result["hits"],
        "sizes": workload.overrides,
        "env": environment(),
    }
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not result["errors"] and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
