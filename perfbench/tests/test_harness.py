"""Self-tests of the benchmark harness on shrunk variants of its workloads.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import sensecourt.cli as cli  # noqa: E402
import tracer  # noqa: E402

SHRUNK = {
    "dropping_desk": {"t_slots": 45},
    "welfare_simulate": {"t_slots": 45},
    "welfare_benchmark": {"t_slots": 45, "benchmark.iterations": 20},
    "truthcheck_wide": {"truthcheck.instances": 2},
}
OTHER_SEED = 5
FULL = dict(run.WORKLOADS)  # the benchmark's own sizes, before shrinking
REFERENCE = run.reference_digests()


@pytest.fixture(autouse=True)
def shrunk(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "reference_digests", lambda: {})  # none for shrunk sizes
    for name, extra in SHRUNK.items():
        w = run.WORKLOADS[name]
        monkeypatch.setitem(
            run.WORKLOADS, name, dataclasses.replace(w, overrides=w.overrides | extra)
        )


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the harness in this process; returns (info line, result line)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


_traced: dict[tuple[str, int], tuple[dict, dict]] = {}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    if (workload, seed) not in _traced:
        _traced[workload, seed] = bench(workload, seed, 1)
    return _traced[workload, seed]


@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_end_to_end_result_carries_declared_metrics(workload):
    info, result = bench(workload, OTHER_SEED, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["nproc"] and info["env"]["python"] and info["env"]["numpy"]
    assert len(info["digest"]) == 64


@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_traced_result_carries_declared_metrics(workload):
    info, result = traced(workload, OTHER_SEED)
    # correct implies traced and untraced repetitions gave one digest and
    # the deterministic counters repeated exactly
    assert result["correct"] and result["failed"] == 0
    assert info["reps"]["traced"] >= 2 and info["reps"]["untraced"] >= 2
    want = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_every_wrapped_call_site_is_hit_on_some_workload():
    hit = set()
    for workload in SHRUNK:
        info, _ = traced(workload, OTHER_SEED)
        hit |= {site for site, n in info["hits"].items() if n}
    assert set(tracer.site_names()) - hit == set(tracer.UNREACHED_SITES)


@pytest.mark.parametrize(
    "workload, expected",
    [
        (
            "dropping_desk",
            {
                "solver.exact.calls": 0,
                "auction.slots": 0,
                "scenarios.unique_share": 0.25,
                "solver.bnb.calls": 0,
            },
        ),
        ("welfare_simulate", {"scenarios.unique_share": 0.1, "solver.bnb.calls": 0}),
        ("welfare_benchmark", {"solver.table_unique_share": 0.5, "solver.bnb.calls": 0}),
        ("truthcheck_wide", {"cli.rows_written": 0, "solver.bnb.calls": 0}),
    ],
)
def test_predicted_counters_on_default_seed(workload, expected):
    seed = run.derive_config(run.WORKLOADS[workload])["scenario"]["seed"]
    _, result = traced(workload, seed)
    got = {k: result["metrics"][k]["value"] for k in expected}
    assert got == expected


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.derive_config(run.WORKLOADS["welfare_simulate"])))
    t = tracer.Tracer()
    t.install()
    try:
        t0 = time.perf_counter_ns()
        root = t.open("cli.command")
        cli.cmd_simulate(str(config), seed=OTHER_SEED, out=str(tmp_path / "out"))
        t.close(root)
        wall = time.perf_counter_ns() - t0
    finally:
        t.restore()
    own = tracer.self_times(t.spans)
    assert min(own) >= 0
    assert sum(own) == t.spans[root][2] - t.spans[root][1] <= wall
    layers = tracer.aggregate(t.spans)
    layer_self = sum(v for k, v in layers.items() if k.endswith("self_s"))
    assert layer_self <= wall / 1e9


def test_restore_puts_back_every_original_even_after_an_error(tmp_path):
    sites = [(m, a) for m, a, _, _ in tracer.SITES] + list(tracer.STREAM_SITES)
    modules = {m: importlib.import_module(f"sensecourt.{m}") for m, _ in sites}
    originals = {(m, a): getattr(modules[m], a) for m, a in sites}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(modules[m], a) is not originals[m, a] for m, a in sites)
        with pytest.raises(FileNotFoundError):
            cli.cmd_simulate(str(tmp_path / "missing.json"))
    finally:
        t.restore()
    assert all(getattr(modules[m], a) is originals[m, a] for m, a in sites)


def test_worker_pins_threads_to_one(tmp_path, monkeypatch):
    monkeypatch.setenv("SENSECOURT_THREADS", "4")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.derive_config(run.WORKLOADS["welfare_simulate"])))
    report = run.run_rep("simulate", config, OTHER_SEED, tmp_path / "out", None, 60.0)
    assert "error" not in report
    assert report["threads_env"] == "1"


def test_reference_digest_mismatch_fails_every_repetition_on_the_config_seed(
    monkeypatch, capsys
):
    seed = run.derive_config(run.WORKLOADS["truthcheck_wide"])["scenario"]["seed"]
    monkeypatch.setattr(run, "reference_digests", lambda: {"truthcheck_wide": "0" * 64})
    _, result = bench("truthcheck_wide", seed, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert "differs from the reference" in capsys.readouterr().err


def test_other_seeds_also_check_the_reference_once(monkeypatch, capsys):
    monkeypatch.setattr(run, "reference_digests", lambda: {"truthcheck_wide": "0" * 64})
    _, result = bench("truthcheck_wide", OTHER_SEED, 0)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 4
    assert "differs from the reference" in capsys.readouterr().err


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dropping_desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_reference_digest_equals_plain_cli_run(workload, tmp_path):
    """At the benchmark's own sizes, the checked-in reference digest is what
    a plain `sensecourt <command> --config ... --seed ...` run writes."""
    assert run.plain_cli_digest(FULL[workload], tmp_path) == REFERENCE[workload]
