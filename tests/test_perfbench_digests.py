"""Each benchmark workload writes the bytes its reference digest names.

perfbench/run.py refuses a run whose outputs at the config's own seed hash
to anything but perfbench/reference_digests.json. This runs each workload's
command in process, on the config run.py derives, and compares the digests,
so a changed output byte fails here first. run.py is read and run by path,
without writing anything next to it.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

import sensecourt.cli as cli_mod

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference_digests.json").read_text())


def load_run() -> dict:
    # run.py puts perfbench/ on the path and imports its tracer from there
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench_run")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode


RUN = load_run()


def test_every_workload_has_a_reference():
    assert sorted(REFERENCE) == sorted(RUN["WORKLOADS"])


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_outputs_match_the_reference_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # derive_config reads the workload's relative path
    monkeypatch.setenv(cli_mod.THREADS_ENV, "1")
    workload = RUN["WORKLOADS"][name]
    cfg = RUN["derive_config"](workload)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    command = getattr(cli_mod, f"cmd_{workload.command}")
    assert command(str(config), seed=cfg["scenario"]["seed"], out=str(out)) == 0
    assert RUN["tree_digest"](out) == REFERENCE[name]
