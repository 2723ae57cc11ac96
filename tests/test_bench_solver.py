"""scripts/bench_solver.py runs every section end to end, at tiny sizes.

The harness imports package names and the oracles in tests/, so a rename in
either breaks it; this runs it, loaded by path, with its size tuples cut
down, and checks that it writes every top-level key of the committed
BENCH_solver.json and restores the two call sites it wraps.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from sensecourt import benchmark, engine
from sensecourt.policy_dual import StepSchedule

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "SIZES": (4, 5),
    "SWEEP_SIZES": (4,),
    "MANY_SIZES": (4,),
    "DUAL_CASES": ((4, 6, None), (3, 5, StepSchedule.constant(50.0))),
    "DUAL_PEAK_SHAPES": ((4, 4),),
    "TABLE_SHAPES": ((4, 3),),
    "ORDER_SIZES": (4,),
    "GREEDY_SLOTS": 1,
}


def load_harness():
    path = ROOT / "scripts" / "bench_solver.py"
    spec = importlib.util.spec_from_file_location("bench_solver", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


def test_every_section_writes_its_keys_and_restores_what_it_wraps(tmp_path):
    harness = load_harness()
    vars(harness).update(TINY)
    allocate_many, tiebreak_picks = engine.allocate_many, benchmark.tiebreak_picks
    out = tmp_path / "bench.json"
    assert harness.main(["--instances", "1", "--slots", "2", "--out", str(out)]) == 0

    report = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_solver.json").read_text())
    assert sorted(report) == sorted(set(committed) - {"baseline"})
    assert report["allocate_many_greedy_rows"] > 0
    assert engine.allocate_many is allocate_many
    assert benchmark.tiebreak_picks is tiebreak_picks


def test_check_names_the_case():
    harness = load_harness()
    harness.check(True, "never raised")
    with pytest.raises(AssertionError, match="dual bound at N=4,T=6 differs"):
        harness.check(False, "dual bound at N=4,T=6")
