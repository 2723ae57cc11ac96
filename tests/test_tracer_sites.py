"""Every name the benchmark tracer patches exists in the package, and the
commands run under it.

perfbench/tracer.py replaces call sites by getattr on sensecourt modules,
and perfbench/worker.py reads cli.THREADS_ENV, so a name deleted from the
package crashes a traced benchmark run; so does a field its attribute
functions read. The tracer file is read and run by path, without writing
anything next to it.
"""

import importlib
import json
import runpy
from pathlib import Path

import pytest

import sensecourt.cli as cli_mod

TRACER = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"),
    run_name="perfbench_tracer",
)


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _, _ in TRACER["SITES"]] + list(TRACER["STREAM_SITES"]),
)
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"sensecourt.{module}"), attr))


def test_threads_env_exists():
    assert isinstance(cli_mod.THREADS_ENV, str) and cli_mod.THREADS_ENV


TRACED_CONFIG = {
    "scenario": {"width_grids": 6, "height_grids": 6, "grid_edge_m": 200.0, "n_users": 5,
                 "radius_min_m": 300.0, "radius_max_m": 600.0, "seed": 3},
    # lyapunov takes the bnb route, whose seed is a greedy solve; the auction
    # always solves exactly, and greedy greedily
    "policies": [{"kind": "greedy"}, {"kind": "auction"}, {"kind": "lyapunov"}],
    "solver": {"mode": "bnb"},
    "t_slots": 6,
    "warmup_slots": 1,
    "benchmark": {"iterations": 5},
    "truthcheck": {"instances": 2, "bid_points": 11},
}


def test_traced_commands_run_and_restore(tmp_path):
    """The three commands run in process under the installed tracer, whose
    attribute functions read inst.eligible, realization.weights.values and
    result.exact; then every patched site holds its original again."""
    sites = [(m, a) for m, a, _, _ in TRACER["SITES"]] + list(TRACER["STREAM_SITES"])
    modules = {m: importlib.import_module(f"sensecourt.{m}") for m, _ in sites}
    originals = {(m, a): getattr(modules[m], a) for m, a in sites}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TRACED_CONFIG))
    tracer = TRACER["Tracer"]()
    tracer.install()
    try:
        for command in ("simulate", "benchmark", "truthcheck"):
            handler = getattr(cli_mod, f"cmd_{command}")
            assert handler(str(path), out=str(tmp_path / command)) == 0, command
    finally:
        tracer.restore()
    for (m, a), original in originals.items():
        assert getattr(modules[m], a) is original, f"{m}.{a}"
