"""Every name the benchmark tracer patches exists in the package.

perfbench/tracer.py replaces call sites by getattr on sensecourt modules,
and perfbench/worker.py reads cli.THREADS_ENV, so a name deleted from the
package crashes a traced benchmark run. The tracer file is read and run
by path, without writing anything next to it.
"""

import importlib
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
