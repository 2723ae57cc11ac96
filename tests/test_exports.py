"""Every name a sensecourt module lists in __all__ resolves, and the package
imports cleanly in a fresh interpreter, warnings as errors."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sensecourt

MODULES = sorted(info.name for info in pkgutil.iter_modules(sensecourt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sensecourt.{name}")
    assert module.__all__, f"sensecourt.{name} exports nothing"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_cleanly():
    src = str(Path(sensecourt.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import sensecourt"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
