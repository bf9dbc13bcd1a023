import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import gmud

MODULES = ("decomposition", "feedback", "linalg", "precoding", "simulation")


def test_package_exports_resolve():
    missing = [name for name in gmud.__all__ if not hasattr(gmud, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gmud.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/tracer.py wraps these (module, attribute) pairs; a name dropped
    # from a module would otherwise only surface as a crash of a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.WRAPS
        if not callable(getattr(getattr(gmud, module, None), attr, None))
    ]
    assert tracer.WRAPS and not missing
