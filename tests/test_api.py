import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import gmud

MODULES = ("decomposition", "errors", "feedback", "linalg", "precoding", "simulation")
ROOT = Path(__file__).resolve().parents[1]


def _load(relpath, monkeypatch):
    spec = importlib.util.spec_from_file_location("_" + Path(relpath).stem, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the source tree as it is
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    missing = [name for name in gmud.__all__ if not hasattr(gmud, name)]
    assert not missing


def test_package_exports_every_module_name_once():
    assert len(gmud.__all__) == len(set(gmud.__all__))
    names = {n for m in MODULES for n in importlib.import_module(f"gmud.{m}").__all__}
    assert names - set(gmud.__all__) == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gmud.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/tracer.py wraps these (module, attribute) pairs; a name dropped
    # from a module would otherwise only surface as a crash of a traced run
    tracer = _load("perfbench/tracer.py", monkeypatch)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.WRAPS
        if not callable(getattr(getattr(gmud, module, None), attr, None))
    ]
    assert tracer.WRAPS and not missing


def test_bytecheck_battery_covers_public_callables(monkeypatch):
    # tools/bytecheck.py compares outputs across trees; a public function
    # without battery inputs would change unnoticed
    bytecheck = _load("tools/bytecheck.py", monkeypatch)
    callables = [name for name in gmud.__all__ if callable(getattr(gmud, name))]
    missing = [name for name in callables if name not in bytecheck.BATTERY]
    assert callables and not missing
    empty = [name for name in callables if next(bytecheck.BATTERY[name](gmud), None) is None]
    assert not empty
