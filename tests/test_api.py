import importlib

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
