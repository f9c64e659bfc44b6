"""Every name a pacerose module lists in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import pacerose

# __main__ runs the command line when imported
MODULES = sorted(f"pacerose.{info.name}"
                 for info in pkgutil.iter_modules(pacerose.__path__)
                 if info.name != "__main__")


def test_modules_found():
    assert "pacerose.synth" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
