"""Every name a pacerose module lists in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import pacerose

MODULES = sorted(f"pacerose.{info.name}"
                 for info in pkgutil.iter_modules(pacerose.__path__))


def test_modules_found():
    assert "pacerose.synth" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_names_resolve_to_their_modules():
    for name in pacerose.__all__:
        module = importlib.import_module(
            f"pacerose.{pacerose._EXPORTS[name]}")
        assert getattr(pacerose, name) is getattr(module, name), name
    assert set(pacerose.__all__) <= set(dir(pacerose))


def test_package_name_is_imported_on_first_use(monkeypatch):
    monkeypatch.delitem(vars(pacerose), "ols_fit", raising=False)
    from pacerose.estimator import ols_fit

    assert pacerose.ols_fit is ols_fit
    assert vars(pacerose)["ols_fit"] is ols_fit


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pacerose.no_such_name  # noqa: B018
