"""Every function the benchmark's traced run hooks is still there.

``perfbench/spans.py`` replaces each ``HOOKS`` entry, a function as it is
bound in the module that calls it, with a timing wrapper. A name that is
gone is only warned about, and the run still exits 0, but the metrics that
hook provides are missing. So a refactor that drops or moves one of these
names must fail here first.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it processes the classes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.HOOKS


HOOKS = load_hooks()


def test_hooks_found():
    assert HOOKS


@pytest.mark.parametrize("target", sorted(
    {f"{hook.module}:{hook.attribute}" for hook in HOOKS}))
def test_hooked_name_is_callable(target):
    module, attribute = target.split(":")
    assert callable(getattr(importlib.import_module(module), attribute, None))
