"""Usage questions are answered before numpy is imported.

``python -m pacerose`` parses its arguments with ``pacerose.options``,
which needs only the standard library, and imports the commands (and so
numpy) only for a command that runs. ``-S`` leaves site-packages, where
numpy is installed, off the module path. The options are a namedtuple
table, so the parse path imports neither ``dataclasses`` nor the
``inspect`` it pulls in.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# modules a usage question must not import: the commands' numpy, and the
# dataclasses and inspect a dataclass option table would cost
HEAVY = ("numpy", "dataclasses", "inspect")


def run_python(*args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=60)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["fit", "--help"], 0),
    (["fit", "--bogus"], 2),
], ids=["help", "fit-help", "fit-usage-error"])
def test_usage_is_answered_without_site_packages(tmp_path, argv, code):
    light = run_python("-S", "-m", "pacerose", *argv, cwd=tmp_path)
    full = run_python("-m", "pacerose", *argv, cwd=tmp_path)
    assert light.returncode == code, light.stderr.decode()
    assert full.returncode == code, full.stderr.decode()
    assert light.stdout == full.stdout
    assert light.stderr == full.stderr


def test_importing_the_package_and_its_options_leaves_numpy_out(tmp_path):
    proc = run_python("-S", "-c", "import sys, pacerose, pacerose.options; "
                      f"print([m for m in {HEAVY!r} if m in sys.modules])",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["[]"]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["fit", "--bogus"], 2),
], ids=["help", "fit-usage-error"])
def test_usage_imports_no_heavy_module(tmp_path, argv, code):
    # -X importtime writes one stderr line per module the run imports
    proc = run_python("-S", "-X", "importtime", "-m", "pacerose", *argv,
                      cwd=tmp_path)
    assert proc.returncode == code, proc.stderr.decode()
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert "pacerose.options" in imported
    assert imported.isdisjoint(HEAVY)


def script_target():
    """The ``module:function`` the installed ``pacerose`` script calls."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^pacerose\s*=\s*"([\w.]+:\w+)"', scripts, re.M)
    return target.split(":")


def test_installed_script_answers_help_without_numpy(tmp_path):
    # what the console script setuptools writes does: sys.exit(function())
    module, function = script_target()
    script = (f"import sys\nfrom {module} import {function}\n"
              f"try:\n    {function}()\n"
              "except SystemExit as exc:\n"
              "    assert 'numpy' not in sys.modules\n    raise\n")
    light = run_python("-S", "-c", script, "--help", cwd=tmp_path)
    full = run_python("-m", "pacerose", "--help", cwd=tmp_path)
    assert light.returncode == 0, light.stderr.decode()
    assert light.stdout == full.stdout
    assert light.stderr == full.stderr == b""


# A command that runs imports the commands with the cyclic garbage collector
# off and then freezes what the imports made; the collector is on again
# when the command starts, and usage questions never reach that code.

SCENARIO = {"k_max": 8, "bins": 32, "gamma": 240.0,
            "alpha": [3.0] * 16, "beta": [2.0] * 8,
            "demand_hist": {"kind": "uniform"},
            "network_hist": {"kind": "rotated_grid", "rotation_rad": 0.3},
            "n_trips": 200, "noise_std": 8.0, "seed": 5}

# runs pacerose.__main__.main on argv, then prints the exit code (or the
# ImportError raised), whether the collector is on and how many objects
# are frozen
GC_AFTER_MAIN = """
import gc, sys
from pacerose.__main__ import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
except ImportError:
    code = "ImportError"
print(code, gc.isenabled(), gc.get_freeze_count())
"""


def simulate_argv(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    return ["simulate", "--scenario", str(scenario),
            "--output-dir", str(tmp_path / "out")]


def gc_after_main(tmp_path, argv, prelude=""):
    """``[code, enabled, frozen]`` as the child printed them."""
    proc = run_python("-c", prelude + GC_AFTER_MAIN, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().splitlines()[-1].split()


def test_a_command_that_runs_freezes_its_imports(tmp_path):
    code, enabled, frozen = gc_after_main(tmp_path, simulate_argv(tmp_path))
    assert (code, enabled) == ("0", "True")
    assert int(frozen) > 0
    assert (tmp_path / "out" / "trips.csv").is_file()


@pytest.mark.parametrize("argv, code", [
    (["--help"], "0"),
    (["fit", "--bogus"], "2"),
], ids=["help", "fit-usage-error"])
def test_usage_freezes_nothing(tmp_path, argv, code):
    assert gc_after_main(tmp_path, argv) == [code, "True", "0"]


def test_a_failed_import_leaves_the_collector_on(tmp_path):
    # numpy set to None in sys.modules makes importing the commands fail
    prelude = "import sys\nsys.modules['numpy'] = None\n"
    assert gc_after_main(tmp_path, simulate_argv(tmp_path), prelude) == [
        "ImportError", "True", "0"]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_in_process_main_leaves_the_collector_alone(tmp_path, enabled):
    from pacerose import cli

    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(simulate_argv(tmp_path)) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert gc.get_freeze_count() == frozen
