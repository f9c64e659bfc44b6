"""Usage questions are answered before numpy is imported.

``python -m pacerose`` parses its arguments with ``pacerose.options``,
which needs only the standard library, and imports the commands (and so
numpy) only for a command that runs. ``-S`` leaves site-packages, where
numpy is installed, off the module path. The options are a namedtuple
table, so the parse path imports neither ``dataclasses`` nor the
``inspect`` it pulls in.
"""

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
