"""The example scripts run end to end on the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)


def test_demo_pipeline_recovers_the_parameters(tmp_path):
    proc = run_script("demo_pipeline.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "max |true - estimated| over 25 parameters:" in proc.stdout
    assert (tmp_path / "demo_out" / "fit" / "model.json").exists()


def test_recovery_sweep_runs_one_cell(tmp_path):
    proc = run_script("recovery_sweep.py", "--sizes", "500", "--noises", "1",
                      "--seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["n_trips", "noise=1"]
    size, rmse = row.split()
    assert size == "500" and 0.0 < float(rmse) < 10.0
