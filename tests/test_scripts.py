"""The example scripts run end to end on the current package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_same_outputs_names_a_changed_cell(tmp_path):
    src = str(ROOT / "src")
    proc = run_script("same_outputs.py", src, src, "5", "--smoke",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "no differences\n"
    # a copy of the package that writes one other header cell
    shutil.copytree(ROOT / "src" / "pacerose", tmp_path / "src" / "pacerose",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "pacerose" / "cli.py"
    text = cli.read_text()
    assert text.count('"mean_pace"') == 1
    cli.write_text(text.replace('"mean_pace"', '"mean_pace_s"'))
    proc = run_script("same_outputs.py", src, str(tmp_path / "src"), "5",
                      "--smoke", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == ("hist-lonlat seed 5 [hist]: pace_by_direction.csv "
                           "differs\n")


def test_same_outputs_rtol_lets_numbers_differ_by_rounding(tmp_path):
    # a copy of the package that scales the fitted intercept by 1 + 1e-13:
    # fit_report.csv and model.json change, every text file stays the same
    shutil.copytree(ROOT / "src" / "pacerose", tmp_path / "src" / "pacerose",
                    ignore=shutil.ignore_patterns("__pycache__"))
    estimator = tmp_path / "src" / "pacerose" / "estimator.py"
    text = estimator.read_text()
    line = ("    params, se = np.ldexp(params, exponent), "
            "np.ldexp(se, exponent)\n")
    assert text.count(line) == 1
    estimator.write_text(text.replace(line,
                                      line + "    params[0] *= 1 + 1e-13\n"))
    args = (str(ROOT / "src"), str(tmp_path / "src"), "5", "--smoke")
    proc = run_script("same_outputs.py", *args, "--rtol", "1e-10",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "no differences\n"
    proc = run_script("same_outputs.py", *args, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "".join(
        f"{workload} seed 5 [fit]: {name} differs\n"
        for workload in ("fit-city", "fit-fine")
        for name in ("fit_report.csv", "model.json"))


@pytest.mark.parametrize("argv, code", [(["--help"], 0),
                                        (["fit", "--bogus"], 2)],
                         ids=["help", "usage-error"])
def test_maxrss_prints_the_childs_peak_and_exits_with_its_code(tmp_path,
                                                               argv, code):
    # -S leaves site-packages, where numpy is installed, off the launcher's
    # path, so the launch fails if the script imports numpy; the child runs
    # without -S
    proc = subprocess.run(
        [sys.executable, "-S", str(ROOT / "scripts" / "maxrss.py"), *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    *child, last = proc.stdout.splitlines()
    assert int(last) > 0
    assert ("usage:" in "\n".join(child)) == (code == 0)
    assert ("usage:" in proc.stderr) == (code == 2)
