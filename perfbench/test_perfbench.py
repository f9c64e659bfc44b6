"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _result(w, 1)["metrics"] for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [e["name"] for e in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(traced):
    names = [e["name"] for e in SPEC["per_layer"]]
    for metrics in traced.values():
        assert list(metrics) == names


def test_traced_split_matches_the_workloads_purpose(traced):
    fine = traced["fit-fine"]
    span_times = {k: v["value"] for k, v in fine.items()
                  if k.endswith("_s") and k.split(".")[0] not in ("cli", "trace")}
    assert max(span_times, key=span_times.get) == "features.design_s"
    assert fine["estimator.columns"]["value"] == 49
    assert fine["estimator.rank"]["value"] == 33
    hist = traced["hist-lonlat"]
    assert all(v["value"] == 0 for k, v in hist.items()
               if k.startswith(("features.", "estimator.")))
    assert hist["ingest.parse_network_s"]["value"] > 0
    sim = traced["simulate-predict"]
    assert all(v["value"] == 0 for k, v in sim.items()
               if k.startswith("ingest.parse_"))
    assert sim["model.predict_calls"]["value"] == workloads.SIZES["smoke"]["thetas"]
    city = traced["fit-city"]
    n = city["ingest.rows_read"]["value"] - city["ingest.rows_skipped"]["value"]
    assert city["ingest.trips_kept"]["value"] == n - int(0.05 * n) - int(0.10 * n)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit-city", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    records = []
    for i, seed in enumerate((5, 5, 6)):
        work = tmp_path / str(i)
        work.mkdir()
        records.append(workloads.prepare("fit-city", str(work), seed, True).inputs)
    assert records[0] == records[1]
    assert records[0]["trips"]["sha256"] != records[2]["trips"]["sha256"]


# -------------------------------------------------- output checks catch faults

def _run_case(workload, work):
    case = workloads.prepare(workload, str(work), 2, True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    stdouts = []
    for cmd in case.commands:
        proc = subprocess.run([sys.executable, "-m", "pacerose", *cmd.argv],
                              cwd=work, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert cmd.check(proc.stdout) == []
        stdouts.append(proc.stdout)
    return case, stdouts


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    edit(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def _edit_csv(path, row, column, value):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["fit-city", "fit-fine"])
@pytest.mark.parametrize("fault", ["coefficient", "n_samples", "rank", "histogram"])
def test_fit_check_catches_corrupt_model(tmp_path, workload, fault):
    case, stdouts = _run_case(workload, tmp_path)
    cmd = case.commands[0]
    path = os.path.join(cmd.out_dir, "model.json")
    edits = {
        "coefficient": lambda m: m["coefficients"].__setitem__(
            3, m["coefficients"][3] * (1 + 1e-5) + 1e-5),
        "n_samples": lambda m: m.__setitem__("n_samples", m["n_samples"] + 1),
        "rank": lambda m: m.__setitem__("rank", m["rank"] + 1),
        "histogram": lambda m: m["demand_hist"].__setitem__(
            0, m["demand_hist"][0] + 1e-9),
    }
    _edit_json(path, edits[fault])
    assert cmd.check(stdouts[0])
    os.remove(path)
    assert cmd.check(stdouts[0])


@pytest.mark.parametrize("fault", ["sum", "symmetry", "counts", "reference"])
def test_hist_check_catches_corrupt_outputs(tmp_path, fault):
    case, stdouts = _run_case("hist-lonlat", tmp_path)
    cmd = case.commands[0]
    out = cmd.out_dir
    network = os.path.join(out, "network_hist.csv")
    values = np.loadtxt(network, delimiter=",", skiprows=1)[:, 2]
    if fault == "sum":
        _edit_csv(os.path.join(out, "demand_hist.csv"), 1, 2, repr(0.5))
    elif fault == "symmetry":
        # move mass between two bins: the sum stays 1, symmetry breaks
        _edit_csv(network, 1, 2, repr(values[0] + 1e-15))
        _edit_csv(network, 2, 2, repr(values[1] - 1e-15))
    elif fault == "counts":
        _edit_csv(os.path.join(out, "pace_by_direction.csv"), 1, 3, "999999")
    else:
        # swap two demand bins: the sum stays 1, the histogram is wrong
        d = np.loadtxt(os.path.join(out, "demand_hist.csv"), delimiter=",",
                       skiprows=1)[:, 2]
        j = int(np.argmax(np.abs(d - d[0])))
        _edit_csv(os.path.join(out, "demand_hist.csv"), 1, 2, repr(d[j]))
        _edit_csv(os.path.join(out, "demand_hist.csv"), j + 1, 2, repr(d[0]))
    assert cmd.check(stdouts[0])


def test_simulate_predict_checks_catch_corrupt_outputs(tmp_path):
    case, stdouts = _run_case("simulate-predict", tmp_path)
    simulate, predict = case.commands
    trips = os.path.join(simulate.out_dir, "trips.csv")
    with open(trips, encoding="utf-8") as f:
        lines = f.read().splitlines()
    with open(trips, "w", encoding="utf-8") as f:
        f.write("\n".join(lines[:-1]) + "\n")
    assert simulate.check(stdouts[0])
    values = stdouts[1].split()
    assert predict.check("\n".join(values[:-1]))
    values[5] = repr(float(values[5]) * (1 + 1e-6))
    assert predict.check("\n".join(values))


# ---------------------------------------------------------------- the tracer

def test_absent_hook_is_reported_not_fatal():
    import pacerose.cli

    original = pacerose.cli.parse_trips
    hooks = (spans.Hook("pacerose.cli", "parse_trips", "ingest.parse_trips",
                        spans._parse_trips, ("ingest.rows_read",)),
             spans.Hook("pacerose.cli", "no_such_function", "ingest.gone"),
             spans.Hook("pacerose.no_such_module", "f", "ingest.gone"))
    tracer = spans.Tracer(hooks)
    tracer.install()
    try:
        assert pacerose.cli.parse_trips is not original
        assert tracer.absent == ["pacerose.cli.no_such_function",
                                 "pacerose.no_such_module.f"]
        assert tracer.provided() == {"ingest.parse_trips_s", "ingest.rows_read"}
    finally:
        tracer.uninstall()
    assert pacerose.cli.parse_trips is original


def test_self_time_excludes_direct_children():
    tree = [spans.Span("cli.main", 0.0, 10.0),
            spans.Span("features.design", 1.0, 4.0, parent=0),
            spans.Span("estimator.ols_fit", 5.0, 7.0, parent=0),
            spans.Span("special.p_value", 5.5, 6.0, parent=2)]
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["special.p_value_calls"] == 1
    assert metrics["estimator.ols_fit_s"] == pytest.approx(2.0)


def test_hung_child_is_killed_at_its_timeout(tmp_path):
    import run

    result = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                           tmp_path, dict(os.environ), tmp_path, timeout=0.5)
    assert result.exit_code != 0
    assert result.wall_s < 10
