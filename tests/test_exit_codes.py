"""The exit-code contract under fuzzed command lines.

Every run of ``main`` over ``hist``, ``fit``, ``simulate`` and ``predict``
ends with exit 0, 2, 3 or 4 and no traceback, whatever mix of valid flags,
malformed values, config files and malformed input files it is given.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pacerose.cli import main
from pacerose.features import ModelSpec

TRIP_HEADER = "origin_x,origin_y,dest_x,dest_y,duration_s,distance_km"
HUGE_K = 10 ** 12
# 8 PiB of float64, beyond any 64-bit address space: numpy refuses at once
HUGE_SIZE = str(2 ** 50)


def histogram(bins, rows=None):
    """A uniform histogram CSV of ``bins`` bins, or the given rows."""
    width = 2.0 * math.pi / bins
    if rows is None:
        rows = [f"{i},{(i + 0.5) * width!r},1" for i in range(bins)]
    return "\n".join(["bin,center_rad,value", *rows]) + "\n"


FILES = {
    "trips.csv": "\n".join([TRIP_HEADER] + [
        f"0,0,{1000 * math.cos(0.37 * i)!r},{1000 * math.sin(0.37 * i)!r},"
        f"{100 + 7 * (i % 11)},1" for i in range(80)]) + "\n",
    "bad_trips.csv": f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,0,1,x,60,1\n",
    "few_trips.csv": f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,0,1,2,70,1\n",
    "network.csv": "ax,ay,bx,by,class\n" + "".join(
        f"0,{i},1000,{i},primary\n{i},0,{i},1000,trunk\n" for i in range(6))
        + "0,0,700,700,other\n",
    "hist8.csv": histogram(8),
    "hist4.csv": histogram(4),
    "repeated_bin.csv": histogram(4, ["0,1,1", "1,1,1", "1,1,1", "3,1,1"]),
    "nan_value.csv": histogram(4, ["0,1,1", "1,1,nan", "2,1,1", "3,1,1"]),
    "quoted.csv": histogram(4, ['"0",1,1', '1,"1,5",1', "2,x,1", "3,,1"]),
    "open_quote.csv": histogram(4, ["0,1,1", '1,"1,1', "2,1,1", "3,1,1"]),
    "zero_sum.csv": histogram(4, ["0,1,0", "1,1,0", "2,1,0", "3,1,0"]),
    "missing_bin.csv": histogram(4, ["0,1,1", "1,1,1", "3,1,1"]),
    "header_only.csv": histogram(4, []),
    "empty.csv": "",
    "good.cfg": "bins = 8\nlower_cut = 0\nk_max = 2\n",
    "bad_key.cfg": "bins = 8\nbogus = 1\n",
    "bad_value.cfg": "bins = x\n",
    "no_equals.cfg": "bins 8\n",
    "scenario.json": json.dumps({
        "k_max": 2, "bins": 8, "gamma": 120.0, "alpha": [3.0, -2.0, 1.0, 0.5],
        "beta": [1.0, -1.0], "demand_hist": {"kind": "uniform"},
        "network_hist": {"kind": "rotated_grid", "rotation_rad": 0.3},
        "n_trips": 200, "noise_std": 2.0, "seed": 3}),
    "huge_trips.json": json.dumps({
        "k_max": 2, "bins": 8, "gamma": 120.0, "alpha": [3.0, -2.0, 1.0, 0.5],
        "beta": [1.0, -1.0], "demand_hist": {"kind": "uniform"},
        "network_hist": {"kind": "uniform"}, "n_trips": 2 ** 50}),
    "list.json": "[1, 2]",
    "not_json.json": "{",
    "fractional_trips.json": '{"k_max": 2, "bins": 8, "n_trips": 50.5}',
    "empty_model.json": "{}",
}

PATHS = {
    "--trips": ["trips.csv", "bad_trips.csv", "few_trips.csv",
                "missing.csv", "."],
    "--network": ["network.csv", "trips.csv", "missing.csv"],
    "--network-hist": ["hist8.csv", "hist4.csv", "repeated_bin.csv",
                       "nan_value.csv", "quoted.csv", "open_quote.csv",
                       "zero_sum.csv", "missing_bin.csv", "header_only.csv",
                       "empty.csv", "missing.csv"],
    "--config": ["good.cfg", "bad_key.cfg", "bad_value.cfg", "no_equals.cfg",
                 "missing.cfg"],
    "--scenario": ["scenario.json", "list.json", "not_json.json",
                   "fractional_trips.json", "missing.json"],
    "--model": ["fit/model.json", "huge_k_model.json", "empty_model.json",
                "scenario.json", "missing.json"],
    "--output-dir": ["out", "trips.csv", "trips.csv/out"],
}
PATHS["--demand-hist"] = PATHS["--network-hist"]
# a path is drawn as "@" and its name in the work directory
PATHS = {flag: ["@" + name for name in names] for flag, names in PATHS.items()}

# --bins and --curve-grid stay far below the sizes that exhaust memory;
# a huge --k must be refused before anything of its size is built
VALUES = {
    "--k": ["1", "2", "3", "0", "-1", "x", "2.5", str(HUGE_K)],
    "--bins": ["8", "4", "2", "1", "0", "-3", "x", "720"],
    "--lower-cut": ["0", "0.05", "0.6", "-0.1", "1", "nan", "x"],
    "--upper-cut": ["0", "0.1", "0.5", "1", "inf", "x"],
    "--class-filter": ["primary,trunk", "other", "", "bogus", " , "],
    "--demand-from": ["all", "filtered", "x"],
    "--baseline": ["none", "min", "x"],
    "--curve-grid": ["8", "7", "64", "0", "x"],
    "--seed": ["1", "0", "-1", "x"],
    "--theta": ["1.0", "-2", "90", "x", "nan", "--", "1e400", ""],
}

SWITCHES = ["--lonlat", "--no-lonlat", "--compass", "--length-weighted",
            "--point-symmetric", "--no-point-symmetric", "--strict-rank",
            "--mask", "--no-mask", "--dump-design", "--degrees", "--bogus",
            "--help"]

BASE = {
    "hist": ["--trips", "@trips.csv", "--network", "@network.csv",
             "--bins", "8"],
    "fit": ["--trips", "@trips.csv", "--demand-hist", "@hist8.csv",
            "--network-hist", "@hist8.csv", "--bins", "8", "--k", "2"],
    "simulate": ["--scenario", "@scenario.json"],
    "predict": ["--model", "@fit/model.json", "--theta", "1.0"],
}


def in_work(work, argv):
    """``argv`` with each "@name" made the path of ``name`` in ``work``."""
    return [str(work / t[1:]) if t.startswith("@") else t for t in argv]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (work / name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(in_work(work, ["fit", *BASE["fit"],
                                   "--output-dir", "@fit"])) == 0
    model = json.loads((work / "fit" / "model.json").read_text())
    (work / "huge_k_model.json").write_text(json.dumps(dict(model,
                                                            k_max=HUGE_K)))
    return work


def option(flag):
    if flag in PATHS:
        return st.tuples(st.just(flag), st.sampled_from(PATHS[flag]))
    return st.tuples(st.just(flag), st.sampled_from(VALUES[flag]))


TOKENS = st.one_of(
    st.sampled_from(sorted(PATHS) + sorted(VALUES)).flatmap(option).map(list),
    st.sampled_from(SWITCHES).map(lambda flag: [flag]),
)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(BASE)), base=st.booleans(),
       tokens=st.lists(TOKENS, max_size=4))
def test_every_run_exits_0_2_3_or_4_without_a_traceback(work, command, base,
                                                        tokens):
    argv = [command, *(BASE[command] if base else [])]
    argv = in_work(work, argv + [token for pair in tokens for token in pair])
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=work) as out, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        if command != "predict":
            argv = argv[:1] + ["--output-dir", out] + argv[1:]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("argv, code", [
    (["fit", *BASE["fit"], "--k", str(HUGE_K), "--output-dir", "@huge"], 3),
    (["predict", "--model", "@huge_k_model.json", "--theta", "1.0"], 4),
], ids=["fit-exits-3", "predict-exits-4"])
def test_huge_k_is_refused_at_once(work, argv, code):
    # 80 trips are too few for 3e12 parameters, and the model's 6 column
    # names are not the 3e12 its k_max asks for. Building that many names
    # would exhaust memory, so doing so fails the test at once instead.
    def built(spec):
        raise AssertionError(f"column names built for k_max {spec.k_max}")

    stderr = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr), \
            mock.patch.object(ModelSpec, "demand_column_names",
                              property(built)):
        got = main(in_work(work, argv))
    elapsed = time.perf_counter() - start
    assert got == code, stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["hist", *BASE["hist"], "--bins", HUGE_SIZE],
    ["fit", "--trips", "@trips.csv", "--network", "@network.csv",
     "--k", "2", "--bins", HUGE_SIZE],
    ["fit", *BASE["fit"], "--curve-grid", HUGE_SIZE],
    ["simulate", "--scenario", "@huge_trips.json"],
], ids=["hist-bins", "fit-bins", "fit-curve-grid", "simulate-n-trips"])
def test_size_too_large_to_allocate_exits_2(work, argv):
    stderr = io.StringIO()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=work) as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        got = main(in_work(work, argv) + ["--output-dir", out])
        written = os.listdir(out)
    elapsed = time.perf_counter() - start
    assert got == 2, stderr.getvalue()
    assert stderr.getvalue().startswith("error: ")
    assert "Traceback" not in stderr.getvalue()
    assert written == []
    assert elapsed < 1.0
