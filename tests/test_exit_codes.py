"""The exit-code contract under fuzzed command lines.

Every run of ``main`` over ``hist``, ``fit``, ``simulate`` and ``predict``
ends with exit 0, 2, 3 or 4 and no traceback, whatever mix of valid flags,
malformed values, config files and malformed input files it is given.
"""

import contextlib
import errno
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
# sizes no numpy array can hold: numpy raises ValueError or OverflowError
BEYOND_ARRAY = {"2**62": 2 ** 62, "10**20": 10 ** 20}
# a file name longer than any file system allows (ENAMETOOLONG)
TOO_LONG = "x" * 5000


def histogram(bins, rows=None):
    """A uniform histogram CSV of ``bins`` bins, or the given rows."""
    width = 2.0 * math.pi / bins
    if rows is None:
        rows = [f"{i},{(i + 0.5) * width!r},1" for i in range(bins)]
    return "\n".join(["bin,center_rad,value", *rows]) + "\n"


def scaled_trips(scale):
    """300 trips of 1 km at golden-ratio angles theta_i, whose durations
    (120 + 25 cos 2 theta_i + 10 sin theta_i + 5 sin 7.3 i) s are
    multiplied by ``scale``; no random numbers are drawn."""
    rows = []
    for i in range(300):
        theta = 2.0 * math.pi * (i * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0)
        duration = (120.0 + 25.0 * math.cos(2.0 * theta)
                    + 10.0 * math.sin(theta) + 5.0 * math.sin(7.3 * i)) * scale
        rows.append(f"0,0,{1000 * math.cos(theta)!r},"
                    f"{1000 * math.sin(theta)!r},{duration!r},1")
    return "\n".join([TRIP_HEADER, *rows]) + "\n"


# paces near the float maximum: at 2.5e304 the curves are finite but their
# differences are not, at 4.5e304 the alpha curve is beyond the float range,
# at 1e306 so are the coefficients
SCALES = (2.5e304, 4.5e304, 1e306)

FILES = {
    **{f"trips_x{scale:g}.csv": scaled_trips(scale) for scale in SCALES},
    # 200 primary edges of 100 m from the origin at angles pi frac(j sqrt 2)
    "radial_network.csv": "ax,ay,bx,by,class\n" + "".join(
        f"0,0,{100 * math.cos(math.pi * (j * math.sqrt(2.0) % 1.0))!r},"
        f"{100 * math.sin(math.pi * (j * math.sqrt(2.0) % 1.0))!r},primary\n"
        for j in range(200)),
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
    **{f"n_trips_{name}.json": json.dumps({
        "k_max": 2, "bins": 8, "gamma": 120.0, "alpha": [3.0, -2.0, 1.0, 0.5],
        "beta": [1.0, -1.0], "demand_hist": {"kind": "uniform"},
        "network_hist": {"kind": "uniform"}, "n_trips": size})
       for name, size in BEYOND_ARRAY.items()},
    "bins_2**62.json": json.dumps({
        "k_max": 2, "bins": 2 ** 62, "gamma": 120.0,
        "alpha": [3.0, -2.0, 1.0, 0.5], "beta": [1.0, -1.0],
        "demand_hist": {"kind": "uniform"},
        "network_hist": {"kind": "uniform"}, "n_trips": 200}),
    "list.json": "[1, 2]",
    "not_json.json": "{",
    "fractional_trips.json": '{"k_max": 2, "bins": 8, "n_trips": 50.5}',
    "empty_model.json": "{}",
    # a byte that is not UTF-8 in a CSV, config and JSON file
    "not_utf8.csv": b"bin,center_rad,value\n0,1,\xff\n",
    "not_utf8.cfg": b"bins = \xff8\n",
    "not_utf8.json": b'{"k_max": "\xff"}',
}

PATHS = {
    "--trips": ["trips.csv", "bad_trips.csv", "few_trips.csv",
                "not_utf8.csv", "missing.csv", "."],
    "--network": ["network.csv", "trips.csv", "not_utf8.csv", "missing.csv"],
    "--network-hist": ["hist8.csv", "hist4.csv", "repeated_bin.csv",
                       "nan_value.csv", "quoted.csv", "open_quote.csv",
                       "zero_sum.csv", "missing_bin.csv", "header_only.csv",
                       "empty.csv", "not_utf8.csv", "missing.csv"],
    "--config": ["good.cfg", "bad_key.cfg", "bad_value.cfg", "no_equals.cfg",
                 "not_utf8.cfg", "missing.cfg"],
    "--scenario": ["scenario.json", "list.json", "not_json.json",
                   "fractional_trips.json", "not_utf8.json", "missing.json"],
    "--model": ["fit/model.json", "huge_k_model.json", "empty_model.json",
                "scenario.json", "not_utf8.json", "missing.json"],
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
        if isinstance(text, bytes):
            (work / name).write_bytes(text)
        else:
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


@pytest.mark.parametrize("argv, named", [
    *[(["hist", *BASE["hist"], "--bins", str(size)], "bins")
      for size in BEYOND_ARRAY.values()],
    (["fit", "--trips", "@trips.csv", "--network", "@network.csv",
      "--k", "2", "--bins", str(2 ** 62)], "bins"),
    (["fit", "--trips", "@trips.csv", "--network", "@network.csv",
      "--k", "2", "--no-point-symmetric", "--bins", str(2 ** 62)], "bins"),
    (["fit", *BASE["fit"], "--curve-grid", str(2 ** 62)], "curve grid"),
    *[(["simulate", "--scenario", f"@n_trips_{name}.json"], "n_trips")
      for name in BEYOND_ARRAY],
    (["simulate", "--scenario", "@bins_2**62.json"], "bins"),
], ids=["hist-bins-2**62", "hist-bins-10**20", "fit-bins",
        "fit-bins-not-point-symmetric", "fit-curve-grid",
        "simulate-n-trips-2**62", "simulate-n-trips-10**20",
        "simulate-bins"])
def test_size_beyond_any_array_exits_2_naming_it(work, argv, named):
    code, stderr, written = run_in(work, argv)
    assert_input_error(code, stderr)
    assert stderr.count("\n") == 1
    assert f"{named} must be at most" in stderr
    assert written == []


def run_in(work, argv):
    """Exit code, stderr and the files written of ``main(argv)`` run in
    ``work``, with a fresh output directory for every command but predict,
    given before ``argv`` so that an ``--output-dir`` in it wins."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory(dir=work) as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        if argv[0] != "predict":
            argv = argv[:1] + ["--output-dir", out] + argv[1:]
        code = main(in_work(work, argv))
        written = os.listdir(out)
    return code, stderr.getvalue(), written


def assert_input_error(code, stderr):
    assert code == 2, stderr
    assert stderr.startswith("error: ")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv, name", [
    (["hist", *BASE["hist"], "--trips", "@not_utf8.csv"], "not_utf8.csv"),
    (["hist", *BASE["hist"], "--network", "@not_utf8.csv"], "not_utf8.csv"),
    (["fit", *BASE["fit"], "--demand-hist", "@not_utf8.csv"], "not_utf8.csv"),
    (["fit", *BASE["fit"], "--config", "@not_utf8.cfg"], "not_utf8.cfg"),
    (["simulate", "--scenario", "@not_utf8.json"], "not_utf8.json"),
    (["predict", "--model", "@not_utf8.json", "--theta", "1.0"],
     "not_utf8.json"),
], ids=["trips", "network", "histogram", "config", "scenario", "model"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(work, argv, name):
    code, stderr, written = run_in(work, argv)
    assert_input_error(code, stderr)
    assert stderr == (f"error: {work / name}: byte 0xff is not UTF-8 "
                      "(invalid start byte)\n")
    assert written == []


@pytest.mark.parametrize("command, renderer", [("fit", "curve_svg"),
                                               ("hist", "rose_svg")])
def test_out_of_memory_while_building_outputs_writes_nothing(work, command,
                                                            renderer):
    # Python's own allocations raise MemoryError with no message, and a
    # command builds every output before the first is written
    with mock.patch(f"pacerose.cli.{renderer}", side_effect=MemoryError()):
        code, stderr, written = run_in(work, [command, *BASE[command]])
    assert code == 2
    assert stderr == "error: out of memory\n"
    assert written == []


@pytest.mark.parametrize("argv", [
    ["fit", *BASE["fit"], "--trips", TOO_LONG],
    ["fit", *BASE["fit"], "--output-dir", TOO_LONG],
    ["fit", *BASE["fit"], "--config", TOO_LONG],
    ["predict", "--model", TOO_LONG, "--theta", "1.0"],
    ["simulate", "--scenario", TOO_LONG],
], ids=["fit-trips", "fit-output-dir", "fit-config", "predict-model",
        "simulate-scenario"])
def test_a_path_too_long_exits_2(work, argv):
    code, stderr, written = run_in(work, argv)
    assert_input_error(code, stderr)
    assert "File name too long" in stderr
    assert written == []


@pytest.mark.parametrize("error", [
    PermissionError(errno.EACCES, "Permission denied"),
    OSError(errno.ENOSPC, "No space left on device"),
], ids=["permission", "disk-full"])
@pytest.mark.parametrize("command", sorted(BASE))
def test_an_os_error_opening_an_input_exits_2(work, command, error):
    def refused(*args, **kwargs):
        raise error

    with mock.patch("builtins.open", refused):
        code, stderr, written = run_in(work, [command, *BASE[command]])
    assert_input_error(code, stderr)
    assert os.strerror(error.errno) in stderr
    assert written == []


@pytest.mark.parametrize("command", ["hist", "fit", "simulate"])
def test_a_full_disk_while_writing_exits_2(work, command):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    with mock.patch("tempfile.mkstemp", side_effect=full):
        code, stderr, written = run_in(work, [command, *BASE[command]])
    assert_input_error(code, stderr)
    assert "No space left on device" in stderr
    assert written == []


@pytest.mark.parametrize("scale, baseline, code, error", [
    (2.5e304, "none", 0, ""),
    (2.5e304, "min", 0, ""),
    (4.5e304, "none", 4, "error: alpha curve exceeds the float range\n"),
    (1e306, "none", 4, "error: coefficients or standard errors exceed the "
     "float range\n"),
], ids=["curves-plotted", "curves-plotted-baseline-min", "curve-beyond",
        "coefficients-beyond"])
def test_a_fit_beyond_the_float_range_exits_4(work, tmp_path, scale,
                                              baseline, code, error):
    got, stderr, _ = run_in(work, [
        "fit", "--trips", f"@trips_x{scale:g}.csv",
        "--network", "@radial_network.csv", "--baseline", baseline,
        "--output-dir", str(tmp_path)])
    assert (got, stderr) == (code, error)
    svgs = [path.read_text() for path in tmp_path.glob("*.svg")]
    assert len(svgs) == (2 if code == 0 else 0)
    assert not any("nan" in svg for svg in svgs)
    if code:
        assert os.listdir(tmp_path) == []
