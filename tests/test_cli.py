import contextlib
import io
import json
import math
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RAW_ALPHA, RAW_BETA
from pacerose import cli
from pacerose.cli import RunConfig, build_parser, main, resolve_config
from pacerose.estimator import ols_fit
from pacerose.features import build_design_matrix
from pacerose.ingest import (
    FilterPolicy,
    directions,
    parse_trips,
    percentile_filter,
)
from pacerose.model import load_model

TRIP_HEADER = "origin_x,origin_y,dest_x,dest_y,duration_s,distance_km"
NET_HEADER = "ax,ay,bx,by,class"


def scenario_payload(**overrides):
    payload = {
        "k_max": 8,
        "bins": 32,
        "point_symmetric": True,
        "gamma": 240.0,
        "alpha": list(RAW_ALPHA),
        "beta": list(RAW_BETA),
        "demand_hist": {"kind": "harmonic", "cos": [0.06] * 8,
                        "sin": [0.05] * 8},
        "network_hist": {
            "kind": "harmonic",
            "cos": [0.0, 0.10, 0.0, 0.08, 0.0, 0.07, 0.0, 0.06],
            "sin": [0.0, 0.07, 0.0, 0.06, 0.0, 0.05, 0.0, 0.08],
        },
        "n_trips": 2000,
        "noise_std": 0.0,
        "seed": 21,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_payload()))
    return path


@pytest.fixture
def simulated(tmp_path, scenario_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--output-dir", str(out)]) == 0
    return out


def grid_network_csv(tmp_path):
    lines = [NET_HEADER]
    for i in range(6):
        lines.append(f"0,{i * 100},1000,{i * 100},primary")
        lines.append(f"{i * 100},0,{i * 100},1000,trunk")
    lines.append("0,0,700,700,other")
    path = tmp_path / "network.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def trips_csv(tmp_path, n=40, pace_s_per_km=120.0, name="trips.csv"):
    rng = np.random.default_rng(0)
    rows = [TRIP_HEADER]
    for _ in range(n):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rows.append(f"0,0,{1000 * math.cos(theta)!r},"
                    f"{1000 * math.sin(theta)!r},{pace_s_per_km!r},1.0")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def uniform_hist_csv(tmp_path, bins=32, name="uniform_hist.csv"):
    lines = ["bin,center_rad,value"]
    width = 2.0 * math.pi / bins
    for i in range(bins):
        lines.append(f"{i},{(i + 0.5) * width!r},{1.0 / bins!r}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHistCommand:
    def test_outputs_exist(self, tmp_path):
        trips = trips_csv(tmp_path)
        network = grid_network_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--output-dir", str(out)]) == 0
        for name in ("demand_hist.csv", "network_hist.csv",
                     "pace_by_direction.csv", "demand_rose.svg",
                     "network_rose.svg", "pace_rose.svg"):
            assert (out / name).exists(), name

    def test_bins_flag_controls_rows(self, tmp_path):
        trips = trips_csv(tmp_path)
        network = grid_network_csv(tmp_path)
        out = tmp_path / "out16"
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--bins", "16", "--output-dir", str(out)]) == 0
        lines = (out / "demand_hist.csv").read_text().strip().splitlines()
        assert len(lines) == 17  # header + 16 bins

    def test_empty_trip_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(TRIP_HEADER + "\n")
        network = grid_network_csv(tmp_path)
        code = main(["hist", "--trips", str(path), "--network", str(network),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "no trips" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, code, err", [
        ("--no-length-weighted", 0, ""),
        ("--length-weighted", 2, "error: segment weights sum to inf; "
         "lengths must sum to a positive finite number\n"),
    ])
    def test_overflowing_differences_warn_nothing(self, tmp_path, capsys,
                                                  weights, code, err):
        # a coordinate difference beyond the float range is infinite: the
        # arctan2 reads it as a direction and the total rule judges its
        # length, and numpy prints no warning
        trips = tmp_path / "trips.csv"
        trips.write_text(TRIP_HEADER + "\n-1e308,0,1e308,0,60,1\n"
                         "0,0,1,1,60,1\n0,0,1,2,70,1\n")
        network = tmp_path / "network.csv"
        network.write_text(NET_HEADER + "\n-1e308,0,1e308,0,primary\n"
                           "0,0,1.5e308,1.5e308,primary\n0,0,1,1,primary\n")
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--bins", "4", "--lower-cut", "0", "--upper-cut", "0",
                     weights, "--output-dir", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == err.replace(
            "error: ", f"error: {network}: ")

    def test_class_filter_affects_network_histogram(self, tmp_path):
        trips = trips_csv(tmp_path)
        network = grid_network_csv(tmp_path)
        out_all = tmp_path / "all"
        out_primary = tmp_path / "primary"
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--output-dir", str(out_all)]) == 0
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--class-filter", "primary",
                     "--output-dir", str(out_primary)]) == 0
        assert ((out_all / "network_hist.csv").read_text()
                != (out_primary / "network_hist.csv").read_text())

    def test_lonlat_network_histogram_scales_longitude(self, tmp_path):
        # diagonal lon/lat segments near 60 N: a degree east is half as long
        # as a degree north, so each orientation is read after cos(lat)
        rng = np.random.default_rng(3)
        ends = rng.uniform([10.0, 59.5], [11.0, 60.5],
                           size=(50, 2, 2)).tolist()
        network = tmp_path / "net_lonlat.csv"
        network.write_text(NET_HEADER + "\n" + "\n".join(
            f"{ax!r},{ay!r},{bx!r},{by!r},primary"
            for (ax, ay), (bx, by) in ends) + "\n")
        trips = tmp_path / "trips_lonlat.csv"
        trips.write_text(
            "origin_lon,origin_lat,dest_lon,dest_lat,duration_s,distance_km\n"
            + "".join(f"10,60,{10 + d},{60 + d},60,1\n"
                      for d in (0.1, -0.1, 0.2)))
        out = tmp_path / "out"
        assert main(["hist", "--lonlat", "--trips", str(trips),
                     "--network", str(network), "--bins", "12",
                     "--output-dir", str(out)]) == 0
        rows = (out / "network_hist.csv").read_text().splitlines()[1:]
        got = [float(row.split(",")[2]) for row in rows]
        expected = np.zeros(12)
        for (ax, ay), (bx, by) in ends:
            dx = (bx - ax) * math.cos(math.radians((ay + by) / 2))
            theta = math.atan2(by - ay, dx) % (2 * math.pi)
            for angle in (theta, (theta + math.pi) % (2 * math.pi)):
                expected[int(angle * 12 / (2 * math.pi)) % 12] += 1
        np.testing.assert_allclose(got, expected / expected.sum(), rtol=1e-12)

    def test_missing_network_input_exits_2(self, tmp_path):
        trips = trips_csv(tmp_path)
        assert main(["hist", "--trips", str(trips),
                     "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("extra", [
        ("--bins", "0"),
        ("--bins", "-3"),
        ("--class-filter", "footpath"),
        ("--class-filter", ""),
        ("--class-filter", " , "),
    ], ids=["bins-zero", "bins-negative", "class-filter-footpath",
            "class-filter-empty", "class-filter-blank"])
    def test_invalid_option_exits_2_before_writing(self, tmp_path, capsys,
                                                   extra):
        trips = trips_csv(tmp_path)
        network = grid_network_csv(tmp_path)
        out = tmp_path / "out"
        code = main(["hist", "--trips", str(trips), "--network", str(network),
                     "--output-dir", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid option" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_outputs_and_row_count(self, simulated):
        lines = (simulated / "trips.csv").read_text().strip().splitlines()
        assert len(lines) == 2001  # header + n_trips
        manifest = json.loads((simulated / "manifest.json").read_text())
        assert manifest["n_trips"] == 2000
        assert manifest["n_clamped"] == 0

    def test_same_seed_byte_identical(self, tmp_path, scenario_file):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        for out in (out1, out2):
            assert main(["simulate", "--scenario", str(scenario_file),
                         "--output-dir", str(out)]) == 0
        for name in ("trips.csv", "manifest.json", "demand_hist.csv",
                     "network_hist.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["simulate", "--scenario", str(scenario_file),
                     "--output-dir", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file),
                     "--seed", "999", "--output-dir", str(out2)]) == 0
        assert ((out1 / "trips.csv").read_bytes()
                != (out2 / "trips.csv").read_bytes())

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_missing_scenario_key_exits_2(self, tmp_path):
        payload = scenario_payload()
        del payload["alpha"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"alpha": [math.nan] + list(RAW_ALPHA[1:])},
        {"noise_std": math.inf},
    ], ids=["nan-alpha", "infinite-noise"])
    def test_non_finite_scenario_value_exits_2(self, tmp_path, capsys,
                                               overrides):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario_payload(**overrides)))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha, beta and noise_std must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("payload, extra, config, message", [
        (scenario_payload(), ["--seed", "-1"], None,
         "seed must be nonnegative"),
        (scenario_payload(), [], "seed=-3\n", "seed must be nonnegative"),
        (scenario_payload(seed=-1), [], None, "seed must be nonnegative"),
        ([], [], None, "expected a JSON object, got list"),
    ], ids=["seed-flag", "seed-config", "seed-scenario", "list-scenario"])
    def test_bad_seed_or_scenario_exits_2(self, tmp_path, capsys, payload,
                                          extra, config, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            extra = extra + ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("key, value, kind", [
        ("point_symmetric", "false", "boolean"),
        ("point_symmetric", 0, "boolean"),
        ("canonicalize_coefficients", "false", "boolean"),
        ("k_max", 8.0, "integer"),
        ("bins", True, "integer"),
        ("n_trips", 50.5, "integer"),
        ("n_trips", True, "integer"),
        ("seed", "21", "integer"),
    ])
    def test_scenario_json_types_are_strict(self, tmp_path, capsys, key,
                                            value, kind):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario_payload(**{key: value})))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert (f"invalid scenario: {key} must be a JSON {kind}, "
                f"got {value!r}") in err
        assert not out.exists()

    @staticmethod
    def edited_scenario(key, value):
        """A scenario whose number ``key``, or the first entry of its array
        ``key``, is ``value``."""
        if key in ("gamma", "noise_std"):
            return scenario_payload(**{key: value})
        if key == "alpha":
            return scenario_payload(alpha=[value] + RAW_ALPHA[1:].tolist())
        if key == "rotation_rad":
            return scenario_payload(network_hist={"kind": "rotated_grid",
                                                  "rotation_rad": value})
        hist = {"values": {"kind": "values", "values": [1.0] * 32},
                "cos": {"kind": "harmonic", "cos": [0.06] * 8,
                        "sin": [0.05] * 8}}[key]
        hist[key][0] = value
        return scenario_payload(demand_hist=hist)

    @pytest.mark.parametrize("value", ["240", True, None],
                             ids=["string", "true", "null"])
    @pytest.mark.parametrize("key, kind", [
        ("gamma", "number"), ("noise_std", "number"),
        ("alpha", "array of numbers"), ("values", "array of numbers"),
        ("cos", "array of numbers"), ("rotation_rad", "number"),
    ])
    def test_scenario_numbers_are_strict(self, tmp_path, capsys, key, kind,
                                         value):
        payload = self.edited_scenario(key, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        captured = capsys.readouterr()
        got, where = value, ""
        if key == "alpha":
            got = payload["alpha"]
        elif key in ("values", "cos"):
            got, where = payload["demand_hist"][key], "demand_hist: "
        elif key == "rotation_rad":
            where = "network_hist: "
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: invalid scenario: {where}"
                                f"{key} must be a JSON {kind}, got {got!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["demand_hist", "network_hist"])
    @pytest.mark.parametrize("entry, message", [
        ({"kind": "nope"}, "unknown histogram kind 'nope'"),
        ({"kind": "values", "values": [0.0] * 32},
         "histogram values sum to 0.0"),
        ([0.0] * 32, "histogram values sum to 0.0"),
        ({"values": [1.0] * 32}, "missing key kind"),
    ], ids=["kind", "zero-total", "zero-total-list", "no-kind"])
    def test_histogram_errors_name_the_histogram(self, tmp_path, capsys,
                                                 key, entry, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario_payload(**{key: entry})))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: invalid scenario: {key}: "
                                f"{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gamma", "alpha", "n_trips",
                                     "network_hist"])
    def test_missing_scenario_key_is_named(self, tmp_path, capsys, key):
        payload = scenario_payload()
        del payload[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: invalid scenario: missing key "
                                f"{key}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"gamma": 1' + "0" * 400 + "}", "invalid scenario: gamma is beyond "
         "the float range"),
        ("[" * 100000 + "]" * 100000, "bad.json: not valid JSON: "),
        ('"scenario"', "expected a JSON object, got str"),
    ], ids=["integer-beyond-float", "deep-nesting", "string"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, text,
                                         message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, count", [
        ({"noise_std": 1e308}, 4),
        ({"gamma": 1e308, "alpha": [1e308, 0.0]}, 19),
        # an infinite pace below the floor would be clamped to 1 s/km
        ({"gamma": -1e308, "alpha": [-1e308, 0.0]}, 19),
    ], ids=["noise", "gamma", "negative-gamma"])
    def test_non_finite_pace_exits_2_writing_nothing(self, tmp_path, capsys,
                                                     overrides, count):
        payload = {
            "k_max": 1, "bins": 2, "point_symmetric": False,
            "gamma": 100.0, "alpha": [1.0, 0.5], "beta": [0.3, 0.2],
            "demand_hist": [1.0, 0.0], "network_hist": {"kind": "uniform"},
            "n_trips": 50, "noise_std": 0.0, "seed": 3,
            "canonicalize_coefficients": False,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(payload, **overrides)))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(bad),
                     "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: invalid scenario: the pace of {count} of 50 "
                       "trips is not finite; gamma, alpha, beta or noise_std "
                       "is too large\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides, code", [
        ({"gamma": 1e308}, 0),
        ({"alpha": [1.7e308, 1.7e308], "demand_hist": [0.0, 1.0]}, 2),
    ], ids=["gamma", "alpha"])
    def test_overflowing_scenario_is_canonicalized(self, tmp_path, capsys,
                                                   overrides, code):
        # the signal, not the projection onto the identifiable
        # coefficients, decides whether such a scenario can be simulated
        payload = {
            "k_max": 1, "bins": 2, "point_symmetric": True,
            "gamma": 100.0, "alpha": [1.0, 0.5], "beta": [],
            "demand_hist": [1.0, 3.0], "network_hist": {"kind": "uniform"},
            "n_trips": 50, "seed": 3,
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(payload, **overrides)))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario),
                     "--output-dir", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            trips = np.loadtxt(out / "trips.csv", delimiter=",", skiprows=1)
            assert trips.shape == (50, 6)
            assert np.all(np.isfinite(trips[:, 4]))
        else:
            assert err == ("error: invalid scenario: the pace of 18 of 50 "
                           "trips is not finite; gamma, alpha, beta or "
                           "noise_std is too large\n")
            assert not out.exists()

    def test_memory_per_trip_is_bounded(self, tmp_path, capsys):
        # Bound: the traced peak of the whole command stays below 64 B per
        # trip. Directions, paces and the noise draw take 8 B each; neither
        # the N x (2K+1) Fourier basis (136 B/trip at K=8) nor the text of
        # trips.csv (about 60 B/trip) may be held whole.
        n = 200_000
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_payload(n_trips=n,
                                                        noise_std=5.0)))
        argv = ["simulate", "--scenario", str(scenario),
                "--output-dir", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / n < 64
        capsys.readouterr()


class TestFitCommand:
    def fit(self, tmp_path, simulated, *extra):
        out = tmp_path / "fit"
        code = main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--demand-hist", str(simulated / "demand_hist.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--lower-cut", "0", "--upper-cut", "0",
                     "--output-dir", str(out), *extra])
        return code, out

    def test_noiseless_summary_and_report(self, tmp_path, simulated):
        code, out = self.fit(tmp_path, simulated)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "r_squared: 1.000" in summary
        assert "prob_f: 0.000" in summary
        report_lines = (out / "fit_report.csv").read_text().strip().splitlines()
        assert len(report_lines) == 26  # header + 25 parameter rows
        assert report_lines[1].startswith("gamma,")
        assert report_lines[2].startswith("a_c1,")
        assert report_lines[-1].startswith("b_s8,")

    def test_recovers_manifest_truth(self, tmp_path, simulated):
        code, out = self.fit(tmp_path, simulated)
        assert code == 0
        manifest = json.loads((simulated / "manifest.json").read_text())
        model = json.loads((out / "model.json").read_text())
        truth = np.array([manifest["gamma"]] + manifest["alpha"]
                         + manifest["beta"])
        estimate = np.array([model["gamma"]] + model["coefficients"])
        assert np.max(np.abs(truth - estimate)) < 1e-6

    def test_expected_outputs(self, tmp_path, simulated):
        code, out = self.fit(tmp_path, simulated)
        assert code == 0
        for name in ("fit_report.csv", "summary.txt", "alpha_curve.csv",
                     "beta_curve.csv", "alpha_curve.svg", "beta_curve.svg",
                     "sign_report.txt", "model.json"):
            assert (out / name).exists(), name
        curve_lines = (out / "alpha_curve.csv").read_text().strip().splitlines()
        assert len(curve_lines) == 257  # header + 256 grid points

    def test_design_rebuilt_from_trips_and_model(self, tmp_path, simulated):
        # the README recipe, on the trips the default cuts keep
        out = tmp_path / "fit"
        assert main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--output-dir", str(out)]) == 0
        fit, spec, demand, network = load_model(out / "model.json")
        with open(simulated / "trips.csv") as f:
            trips = parse_trips(f)
        theta, moving = directions(trips, lonlat=False)
        paces = trips[moving, 4] / trips[moving, 5]
        kept = percentile_filter(paces, FilterPolicy())
        assert 0 < kept.size < paces.size
        X, y = build_design_matrix(paces[kept], theta[kept], demand, network,
                                   spec)
        saved = fit.params()
        assert np.max(np.abs(ols_fit(X, y).params() - saved)) <= (
            1e-10 * np.max(np.abs(saved)))

    def test_doubled_durations_double_the_estimates_exactly(self, tmp_path):
        # scaling by a power of two is exact in floating point: the paces,
        # the coefficients, their standard errors and the curves double to
        # the bit, the cut keeps the same trips, and t, p and the summary
        # do not change at all
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_payload(noise_std=5.0,
                                                        seed=3)))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario),
                     "--output-dir", str(sim)]) == 0
        header, *rows = (sim / "trips.csv").read_text().splitlines()
        with open(tmp_path / "doubled.csv", "w") as f:
            f.write(header + "\n")
            for cells in (row.split(",") for row in rows):
                cells[4] = repr(2.0 * float(cells[4]))  # duration_s
                f.write(",".join(cells) + "\n")

        def fit_tables(trips):
            out = tmp_path / trips.stem
            assert main(["fit", "--trips", str(trips),
                         "--network-hist", str(sim / "network_hist.csv"),
                         "--output-dir", str(out)]) == 0
            tables = {name: [line.split(",") for line in
                             (out / name).read_text().splitlines()]
                      for name in ("fit_report.csv", "alpha_curve.csv",
                                   "beta_curve.csv")}
            return tables, (out / "summary.txt").read_text()

        one, summary = fit_tables(sim / "trips.csv")
        two, summary2 = fit_tables(tmp_path / "doubled.csv")
        assert summary == summary2
        assert one["fit_report.csv"][0] == two["fit_report.csv"][0]
        report = list(zip(one["fit_report.csv"][1:], two["fit_report.csv"][1:],
                          strict=True))
        for (name, coef, se, *rest), (name2, coef2, se2, *rest2) in report:
            assert name == name2
            assert float(coef2) == 2.0 * float(coef), name
            assert float(se2) == 2.0 * float(se), name
            assert rest2 == rest, name  # t, p and significance, byte for byte
        assert {row[0][-1] for row in report} == {"true", "false"}
        for name in ("alpha_curve.csv", "beta_curve.csv"):
            assert one[name][0] == two[name][0]
            curve = list(zip(one[name][1:], two[name][1:], strict=True))
            assert len(curve) == 256
            assert any(float(value) != 0.0 for (_, value), _ in curve)
            for (offset, value), (offset2, value2) in curve:
                assert offset == offset2
                assert float(value2) == 2.0 * float(value), name

    def test_strict_rank_exits_4_naming_columns(self, tmp_path, simulated,
                                                capsys):
        code, out = self.fit(tmp_path, simulated, "--strict-rank")
        assert code == 4
        dependent = [f"{block}_{trig}{k}" for block in "ab"
                     for k in (2, 4, 6, 8) for trig in "cs"]
        assert capsys.readouterr().err == (
            "error: design matrix is rank deficient (rank 17 of 25); "
            f"dependent columns: {', '.join(dependent)}\n")
        assert list(out.iterdir()) == []

    def test_strict_rank_passes_a_full_rank_fit(self, tmp_path, simulated,
                                                capsys):
        # at K = 1 the model has no network term and the design full rank
        runs = []
        for extra in ([], ["--strict-rank"]):
            code, out = self.fit(tmp_path / "-".join(["k1", *extra]),
                                 simulated, "--k", "1", *extra)
            assert code == 0
            runs.append(({p.name: p.read_bytes() for p in out.iterdir()},
                         capsys.readouterr().out.replace(str(out), "OUT")))
        assert "rank: 3\nparameters: 3\n" in runs[0][1]
        assert runs[0] == runs[1]

    def test_underdetermined_exits_3(self, tmp_path):
        trips = trips_csv(tmp_path, n=10)
        uniform = uniform_hist_csv(tmp_path)
        code = main(["fit", "--trips", str(trips),
                     "--demand-hist", str(uniform),
                     "--network-hist", str(uniform),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("n", [24, 25])
    def test_too_few_kept_trips_share_one_message(self, tmp_path, capsys, n):
        trips = trips_csv(tmp_path, n=n)
        uniform = uniform_hist_csv(tmp_path)
        code = main(["fit", "--trips", str(trips),
                     "--demand-hist", str(uniform),
                     "--network-hist", str(uniform),
                     "--lower-cut", "0", "--upper-cut", "0",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: need more than 25 samples for 25 parameters, got {n}\n")

    @pytest.mark.parametrize("extra", [
        ("--k", "0"),
        ("--lower-cut", "0.7", "--upper-cut", "0.5"),
        ("--curve-grid", "4"),
        ("--curve-grid", "9"),
        ("--class-filter", "footpath"),
        ("--class-filter", ""),
        ("--class-filter", " , "),
    ], ids=["k-zero", "cuts-overlap", "curve-grid-4", "curve-grid-odd",
            "class-filter-footpath", "class-filter-empty",
            "class-filter-blank"])
    def test_invalid_option_exits_2_before_writing(self, tmp_path, simulated,
                                                   capsys, extra):
        code, out = self.fit(tmp_path, simulated, *extra)
        assert code == 2
        assert "invalid option" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_fit_runs_twice_byte_identical(self, tmp_path, simulated):
        _, out1 = self.fit(tmp_path / "a", simulated)
        _, out2 = self.fit(tmp_path / "b", simulated)
        for name in ("fit_report.csv", "summary.txt", "alpha_curve.csv",
                     "beta_curve.csv", "model.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_baseline_min_changes_plot_not_csv(self, tmp_path, simulated):
        _, plain = self.fit(tmp_path / "plain", simulated)
        code, based = self.fit(tmp_path / "based", simulated,
                               "--baseline", "min")
        assert code == 0
        assert ((plain / "alpha_curve.csv").read_bytes()
                == (based / "alpha_curve.csv").read_bytes())
        assert ((plain / "alpha_curve.svg").read_bytes()
                != (based / "alpha_curve.svg").read_bytes())
        assert "baseline: minimum" in (based / "alpha_curve.svg").read_text()

    def test_demand_from_filtered_changes_histogram(self, tmp_path,
                                                    simulated):
        outs = {}
        for mode in ("all", "filtered"):
            out = tmp_path / mode
            code = main(["hist", "--trips", str(simulated / "trips.csv"),
                         "--network-hist",
                         str(simulated / "network_hist.csv"),
                         "--lower-cut", "0.2", "--upper-cut", "0.2",
                         "--demand-from", mode, "--output-dir", str(out)])
            assert code == 0
            outs[mode] = (out / "demand_hist.csv").read_text()
        assert outs["all"] != outs["filtered"]

    def test_no_point_symmetric_odd_network_rows_are_exact_zeros(
            self, tmp_path, simulated):
        # the simulated network is point symmetric: its odd moments vanish
        code, out = self.fit(tmp_path, simulated, "--no-point-symmetric")
        assert code == 0
        rows = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in
                (out / "fit_report.csv").read_text().splitlines()[1:]}
        for k in (1, 3, 5, 7):
            for part in ("c", "s"):
                assert rows[f"b_{part}{k}"] == "0.0,0.0,0.0,1.0,false"
        assert rows["b_c2"] != "0.0,0.0,0.0,1.0,false"

    def test_overflowing_pace_exits_2(self, tmp_path, capsys):
        trips = trips_csv(tmp_path, n=60)
        with open(trips, "a", encoding="utf-8") as f:
            f.write("0,0,1,1,1e300,1e-300\n")
        uniform = uniform_hist_csv(tmp_path)
        code = main(["fit", "--trips", str(trips),
                     "--demand-hist", str(uniform),
                     "--network-hist", str(uniform),
                     "--upper-cut", "0", "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 62" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["-0.25", "nan", "inf", "repeated"])
    def test_bad_histogram_value_exits_2(self, tmp_path, capsys, bad):
        trips = trips_csv(tmp_path, n=60)
        uniform = uniform_hist_csv(tmp_path, bins=4)
        lines = uniform.read_text().splitlines()
        if bad == "repeated":
            lines[3] = lines[2]  # bin 1's row again in place of bin 2's
        else:
            lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad
        hist = tmp_path / "bad_hist.csv"
        hist.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--trips", str(trips), "--bins", "4", "--k", "1",
                     "--demand-hist", str(hist), "--network-hist", str(uniform),
                     "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{hist} row 4" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["hist", "fit"])
def test_unusable_output_dir_exits_2_before_reading_trips(tmp_path, capsys,
                                                          command):
    trips = trips_csv(tmp_path)
    network = grid_network_csv(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")

    def unread(*args, **kwargs):
        raise AssertionError("trips parsed before the output dir was made")

    with patch.object(cli, "parse_trips", unread):
        code = main([command, "--trips", str(trips), "--network", str(network),
                     "--output-dir", str(blocker / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad, row, message", [
    ("trips", "0,0,1,1,x,1.0", "field 'duration_s' is not a number: 'x'"),
    ("network", "0,100,y,100,primary", "field 'bx' is not a number: 'y'"),
], ids=["trips", "network"])
def test_bad_trip_or_edge_row_names_its_file(tmp_path, capsys, bad, row,
                                             message):
    paths = {"trips": trips_csv(tmp_path),
             "network": grid_network_csv(tmp_path)}
    lines = paths[bad].read_text().splitlines()
    lines[2] = row
    paths[bad].write_text("\n".join(lines) + "\n")
    code = main(["hist", "--trips", str(paths["trips"]),
                 "--network", str(paths["network"]),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {paths[bad]} row 3: {message}\n"


@pytest.mark.parametrize("case, code, message", [
    ("scenario-without-gamma", 2, "invalid scenario: missing key gamma"),
    ("only-trip-degenerate", 2, "no trips"),
    ("lengths-overflow", 2, "segment weights sum to inf; lengths must sum "
     "to a positive finite number"),
    ("class-filter-keeps-no-edge", 3,
     "no usable segments for the network histogram"),
], ids=["scenario-without-gamma", "only-trip-degenerate", "lengths-overflow",
        "class-filter-keeps-no-edge"])
def test_whole_file_errors_name_their_file(tmp_path, capsys, case, code,
                                           message):
    paths = {"trips": trips_csv(tmp_path),
             "network": grid_network_csv(tmp_path)}
    argv = ["hist", "--trips", str(paths["trips"]),
            "--network", str(paths["network"])]
    if case == "scenario-without-gamma":
        paths["scenario"] = tmp_path / "scenario.json"
        paths["scenario"].write_text(json.dumps(
            {k: v for k, v in scenario_payload().items() if k != "gamma"}))
        argv = ["simulate", "--scenario", str(paths["scenario"])]
    elif case == "only-trip-degenerate":
        paths["trips"].write_text(TRIP_HEADER + "\n5,5,5,5,60,1\n")
    elif case == "lengths-overflow":
        paths["network"].write_text(NET_HEADER + "\n-1e308,0,1e308,0,primary"
                                    "\n0,0,1,1,primary\n")
        argv.append("--length-weighted")
    else:
        argv += ["--class-filter", "motorway"]
    bad = {"scenario-without-gamma": "scenario",
           "only-trip-degenerate": "trips"}.get(case, "network")
    assert main([*argv, "--output-dir", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"error: {paths[bad]}: {message}\n"
    assert not any((tmp_path / "o").glob("*"))


def city_rows(seed):
    """Trips, edges and road classes of a seeded planar city: 3000 trips
    with von Mises directions and continuous paces, and 2000 edges near a
    grid turned by 0.3 rad."""
    rng = np.random.default_rng(seed)
    theta = rng.vonmises(0.4, 0.8, 3000)
    km = rng.uniform(0.5, 8.0, 3000)
    pace = 150.0 + 25.0 * np.cos(2.0 * theta - 0.3)
    pace += rng.normal(0.0, 6.0, 3000)
    x, y = rng.uniform(0.0, 2e4, (2, 3000))
    trips = np.column_stack([x, y, x + 900.0 * km * np.cos(theta),
                             y + 900.0 * km * np.sin(theta), pace * km, km])
    phi = 0.3 + 0.5 * math.pi * rng.integers(0, 4, 2000)
    phi += rng.normal(0.0, 0.1, 2000)
    ax, ay = rng.uniform(0.0, 2e4, (2, 2000))
    length = rng.uniform(20.0, 500.0, 2000)
    edges = np.column_stack([ax, ay, ax + length * np.cos(phi),
                             ay + length * np.sin(phi)])
    classes = rng.choice(["primary", "trunk", "other"], 2000)
    return trips, edges, classes


def write_city(path, trips, edges, classes):
    """Write trips.csv and network.csv under ``path``; return ``path``."""
    path.mkdir()
    (path / "trips.csv").write_text(TRIP_HEADER + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in trips.tolist()))
    (path / "network.csv").write_text(NET_HEADER + "\n" + "".join(
        ",".join(map(repr, row)) + f",{name}\n"
        for row, name in zip(edges.tolist(), classes)))
    return path


def turned_city(path, seed, quarter_turns):
    """Write trips.csv and network.csv of a seeded planar city, turned by
    ``quarter_turns`` times (x, y) -> (-y, x), which is exact on every
    coordinate; return the directory."""
    trips, edges, classes = city_rows(seed)
    for _ in range(quarter_turns):
        for points in (trips[:, 0:4], edges):
            points[:, 0::2], points[:, 1::2] = (-points[:, 1::2],
                                                points[:, 0::2].copy())
    return write_city(path, trips, edges, classes)


def fit_city(city, out, *options):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--trips", str(city / "trips.csv"),
                     "--network", str(city / "network.csv"),
                     "--output-dir", str(out), *options]) == 0
    return out


def assert_same_fit(plain, other):
    """``summary.txt`` and ``sign_report.txt`` byte-identical, and each
    curve within 1e-9 of its largest magnitude on the same offsets."""
    for name in ("summary.txt", "sign_report.txt"):
        assert (other / name).read_bytes() == (plain / name).read_bytes()
    for name in ("alpha_curve.csv", "beta_curve.csv"):
        one, two = (np.loadtxt(out / name, delimiter=",", skiprows=1)
                    for out in (plain, other))
        np.testing.assert_array_equal(two[:, 0], one[:, 0])
        scale = np.max(np.abs(one[:, 1]))
        assert scale > 0.0
        assert np.max(np.abs(two[:, 1] - one[:, 1])) <= 1e-9 * scale, name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quarter_turn_of_trips_and_network_leaves_the_fit(tmp_path, seed):
    # with 4 | bins a 90 degree turn maps bins onto bins, so both histograms
    # turn by bins / 4 and every feature is unchanged up to rounding: the
    # curves must agree within 1e-9 of their largest magnitude, and the
    # summary and the sign report, printed to 3 and 4 decimals, exactly
    plain, turned = (fit_city(turned_city(tmp_path / f"city{turns}", seed,
                                          turns), tmp_path / f"fit{turns}")
                     for turns in (0, 1))
    # the histograms in model.json turned with the data
    assert ((turned / "model.json").read_bytes()
            != (plain / "model.json").read_bytes())
    assert_same_fit(plain, turned)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compass_on_swapped_axes_leaves_the_fit(tmp_path, seed):
    # swapping x and y turns every math bearing t into pi/2 - t, which
    # --compass turns back, up to rounding in arctan2 and the wrap; the
    # paces are unchanged. So the fit must be the plain one within
    # assert_same_fit's tolerance, 1e-9 of each curve's largest magnitude
    trips, edges, classes = city_rows(seed)
    plain = fit_city(write_city(tmp_path / "plain", trips, edges, classes),
                     tmp_path / "fit_plain")
    swapped = write_city(tmp_path / "swapped", trips[:, [1, 0, 3, 2, 4, 5]],
                         edges[:, [1, 0, 3, 2]], classes)
    assert_same_fit(plain, fit_city(swapped, tmp_path / "fit_swapped",
                                    "--compass"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_permutation_of_trips_leaves_the_fit(tmp_path, seed):
    # the paces are continuous draws, so no two tie: the cut keeps the same
    # trips in any row order, and the histograms count the same directions.
    # Only the solver's summation order changes, so the fit must be the
    # plain one within 1e-9 of each curve's largest magnitude
    trips, edges, classes = city_rows(seed)
    assert np.unique(trips[:, 4] / trips[:, 5]).size == len(trips)
    plain = fit_city(write_city(tmp_path / "plain", trips, edges, classes),
                     tmp_path / "fit_plain")
    order = np.random.default_rng(seed + 100).permutation(len(trips))
    shuffled = write_city(tmp_path / "shuffled", trips[order], edges, classes)
    assert_same_fit(plain, fit_city(shuffled, tmp_path / "fit_shuffled"))


def tied_city_rows(seed):
    """``city_rows`` with each pace rounded to 1 s/km and each distance to
    1/8 km, so that duration / distance gives the rounded pace exactly and
    many trips tie; and the paces."""
    trips, edges, classes = city_rows(seed)
    km = np.round(trips[:, 5] * 8.0) / 8.0
    trips[:, 4] = np.round(trips[:, 4] / trips[:, 5]) * km
    trips[:, 5] = km
    return trips, edges, classes, trips[:, 4] / trips[:, 5]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_row_order_that_keeps_tied_trips_in_order_leaves_the_fit(tmp_path,
                                                                   seed):
    # the default cut drops the 150 fastest and 300 slowest of 3000 trips,
    # and at these seeds each cut falls inside a run of tied paces. A stable
    # sort takes the trips of a run in row order, so a permutation that
    # keeps the tied trips in their relative order keeps the same trips.
    # Then, as for untied paces, only the solver's summation order changes:
    # assert_same_fit, 1e-9 of each curve's largest magnitude, must hold
    trips, edges, classes, paces = tied_city_rows(seed)
    ranked = np.sort(paces)
    order = np.random.default_rng(seed + 100).permutation(len(trips))
    for cut in (150, 2700):
        # the cut splits a run: ranks cut - 1 and cut hold the same pace
        assert ranked[cut - 1] == ranked[cut]
        slots = np.flatnonzero((paces == ranked[cut])[order])
        order[slots] = np.sort(order[slots])
    plain = fit_city(write_city(tmp_path / "plain", trips, edges, classes),
                     tmp_path / "fit_plain")
    shuffled = write_city(tmp_path / "shuffled", trips[order], edges, classes)
    assert_same_fit(plain, fit_city(shuffled, tmp_path / "fit_shuffled"))
    # the whole file reversed keeps other trips of each tied run, but as
    # many of them, and the same pace multiset
    reversed_ = write_city(tmp_path / "reversed", trips[::-1], edges, classes)
    fit_reversed = fit_city(reversed_, tmp_path / "fit_reversed")
    assert ((fit_reversed / "summary.txt").read_text().splitlines()[0]
            == (plain / "summary.txt").read_text().splitlines()[0]
            == "n_samples: 2550")


class TestPredictCommand:
    def make_uniform_model(self, tmp_path):
        trips = trips_csv(tmp_path, n=60, pace_s_per_km=133.0)
        uniform = uniform_hist_csv(tmp_path)
        out = tmp_path / "fit"
        code = main(["fit", "--trips", str(trips),
                     "--demand-hist", str(uniform),
                     "--network-hist", str(uniform),
                     "--lower-cut", "0", "--upper-cut", "0",
                     "--output-dir", str(out)])
        assert code == 0
        return out / "model.json"

    def test_uniform_model_returns_gamma(self, tmp_path, capsys):
        model = self.make_uniform_model(tmp_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "2.2"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(133.0, abs=1e-9)

    def test_eight_directions_eight_lines_in_order(self, tmp_path, simulated,
                                                   capsys):
        fit_out = tmp_path / "fit"
        assert main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--demand-hist", str(simulated / "demand_hist.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--lower-cut", "0", "--upper-cut", "0",
                     "--output-dir", str(fit_out)]) == 0
        capsys.readouterr()
        thetas = [0.5 * i for i in range(8)]
        args = ["predict", "--model", str(fit_out / "model.json")]
        for t in thetas:
            args += ["--theta", repr(t)]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8

        from pacerose.model import load_model, predict_pace

        fit, spec, d, n = load_model(fit_out / "model.json")
        expected = [predict_pace(t, d, n, fit, spec) for t in thetas]
        assert [float(v) for v in lines] == pytest.approx(expected)

    @staticmethod
    def fit_simulated(tmp_path, simulated):
        fit_out = tmp_path / "fit"
        assert main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--demand-hist", str(simulated / "demand_hist.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--output-dir", str(fit_out)]) == 0
        return fit_out / "model.json"

    def test_more_directions_than_a_block(self, tmp_path, simulated, capsys):
        model = self.fit_simulated(tmp_path, simulated)
        thetas = np.random.default_rng(3).uniform(-7.0, 7.0, 2 * 1024 + 5)
        argv = ["predict", "--model", str(model)]
        argv += [f"--theta={t!r}" for t in thetas.tolist()]
        capsys.readouterr()
        assert main(argv) == 0
        got = np.array(capsys.readouterr().out.split(), dtype=float)

        from pacerose.features import fourier_basis, moment_matrix
        from pacerose.model import load_model, predict_pace

        fit, spec, d, n = load_model(model)
        np.testing.assert_array_equal(got, predict_pace(thetas, d, n, fit,
                                                        spec))
        spec.check_histograms(d, n)
        X = (fourier_basis(thetas, spec.k_max)
             @ moment_matrix(d, n, spec)[:, 1:])
        one_product = fit.gamma + X @ fit.coefficients
        np.testing.assert_allclose(got, one_product, rtol=1e-13)

    def test_overflowing_t_value_warns_nothing(self, tmp_path, simulated,
                                               capsys):
        model = self.fit_simulated(tmp_path, simulated)
        payload = json.loads(model.read_text())
        # gamma / gamma_std_error is beyond the float range: t is -inf
        assert payload["gamma_std_error"] < 1.0
        model.write_text(json.dumps(dict(payload, gamma=-1e308)))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert float(captured.out) == pytest.approx(-1e308)

    def test_degrees_flag(self, tmp_path, capsys):
        model = self.make_uniform_model(tmp_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "90",
                     "--degrees"]) == 0
        deg = capsys.readouterr().out.strip()
        assert main(["predict", "--model", str(model), "--theta",
                     repr(math.pi / 2)]) == 0
        rad = capsys.readouterr().out.strip()
        assert deg == rad

    def test_model_shape_config_keys_are_ignored(self, tmp_path, capsys,
                                                 simulated):
        fit_out = tmp_path / "fit"
        assert main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--demand-hist", str(simulated / "demand_hist.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--output-dir", str(fit_out)]) == 0
        argv = ["predict", "--model", str(fit_out / "model.json"),
                "--theta", "1.0", "--theta", "-2.5"]
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr()
        # the model is K=8, 32 bins, point symmetric; predict reads its
        # shape from model.json and ignores these keys
        (tmp_path / "run.cfg").write_text(
            "k_max=4\nbins=16\npoint_symmetric=false\n")
        assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == 0
        assert capsys.readouterr() == expected

    def test_bad_theta_exits_2(self, tmp_path):
        model = self.make_uniform_model(tmp_path)
        assert main(["predict", "--model", str(model),
                     "--theta", "northish"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exits_2(self, tmp_path, capsys, value):
        model = self.make_uniform_model(tmp_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model),
                     "--theta", "1.0", f"--theta={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(value) in captured.err

    def test_bad_theta_after_good_prints_nothing(self, tmp_path, capsys):
        model = self.make_uniform_model(tmp_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model),
                     "--theta", "1", "--theta", "bad"]) == 2
        assert capsys.readouterr().out == ""

    def test_model_missing_key_exits_2(self, tmp_path, capsys):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        del payload["coefficients"]
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coefficients" in captured.err

    @pytest.mark.parametrize("key, value", [
        ("point_symmetric", "false"), ("k_max", 8.0), ("rank", True)])
    def test_model_json_types_are_strict(self, tmp_path, capsys, key, value):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        model.write_text(json.dumps(dict(payload, **{key: value})))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid model: {key} must be a JSON" in captured.err

    @staticmethod
    def set_model_entry(payload, key, value):
        if key in ("coefficients", "demand_hist"):
            return dict(payload, **{key: [value] + payload[key][1:]})
        return dict(payload, **{key: value})

    @pytest.mark.parametrize("value", ["1e0", True, None],
                             ids=["string", "true", "null"])
    @pytest.mark.parametrize("key, kind", [
        ("gamma", "number"), ("r_squared", "number"),
        ("coefficients", "array of numbers"),
        ("demand_hist", "array of numbers"),
        ("column_names", "array of strings"),
    ])
    def test_model_numbers_are_strict(self, tmp_path, capsys, key, kind,
                                      value):
        model = self.make_uniform_model(tmp_path)
        payload = self.set_model_entry(json.loads(model.read_text()), key,
                                       value)
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: invalid model: {key} must "
                                f"be a JSON {kind}, got {payload[key]!r}\n")

    @pytest.mark.parametrize("names", ["ab", [0, 1, 2, 3, 4, 5]],
                             ids=["string", "integers"])
    def test_model_column_names_are_strings(self, tmp_path, capsys, names):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        model.write_text(json.dumps(dict(payload, column_names=names)))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: invalid model: column_names "
                                f"must be a JSON array of strings, got "
                                f"{names!r}\n")

    @pytest.mark.parametrize("key", ["k_max", "column_names", "coefficients",
                                     "gamma", "network_hist"])
    def test_missing_model_key_is_named(self, tmp_path, capsys, key):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        del payload[key]
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: invalid model: missing key "
                                f"{key}\n")

    @pytest.mark.parametrize("key, message", [
        ("gamma_std_error", "gamma_std_error is beyond the float range"),
        ("dof_residual", "int too large to convert to float"),
    ])
    def test_model_integer_beyond_float_exits_2(self, tmp_path, capsys, key,
                                                message):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        model.write_text(json.dumps(dict(payload, **{key: 10 ** 400})))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {model}: invalid model: {message}\n"

    def test_model_histogram_sum_is_a_plain_float(self, tmp_path, capsys):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        payload["demand_hist"] = [0.25] * len(payload["demand_hist"])
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: invalid model: histogram "
                                "must sum to 1, got 8.0\n")

    @pytest.mark.parametrize("key, change, message", [
        ("format", lambda value: "x", "unsupported model format 'x'"),
        ("column_names", lambda names: names[::-1],
         "model column names do not match its spec"),
        # 0.01 moved from bin 1 to bin 0 of the 32
        ("network_hist", lambda h: [h[0] + 0.01, h[1] - 0.01, *h[2:]],
         "network histogram is not point symmetric: bins 0 and 16 differ "
         "by 1.000e-02"),
    ], ids=["format", "column-names", "asymmetric-network"])
    def test_model_spec_faults_exit_4_naming_the_file(self, tmp_path, capsys,
                                                      key, change, message):
        model = self.make_uniform_model(tmp_path)
        payload = json.loads(model.read_text())
        model.write_text(json.dumps(dict(payload,
                                         **{key: change(payload[key])})))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--theta", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {model}: {message}\n"

    def test_missing_model_exits_2(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.json"),
                     "--theta", "1.0"]) == 2


@pytest.mark.parametrize("marked", ["trips", "network", "config",
                                    "histogram"])
def test_byte_order_mark_is_dropped(tmp_path, capsys, marked):
    inputs = {
        "trips": trips_csv(tmp_path),
        "network": grid_network_csv(tmp_path),
        "config": tmp_path / "run.cfg",
        "histogram": uniform_hist_csv(tmp_path, bins=16),
    }
    inputs["config"].write_text("bins = 16\nlower_cut = 0\n")
    copy = tmp_path / f"marked-{inputs[marked].name}"
    copy.write_bytes(b"\xef\xbb\xbf" + inputs[marked].read_bytes())
    outputs = []
    for files in (inputs, dict(inputs, **{marked: copy})):
        out = tmp_path / f"out{len(outputs)}"
        if marked == "histogram":
            argv = ["fit", "--trips", str(files["trips"]),
                    "--demand-hist", str(files["histogram"]),
                    "--network-hist", str(files["histogram"]), "--k", "2"]
        else:
            argv = ["hist", "--trips", str(files["trips"]),
                    "--network", str(files["network"])]
        capsys.readouterr()
        assert main([*argv, "--config", str(files["config"]),
                     "--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((stdout, {p.name: p.read_bytes()
                                 for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", ["trips", "network", "config", "histogram",
                                 "scenario", "model"])
def test_undecodable_byte_names_its_file(tmp_path, capsys, bad):
    inputs = {
        "trips": trips_csv(tmp_path),
        "network": grid_network_csv(tmp_path),
        "config": tmp_path / "run.cfg",
        "histogram": uniform_hist_csv(tmp_path, bins=16),
        "scenario": tmp_path / "scenario.json",
        "model": tmp_path / "model.json",
    }
    inputs["config"].write_text("# run\nbins = 16\nlower_cut = 0\n")
    for name in ("scenario", "model"):
        inputs[name].write_text(json.dumps(scenario_payload(), indent=1))
    lines = inputs[bad].read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    inputs[bad].write_bytes(b"".join(lines))
    argv = ["--trips", str(inputs["trips"]), "--config", str(inputs["config"]),
            "--output-dir", str(tmp_path / "o")]
    if bad == "scenario":
        argv = ["simulate", "--scenario", str(inputs["scenario"]),
                "--output-dir", str(tmp_path / "o")]
    elif bad == "model":
        argv = ["predict", "--model", str(inputs["model"]), "--theta", "1"]
    elif bad == "histogram":
        argv = ["fit", *argv, "--demand-hist", str(inputs["histogram"]),
                "--network", str(inputs["network"]), "--k", "2"]
    else:
        argv = ["hist", *argv, "--network", str(inputs["network"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {inputs[bad]}: byte 0xff is not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("marked", ["scenario", "model"])
def test_json_byte_order_mark_is_dropped(tmp_path, capsys, marked):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_payload(n_trips=300)))
    assert main(["simulate", "--scenario", str(scenario),
                 "--output-dir", str(tmp_path / "sim")]) == 0
    model = tmp_path / "fit" / "model.json"
    assert main(["fit", "--trips", str(tmp_path / "sim" / "trips.csv"),
                 "--demand-hist", str(tmp_path / "sim" / "demand_hist.csv"),
                 "--network-hist", str(tmp_path / "sim" / "network_hist.csv"),
                 "--output-dir", str(model.parent)]) == 0
    original = {"scenario": scenario, "model": model}[marked]
    copy = tmp_path / f"marked-{original.name}"
    copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    outputs = []
    for path in (original, copy):
        out = tmp_path / f"out{len(outputs)}"
        if marked == "scenario":
            argv = ["simulate", "--scenario", str(path),
                    "--output-dir", str(out)]
        else:
            argv = ["predict", "--model", str(path),
                    "--theta", "0.3", "--theta", "4.1"]
        capsys.readouterr()
        assert main(argv) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.exists() else {})
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def uniform_model(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("model")
    uniform = uniform_hist_csv(tmp_path)
    out = tmp_path / "fit"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--trips", str(trips_csv(tmp_path, n=60)),
                     "--demand-hist", str(uniform),
                     "--network-hist", str(uniform),
                     "--output-dir", str(out)]) == 0
    return str(out / "model.json")


THETA_SPELLINGS = ("--theta", "--thet", "--the", "--th", "--t")
# flags that look like --theta but are not, to argparse
NEAR_MISSES = ("-t", "--thetas", "--theta-x", "---theta", "--tt")
THETA_VALUES = st.one_of(
    st.sampled_from(["1.5", "-2", "-.5", "-7.", "0", "", " 3", "nan", "-inf",
                     "-1e5", "1e5", "-1_0", "north", "-", "--", "-x",
                     "--theta", "--degrees"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
FLAGS = st.sampled_from(THETA_SPELLINGS + NEAR_MISSES)
PREDICT_TOKENS = st.one_of(
    st.tuples(FLAGS, THETA_VALUES).map(lambda p: [f"{p[0]}={p[1]}"]),
    st.tuples(FLAGS, THETA_VALUES).map(list),
    FLAGS.map(lambda flag: [flag]),
    THETA_VALUES.map(lambda value: [value]),
    st.sampled_from([["--degrees"], ["--"], ["--bogus"], ["--k"],
                     ["--k", "8"], ["--k=4"], ["--bins"], ["--bins", "x"],
                     ["--no-point-symmetric"], ["--model"], ["--config"]]),
)


def _outcome(run, argv):
    """Exit code, stdout, stderr and the directions ``run(argv)`` predicts."""
    directions = []
    original = cli.predict_pace

    def spy(theta, *args):
        directions.append(theta.tolist())
        return original(theta, *args)

    stdout, stderr = io.StringIO(), io.StringIO()
    with patch.object(cli, "predict_pace", spy), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), directions


@settings(max_examples=300, deadline=None)
@given(with_model=st.booleans(),
       pieces=st.lists(PREDICT_TOKENS, max_size=8))
# an option left without its value by a --theta after it
@example(with_model=True, pieces=[["--k"], ["--theta=1"], ["8"]])
@example(with_model=False, pieces=[["--model"], ["--th", "2"], ["--t=3"],
                                   ["x.json"]])
# argparse before Python 3.13 hands the action of --theta=-- an empty list;
# the second argv goes to argparse whole, since "-" is no negative number
@example(with_model=True, pieces=[["--theta=--"]])
@example(with_model=True, pieces=[["--theta=--"], ["--theta", "-"]])
def test_predict_reads_theta_as_argparse_does(uniform_model, with_model,
                                              pieces):
    argv = ["predict"] + (["--model", uniform_model] if with_model else [])
    argv += [token for piece in pieces for token in piece]
    expected = _outcome(
        lambda a: cli._run(build_parser().parse_args(a)), argv)
    assert _outcome(main, argv) == expected


def test_many_directions_parse_in_linear_time(uniform_model, capsys):
    # argparse alone takes about 16 s for 20000 options
    thetas = [repr(0.0003 * i) for i in range(20000)]
    argv = ["predict", "--model", uniform_model]
    for i, theta in enumerate(thetas):
        argv += [f"--theta={theta}"] if i % 2 else ["--theta", theta]
    start = time.perf_counter()
    args = cli._parse_args(argv)
    elapsed = time.perf_counter() - start
    assert args.theta == thetas
    assert elapsed < 2.0
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20000


class TestConfigFile:
    def test_file_values_used_and_cli_wins(self, tmp_path):
        trips = trips_csv(tmp_path)
        network = grid_network_csv(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("bins=16\nlower_cut=0\nupper_cut=0\n")

        out_file = tmp_path / "fromfile"
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--config", str(config),
                     "--output-dir", str(out_file)]) == 0
        lines = (out_file / "demand_hist.csv").read_text().strip().splitlines()
        assert len(lines) == 17

        out_cli = tmp_path / "fromcli"
        assert main(["hist", "--trips", str(trips), "--network", str(network),
                     "--config", str(config), "--bins", "8",
                     "--output-dir", str(out_cli)]) == 0
        lines = (out_cli / "demand_hist.csv").read_text().strip().splitlines()
        assert len(lines) == 9

    def test_bad_config_key_exits_2(self, tmp_path):
        trips = trips_csv(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("no_such_key=1\n")
        assert main(["hist", "--trips", str(trips), "--config", str(config),
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_bad_config_line_exits_2(self, tmp_path):
        trips = trips_csv(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("briins\n")
        assert main(["hist", "--trips", str(trips), "--config", str(config),
                     "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("# run\nbins=16\ncompass=maybe\n",
         "run.cfg line 3: bad value for compass: not a boolean: 'maybe'"),
        ("\nbogus=1\n", "run.cfg line 2: unknown config key 'bogus'"),
        ("dump_design=true\n",
         "run.cfg line 1: unknown config key 'dump_design'"),
    ], ids=["not-a-boolean", "unknown-key", "retired-key"])
    def test_config_errors_name_their_line(self, tmp_path, capsys,
                                           monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main(["hist", "--config", "run.cfg",
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, line", [
        ("hist", "demand_from=bogus"),
        ("fit", "baseline=weird"),
    ])
    def test_value_outside_choices_exits_2(self, tmp_path, capsys, simulated,
                                           command, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "o"
        code = main([command, "--trips", str(simulated / "trips.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--network", str(grid_network_csv(tmp_path)),
                     "--config", str(config), "--output-dir", str(out)])
        key, value = line.split("=")
        assert code == 2
        assert (f"{config} line 1: bad value for {key}: expected one of"
                in capsys.readouterr().err)
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{key.replace('_', '-')}", value])
        assert exc.value.code == 2


# the flags each command reads, in --help order
COMMAND_FLAGS = {
    "hist": ["--config", "--trips", "--network", "--network-hist",
             "--demand-hist", "--bins", "--lower-cut", "--upper-cut",
             "--class-filter", "--length-weighted", "--compass", "--lonlat",
             "--demand-from", "--output-dir"],
    "fit": ["--config", "--trips", "--network", "--network-hist",
            "--demand-hist", "--k", "--bins", "--lower-cut", "--upper-cut",
            "--class-filter", "--point-symmetric", "--length-weighted",
            "--compass", "--lonlat", "--demand-from", "--output-dir",
            "--strict-rank", "--mask", "--baseline", "--curve-grid"],
    "simulate": ["--config", "--output-dir", "--seed", "--scenario"],
    "predict": ["--config", "--model", "--theta", "--degrees"],
}

# field: (flag arguments, config line, the non-default value both give)
FIELD_VALUES = {
    "trips": (["--trips", "t.csv"], "trips = t.csv", "t.csv"),
    "network": (["--network", "n.csv"], "network=n.csv", "n.csv"),
    "network_hist": (["--network-hist", "nh.csv"], "network_hist=nh.csv",
                     "nh.csv"),
    "demand_hist": (["--demand-hist", "dh.csv"], "demand_hist=dh.csv",
                    "dh.csv"),
    "k_max": (["--k", "4"], "k_max=4", 4),
    "bins": (["--bins", "16"], "bins=16", 16),
    "lower_cut": (["--lower-cut", "0.2"], "lower_cut=0.2", 0.2),
    "upper_cut": (["--upper-cut", "0.3"], "upper_cut=0.3", 0.3),
    "class_filter": (["--class-filter", "primary,trunk"],
                     "class_filter=primary,trunk", "primary,trunk"),
    "point_symmetric": (["--no-point-symmetric"], "point_symmetric=false",
                        False),
    "length_weighted": (["--length-weighted"], "length_weighted=yes", True),
    "compass": (["--compass"], "compass=on", True),
    "lonlat": (["--lonlat"], "lonlat=1", True),
    "demand_from": (["--demand-from", "filtered"], "demand_from=filtered",
                    "filtered"),
    "output_dir": (["--output-dir", "out"], "output_dir=out", "out"),
    "seed": (["--seed", "5"], "seed=5", 5),
    "strict_rank": (["--strict-rank"], "strict_rank=true", True),
    "mask_curves": (["--no-mask"], "mask_curves=off", False),
    "baseline": (["--baseline", "min"], "baseline=min", "min"),
    "curve_grid": (["--curve-grid", "64"], "curve_grid=64", 64),
    "scenario": (["--scenario", "s.json"], "scenario=s.json", "s.json"),
    "model": (["--model", "m.json"], "model=m.json", "m.json"),
}


def _flag(field_name):
    return FIELD_VALUES[field_name][0][0].replace("--no-", "--")


class TestOptionTable:
    def test_every_field_has_a_flag_and_a_value(self):
        assert sorted(FIELD_VALUES) == sorted(RunConfig._fields)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_offers_the_flags_it_reads(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = [line.split()[0].rstrip(",")
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  --")]
        assert flags == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command, field_name", [
        (command, name) for command, flags in sorted(COMMAND_FLAGS.items())
        for name in FIELD_VALUES if _flag(name) in flags
    ])
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command,
                                               field_name):
        argv, line, value = FIELD_VALUES[field_name]
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        parser = build_parser()
        from_flag = resolve_config(parser.parse_args([command, *argv]))
        from_file = resolve_config(
            parser.parse_args([command, "--config", str(config)]))
        assert from_flag == from_file
        assert getattr(from_flag, field_name) == value
        assert value != getattr(RunConfig(), field_name)

    def test_config_seed_none_resets_the_seed(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nseed=none\n")
        cfg = resolve_config(build_parser().parse_args(
            ["simulate", "--config", str(config)]))
        assert cfg.seed is None

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_unread_flags_exit_2_writing_nothing(self, tmp_path, capsys,
                                                 monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        unread = [name for name in FIELD_VALUES
                  if _flag(name) not in COMMAND_FLAGS[command]]
        assert unread
        for name in unread:
            argv = FIELD_VALUES[name][0]
            with pytest.raises(SystemExit) as exc:
                main([command, "--output-dir", "out", *argv]
                     if "--output-dir" in COMMAND_FLAGS[command]
                     else [command, *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv)}" in (
                capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_one_config_file_serves_every_command(self, tmp_path, capsys,
                                                  scenario_file, simulated):
        fit_out = tmp_path / "fit"
        assert main(["fit", "--trips", str(simulated / "trips.csv"),
                     "--demand-hist", str(simulated / "demand_hist.csv"),
                     "--network-hist", str(simulated / "network_hist.csv"),
                     "--lower-cut", "0", "--upper-cut", "0",
                     "--output-dir", str(fit_out)]) == 0
        values = {
            "trips": simulated / "trips.csv",
            "network": grid_network_csv(tmp_path),
            "network_hist": simulated / "network_hist.csv",
            "demand_hist": simulated / "demand_hist.csv",
            "k_max": 8, "bins": 32, "lower_cut": 0.01, "upper_cut": 0.02,
            "class_filter": "primary,trunk", "point_symmetric": "true",
            "length_weighted": "true", "compass": "false", "lonlat": "false",
            "demand_from": "filtered", "output_dir": tmp_path / "out",
            "seed": 3, "strict_rank": "false", "mask_curves": "false",
            "baseline": "min", "curve_grid": 64,
            "scenario": scenario_file, "model": fit_out / "model.json",
        }
        assert sorted(values) == sorted(FIELD_VALUES)
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        for argv in (["hist"], ["fit"], ["simulate"], ["predict", "--theta",
                                                        "1.0"]):
            assert main([*argv, "--config", str(config)]) == 0, argv
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("output_dir", ["a_file", "a_file/sub"],
                         ids=["existing-file", "under-a-file"])
def test_output_dir_naming_a_file_exits_2(tmp_path, capsys, output_dir):
    trips = trips_csv(tmp_path)
    network = grid_network_csv(tmp_path)
    (tmp_path / "a_file").write_text("keep me\n")
    code = main(["hist", "--trips", str(trips), "--network", str(network),
                 "--output-dir", str(tmp_path / output_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert (tmp_path / "a_file").read_text() == "keep me\n"


GOOD_TRIPS = TRIP_HEADER + "\n" + "".join(
    f"0,0,{math.cos(i)!r},{math.sin(i)!r},{100 + i},1\n" for i in range(60))
GOOD_NETWORK = NET_HEADER + "\n0,0,1,0,primary\n0,0,0,1,trunk\n"
MALFORMED = {
    "trips": [
        "", "# only a comment\n", TRIP_HEADER + "\n", "x,y\n1,2\n",
        TRIP_HEADER + "\n0,0,1,1,60\n",
        TRIP_HEADER + "\n0,0,1,oops,60,1\n",
        TRIP_HEADER + "\n0,nan,1,1,60,1\n",
        TRIP_HEADER + "\n0,0,1,1,1e300,1e-300\n",
        TRIP_HEADER + "\n" + "3,4,3,4,60,1\n" * 30,
        TRIP_HEADER + "\n" + "0,0,1,1,0,1\n" * 30,
        TRIP_HEADER + '\n0,0,"1,1,60,1\n',
        TRIP_HEADER + "\n0,0,1,1,60,1\x00\n",
        b"\xff\xfe\x00garbage\n",
    ],
    "network": [
        "", "ax,ay\n", NET_HEADER + "\n0,0,1,1,footpath\n",
        NET_HEADER + ",length_m\n0,0,1,1,primary,-1\n",
        NET_HEADER + ",length_m\n0,0,1,1,primary,0\n",
        NET_HEADER + "\n0,0,0,0,primary\n",
        NET_HEADER + "\n0,0,inf,1,primary\n",
        NET_HEADER + "\n0,0,1,1,other\n",
        NET_HEADER + "\n0,0,1\n",
        NET_HEADER + ",length_m\n0,0,1,0,primary,1e308\n0,0,0,1,primary,1e308\n",
        b"\xc3\x28\n",
    ],
    "histogram": [
        "", "bin,value\n", "bin,center_rad,value\n0,0.1,1\n",
        "bin,center_rad,value\n" + "".join(f"{i},0,{v}\n" for i, v in
                                            enumerate(["1", "-1", "1", "1"])),
        "bin,center_rad,value\n" + "".join(f"{i},0,nan\n" for i in range(4)),
        "bin,center_rad,value\n" + "".join(f"{i},0,0\n" for i in range(4)),
        "bin,center_rad,value\n" + "".join(f"{i},0,1e308\n" for i in range(4)),
        "bin,center_rad,value\n" + "".join(f"{i},0,x\n" for i in range(4)),
        b"\xff\n",
    ],
}


@pytest.mark.parametrize("kind,content", [
    pytest.param(kind, content, id=f"{kind}-{i}")
    for kind, contents in MALFORMED.items()
    for i, content in enumerate(contents)
])
def test_malformed_input_files_exit_cleanly(tmp_path, capsys, kind, content):
    files = {"trips": GOOD_TRIPS, "network": GOOD_NETWORK,
             "histogram": uniform_hist_csv(tmp_path, bins=4).read_text()}
    files[kind] = content
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        if isinstance(text, bytes):
            paths[name].write_bytes(text)
        else:
            paths[name].write_text(text)
    for argv in (
        ["hist", "--trips", str(paths["trips"]),
         "--network", str(paths["network"])],
        ["fit", "--trips", str(paths["trips"]), "--k", "1",
         "--network", str(paths["network"]),
         "--demand-hist", str(paths["histogram"])],
        ["hist", "--trips", str(paths["trips"]),
         "--network", str(paths["network"]), "--length-weighted"],
    ):
        code = main(argv + ["--bins", "4", "--output-dir", str(tmp_path / "o")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err
