"""Seeded inputs, CLI commands and output checks of the benchmark workloads.

Inputs are generated here with numpy alone, never with pacerose itself, so a
change to the program under test (``synth`` included) cannot change what it
is fed.  Each workload also computes, once per seed and outside any timing,
the reference its outputs are checked against: the model's Fourier features
by the paper's sum over histogram bins, and the minimum-norm least-squares
fit by ``numpy.linalg.lstsq``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
MAJOR_CLASSES = ("motorway", "trunk", "primary", "secondary")
ROAD_CLASSES = MAJOR_CLASSES + ("other",)
CLASS_SHARES = (0.04, 0.06, 0.15, 0.25, 0.50)
LOWER_CUT, UPPER_CUT = 0.05, 0.10
LSTSQ_RCOND = 1e-10
# rows per trip file whose duration is written as 0, so the program's
# skip-with-warning path runs and the row accounting is visible
SKIPPED_ROWS = 8
# a model.json coefficient may differ from the reference by this share of
# the reference's largest parameter; observed differences are below 1e-13
COEF_RTOL = 1e-7
HIST_ATOL = 1e-12
PREDICT_RTOL = 1e-9

# one command takes about 1 s, so that one run repeats each command 10-20
# times and the fastest and median repeats are well defined
SIZES = {
    "full": {"city_trips": 25_000, "city_edges": 20_000, "fine_trips": 10_000,
             "lonlat_trips": 25_000, "lonlat_edges": 20_000,
             "sim_trips": 25_000, "thetas": 1024},
    "smoke": {"city_trips": 600, "city_edges": 400, "fine_trips": 400,
              "lonlat_trips": 600, "lonlat_edges": 400,
              "sim_trips": 500, "thetas": 32},
}

WORKLOADS = ("fit-city", "fit-fine", "hist-lonlat", "simulate-predict")


@dataclass
class Command:
    """One ``python -m pacerose`` call and the check of its outputs.

    ``check`` takes the call's standard output and returns a list of
    problems; an empty list means the outputs are correct.
    """

    argv: list
    out_dir: str
    check: Callable[[str], list]


@dataclass
class Case:
    """A workload prepared for one seed: its commands and input record."""

    commands: list
    inputs: dict


def file_record(path: str) -> dict:
    with open(path, "rb") as f:
        data = f.read()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _rng(seed: int, stream: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, key])


# --------------------------------------------------------------- generation

def _trip_geometry(rng, n):
    """Directions (rad), straight-line lengths (m), route km and durations."""
    axis = rng.uniform(0.0, math.pi)
    commute = rng.random(n) < 0.6
    theta = np.where(
        commute,
        rng.vonmises(axis, 2.0, n) + math.pi * rng.integers(0, 2, n),
        rng.uniform(0.0, TWO_PI, n),
    )
    length_m = np.clip(rng.lognormal(math.log(3000.0), 0.6, n), 300.0, 15000.0)
    route_km = length_m / 1000.0 * rng.uniform(1.15, 1.45, n)
    pace = (120.0 + 25.0 * np.cos(2.0 * (theta - axis)) + 10.0 * np.sin(theta)
            + rng.normal(0.0, 12.0, n))
    slow = rng.random(n) < 0.08
    pace = np.maximum(np.where(slow, pace * rng.uniform(1.5, 3.0, n), pace), 40.0)
    duration = pace * route_km
    duration[rng.choice(n, size=min(SKIPPED_ROWS, n // 10), replace=False)] = 0.0
    return theta, length_m, route_km, duration


def _write_trips(path, rng, n, lonlat):
    theta, length_m, route_km, duration = _trip_geometry(rng, n)
    if lonlat:
        lon = rng.uniform(11.45, 11.70, n)
        lat = rng.uniform(48.05, 48.22, n)
        dlat = np.degrees(length_m * np.sin(theta) / 6371000.0)
        dlon = np.degrees(length_m * np.cos(theta)
                          / (6371000.0 * np.cos(np.radians(lat))))
        coords = np.column_stack([lon, lat, lon + dlon, lat + dlat])
        header = "origin_lon,origin_lat,dest_lon,dest_lat,duration_s,distance_km"
        coord_fmt = ["%.6f"] * 4
    else:
        x = rng.uniform(0.0, 20000.0, n)
        y = rng.uniform(0.0, 20000.0, n)
        coords = np.column_stack([x, y, x + length_m * np.cos(theta),
                                  y + length_m * np.sin(theta)])
        header = "origin_x,origin_y,dest_x,dest_y,duration_s,distance_km"
        coord_fmt = ["%.1f"] * 4
    np.savetxt(path, np.column_stack([coords, duration, route_km]),
               fmt=coord_fmt + ["%.1f", "%.3f"], delimiter=",",
               header=header, comments="")


def _write_network(path, rng, m, lonlat):
    rotation = rng.uniform(0.0, 0.5 * math.pi)
    grid = rng.random(m) < 0.8
    phi = np.where(
        grid,
        rotation + 0.5 * math.pi * rng.integers(0, 4, m) + rng.normal(0.0, 0.08, m),
        rng.uniform(0.0, TWO_PI, m),
    )
    length = np.clip(rng.lognormal(math.log(150.0), 0.7, m), 10.0, 3000.0)
    classes = rng.choice(len(ROAD_CLASSES), size=m, p=CLASS_SHARES)
    if lonlat:
        ay = rng.uniform(48.05, 48.22, m)
        ax = rng.uniform(11.45, 11.70, m)
        by = ay + np.degrees(length * np.sin(phi) / 6371000.0)
        bx = ax + np.degrees(length * np.cos(phi)
                             / (6371000.0 * np.cos(np.radians(ay))))
        route_m = length * rng.uniform(1.0, 1.1, m)
        lines = ["ax,ay,bx,by,class,length_m"] + [
            f"{a:.6f},{b:.6f},{c:.6f},{d:.6f},{ROAD_CLASSES[k]},{r:.1f}"
            for a, b, c, d, k, r in zip(ax, ay, bx, by, classes, route_m)
        ]
    else:
        ax = rng.uniform(0.0, 20000.0, m)
        ay = rng.uniform(0.0, 20000.0, m)
        bx = ax + length * np.cos(phi)
        by = ay + length * np.sin(phi)
        lines = ["ax,ay,bx,by,class"] + [
            f"{a:.2f},{b:.2f},{c:.2f},{d:.2f},{ROAD_CLASSES[k]}"
            for a, b, c, d, k in zip(ax, ay, bx, by, classes)
        ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _bin_centers(bins):
    return (np.arange(bins) + 0.5) * (TWO_PI / bins)


def _smooth_histogram(rng, bins, harmonics, point_symmetric):
    """Positive bin values with a few random harmonics and a little noise."""
    c = _bin_centers(bins)
    values = np.ones(bins)
    for k in harmonics:
        values += rng.uniform(0.05, 0.3) * np.cos(k * (c - rng.uniform(0, TWO_PI)))
    values *= rng.uniform(0.9, 1.1, bins)
    if point_symmetric:
        values[bins // 2:] = values[:bins // 2]
    return values / values.sum()


def _write_histogram(path, values):
    c = _bin_centers(values.size)
    lines = ["bin,center_rad,value"] + [
        f"{i},{float(c[i])!r},{float(v)!r}" for i, v in enumerate(values)
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- reference

def _wrap(theta):
    return np.where(theta < 0.0, theta + TWO_PI, theta)


def _bins_of(theta, bins):
    return np.minimum((theta * bins / TWO_PI).astype(np.int64), bins - 1)


def _read_trips(path, lonlat):
    """Directions and paces of the rows the program keeps, file order."""
    a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    a = a[(a[:, 4] > 0.0) & (a[:, 5] > 0.0)]
    dx = a[:, 2] - a[:, 0]
    dy = a[:, 3] - a[:, 1]
    if lonlat:
        dx = dx * np.cos(np.radians(0.5 * (a[:, 1] + a[:, 3])))
    return _wrap(np.arctan2(dy, dx)), a[:, 4] / a[:, 5]


def _read_network_histogram(path, bins, lonlat, length_weighted):
    """Major-class orientation histogram, both directions of each edge."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split(",") for line in f][1:]
    rows = [r for r in rows if r[4] in MAJOR_CLASSES]
    a = np.array([[float(v) for v in r[:4]] for r in rows])
    dx = a[:, 2] - a[:, 0]
    dy = a[:, 3] - a[:, 1]
    if lonlat:
        dx = dx * np.cos(np.radians(0.5 * (a[:, 1] + a[:, 3])))
    j = _bins_of(_wrap(np.arctan2(dy, dx)), bins)
    w = np.array([float(r[5]) for r in rows]) if length_weighted else np.ones(len(rows))
    values = (np.bincount(j, w, bins) + np.bincount((j + bins // 2) % bins, w, bins))
    return values / (2.0 * w.sum())


def _kept(paces, lower, upper):
    """Indices kept by the percentile cut, ties broken by file order."""
    n = paces.size
    order = np.argsort(paces, kind="stable")
    return np.sort(order[math.floor(lower * n):n - math.floor(upper * n)])


def _features(theta, hist, harmonics):
    """Columns sum_j h_j cos(k (c_j - theta)), sum_j h_j sin(k (c_j - theta))."""
    offset = _bin_centers(hist.size)[None, :] - theta[:, None]
    cols = []
    for k in harmonics:
        cols.append(np.cos(k * offset) @ hist)
        cols.append(np.sin(k * offset) @ hist)
    return np.column_stack(cols)


def _design(theta, demand, network, k_max):
    return np.column_stack([
        np.ones(theta.size),
        _features(theta, demand, range(1, k_max + 1)),
        _features(theta, network, range(2, k_max + 1, 2)),
    ])


def _column_names(k_max):
    return ([f"a_{p}{k}" for k in range(1, k_max + 1) for p in "cs"]
            + [f"b_{p}{k}" for k in range(2, k_max + 1, 2) for p in "cs"])


# ------------------------------------------------------------------- checks

def _close(a, b, atol):
    a = np.asarray(a, dtype=float)
    return a.shape == np.shape(b) and bool(np.all(np.abs(a - b) <= atol))


def _read_csv_column(path, column):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        j = header.index(column)
        return np.array([float(line.split(",")[j]) for line in f if line.strip()])


def _fit_check(out_dir, theta, paces, kept, demand, network, k_max):
    """Check model.json against the reference fit of the kept trips."""
    y = paces[kept]
    A = _design(theta[kept], demand, network, k_max)
    ref, _, ref_rank, _ = np.linalg.lstsq(A, y, rcond=LSTSQ_RCOND)
    n_expected = kept.size

    def check(stdout):
        problems = []
        try:
            with open(os.path.join(out_dir, "model.json"), encoding="utf-8") as f:
                model = json.load(f)
            got = np.array([model["gamma"]] + list(model["coefficients"]), dtype=float)
            if model["column_names"] != _column_names(k_max):
                problems.append("model.json column names differ from the spec")
            if model["n_samples"] != n_expected:
                problems.append(f"n_samples {model['n_samples']} != {n_expected}")
            if model["rank"] != ref_rank:
                problems.append(f"rank {model['rank']} != reference {ref_rank}")
            if not _close(model["demand_hist"], demand, HIST_ATOL):
                problems.append("demand histogram differs from the reference")
            if not _close(model["network_hist"], network, HIST_ATOL):
                problems.append("network histogram differs from the reference")
            if not _close(got, ref, COEF_RTOL * np.max(np.abs(ref))):
                problems.append("coefficients differ from the reference fit "
                                f"(max |diff| {np.max(np.abs(got - ref)):.3e})")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable model.json: {exc!r}")
        return problems

    return check


def _fit_city(work, seed, size):
    trips = os.path.join(work, "city_trips.csv")
    edges = os.path.join(work, "city_edges.csv")
    _write_trips(trips, _rng(seed, "city-trips"), size["city_trips"], lonlat=False)
    _write_network(edges, _rng(seed, "city-edges"), size["city_edges"], lonlat=False)
    theta, paces = _read_trips(trips, lonlat=False)
    kept = _kept(paces, LOWER_CUT, UPPER_CUT)
    bins, k_max = 32, 8
    demand = np.bincount(_bins_of(theta, bins), minlength=bins) / theta.size
    network = _read_network_histogram(edges, bins, lonlat=False, length_weighted=False)
    out = os.path.join(work, "out")
    argv = ["fit", "--trips", trips, "--network", edges, "--output-dir", out]
    check = _fit_check(out, theta, paces, kept, demand, network, k_max)
    return Case([Command(argv, out, check)], {"trips": trips, "network": edges})


def _fit_fine(work, seed, size):
    trips = os.path.join(work, "fine_trips.csv")
    dh = os.path.join(work, "fine_demand_hist.csv")
    nh = os.path.join(work, "fine_network_hist.csv")
    bins, k_max = 72, 16
    rng = _rng(seed, "fine")
    _write_trips(trips, rng, size["fine_trips"], lonlat=False)
    _write_histogram(dh, _smooth_histogram(rng, bins, (1, 2, 3), False))
    _write_histogram(nh, _smooth_histogram(rng, bins, (2, 4), True))
    theta, paces = _read_trips(trips, lonlat=False)
    # the program normalizes the histogram files it reads
    demand = _read_csv_column(dh, "value")
    demand = demand / demand.sum()
    network = _read_csv_column(nh, "value")
    network = network / network.sum()
    out = os.path.join(work, "out")
    argv = ["fit", "--trips", trips, "--demand-hist", dh, "--network-hist", nh,
            "--k", str(k_max), "--bins", str(bins), "--lower-cut", "0",
            "--upper-cut", "0", "--output-dir", out]
    check = _fit_check(out, theta, paces, np.arange(theta.size), demand,
                       network, k_max)
    return Case([Command(argv, out, check)],
                {"trips": trips, "demand_hist": dh, "network_hist": nh})


def _hist_lonlat(work, seed, size):
    trips = os.path.join(work, "lonlat_trips.csv")
    edges = os.path.join(work, "lonlat_edges.csv")
    _write_trips(trips, _rng(seed, "lonlat-trips"), size["lonlat_trips"], lonlat=True)
    _write_network(edges, _rng(seed, "lonlat-edges"), size["lonlat_edges"], lonlat=True)
    bins = 32
    theta, paces = _read_trips(trips, lonlat=True)
    kept = _kept(paces, LOWER_CUT, UPPER_CUT)
    demand = np.bincount(_bins_of(theta[kept], bins), minlength=bins) / kept.size
    network = _read_network_histogram(edges, bins, lonlat=True, length_weighted=True)
    out = os.path.join(work, "out")
    argv = ["hist", "--lonlat", "--trips", trips, "--network", edges,
            "--length-weighted", "--demand-from", "filtered", "--output-dir", out]

    def check(stdout):
        problems = []
        try:
            d = _read_csv_column(os.path.join(out, "demand_hist.csv"), "value")
            n = _read_csv_column(os.path.join(out, "network_hist.csv"), "value")
            counts = _read_csv_column(os.path.join(out, "pace_by_direction.csv"),
                                      "n_trips")
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable hist output: {exc!r}"]
        for name, values, ref in (("demand", d, demand), ("network", n, network)):
            if abs(values.sum() - 1.0) > HIST_ATOL:
                problems.append(f"{name} histogram sums to {values.sum()!r}")
            if not _close(values, ref, HIST_ATOL):
                problems.append(f"{name} histogram differs from the reference")
        if n.size != bins or np.any(n[:bins // 2] != n[bins // 2:]):
            problems.append("network histogram is not exactly point symmetric")
        if counts.sum() != kept.size:
            problems.append(f"pace_by_direction counts sum to {counts.sum():g}, "
                            f"not the {kept.size} kept trips")
        return problems

    return Case([Command(argv, out, check)], {"trips": trips, "network": edges})


def _model_json(rng, k_max, bins):
    """A fitted-model file in the pacerose-model/1 format, from the seed."""
    names = _column_names(k_max)
    coef = rng.normal(0.0, 5.0, len(names))
    se = rng.uniform(0.5, 2.0, len(names))
    demand = _smooth_histogram(rng, bins, (1, 2), False)
    network = _smooth_histogram(rng, bins, (2, 4), True)
    n = 20000
    rank = 1 + 2 * k_max
    payload = {
        "format": "pacerose-model/1", "k_max": k_max, "bins": bins,
        "point_symmetric": True, "column_names": names,
        "gamma": 118.0 + rng.normal(), "gamma_std_error": 0.8,
        "coefficients": coef.tolist(), "std_errors": se.tolist(),
        "t_values": (coef / se).tolist(),
        "p_values": rng.uniform(0.0, 1.0, len(names)).tolist(),
        "r_squared": 0.31, "f_statistic": 12.5, "prob_f": 1e-6,
        "n_samples": n, "dof_residual": n - rank, "rank": rank,
        "demand_hist": demand.tolist(), "network_hist": network.tolist(),
    }
    return payload


def _simulate_predict(work, seed, size):
    rng = _rng(seed, "simulate-predict")
    k_max, bins, n = 8, 32, size["sim_trips"]
    scenario = {
        "k_max": k_max, "bins": bins, "point_symmetric": True,
        "gamma": 110.0, "alpha": rng.normal(0.0, 4.0, 2 * k_max).tolist(),
        "beta": rng.normal(0.0, 4.0, k_max).tolist(),
        "demand_hist": {"kind": "harmonic",
                        "cos": rng.uniform(-0.1, 0.1, 4).tolist(),
                        "sin": rng.uniform(-0.1, 0.1, 4).tolist()},
        "network_hist": {"kind": "rotated_grid",
                         "rotation_rad": rng.uniform(0.0, 0.5 * math.pi)},
        "n_trips": n, "noise_std": 8.0, "seed": seed,
    }
    scenario_path = os.path.join(work, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as f:
        json.dump(scenario, f, indent=1)
    model = _model_json(rng, k_max, bins)
    model_path = os.path.join(work, "model.json")
    with open(model_path, "w", encoding="utf-8") as f:
        json.dump(model, f, indent=1)
    thetas = rng.uniform(0.0, TWO_PI, size["thetas"])
    expected = (model["gamma"]
                + _design(thetas, np.array(model["demand_hist"]),
                          np.array(model["network_hist"]), k_max)[:, 1:]
                @ np.array(model["coefficients"]))

    sim_out = os.path.join(work, "sim")

    def check_simulate(stdout):
        try:
            with open(os.path.join(sim_out, "trips.csv"), encoding="utf-8") as f:
                rows = sum(1 for line in f if line.strip())
        except OSError as exc:
            return [f"unreadable trips.csv: {exc!r}"]
        return [] if rows == n + 1 else [f"trips.csv has {rows} lines, not {n + 1}"]

    def check_predict(stdout):
        try:
            got = np.array([float(v) for v in stdout.split()])
        except ValueError as exc:
            return [f"unparsable prediction: {exc!r}"]
        if got.shape != expected.shape:
            return [f"{got.size} predictions for {expected.size} directions"]
        err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
        if np.max(err) > PREDICT_RTOL:
            return [f"predictions differ from the model (max rel {np.max(err):.3e})"]
        return []

    predict_argv = ["predict", "--model", model_path] + [
        f"--theta={float(t)!r}" for t in thetas]
    return Case(
        [Command(["simulate", "--scenario", scenario_path, "--output-dir", sim_out],
                 sim_out, check_simulate),
         Command(predict_argv, os.path.join(work, "predict"), check_predict)],
        {"scenario": scenario_path, "model": model_path},
    )


_MAKERS = {
    "fit-city": _fit_city,
    "fit-fine": _fit_fine,
    "hist-lonlat": _hist_lonlat,
    "simulate-predict": _simulate_predict,
}


def prepare(workload: str, work_dir: str, seed: int, smoke: bool) -> Case:
    """Write the workload's inputs for ``seed`` under ``work_dir``."""
    size = SIZES["smoke" if smoke else "full"]
    case = _MAKERS[workload](work_dir, seed, size)
    case.inputs = {k: dict(file_record(p), path=os.path.basename(p))
                   for k, p in case.inputs.items()}
    return case
