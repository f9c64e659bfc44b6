"""Command-line pipeline: hist, fit, simulate, predict.

The options, their defaults and the argument parser live in ``options``,
which needs only the standard library; this module holds the commands.

Exit codes: 0 ok, 2 input error (also a size option too large to
allocate), 3 insufficient data, 4 numerical or model-compatibility error.
Output files are written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .angles import AngularHistogram, bin_index, build_histogram
from .errors import (
    InputFormatError,
    InsufficientDataError,
    NumericalError,
    PaceroseError,
    SpecMismatchError,
)
from .estimator import ols_fit, report_rows, significance_mask
from .features import ModelSpec, build_design_matrix, fourier_design
from .files import csv_text, json_object, write_atomic
from .ingest import (
    HISTOGRAM_HEADER,
    FilterPolicy,
    directions,
    network_orientation_histogram,
    parse_histogram,
    parse_network,
    parse_trips,
    percentile_filter,
    road_class_filter,
)
from .model import (
    expected_sign_report,
    load_model,
    predict_pace,
    reconstruct_curve,
    save_model,
)
# RunConfig, build_parser, resolve_config and _parse_args are also reached
# through this module by its callers
from .options import (
    _FIELDS,
    RunConfig,
    _flag,
    _parse_args,
    build_parser,
    resolve_config,
)
from .rose_svg import curve_svg, rose_svg
from .synth import (
    generate_paces,
    sample_directions,
    scenario_from_dict,
    scenario_manifest,
    trip_csv_lines,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_NUMERICAL = 4

SIGNIFICANCE_LEVEL = 0.05

__all__ = ["RunConfig", "main"]


def _write_histograms(out: str, demand: AngularHistogram,
                      network: AngularHistogram):
    for name, hist in (("demand", demand), ("network", network)):
        rows = zip(range(hist.bin_count), hist.bin_centers(), hist.values)
        write_atomic(os.path.join(out, f"{name}_hist.csv"),
                     csv_text(rows, HISTOGRAM_HEADER))


def _read_histogram_csv(path: str, bins: int) -> AngularHistogram:
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse_histogram(f, bins)
    except InputFormatError as exc:
        # "<path> row 4: ..." for a row, "<path>: ..." for the whole file
        sep = " " if str(exc).startswith("row ") else ": "
        raise InputFormatError(f"{path}{sep}{exc}") from None


def _load_trips(cfg: RunConfig):
    """Directions and paces of the trips in ``cfg.trips``."""
    if not cfg.trips:
        raise InputFormatError("no trip file given (--trips)")
    with open(cfg.trips, encoding="utf-8-sig") as f:
        trips = parse_trips(f, lonlat=cfg.lonlat)
    theta, moving = directions(trips, lonlat=cfg.lonlat, compass=cfg.compass)
    skipped = len(trips) - theta.size
    if skipped:
        log.warning("skipped %d degenerate trip(s)", skipped)
    if not theta.size:
        raise InputFormatError("no trips")
    return theta, trips[moving, 4] / trips[moving, 5]


def _class_filter(cfg: RunConfig) -> set:
    names = [c.strip() for c in cfg.class_filter.split(",") if c.strip()]
    if not names:
        raise InputFormatError(
            "invalid option: class filter names no road class"
        )
    return _validated(road_class_filter, names)


def _load_network_histogram(cfg: RunConfig, classes: set) -> AngularHistogram:
    if cfg.network_hist:
        return _read_histogram_csv(cfg.network_hist, cfg.bins)
    if not cfg.network:
        raise InputFormatError(
            "need a network input (--network or --network-hist)"
        )
    with open(cfg.network, encoding="utf-8-sig") as f:
        segments = parse_network(f, class_filter=classes, lonlat=cfg.lonlat)
    return network_orientation_histogram(
        segments,
        bins=cfg.bins,
        length_weighted=cfg.length_weighted,
        compass=cfg.compass,
        lonlat=cfg.lonlat,
    )


def _demand_histogram(cfg: RunConfig, theta, kept) -> AngularHistogram:
    if cfg.demand_hist:
        return _read_histogram_csv(cfg.demand_hist, cfg.bins)
    source = theta if cfg.demand_from == "all" else theta[kept]
    return build_histogram(source, bin_count=cfg.bins)


def _validated(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as an input error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputFormatError(f"invalid option: {exc}") from exc


def cmd_hist(cfg: RunConfig) -> int:
    policy = _validated(FilterPolicy, cfg.lower_cut, cfg.upper_cut)
    classes = _class_filter(cfg)
    if cfg.bins < 1:
        raise InputFormatError(
            f"invalid option: bins must be >= 1, got {cfg.bins}"
        )
    theta, paces = _load_trips(cfg)
    kept = percentile_filter(paces, policy)
    demand = _demand_histogram(cfg, theta, kept)
    network = _load_network_histogram(cfg, classes)

    idx = bin_index(theta[kept], cfg.bins)
    sums = np.bincount(idx, weights=paces[kept], minlength=cfg.bins)
    counts = np.bincount(idx, minlength=cfg.bins)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), math.nan)

    out = cfg.output_dir
    _write_histograms(out, demand, network)
    rows = zip(range(cfg.bins), demand.bin_centers(), means, counts)
    write_atomic(os.path.join(out, "pace_by_direction.csv"), csv_text(
        rows, ("bin", "center_rad", "mean_pace", "n_trips")))

    write_atomic(os.path.join(out, "demand_rose.svg"),
                 rose_svg(demand.values, "trip-direction frequencies"))
    write_atomic(os.path.join(out, "network_rose.svg"),
                 rose_svg(network.values, "road-orientation frequencies"))
    pace_values = np.where(counts > 0, means, 0.0)
    write_atomic(os.path.join(out, "pace_rose.svg"),
                 rose_svg(pace_values, "mean pace by direction (s/km)"))
    print(f"histograms written to {out}")
    return EXIT_OK


def _summary_text(fit) -> str:
    return (
        f"n_samples: {fit.n_samples}\n"
        f"r_squared: {fit.r_squared:.3f}\n"
        f"f_statistic: {fit.f_statistic:.3f}\n"
        f"prob_f: {fit.prob_f:.3f}\n"
        f"rank: {fit.rank}\n"
        f"parameters: {fit.parameter_count}\n"
    )


def cmd_fit(cfg: RunConfig) -> int:
    spec = _validated(ModelSpec, k_max=cfg.k_max, bins=cfg.bins,
                      network_point_symmetric=cfg.point_symmetric)
    policy = _validated(FilterPolicy, cfg.lower_cut, cfg.upper_cut)
    classes = _class_filter(cfg)
    if cfg.curve_grid < 8:
        raise InputFormatError(
            f"invalid option: curve grid must be >= 8, got {cfg.curve_grid}"
        )
    theta, paces = _load_trips(cfg)
    kept = percentile_filter(paces, policy)
    demand = _demand_histogram(cfg, theta, kept)
    network = _load_network_histogram(cfg, classes)
    design, y = fourier_design(paces[kept], theta[kept], demand, network, spec)
    fit = ols_fit(
        design, y,
        column_names=spec.column_names,
        rank_policy="strict" if cfg.strict_rank else "min_norm",
    )

    # everything that may fail, even for lack of memory, before any write
    mask = significance_mask(fit, SIGNIFICANCE_LEVEL) if cfg.mask_curves else None
    curves = {kind: reconstruct_curve(fit.column_names, fit.coefficients,
                                      mask=mask, kind=kind,
                                      grid_size=cfg.curve_grid)
              for kind in ("alpha", "beta")}
    sign_text = expected_sign_report(curves["alpha"], curves["beta"])

    out = cfg.output_dir
    write_atomic(os.path.join(out, "fit_report.csv"), csv_text(
        report_rows(fit, SIGNIFICANCE_LEVEL), ("name", "coefficient",
        "std_err", "t_value", "p_value", "significant_5pct")))
    write_atomic(os.path.join(out, "summary.txt"), _summary_text(fit))
    for kind, curve in curves.items():
        write_atomic(os.path.join(out, f"{kind}_curve.csv"), csv_text(
            zip(curve.offsets, curve.values), ("offset_rad", "value")))
        plot_values = curve.values
        title = f"{kind} influence curve"
        if cfg.baseline == "min":
            plot_values = curve.values - curve.values.min()
            title += " (baseline: minimum)"
        write_atomic(os.path.join(out, f"{kind}_curve.svg"),
                     curve_svg(curve.offsets, plot_values, title))
    write_atomic(os.path.join(out, "sign_report.txt"), sign_text + "\n")
    save_model(os.path.join(out, "model.json"), fit, spec, demand, network)

    if cfg.dump_design:
        X, y = build_design_matrix(paces[kept], theta[kept], demand,
                                   network, spec)
        write_atomic(os.path.join(out, "design_matrix.csv"), csv_text(
            np.column_stack([X, y]), spec.column_names + ("pace",)))

    sys.stdout.write(_summary_text(fit))
    print(sign_text)
    if fit.dependent_columns:
        print("note: rank-deficient design resolved by the minimum-norm "
              "convention; dependent columns: "
              + ", ".join(fit.dependent_columns))
    print(f"fit outputs written to {out}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.scenario:
        raise InputFormatError("simulate needs --scenario")
    scenario = scenario_from_dict(json_object(cfg.scenario))
    if cfg.seed is not None:
        scenario = _validated(replace, scenario, seed=cfg.seed)

    theta = sample_directions(scenario)
    paces, n_clamped = generate_paces(theta, scenario)

    out = cfg.output_dir
    write_atomic(os.path.join(out, "trips.csv"), trip_csv_lines(theta, paces))
    manifest = scenario_manifest(scenario, n_clamped)
    write_atomic(os.path.join(out, "manifest.json"),
                 json.dumps(manifest, indent=1) + "\n")
    _write_histograms(out, scenario.demand_hist, scenario.network_hist)
    print(f"{scenario.n_trips} trips written to {out} "
          f"(seed {scenario.seed}, {n_clamped} clamped)")
    return EXIT_OK


def _parse_directions(thetas, degrees: bool) -> np.ndarray:
    values = []
    for raw in thetas:
        # argparse before Python 3.13 reads --theta=-- as [], "--" dropped
        raw = "--" if raw == [] else raw
        try:
            value = float(raw)
        except ValueError:
            raise InputFormatError(f"bad direction value {raw!r}") from None
        if not math.isfinite(value):
            raise InputFormatError(f"direction must be finite, got {raw!r}")
        values.append(value)
    values = np.array(values)
    return np.radians(values) if degrees else values


def _as_given(args: argparse.Namespace, name: str, value) -> str:
    """``name`` set to ``value`` as the user wrote it: flag or config key."""
    if getattr(args, name, None) is None:
        return f"config key {name}={value}"
    flag = _flag(_FIELDS[name])
    if isinstance(value, bool):
        return flag if value else "--no-" + flag[2:]
    return f"{flag} {value}"


def cmd_predict(cfg: RunConfig, args: argparse.Namespace,
                explicit: set) -> int:
    if not args.theta:
        raise InputFormatError("predict needs at least one --theta")
    if not cfg.model:
        raise InputFormatError("predict needs --model")
    theta = _parse_directions(args.theta, args.degrees)
    fit, spec, demand, network = load_model(cfg.model)
    for key, value in (("k_max", spec.k_max), ("bins", spec.bins),
                       ("point_symmetric", spec.network_point_symmetric)):
        if key in explicit and getattr(cfg, key) != value:
            raise SpecMismatchError(
                f"{_as_given(args, key, getattr(cfg, key))} does not "
                f"match the model ({value})"
            )
    paces = predict_pace(theta, demand, network, fit, spec)
    sys.stdout.write(csv_text(zip(paces)))
    return EXIT_OK


def main(argv=None) -> int:
    return _run(_parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    """Run the command ``args`` names; returns the exit code."""
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    try:
        cfg, explicit = resolve_config(args)
        if args.command == "hist":
            return cmd_hist(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_predict(cfg, args, explicit)
    except (PaceroseError, FileNotFoundError, IsADirectoryError,
            FileExistsError, NotADirectoryError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InsufficientDataError):
            return EXIT_INSUFFICIENT
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT
    except MemoryError as exc:
        # a size option too large to allocate, such as hist --bins 2**50
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
