"""Command-line pipeline: hist, fit, simulate, predict.

The options, their defaults and the argument parser live in ``options``,
which needs only the standard library; this module holds the commands.
Each input file is read, and its content checked, in one call of
``errors.read_input``, so every error about it names the file. Each
command returns its output files, as (name, text) pairs in writing order,
and its standard output; ``_run`` writes both, atomically (temp file plus
rename), so a command that fails while it builds them writes nothing.

Exit codes: 0 ok, 2 input error (also a size option too large to
allocate), 3 insufficient data, 4 numerical or model-compatibility error.
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

from .angles import AngularHistogram, bin_index, build_histogram, require_size
from .errors import (
    InputFormatError,
    InsufficientDataError,
    NumericalError,
    PaceroseError,
    RankDeficiencyError,
    read_input,
)
from .estimator import ols_fit, report_rows, significance_mask
# build_design_matrix is not called here, but the benchmark's traced run
# hooks it through this module and reports 3 of its metrics from that hook
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
    check_grid_size,
    expected_sign_report,
    load_model,
    predict_pace,
    reconstruct_curve,
    save_model,
)
# RunConfig, build_parser, resolve_config and _parse_args are also reached
# through this module by its callers
from .options import (
    RunConfig,
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

__all__ = ["RunConfig", "main"]


def _histogram_files(demand: AngularHistogram, network: AngularHistogram):
    """The entries of ``demand_hist.csv`` and ``network_hist.csv``."""
    return [(f"{name}_hist.csv", csv_text(
        (range(hist.bin_count), hist.bin_centers(), hist.values),
        HISTOGRAM_HEADER)) for name, hist in (("demand", demand),
                                              ("network", network))]


def _trips(f, cfg: RunConfig):
    """Directions and paces of the moving trips in the trip file ``f``."""
    trips = parse_trips(f, cfg.lonlat)
    theta, moving = directions(trips, lonlat=cfg.lonlat, compass=cfg.compass)
    skipped = len(trips) - theta.size
    if skipped:
        log.warning("skipped %d degenerate trip(s)", skipped)
    if not theta.size:
        raise InputFormatError("no trips")
    return theta, trips[moving, 4] / trips[moving, 5]


def _network(f, cfg: RunConfig, classes: set) -> AngularHistogram:
    """The road-orientation histogram of the edges in the edge file ``f``."""
    segments = parse_network(f, classes, cfg.lonlat)
    return network_orientation_histogram(
        segments, bins=cfg.bins, length_weighted=cfg.length_weighted,
        compass=cfg.compass, lonlat=cfg.lonlat)


def _validated(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as an input error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputFormatError(f"invalid option: {exc}") from exc


def _inputs(cfg: RunConfig):
    """What ``hist`` and ``fit`` both read: ``theta, paces, demand,
    network``, the directions and paces of the trips the pace cut keeps,
    and the two histograms. The cut and the class filter are checked, and
    the output directory made, before any input is read."""
    policy = _validated(FilterPolicy, cfg.lower_cut, cfg.upper_cut)
    names = [c.strip() for c in cfg.class_filter.split(",") if c.strip()]
    if not names:
        raise InputFormatError(
            "invalid option: class filter names no road class"
        )
    classes = _validated(road_class_filter, names)
    os.makedirs(cfg.output_dir, exist_ok=True)  # a bad path fails before work
    if not cfg.trips:
        raise InputFormatError("no trip file given (--trips)")
    theta, paces = read_input(cfg.trips, _trips, cfg)
    kept = percentile_filter(paces, policy)
    if cfg.demand_hist:
        demand = read_input(cfg.demand_hist, parse_histogram, cfg.bins)
    else:
        source = theta if cfg.demand_from == "all" else theta[kept]
        demand = build_histogram(source, bin_count=cfg.bins)
    if cfg.network_hist:
        network = read_input(cfg.network_hist, parse_histogram, cfg.bins)
    elif cfg.network:
        network = read_input(cfg.network, _network, cfg, classes)
    else:
        raise InputFormatError("need a network input (--network or "
                               "--network-hist)")
    return theta[kept], paces[kept], demand, network


def cmd_hist(cfg: RunConfig):
    _validated(require_size, "bins", cfg.bins)
    theta, paces, demand, network = _inputs(cfg)

    idx = bin_index(theta, cfg.bins)
    sums = np.bincount(idx, weights=paces, minlength=cfg.bins)
    counts = np.bincount(idx, minlength=cfg.bins)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), math.nan)
    pace_values = np.where(counts > 0, means, 0.0)
    files = _histogram_files(demand, network) + [
        ("pace_by_direction.csv", csv_text(
            (range(cfg.bins), demand.bin_centers(), means, counts),
            ("bin", "center_rad", "mean_pace", "n_trips"))),
        ("demand_rose.svg",
         rose_svg(demand.values, "trip-direction frequencies")),
        ("network_rose.svg",
         rose_svg(network.values, "road-orientation frequencies")),
        ("pace_rose.svg",
         rose_svg(pace_values, "mean pace by direction (s/km)")),
    ]
    return files, f"histograms written to {cfg.output_dir}\n"


def _summary_text(fit) -> str:
    return (
        f"n_samples: {fit.n_samples}\n"
        f"r_squared: {fit.r_squared:.3f}\n"
        f"f_statistic: {fit.f_statistic:.3f}\n"
        f"prob_f: {fit.prob_f:.3f}\n"
        f"rank: {fit.rank}\n"
        f"parameters: {fit.parameter_count}\n"
    )


def cmd_fit(cfg: RunConfig):
    spec = _validated(ModelSpec, k_max=cfg.k_max, bins=cfg.bins,
                      network_point_symmetric=cfg.point_symmetric)
    _validated(check_grid_size, cfg.curve_grid)
    theta, paces, demand, network = _inputs(cfg)
    design, y = fourier_design(paces, theta, demand, network, spec)
    fit = ols_fit(design, y, column_names=spec.column_names)
    if cfg.strict_rank and fit.rank < fit.parameter_count:
        raise RankDeficiencyError(
            "design matrix is rank deficient (rank "
            f"{fit.rank} of {fit.parameter_count}); dependent columns: "
            + ", ".join(fit.dependent_columns))

    mask = significance_mask(fit) if cfg.mask_curves else None
    curves = {kind: reconstruct_curve(fit.column_names, fit.coefficients,
                                      mask=mask, kind=kind,
                                      grid_size=cfg.curve_grid)
              for kind in ("alpha", "beta")}
    sign_text = expected_sign_report(curves["alpha"], curves["beta"]) + "\n"

    files = [("fit_report.csv", csv_text(
        zip(*report_rows(fit)), ("name", "coefficient", "std_err",
        "t_value", "p_value", "significant_5pct"))),
        ("summary.txt", _summary_text(fit))]
    for kind, curve in curves.items():
        # in units of a power of two near its largest magnitude: no
        # difference overflows, and curve_svg draws the same picture
        largest = float(np.max(np.abs(curve.values)))
        plot_values = curve.values / math.ldexp(1.0, math.frexp(largest)[1] - 1)
        title = f"{kind} influence curve"
        if cfg.baseline == "min":
            plot_values = plot_values - plot_values.min()
            title += " (baseline: minimum)"
        files += [(f"{kind}_curve.csv", csv_text(
                      (curve.offsets, curve.values), ("offset_rad", "value"))),
                  (f"{kind}_curve.svg",
                   curve_svg(curve.offsets, plot_values, title))]
    files.append(("sign_report.txt", sign_text))

    text = _summary_text(fit) + sign_text
    if fit.dependent_columns:
        text += ("note: rank-deficient design resolved by the minimum-norm "
                 "convention; dependent columns: "
                 + ", ".join(fit.dependent_columns) + "\n")
    # model.json by the library's writer of its format, once all else is
    # built; the benchmark's model.save span hooks this call
    save_model(os.path.join(cfg.output_dir, "model.json"), fit, spec, demand,
               network)
    return files, text + f"fit outputs written to {cfg.output_dir}\n"


def cmd_simulate(cfg: RunConfig):
    if not cfg.scenario:
        raise InputFormatError("simulate needs --scenario")
    scenario = read_input(cfg.scenario,
                          lambda f: scenario_from_dict(json_object(f)))
    if cfg.seed is not None:
        scenario = _validated(replace, scenario, seed=cfg.seed)

    theta = sample_directions(scenario)
    paces, n_clamped = generate_paces(theta, scenario)

    manifest = scenario_manifest(scenario, n_clamped)
    files = [("trips.csv", trip_csv_lines(theta, paces)),
             ("manifest.json", json.dumps(manifest, indent=1) + "\n"),
             *_histogram_files(scenario.demand_hist, scenario.network_hist)]
    return files, (f"{scenario.n_trips} trips written to {cfg.output_dir} "
                   f"(seed {scenario.seed}, {n_clamped} clamped)\n")


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


def cmd_predict(cfg: RunConfig, args: argparse.Namespace):
    if not args.theta:
        raise InputFormatError("predict needs at least one --theta")
    if not cfg.model:
        raise InputFormatError("predict needs --model")
    theta = _parse_directions(args.theta, args.degrees)
    fit, spec, demand, network = load_model(cfg.model)
    return [], csv_text((predict_pace(theta, demand, network, fit, spec),))


# each command's (files, standard output) from the configuration and the
# parsed arguments
_COMMANDS = {"hist": lambda cfg, _: cmd_hist(cfg),
             "fit": lambda cfg, _: cmd_fit(cfg),
             "simulate": lambda cfg, _: cmd_simulate(cfg),
             "predict": cmd_predict}


def main(argv=None) -> int:
    return _run(_parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    """Run the command ``args`` names and write its files, then its
    standard output; returns the exit code."""
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    try:
        cfg = resolve_config(args)
        files, text = _COMMANDS[args.command](cfg, args)
        for name, content in files:
            write_atomic(os.path.join(cfg.output_dir, name), content)
        sys.stdout.write(text)
        return EXIT_OK
    except (PaceroseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InsufficientDataError):
            return EXIT_INSUFFICIENT
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT
    except MemoryError as exc:
        # a size option too large to allocate, such as hist --bins 2**50
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
