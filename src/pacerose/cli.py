"""Command-line pipeline: hist, fit, simulate, predict.

The options, their defaults and the argument parser live in ``options``,
which needs only the standard library; this module holds the commands.
Each command returns its output files, as (name, text) pairs in writing
order, and its standard output; ``_run`` writes both, so a command that
fails while it builds them writes nothing.

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

from .angles import AngularHistogram, bin_index, build_histogram, require_size
from .errors import (
    InputFormatError,
    InsufficientDataError,
    NumericalError,
    PaceroseError,
    RankDeficiencyError,
    SpecMismatchError,
)
from .estimator import ols_fit, report_rows, row_blocks, significance_mask
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

__all__ = ["RunConfig", "main"]


def _histogram_files(demand: AngularHistogram, network: AngularHistogram):
    """The entries of ``demand_hist.csv`` and ``network_hist.csv``."""
    return [(f"{name}_hist.csv", csv_text(
        (range(hist.bin_count), hist.bin_centers(), hist.values),
        HISTOGRAM_HEADER)) for name, hist in (("demand", demand),
                                              ("network", network))]


def _read_csv(path: str, parse, *args):
    """``parse(file, *args)`` of the CSV file at ``path``; its input errors
    name the file."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse(f, *args)
    except InputFormatError as exc:
        # "<path> row 4: ..." for a row, "<path>: ..." for the whole file
        sep = " " if str(exc).startswith("row ") else ": "
        raise InputFormatError(f"{path}{sep}{exc}") from None


def _load_trips(cfg: RunConfig):
    """Directions and paces of the trips in ``cfg.trips``."""
    if not cfg.trips:
        raise InputFormatError("no trip file given (--trips)")
    trips = _read_csv(cfg.trips, parse_trips, cfg.lonlat)
    theta, moving = directions(trips, lonlat=cfg.lonlat, compass=cfg.compass)
    skipped = len(trips) - theta.size
    if skipped:
        log.warning("skipped %d degenerate trip(s)", skipped)
    if not theta.size:
        raise InputFormatError("no trips")
    return theta, trips[moving, 4] / trips[moving, 5]


def _load_network_histogram(cfg: RunConfig, classes: set) -> AngularHistogram:
    if cfg.network_hist:
        return _read_csv(cfg.network_hist, parse_histogram, cfg.bins)
    if not cfg.network:
        raise InputFormatError("need a network input (--network or "
                               "--network-hist)")
    segments = _read_csv(cfg.network, parse_network, classes, cfg.lonlat)
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
    theta, paces = _load_trips(cfg)
    kept = percentile_filter(paces, policy)
    if cfg.demand_hist:
        demand = _read_csv(cfg.demand_hist, parse_histogram, cfg.bins)
    else:
        source = theta if cfg.demand_from == "all" else theta[kept]
        demand = build_histogram(source, bin_count=cfg.bins)
    return (theta[kept], paces[kept], demand,
            _load_network_histogram(cfg, classes))


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


def _design_csv(design, y, column_names):
    """The text of design_matrix.csv, ``[X y]`` with X the fit's design
    without its intercept column, one block of rows at a time."""
    yield csv_text((), column_names + ("pace",))
    for start, stop in row_blocks(design.rows):
        block = design.basis(start, stop) @ design.moments[:, 1:]
        yield csv_text([*block.T, y[start:stop]])


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
        plot_values = curve.values
        title = f"{kind} influence curve"
        if cfg.baseline == "min":
            plot_values = curve.values - curve.values.min()
            title += " (baseline: minimum)"
        files += [(f"{kind}_curve.csv", csv_text(
                      (curve.offsets, curve.values), ("offset_rad", "value"))),
                  (f"{kind}_curve.svg",
                   curve_svg(curve.offsets, plot_values, title))]
    files.append(("sign_report.txt", sign_text))
    if cfg.dump_design:
        files.append(("design_matrix.csv",
                      _design_csv(design, y, spec.column_names)))

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
    scenario = scenario_from_dict(json_object(cfg.scenario))
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


def _as_given(args: argparse.Namespace, name: str, value) -> str:
    """``name`` set to ``value`` as the user wrote it: flag or config key."""
    if getattr(args, name, None) is None:
        return f"config key {name}={value}"
    flag = _flag(_FIELDS[name])
    if isinstance(value, bool):
        return flag if value else "--no-" + flag[2:]
    return f"{flag} {value}"


def cmd_predict(cfg: RunConfig, args: argparse.Namespace, explicit: set):
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
    return [], csv_text((predict_pace(theta, demand, network, fit, spec),))


# each command's (files, standard output) from the configuration, the
# parsed arguments and the names of the options given explicitly
_COMMANDS = {"hist": lambda cfg, *_: cmd_hist(cfg),
             "fit": lambda cfg, *_: cmd_fit(cfg),
             "simulate": lambda cfg, *_: cmd_simulate(cfg),
             "predict": cmd_predict}


def main(argv=None) -> int:
    return _run(_parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    """Run the command ``args`` names and write its files, then its
    standard output; returns the exit code."""
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    try:
        cfg, explicit = resolve_config(args)
        files, text = _COMMANDS[args.command](cfg, args, explicit)
        for name, content in files:
            write_atomic(os.path.join(cfg.output_dir, name), content)
        sys.stdout.write(text)
        return EXIT_OK
    except (PaceroseError, OSError, UnicodeDecodeError) as exc:
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
