"""Command-line pipeline: hist, fit, simulate, predict.

Configuration precedence is CLI flags over config-file entries over
defaults; the defaults reproduce the standard preprocessing setup (K=8,
32 bins, drop the slowest 10% and fastest 5% of paces, major road classes,
point-symmetric network).

Each option is stated once, as a ``RunConfig`` field: its config key,
default, flag, help text, choices and the commands that read it. A command
offers only the flags it reads, so any other flag is a usage error (exit
2); a config file may set any field on every command.

Exit codes: 0 ok, 2 input error, 3 insufficient data, 4 numerical or
model-compatibility error. Output files are written atomically (temp file
plus rename).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace

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
from .files import csv_text, write_atomic
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


def _option(default, commands, help=None, *, flag=None, choices=None):
    """A RunConfig field that is also a command-line option.

    The flag is ``flag``, or ``--`` and the field name with dashes; only
    ``commands`` accept it.
    """
    return field(default=default, metadata={
        "commands": commands, "help": help, "flag": flag, "choices": choices,
    })


def _flag(option) -> str:
    """The command-line flag of a RunConfig field."""
    return option.metadata["flag"] or "--" + option.name.replace("_", "-")


_INGEST = ("hist", "fit")


@dataclass
class RunConfig:
    """Resolved run configuration; defaults mirror the standard setup.

    Each field states its option once: ``build_parser`` makes the flags
    (in field order) and ``_coerce`` reads config-file values from them.
    """

    trips: str | None = _option(None, _INGEST, "trip CSV path")
    network: str | None = _option(None, _INGEST, "network edge CSV path")
    network_hist: str | None = _option(
        None, _INGEST, "precomputed network histogram CSV")
    demand_hist: str | None = _option(
        None, _INGEST, "precomputed demand histogram CSV")
    k_max: int = _option(8, ("fit", "predict"), "max harmonic degree",
                         flag="--k")
    bins: int = _option(32, ("hist", "fit", "predict"), "circular bin count")
    lower_cut: float = _option(0.05, _INGEST,
                               "fraction of fastest paces to drop")
    upper_cut: float = _option(0.10, _INGEST,
                               "fraction of slowest paces to drop")
    class_filter: str = _option("motorway,trunk,primary,secondary", _INGEST,
                                "comma-separated road classes to keep")
    point_symmetric: bool = _option(True, ("fit", "predict"))
    length_weighted: bool = _option(False, _INGEST)
    compass: bool = _option(False, _INGEST,
                            "treat raw bearings as compass (0=N, clockwise)")
    lonlat: bool = _option(False, _INGEST, "coordinates are lon/lat degrees")
    demand_from: str = _option(
        "all", _INGEST, "build d() from all trips or post-filter trips",
        choices=("all", "filtered"))
    output_dir: str = _option(".", ("hist", "fit", "simulate"),
                              "output directory")
    seed: int | None = _option(None, ("simulate",),
                               "seed override for simulate")
    strict_rank: bool = _option(
        False, ("fit",), "fail on rank-deficient designs instead of min-norm")
    mask_curves: bool = _option(True, ("fit",),
                                "restrict curves to 5%%-significant terms",
                                flag="--mask")
    baseline: str = _option("none", ("fit",), "curve plot baseline",
                            choices=("none", "min"))
    curve_grid: int = _option(256, ("fit",), "points per reconstructed curve")
    dump_design: bool = _option(False, ("fit",),
                                "also write the design matrix CSV")
    scenario: str | None = _option(None, ("simulate",), "scenario JSON path")
    model: str | None = _option(None, ("predict",), "model.json written by fit")


_FIELDS = {f.name: f for f in fields(RunConfig)}

# how a flag or config value is read, by field annotation; booleans are
# BooleanOptionalAction flags and _BOOL_VALUES in config files
_READERS = {"int": int, "int | None": int, "float": float,
            "str": str, "str | None": str}

_BOOL_VALUES = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _coerce(option, value: str):
    """``value`` from a config file, read as the field ``option``."""
    choices = option.metadata["choices"]
    if choices and value not in choices:
        raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
    if option.type == "bool":
        v = _BOOL_VALUES.get(value.lower())
        if v is None:
            raise ValueError(f"not a boolean: {value!r}")
        return v
    if option.type == "int | None" and value.lower() == "none":
        return None
    return _READERS[option.type](value)


def _parse_config_file(path: str) -> dict:
    data = {}
    with open(path, encoding="utf-8-sig") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFormatError(
                    f"config line {lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise InputFormatError(
                    f"config line {lineno}: unknown config key {key!r}"
                )
            try:
                data[key] = _coerce(_FIELDS[key], value.strip())
            except ValueError as exc:
                raise InputFormatError(
                    f"config line {lineno}: bad value for {key}: {exc}"
                ) from exc
    return data


def resolve_config(args: argparse.Namespace) -> tuple:
    """Merge defaults, config file, and explicit CLI flags.

    Returns (config, explicitly_set_names).
    """
    provided = {name: getattr(args, name) for name in _FIELDS
                if getattr(args, name, None) is not None}
    cfg = RunConfig()
    file_keys = {}
    if args.config:
        file_keys = _parse_config_file(args.config)
        cfg = replace(cfg, **file_keys)
    cfg = replace(cfg, **provided)
    return cfg, set(provided) | set(file_keys)


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

    out = cfg.output_dir
    write_atomic(os.path.join(out, "fit_report.csv"), csv_text(
        report_rows(fit, SIGNIFICANCE_LEVEL), ("name", "coefficient",
        "std_err", "t_value", "p_value", "significant_5pct")))
    write_atomic(os.path.join(out, "summary.txt"), _summary_text(fit))

    mask = significance_mask(fit, SIGNIFICANCE_LEVEL) if cfg.mask_curves else None
    curves = {}
    for kind in ("alpha", "beta"):
        curve = reconstruct_curve(
            fit.column_names, fit.coefficients, mask=mask, kind=kind,
            grid_size=cfg.curve_grid,
        )
        curves[kind] = curve
        write_atomic(os.path.join(out, f"{kind}_curve.csv"), csv_text(
            zip(curve.offsets, curve.values), ("offset_rad", "value")))
        plot_values = curve.values
        title = f"{kind} influence curve"
        if cfg.baseline == "min":
            plot_values = curve.values - curve.values.min()
            title += " (baseline: minimum)"
        write_atomic(os.path.join(out, f"{kind}_curve.svg"),
                     curve_svg(curve.offsets, plot_values, title))

    sign_text = expected_sign_report(curves["alpha"], curves["beta"])
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
    try:
        with open(cfg.scenario, encoding="utf-8-sig") as f:
            payload = json.load(f)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid scenario JSON: {exc}") from exc
    scenario = scenario_from_dict(payload)
    if cfg.seed is not None:
        scenario = _validated(replace, scenario, seed=cfg.seed)

    theta = sample_directions(scenario)
    paces, n_clamped = generate_paces(theta, scenario)

    out = cfg.output_dir
    write_atomic(os.path.join(out, "trips.csv"),
                 "\n".join(trip_csv_lines(theta, paces)) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacerose",
        description="Directional congestion regression from angular "
                    "histograms of demand and road orientation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("hist", "write angular histograms and rose diagrams"),
        ("fit", "fit the regression and write report, curves, model"),
        ("simulate", "generate synthetic trips from a scenario file"),
        ("predict", "predict pace for directions from a fitted model"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for option in _FIELDS.values():
            meta = option.metadata
            if name not in meta["commands"]:
                continue
            if option.type == "bool":
                kind = {"action": argparse.BooleanOptionalAction}
            else:
                kind = {"type": _READERS[option.type],
                        "choices": meta["choices"]}
            p.add_argument(_flag(option), dest=option.name, help=meta["help"],
                           **kind)
        if name == "predict":
            p.add_argument("--theta", action="append", default=None,
                           help="direction (repeatable)")
            p.add_argument("--degrees", action="store_true", default=False,
                           help="interpret --theta values as degrees")
    return parser


# the spellings of predict's --theta: the flag and each abbreviation of it
# that no other predict option shares, which argparse accepts
_THETA_FLAGS = ("--t", "--th", "--the", "--thet", "--theta")
# a value starting with "-" that every supported argparse reads as the value
# of "--theta V" rather than as an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _collapse_thetas(argv: list):
    """``predict``'s arguments with each run of --theta options made one.

    argparse's option loop is quadratic in the number of options, so
    thousands of --theta options would take seconds to parse. Every run of
    consecutive --theta options, in any spelling argparse binds to --theta
    (``--theta=V``, ``--theta V``, an abbreviation), becomes one
    ``--theta=`` option, which leaves the meaning of every other token
    unchanged. Returns (arguments, runs), with the values of each run in
    order. If a --theta might not take the token after it as its value
    (there is none, or it starts with "-" and is no plain negative number),
    returns (``argv``, None) and argparse reads ``argv`` as given. Tokens
    after "--" are left to argparse.
    """
    rest, runs = [], []
    in_run = False
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            rest += argv[i:]
            break
        flag, equals, value = token.partition("=")
        if flag not in _THETA_FLAGS:
            rest.append(token)
            in_run = False
            i += 1
            continue
        if not equals:
            if i + 1 == len(argv):
                return argv, None
            value = argv[i + 1]
            if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                return argv, None
            i += 1
        if not in_run:
            rest.append("--theta=")
            runs.append([])
            in_run = True
        runs[-1].append(value)
        i += 1
    return rest, runs


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in linear time in the number of
    ``predict --theta`` options."""
    argv = list(sys.argv[1:] if argv is None else argv)
    runs = None
    if argv[:1] == ["predict"]:
        rest, runs = _collapse_thetas(argv[1:])
        argv = ["predict", *rest]
    args = build_parser().parse_args(argv)
    if runs:
        args.theta = [value for run in runs for value in run]
    return args


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    return _run(_parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    """Run the command ``args`` names; returns the exit code."""
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


if __name__ == "__main__":
    sys.exit(main())
