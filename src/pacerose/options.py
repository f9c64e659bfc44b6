"""Command-line options of the pacerose commands; standard library only.

Configuration precedence is CLI flags over config-file entries over
defaults; the defaults reproduce the standard preprocessing setup (K=8,
32 bins, drop the slowest 10% and fastest 5% of paces, major road classes,
point-symmetric network).

Each option is stated once, as a row of ``_OPTIONS``: its config key,
default, reader, the commands that read it, help text, flag and choices.
``RunConfig`` is the namedtuple of those keys and defaults. A command
offers only the flags it reads, so any other flag is a usage error (exit
2); a config file may set any option on every command.

Nothing here imports numpy, ``dataclasses`` or ``inspect``, so
``python -m pacerose --help`` and usage errors are answered before the
commands in ``cli`` are imported, and without the cost of a dataclass.
"""

import argparse
import re
import sys
from collections import namedtuple

from .errors import InputFormatError

__all__ = ["RunConfig", "build_parser", "resolve_config"]

# ``kind`` reads a flag or config value: int, float or str, or bool for a
# --flag/--no-flag pair; the flag is ``flag``, or ``--`` and the name with
# dashes; only ``commands`` accept it
_Option = namedtuple("_Option", "name default kind commands help flag choices",
                     defaults=(None, None, None))

_INGEST = ("hist", "fit")

_OPTIONS = (
    _Option("trips", None, str, _INGEST, "trip CSV path"),
    _Option("network", None, str, _INGEST, "network edge CSV path"),
    _Option("network_hist", None, str, _INGEST,
            "precomputed network histogram CSV"),
    _Option("demand_hist", None, str, _INGEST,
            "precomputed demand histogram CSV"),
    _Option("k_max", 8, int, ("fit", "predict"), "max harmonic degree",
            flag="--k"),
    _Option("bins", 32, int, ("hist", "fit", "predict"), "circular bin count"),
    _Option("lower_cut", 0.05, float, _INGEST,
            "fraction of fastest paces to drop"),
    _Option("upper_cut", 0.10, float, _INGEST,
            "fraction of slowest paces to drop"),
    _Option("class_filter", "motorway,trunk,primary,secondary", str, _INGEST,
            "comma-separated road classes to keep"),
    _Option("point_symmetric", True, bool, ("fit", "predict")),
    _Option("length_weighted", False, bool, _INGEST),
    _Option("compass", False, bool, _INGEST,
            "treat raw bearings as compass (0=N, clockwise)"),
    _Option("lonlat", False, bool, _INGEST, "coordinates are lon/lat degrees"),
    _Option("demand_from", "all", str, _INGEST,
            "build d() from all trips or post-filter trips",
            choices=("all", "filtered")),
    _Option("output_dir", ".", str, ("hist", "fit", "simulate"),
            "output directory"),
    _Option("seed", None, int, ("simulate",), "seed override for simulate"),
    _Option("strict_rank", False, bool, ("fit",),
            "fail on rank-deficient designs instead of min-norm"),
    _Option("mask_curves", True, bool, ("fit",),
            "restrict curves to 5%%-significant terms", flag="--mask"),
    _Option("baseline", "none", str, ("fit",), "curve plot baseline",
            choices=("none", "min")),
    _Option("curve_grid", 256, int, ("fit",),
            "points per reconstructed curve"),
    _Option("dump_design", False, bool, ("fit",),
            "also write the design matrix CSV"),
    _Option("scenario", None, str, ("simulate",), "scenario JSON path"),
    _Option("model", None, str, ("predict",), "model.json written by fit"),
)

_FIELDS = {option.name: option for option in _OPTIONS}

RunConfig = namedtuple("RunConfig", _FIELDS,
                       defaults=[option.default for option in _OPTIONS])
RunConfig.__doc__ = """Resolved run configuration: one field per row of
``_OPTIONS``, in table order, each defaulting to the standard setup."""


def _flag(option) -> str:
    """The command-line flag of an option."""
    return option.flag or "--" + option.name.replace("_", "-")


# config-file spellings of a bool option; on the command line it is a
# BooleanOptionalAction flag
_BOOL_VALUES = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _coerce(option, value: str):
    """``value`` from a config file, read as ``option``."""
    if option.choices and value not in option.choices:
        raise ValueError(
            f"expected one of {', '.join(option.choices)}, got {value!r}")
    if option.kind is bool:
        v = _BOOL_VALUES.get(value.lower())
        if v is None:
            raise ValueError(f"not a boolean: {value!r}")
        return v
    # an int option that is unset by default may be set back to unset
    if (option.kind is int and option.default is None
            and value.lower() == "none"):
        return None
    return option.kind(value)


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
    file_keys = _parse_config_file(args.config) if args.config else {}
    cfg = RunConfig()._replace(**file_keys)._replace(**provided)
    return cfg, set(provided) | set(file_keys)


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
        for option in _OPTIONS:
            if name not in option.commands:
                continue
            if option.kind is bool:
                kind = {"action": argparse.BooleanOptionalAction}
            else:
                kind = {"type": option.kind, "choices": option.choices}
            p.add_argument(_flag(option), dest=option.name, help=option.help,
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
