"""Command-line options of the pacerose commands; standard library only.

Configuration precedence is CLI flags over config-file entries over
defaults; the defaults reproduce the standard preprocessing setup (K=8,
32 bins, drop the slowest 10% and fastest 5% of paces, major road classes,
point-symmetric network).

Each option is stated once, as a ``RunConfig`` field: its config key,
default, flag, help text, choices and the commands that read it. A command
offers only the flags it reads, so any other flag is a usage error (exit
2); a config file may set any field on every command.

Nothing here imports numpy, so ``python -m pacerose --help`` and usage
errors are answered before the commands in ``cli`` are imported.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field, fields, replace

from .errors import InputFormatError

__all__ = ["RunConfig", "build_parser", "resolve_config"]


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
