"""Trip-log and road-network ingestion into float arrays.

File formats (UTF-8, comma separated, '.' decimal, blank lines and
'#'-prefixed lines ignored):

* trips:   header ``origin_x,origin_y,dest_x,dest_y,duration_s,distance_km``
           (planar meters) or, for lon/lat input in degrees,
           ``origin_lon,origin_lat,dest_lon,dest_lat,duration_s,distance_km``
* network: header ``ax,ay,bx,by,class[,length_m]``; class is one of
           motorway, trunk, primary, secondary, other (case-insensitive)

``parse_trips`` returns an ``(n, 6)`` float array in header order and
``parse_network`` an ``(n, 5)`` array ``ax, ay, bx, by, length_m`` of the
segments in the kept classes. Both read ``BLOCK_ROWS`` source lines at a
time: one strict CSV reader splits a block's content lines and one numpy
conversion turns its fields into floats, so no string fields outlive their
block. Each row rule is one entry, a row mask and a message template, of an
ordered table; a block's first bad row is named with its first broken rule.
``directions`` turns the endpoint columns of either array into bearings, and
a trip's pace is ``duration_s / distance_km``.

Trip rows with non-positive duration or distance are skipped, with one
warning per reason giving the count and the first row numbers; rows that do
not parse at all raise InputFormatError naming the first such row.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .angles import (
    AngularHistogram,
    bin_index,
    compass_to_math,
    wrap_angle,
)
from .errors import InputFormatError, InsufficientDataError

log = logging.getLogger(__name__)

ROAD_CLASSES = ("motorway", "trunk", "primary", "secondary", "other")

TRIP_HEADER_PLANAR = ("origin_x", "origin_y", "dest_x", "dest_y",
                      "duration_s", "distance_km")
TRIP_HEADER_LONLAT = ("origin_lon", "origin_lat", "dest_lon", "dest_lat",
                      "duration_s", "distance_km")
NETWORK_HEADER = ("ax", "ay", "bx", "by", "class")

EARTH_RADIUS_M = 6371000.0

# row numbers named in a skipped-row warning
WARN_ROWS = 5

# source lines split by one CSV reader call and converted by one numpy call
BLOCK_ROWS = 4096

__all__ = [
    "ROAD_CLASSES",
    "FilterPolicy",
    "directions",
    "network_orientation_histogram",
    "parse_network",
    "parse_trips",
    "percentile_filter",
    "road_class_filter",
]


@dataclass(frozen=True)
class FilterPolicy:
    """Fractions of the pace distribution to drop at either end."""

    lower_fraction: float = 0.05
    upper_fraction: float = 0.10

    def __post_init__(self):
        for name in ("lower_fraction", "upper_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.lower_fraction + self.upper_fraction >= 1.0:
            raise ValueError("lower and upper fractions must sum below 1")


def _chunks(numbered):
    """Per block of ``BLOCK_ROWS`` numbered source lines, the list of
    (line number, stripped line) of its non-blank, non-comment lines."""
    while chunk := list(islice(numbered, BLOCK_ROWS)):
        yield [(n, line) for n, raw in chunk
               if (line := raw.strip()) and not line.startswith("#")]


def _frames_alone(line: str) -> bool:
    try:
        return len(list(csv.reader([line], strict=True))) == 1
    except csv.Error:
        return False


def _framing_error(lineno: int, lines) -> InputFormatError:
    """The error of the row at ``lineno``, which does not end on its line.

    ``lines`` are the content lines from that row to the end of input. A
    quoted field may not span lines; one left open is reported at the row
    that opened it.
    """
    ended = []

    def feed():
        yield from lines
        ended.append(True)

    try:
        next(csv.reader(feed(), strict=True))
    except csv.Error as exc:
        # at the end of input a strict reader fails only on an open quote
        if not ended:
            return InputFormatError(f"row {lineno}: {exc}")
    return InputFormatError(f"row {lineno}: unterminated quoted field")


def _blocks(source):
    """Yield ``(line numbers, rows)`` for the content lines of ``source``.

    The header row comes first on its own, then the rest of each block of
    ``BLOCK_ROWS`` source lines, split by one strict CSV reader into
    unstripped fields. When a row does not end on its own line, the rows
    before it are yielded and then its InputFormatError is raised.
    """
    numbered = enumerate(source, start=1)
    header = True
    for content in _chunks(numbered):
        if not content:
            continue
        linenos, lines = zip(*content)
        try:
            rows = list(csv.reader(lines, strict=True))
            framed = len(rows) == len(lines)
        except csv.Error:
            framed = False
        if not framed:
            bad = next(i for i, line in enumerate(lines)
                       if not _frames_alone(line))
            rows = list(csv.reader(lines[:bad], strict=True))
        numbers = np.array(linenos[:len(rows)])
        if header and rows:
            yield numbers[:1], rows[:1]
            numbers, rows, header = numbers[1:], rows[1:], False
        if rows:
            yield numbers, rows
        if not framed:
            rest = (line for content in _chunks(numbered)
                    for _, line in content)
            raise _framing_error(linenos[bad], chain(lines[bad:], rest))


def _header(blocks, what: str):
    """Line number and stripped fields of the header row from ``_blocks``."""
    first = next(blocks, None)
    if first is None:
        raise InputFormatError(f"{what} file has no header row")
    (lineno,), (fields,) = first
    return lineno, [f.strip() for f in fields]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _convert(rows, width: int, text=None):
    """``(width rule, values, unparsed, texts)`` of a block's rows.

    The width rule marks the rows without ``width`` fields. ``texts`` holds
    each row's field in column ``text`` (None without one), ``values`` its
    other fields as floats, and ``unparsed`` marks those that are not
    numbers. Rows of the wrong width and fields that are not numbers read
    as NaN.
    """
    wrong = np.fromiter(map(len, rows), dtype=int, count=len(rows)) != width
    if wrong.any():
        rows = [r if len(r) == width else ["nan"] * width for r in rows]
    # one flat conversion; a nested list would cost numpy a shape search
    cells = list(chain.from_iterable(rows))
    texts = None if text is None else cells[text::width]
    if text is not None:
        del cells[text::width]
    try:
        values = np.array(cells, dtype=float)
        unparsed = np.zeros(values.shape, dtype=bool)
    except ValueError:
        unparsed = np.array([not _is_number(c) for c in cells], dtype=bool)
        cells = np.where(unparsed, "nan", np.array(cells, dtype=object))
        values = np.array(cells, dtype=float)
    shape = (len(rows), -1)
    return ((wrong, f"expected {width} fields, got {{n}}"),
            values.reshape(shape), unparsed.reshape(shape), texts)


def _field_rules(names, columns, values, unparsed):
    """The rules "is a number", then "is finite", of each named field."""
    rules = []
    finite = np.isfinite(values).T
    for name, column, bad, good in zip(names, columns, unparsed.T, finite):
        rules += [
            (bad, f"field '{name}' is not a number: {{row[{column}]!r}}"),
            (~good, f"field '{name}' must be finite, got {{row[{column}]!r}}"),
        ]
    return rules


def _check(linenos, rows, rules):
    """Raise the error of the first row of a block that breaks a rule.

    ``rules`` is an ordered list of (mask of the rows that break the rule,
    message template). A row is reported with the first rule it breaks,
    whose template is formatted with the row's stripped fields as ``row``
    and their count as ``n``.
    """
    broken = np.array([mask for mask, _ in rules])
    bad = broken.any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        fields = [f.strip() for f in rows[i]]
        template = rules[int(broken[:, i].argmax())][1]
        raise InputFormatError(
            f"row {linenos[i]}: " + template.format(row=fields, n=len(fields))
        )


def parse_trips(source, lonlat: bool = False) -> np.ndarray:
    """Parse a trip CSV into an ``(n, 6)`` float array in header order.

    ``source`` is any iterable of lines (an open file works). Rows with
    non-positive duration or distance are skipped; one warning per reason
    names the count and the first row numbers. A row whose pace
    ``duration_s / distance_km`` overflows, and anything else malformed,
    raises InputFormatError naming the row.
    """
    expected = TRIP_HEADER_LONLAT if lonlat else TRIP_HEADER_PLANAR
    blocks = _blocks(source)
    lineno, fields = _header(blocks, "trip")
    if tuple(f.lower() for f in fields) != expected:
        raise InputFormatError(
            f"row {lineno}: expected header {','.join(expected)}, "
            f"got {','.join(fields)}"
        )
    data = array("d")
    skipped = {"duration_s": 0, "distance_km": 0}
    first = {what: [] for what in skipped}
    for linenos, rows in blocks:
        width_rule, block, unparsed, _ = _convert(rows, 6)
        duration, distance = block[:, 4], block[:, 5]
        kept = (duration > 0.0) & (distance > 0.0)
        with np.errstate(all="ignore"):
            overflow = kept & ~np.isfinite(duration / distance)
        _check(linenos, rows, [
            width_rule,
            *_field_rules(expected, range(6), block, unparsed),
            (overflow, "pace duration_s / distance_km is not finite "
                       "({row[4]} / {row[5]})"),
        ])
        skips = {"duration_s": duration <= 0.0}
        skips["distance_km"] = ~skips["duration_s"] & (distance <= 0.0)
        for what, mask in skips.items():
            skipped[what] += int(mask.sum())
            first[what] += linenos[mask][:WARN_ROWS - len(first[what])].tolist()
        data.frombytes(block[kept].tobytes())
    for what, count in skipped.items():
        if count:
            more = ", ..." if count > WARN_ROWS else ""
            log.warning("skipped %d trip(s) with non-positive %s: row %s%s",
                        count, what, ", ".join(map(str, first[what])), more)
    return np.frombuffer(data, dtype=float).reshape(-1, 6)


def road_class_filter(names) -> set:
    """Lower-cased ``names``; raises ValueError unless all are road classes."""
    classes = {c.lower() for c in names}
    unknown = classes - set(ROAD_CLASSES)
    if unknown:
        raise ValueError(f"unknown road classes in filter: {sorted(unknown)}")
    return classes


def _members(names: list, kept: set) -> np.ndarray:
    """Mask of the ``names`` that are in ``kept``."""
    return np.fromiter(map(kept.__contains__, names), dtype=bool,
                       count=len(names))


def parse_network(source, class_filter=None, lonlat: bool = False) -> np.ndarray:
    """Parse a network edge CSV into an ``(n, 5)`` float array.

    The columns are ``ax, ay, bx, by, length_m``. Only segments whose class
    is in ``class_filter`` (default: all classes) are returned. Length comes
    from the optional ``length_m`` column and is otherwise computed from the
    endpoints. Zero-length segments are kept; orientation code skips them.
    """
    class_filter = (set(ROAD_CLASSES) if class_filter is None
                    else road_class_filter(class_filter))
    blocks = _blocks(source)
    lineno, fields = _header(blocks, "network")
    got = tuple(f.lower() for f in fields)
    if got not in (NETWORK_HEADER, NETWORK_HEADER + ("length_m",)):
        raise InputFormatError(
            f"row {lineno}: expected header ax,ay,bx,by,class[,length_m], "
            f"got {','.join(fields)}"
        )
    width = len(got)
    data = array("d")
    for linenos, rows in blocks:
        width_rule, values, unparsed, texts = _convert(rows, width, text=4)
        classes = [c.strip().lower() for c in texts]
        rules = [
            width_rule,
            *_field_rules(NETWORK_HEADER[:4], range(4), values, unparsed),
            (~_members(classes, set(ROAD_CLASSES)),
             "unknown road class {row[4]!r}"),
        ]
        if width == 6:
            length = values[:, 4]
            moving = ((values[:, 0] != values[:, 2])
                      | (values[:, 1] != values[:, 3]))
            rules += [
                *_field_rules(("length_m",), (5,), values[:, 4:],
                              unparsed[:, 4:]),
                (length < 0.0, "negative length_m"),
                ((length == 0.0) & moving,
                 "zero length_m but distinct endpoints"),
            ]
        _check(linenos, rows, rules)
        data.frombytes(values[_members(classes, class_filter)].tobytes())
    segments = np.frombuffer(data, dtype=float).reshape(-1, width - 1)
    if width == 5:
        segments = np.column_stack([segments, _lengths(segments, lonlat)])
    return segments


def _cos_mean_lat(rows: np.ndarray) -> np.ndarray:
    return np.cos(np.radians(0.5 * (rows[:, 1] + rows[:, 3])))


def _deltas(rows: np.ndarray, lonlat: bool):
    """Per-row (dx, dy) of the lines (x0, y0) -> (x1, y1) in the first four
    columns, dx scaled by cos(mean latitude) for lon/lat input."""
    dx = rows[:, 2] - rows[:, 0]
    dy = rows[:, 3] - rows[:, 1]
    if lonlat:
        dx = dx * _cos_mean_lat(rows)
    return dx, dy


def _lengths(segments: np.ndarray, lonlat: bool) -> np.ndarray:
    dx, dy = _deltas(segments, lonlat=False)
    if lonlat:
        # degrees to meters on the sphere, east-west scaled by cos(mean lat)
        dx = np.radians(dx) * _cos_mean_lat(segments) * EARTH_RADIUS_M
        dy = np.radians(dy) * EARTH_RADIUS_M
    return np.hypot(dx, dy)


def directions(rows: np.ndarray, *, lonlat: bool, compass: bool = False):
    """Bearings of the lines (x0, y0) -> (x1, y1) in the first four columns.

    Trip and segment arrays both qualify. Returns ``(theta, moving)``:
    ``moving`` marks the rows whose endpoints differ, and ``theta`` holds
    their bearings in [0, 2*pi), in row order. Lon/lat input is projected
    with a local equirectangular scaling, cos(mean latitude), before the
    arctan2; ``lonlat`` has no default, so it cannot silently differ from
    the one the rows were parsed with. ``compass`` reinterprets the raw
    bearing as a compass bearing (0 = north, clockwise) and converts it to
    the math convention, for inputs whose axes are swapped that way.
    """
    dx, dy = _deltas(rows, lonlat)
    moving = (dx != 0.0) | (dy != 0.0)
    raw = np.arctan2(dy[moving], dx[moving])
    return (compass_to_math(raw) if compass else wrap_angle(raw)), moving


def percentile_filter(paces, policy: FilterPolicy) -> np.ndarray:
    """Indices retained after dropping the extreme pace fractions.

    Sorts by pace ascending (a stable sort, so ties keep the original index
    order and the cut is deterministic), drops the lowest floor(lower*N) and
    highest floor(upper*N) entries, and returns the retained original
    indices in ascending order as an int array.
    """
    paces = np.asarray(paces, dtype=float)
    n = paces.size
    if n == 0:
        raise InsufficientDataError("no samples to filter")
    order = np.argsort(paces, kind="stable")
    n_low = math.floor(policy.lower_fraction * n)
    n_high = math.floor(policy.upper_fraction * n)
    kept = np.sort(order[n_low:n - n_high])
    if not kept.size:
        raise InsufficientDataError("filter removed all samples")
    return kept


def network_orientation_histogram(
    segments,
    bins: int = 32,
    length_weighted: bool = False,
    compass: bool = False,
    *,
    lonlat: bool,
) -> AngularHistogram:
    """Histogram of road orientations, aggregated in both directions.

    ``segments`` is the array ``parse_network`` returns; ``lonlat`` must be
    the value it was parsed with and has no default. Weights are segment
    counts by default, or lengths in meters with ``length_weighted``; a
    weight total that is not positive and finite raises InputFormatError.
    Zero-length segments are skipped with one warning. For even bin counts
    each segment's primary orientation is binned once and mirrored half a
    cycle on, so the result is point symmetric to the last bit.
    """
    theta, moving = directions(segments, lonlat=lonlat, compass=compass)
    skipped = len(segments) - theta.size
    if skipped:
        log.warning("skipped %d zero-length segment(s)", skipped)
    if not theta.size:
        raise InsufficientDataError("no usable segments for the network histogram")
    weights = segments[moving, 4] if length_weighted else np.ones(theta.size)
    primary = bin_index(theta, bins)
    if bins % 2 == 0:
        # bin the primary orientation once and mirror it, so point symmetry
        # holds exactly even when theta + pi falls on a bin boundary
        opposite = (primary + bins // 2) % bins
    else:
        opposite = bin_index(theta + math.pi, bins)
    both = np.column_stack([primary, opposite]).ravel()
    weights = np.repeat(weights, 2)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not 0.0 < total < math.inf:
        raise InputFormatError(
            f"segment weights sum to {total!r}; lengths must sum to a "
            "positive finite number"
        )
    values = np.bincount(both, weights=weights, minlength=bins)
    return AngularHistogram(bins, values / total)
