"""Trip-log, road-network and histogram CSV ingestion into float arrays.

File formats (UTF-8, comma separated, '.' decimal, blank lines and
'#'-prefixed lines ignored):

* trips:     header ``origin_x,origin_y,dest_x,dest_y,duration_s,distance_km``
             (planar meters) or, for lon/lat input in degrees,
             ``origin_lon,origin_lat,dest_lon,dest_lat,duration_s,distance_km``
* network:   header ``ax,ay,bx,by,class[,length_m]``; class is one of
             motorway, trunk, primary, secondary, other (case-insensitive)
* histogram: header ``bin,center_rad,value``; ``center_rad`` is not read

``parse_trips`` returns an ``(n, 6)`` float array in header order,
``parse_network`` an ``(n, 5)`` array ``ax, ay, bx, by, length_m`` of the
segments in the kept classes, and ``parse_histogram`` the histogram, its
values divided by their sum. All three read ``BLOCK_ROWS`` source lines at a
time, so no string fields outlive their block. A clean block, one whose
every line is a row of the header's width, with no quote, NUL or
``\x1c``-``\x1f`` character, is read by one ``np.loadtxt`` call at C
speed. Any other block is split by one strict CSV reader and converted by
one numpy call. Either way a block is read once and judged once: each row
rule is one entry, a row mask and a message template, of an ordered table,
and a block's first bad row is named with its first broken rule. Both
readers give the same bits, so which one read a block never shows. Each
line's framing is judged by that line alone: a quoted field may not span
lines, so a line that ends inside a quote is rejected as ``row N:
unterminated quoted field``, and a line with a NUL as ``row N: line
contains NUL``.
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
import re
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .angles import (
    AngularHistogram,
    TotalError,
    build_histogram,
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
HISTOGRAM_HEADER = ("bin", "center_rad", "value")

EARTH_RADIUS_M = 6371000.0

# row numbers named in a skipped-row warning
WARN_ROWS = 5

# source lines read by one np.loadtxt call, or else split by one CSV reader
# call and converted by one numpy call
BLOCK_ROWS = 4096

# the blanks float() and int() ignore around a number: str.strip() also
# drops \x1c-\x1f, which they reject
_BLANKS = re.compile(r"^[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+$")

__all__ = [
    "ROAD_CLASSES",
    "FilterPolicy",
    "directions",
    "network_orientation_histogram",
    "parse_histogram",
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


def _source_blocks(source):
    """Yield ``(number of the first line, lines)`` per block of
    ``BLOCK_ROWS`` source lines."""
    source = iter(source)
    first = 1
    while lines := list(islice(source, BLOCK_ROWS)):
        yield first, lines
        first += len(lines)


def _content(first: int, lines):
    """Yield (line number, stripped line) of the non-blank, non-comment
    lines of a block that starts at line ``first``."""
    return ((n, line) for n, raw in enumerate(lines, start=first)
            if (line := raw.strip()) and not line.startswith("#"))


def _row_error(line: str):
    """None when the stripped content ``line`` is one CSV row, else why not:
    ``line contains NUL``, ``unterminated quoted field`` when the line ends
    inside a quote, or the strict CSV reader's error. A quoted field may not
    span lines, so each line is judged alone. NUL is looked for here: only
    some Pythons' CSV readers reject it."""
    if "\x00" in line:
        return "line contains NUL"
    # a quote the line leaves open is closed on the second line
    reader = csv.reader([line, '"'], strict=True)
    try:
        next(reader)
    except csv.Error as exc:
        return str(exc)
    return None if reader.line_num == 1 else "unterminated quoted field"


def _header(source, what: str, accepted, shown=None):
    """The header row of ``source`` and the source lines after it.

    The header's stripped, lower-cased fields must be one of the
    ``accepted`` tuples; the error names ``shown``, or the first of them.
    Returns those fields and the blocks ``(number of the first line,
    lines)`` of the rest of the input.
    """
    blocks = _source_blocks(source)
    for first, lines in blocks:
        for lineno, line in _content(first, lines):
            reason = _row_error(line)
            if reason:
                raise InputFormatError(f"row {lineno}: {reason}")
            fields = [f.strip() for f in next(csv.reader([line]))]
            got = tuple(f.lower() for f in fields)
            if got not in accepted:
                shown = shown or ",".join(accepted[0])
                raise InputFormatError(f"row {lineno}: expected header "
                                       f"{shown}, got {','.join(fields)}")
            return got, chain([(lineno + 1, lines[lineno - first + 1:])],
                              blocks)
    raise InputFormatError(f"{what} file has no header row")


def _loadtxt(lines, width: int, text=None):
    """``(values, texts)`` of a block of source lines, read by one
    ``np.loadtxt`` call, or None when the CSV reader must read the block.

    As ``_convert`` gives them for a block whose every line is a row of
    ``width`` fields, all of them numbers but the text field in column
    ``text``. None when a line is blank, a comment or of another width, a
    field is not a number to ``np.loadtxt``, or a text field may have been
    cut; a block ``np.loadtxt`` reads is read to the same bits as ``float``
    would read it.
    """
    # quotes are the CSV reader's to frame, np.loadtxt drops NUL from the
    # end of a text field and reads \x1c-\x1f as blanks where float()
    # rejects them, and it warns when it finds no row at all
    csv_only = '"\x00\x1c\x1d\x1e\x1f'
    joined = "".join(lines)
    if not joined.strip() or any(c in joined for c in csv_only):
        return None
    if text is None:
        dtype, ndmin = float, 2
    else:
        dtype, ndmin = [("head", float, (text,)), ("text", "U16"),
                        ("tail", float, (width - text - 1,))], 1
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                           ndmin=ndmin)
    except ValueError:
        return None
    # np.loadtxt reads no row from an empty line
    if len(table) != len(lines):
        return None
    if text is None:
        return (table, None) if table.shape[1] == width else None
    texts = table["text"].tolist()
    # a text field that fills all 16 characters may have been cut to fit
    if max(map(len, set(texts))) == 16:
        return None
    return np.concatenate([table["head"], table["tail"]], axis=1), texts


def _rows(blocks, width: int, judge, text=None):
    """Yield ``(line numbers, values, kept)`` per block of ``blocks``.

    ``judge(values, unparsed, texts)`` gives the ordered rules of a block,
    after the width rule, and what the caller keeps of it, such as the
    mask of its rows to keep (see ``_convert`` for the arguments). A block
    is read by one ``np.loadtxt`` call when it can be, and otherwise its
    content lines by one strict CSV reader; either way it is judged once
    and checked once with ``_check``. When a line is not one row of its
    own, the rows before it are checked and then its InputFormatError is
    raised.
    """
    for first, lines in blocks:
        fast = _loadtxt(lines, width, text)
        framing = None
        if fast is not None:
            values, texts = fast
            linenos = first + np.arange(len(lines))
            unparsed = np.zeros(values.shape, dtype=bool)
            rules = []
        else:
            content = list(_content(first, lines))
            linenos = np.array([n for n, _ in content], dtype=int)
            lines = [line for _, line in content]
            # a line that is not one row, NUL included, is named by
            # _row_error
            try:
                rows = ([] if "\x00" in "".join(lines)
                        else list(csv.reader(lines, strict=True)))
            except csv.Error:
                rows = []
            if len(rows) != len(lines):
                bad, reason = next((i, reason) for i, line in enumerate(lines)
                                   if (reason := _row_error(line)))
                framing = InputFormatError(f"row {linenos[bad]}: {reason}")
                linenos, lines = linenos[:bad], lines[:bad]
                rows = list(csv.reader(lines))
            width_rule, values, unparsed, texts = _convert(rows, width, text)
            rules = [width_rule]
        judged, kept = judge(values, unparsed, texts)
        _check(linenos, lines, rules + judged)
        if framing:
            raise framing
        yield linenos, values, kept


def _parsed(parse, text: str):
    """``parse(text)``, or None when ``parse`` does not read ``text``."""
    try:
        return parse(text)
    except ValueError:
        return None


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
        unparsed = np.array([_parsed(float, c) is None for c in cells],
                            dtype=bool)
        cells = np.where(unparsed, "nan", np.array(cells, dtype=object))
        values = np.array(cells, dtype=float)
    shape = (len(rows), width - (text is not None))
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


def _latitude_rules(header, values, lonlat: bool):
    """For lon/lat input, the rule "is in [-90, 90]" of the latitudes,
    fields 1 and 3 of ``header``."""
    return [(np.abs(values[:, column]) > 90.0,
             f"field '{header[column]}' must be in [-90, 90], "
             f"got {{row[{column}]!r}}") for column in (1, 3) if lonlat]


def _check(linenos, lines, rules):
    """Raise the error of the first row of a block that breaks a rule.

    ``lines`` are the block's rows, one source line each. ``rules`` is an
    ordered list of (mask of the rows that break the rule, message
    template). A row is reported with the first rule it breaks, whose
    template is formatted with the fields of its line, without the blanks
    around them, as ``row`` and their count as ``n``.
    """
    broken = np.array([mask for mask, _ in rules])
    bad = broken.any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        row = next(csv.reader([lines[i].strip()]))
        fields = [_BLANKS.sub("", f) for f in row]
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
    _, blocks = _header(source, "trip", [expected])

    def judge(block, unparsed, _):
        duration, distance = block[:, 4], block[:, 5]
        skips = {"duration_s": duration <= 0.0}
        skips["distance_km"] = ~skips["duration_s"] & (distance <= 0.0)
        kept = ~(skips["duration_s"] | skips["distance_km"])
        with np.errstate(all="ignore"):
            overflow = kept & ~np.isfinite(duration / distance)
        return [
            *_field_rules(expected, range(6), block, unparsed),
            *_latitude_rules(expected, block, lonlat),
            (overflow, "pace duration_s / distance_km is not finite "
                       "({row[4]} / {row[5]})"),
        ], (kept, skips)

    data = array("d")
    skipped = {"duration_s": 0, "distance_km": 0}
    first = {what: [] for what in skipped}
    for linenos, block, (kept, skips) in _rows(blocks, 6, judge):
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


def _members(texts: list, kept) -> np.ndarray:
    """Mask of the ``texts`` that name a class in ``kept`` once stripped and
    lower-cased; each distinct text is looked at once."""
    member = {t: t.strip().lower() in kept for t in set(texts)}
    return np.fromiter(map(member.__getitem__, texts), dtype=bool,
                       count=len(texts))


def parse_network(source, class_filter=None, lonlat: bool = False) -> np.ndarray:
    """Parse a network edge CSV into an ``(n, 5)`` float array.

    The columns are ``ax, ay, bx, by, length_m``. Only segments whose class
    is in ``class_filter`` (default: all classes) are returned. Length comes
    from the optional ``length_m`` column and is otherwise computed from the
    endpoints. Zero-length segments are kept; orientation code skips them.
    """
    class_filter = (set(ROAD_CLASSES) if class_filter is None
                    else road_class_filter(class_filter))
    got, blocks = _header(source, "network",
                          [NETWORK_HEADER, NETWORK_HEADER + ("length_m",)],
                          "ax,ay,bx,by,class[,length_m]")
    width = len(got)

    def judge(values, unparsed, texts):
        rules = [
            *_field_rules(NETWORK_HEADER[:4], range(4), values, unparsed),
            *_latitude_rules(NETWORK_HEADER, values, lonlat),
            (~_members(texts, ROAD_CLASSES),
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
        return rules, _members(texts, class_filter)

    data = array("d")
    for _, values, kept in _rows(blocks, width, judge, text=4):
        data.frombytes(values[kept].tobytes())
    segments = np.frombuffer(data, dtype=float).reshape(-1, width - 1)
    if width == 5:
        segments = np.column_stack([segments, _lengths(segments, lonlat)])
    return segments


def parse_histogram(source, bins: int) -> AngularHistogram:
    """Parse a histogram CSV of ``bins`` bins; values are divided by their sum.

    ``source`` is any iterable of lines. A row's bin must be an integer
    ``int`` reads, its value a number, its bin new and its value finite and
    nonnegative, in that order; ``center_rad`` is not read. Then the bins
    must be exactly 0..bins-1 and the values must have a positive finite sum.
    """
    _, blocks = _header(source, "histogram", [HISTOGRAM_HEADER])
    values = {}

    def judge(block, unparsed, texts):
        index = [_parsed(int, t) for t in texts]
        earlier, repeated = set(values), []
        for i in index:
            repeated.append(i is not None and i in earlier)
            earlier.add(i)
        value = block[:, 1]
        return [
            (np.array([i is None for i in index], dtype=bool),
             "field 'bin' is not an integer: {row[0]!r}"),
            _field_rules(("value",), (2,), block[:, 1:], unparsed[:, 1:])[0],
            (np.array(repeated, dtype=bool), "repeated bin {row[0]}"),
            (~((value >= 0.0) & (value < math.inf)),
             "value must be finite and nonnegative, got {row[2]!r}"),
        ], index

    for _, block, index in _rows(blocks, 3, judge, text=0):
        values.update(zip(index, block[:, 1].tolist()))
    if len(values) != bins or any(i not in values for i in range(bins)):
        raise InputFormatError(
            f"expected bin indices 0..{bins - 1}, got {len(values)} rows")
    return AngularHistogram.from_weights([values[i] for i in range(bins)])


def _cos_mean_lat(rows: np.ndarray) -> np.ndarray:
    return np.cos(np.radians(0.5 * (rows[:, 1] + rows[:, 3])))


def _deltas(rows: np.ndarray, lonlat: bool):
    """Per-row (dx, dy) of the lines (x0, y0) -> (x1, y1) in the first four
    columns. A difference beyond the float range is infinite, with no
    warning. For lon/lat input, a finite dx beyond 180 degrees either way
    is taken the short way round, less the multiple of 360 degrees that
    brings it into [-180, 180]; ``fmod`` and the one step of 360 are exact.
    """
    with np.errstate(over="ignore"):
        dx = rows[:, 2] - rows[:, 0]
        dy = rows[:, 3] - rows[:, 1]
    if lonlat:
        far = np.flatnonzero((np.abs(dx) > 180.0) & np.isfinite(dx))
        if far.size:
            wrapped = np.fmod(dx[far], 360.0)
            wrapped[wrapped > 180.0] -= 360.0
            wrapped[wrapped < -180.0] += 360.0
            dx[far] = wrapped
    return dx, dy


def _lengths(segments: np.ndarray, lonlat: bool) -> np.ndarray:
    dx, dy = _deltas(segments, lonlat)
    with np.errstate(over="ignore"):
        if lonlat:
            # degrees to meters on the sphere, east-west scaled by
            # cos(mean lat)
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
    if lonlat:
        dx = dx * _cos_mean_lat(rows)
    moving = (dx != 0.0) | (dy != 0.0)
    raw = np.arctan2(dy[moving], dx[moving])
    return (compass_to_math(raw) if compass else wrap_angle(raw)), moving


def percentile_filter(paces, policy: FilterPolicy) -> np.ndarray:
    """Indices retained after dropping the extreme pace fractions.

    The indices a stable sort by pace ascending keeps (ties in the original
    index order, so the cut is deterministic; NaN last) after dropping the
    lowest floor(lower*N) and highest floor(upper*N) entries, in ascending
    order as an int array. Found in O(N) without the sort: one partition
    gives the paces at the first and last kept rank, every pace strictly
    between them is kept, and each threshold's ties are kept in index order
    for the ranks they cover.
    """
    paces = np.asarray(paces, dtype=float)
    n = paces.size
    if n == 0:
        raise InsufficientDataError("no samples to filter")
    first = math.floor(policy.lower_fraction * n)
    stop = n - math.floor(policy.upper_fraction * n)
    if first >= stop:
        raise InsufficientDataError("filter removed all samples")
    low, high = np.partition(paces, [first, stop - 1])[[first, stop - 1]]
    keep = (paces > low) & _sorts_before(paces, high)
    for threshold in (low, high):
        ties = np.flatnonzero(_ties(paces, threshold))
        rank = np.count_nonzero(_sorts_before(paces, threshold))
        keep[ties[max(first - rank, 0):stop - rank]] = True
    return np.flatnonzero(keep)


def _sorts_before(paces, threshold):
    """Where a sort puts the pace before ``threshold``; NaN sorts last."""
    return ~np.isnan(paces) if math.isnan(threshold) else paces < threshold


def _ties(paces, threshold):
    return np.isnan(paces) if math.isnan(threshold) else paces == threshold


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
    Zero-length segments are skipped with one warning. Each orientation is
    also counted half a turn on (``build_histogram``'s ``point_symmetric``).
    """
    theta, moving = directions(segments, lonlat=lonlat, compass=compass)
    skipped = len(segments) - theta.size
    if skipped:
        log.warning("skipped %d zero-length segment(s)", skipped)
    if not theta.size:
        raise InsufficientDataError("no usable segments for the network histogram")
    weights = segments[moving, 4] if length_weighted else None
    try:
        return build_histogram(theta, weights, bins, point_symmetric=True)
    except TotalError as exc:
        raise InputFormatError(
            f"segment weights sum to {exc.total!r}; lengths must sum to a "
            "positive finite number") from None
