"""The histogram CSV reader against the per-line reader it replaced.

``reference_read_histogram_csv`` is that reader, kept as it was. It split
lines on "," with no CSV quoting and compared the header as one line; the
block reader reads histogram files with the trip and edge grammar, which
also accepts quoted fields and blanks around header names. On every other
file both must agree: the same values to the bit, or an error naming the
file and the same row.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pacerose import ingest
from pacerose.angles import AngularHistogram
from pacerose.errors import InputFormatError, read_input

HIST_HEADER = "bin,center_rad,value"


def reference_read_histogram_csv(path: str, bins: int) -> AngularHistogram:
    values = {}
    with open(path, encoding="utf-8-sig") as f:
        header = None
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                if header.lower() != HIST_HEADER:
                    raise InputFormatError(
                        f"{path}: expected header {HIST_HEADER!r}"
                    )
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InputFormatError(f"{path} row {lineno}: expected 3 fields")
            try:
                index, value = int(parts[0]), float(parts[2])
            except ValueError as exc:
                raise InputFormatError(f"{path} row {lineno}: {exc}") from exc
            if index in values:
                raise InputFormatError(
                    f"{path} row {lineno}: repeated bin {index}"
                )
            if not 0.0 <= value < math.inf:
                raise InputFormatError(
                    f"{path} row {lineno}: value must be finite and "
                    f"nonnegative, got {parts[2].strip()!r}"
                )
            values[index] = value
    if header is None:
        raise InputFormatError(f"{path}: empty histogram file")
    if sorted(values) != list(range(bins)):
        raise InputFormatError(
            f"{path}: expected bin indices 0..{bins - 1}, got {len(values)} rows"
        )
    arr = np.array([values[i] for i in range(bins)])
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not 0.0 < total < math.inf:
        raise InputFormatError(f"{path}: histogram values sum to {total!r}")
    return AngularHistogram(bins, arr / total)


def read_histogram_csv(path, bins):
    """The CLI's reading of the histogram CSV file at ``path``."""
    return read_input(path, ingest.parse_histogram, bins)


def outcome(read, path, bins):
    """(the values' bytes, None) when ``read`` accepts the file, else
    (None, its message)."""
    try:
        return read(str(path), bins).values.tobytes(), None
    except InputFormatError as exc:
        return None, str(exc)


def bin_spellings(b):
    """Texts of bin ``b``: mostly plain, now and then another spelling
    int() reads, or one it does not."""
    return st.sampled_from([str(b)] * 6 + [
        f"+{b}", f" {b}\t", f"0{b}", f"\xa0{b}", f"{b}.0", f"{b}\x1f", "x",
        "", "1_0", "١", "-0"])


ODD_VALUES = ["+3", "3.0", "1_0", "nan", "-0.0", "inf", "-inf", "-0.25", "0",
              "1e308", "x", "", " 0.5 ", "٢", "0x10", "infinity", ".5",
              "5.", "1e", "\t2"]
ODD_CENTERS = ["x", "", "nan", "a b", "1_0", "\x1f", "'", ";", "#", "1e999"]


@st.composite
def histogram_files(draw):
    """(bins, bom, text, plain): a histogram file, whether it starts with a
    byte-order mark, and the same file without quotes or blanks around
    header names (``plain == text`` when it has neither)."""
    bins = draw(st.integers(min_value=1, max_value=6))
    # quoted fields, odd rows and blank or comment lines between rows each
    # come in some files only, so that many blocks are clean
    quoted, odd_rows, extras = (draw(st.booleans()) for _ in range(3))

    def render(fields, plain):
        if plain or not quoted:
            return ",".join(f.replace(",", ";") for f in fields)
        marks = draw(st.lists(st.booleans(), min_size=len(fields),
                              max_size=len(fields)))
        return ",".join(f'"{f}"' if q or "," in f else f
                        for f, q in zip(fields, marks))

    header = draw(st.sampled_from(
        [("bin", "center_rad", "value")] * 12
        + [("BIN", "Center_Rad", "VALUE"), (" bin ", " center_rad ", "value"),
           ("bin\t", "center_rad", "value"), ("bin", "center", "value"),
           ("bin;center_rad;value",), ("bin", "center_rad", "value", ""),
           ("bin", "center_rad")]))
    lines = [(render(header, False),
              render([name.strip() for name in header], True))]
    prefix = draw(st.lists(st.sampled_from(["", "   ", "# histogram"]),
                           max_size=2))
    lines = [(line, line) for line in prefix] + lines

    order = draw(st.permutations(range(bins)))
    mutation = draw(st.sampled_from(["none"] * 12 + [
        "missing", "repeated", "low", "high", "far", "empty"]))
    if mutation == "missing":
        order = order[1:]
    elif mutation == "repeated":
        order = order + [draw(st.sampled_from(order))]
    elif mutation in ("low", "high", "far"):
        order = order + [{"low": -1, "high": bins, "far": 99}[mutation]]
    elif mutation == "empty":
        order = []
    width = 2.0 * math.pi / bins
    for b in order:
        if extras and draw(st.integers(min_value=0, max_value=3)) == 0:
            line = draw(st.sampled_from(["", "  ", "# note, with comma"]))
            lines.append((line, line))
        odd = draw(st.integers(min_value=0, max_value=15)) if odd_rows else -1
        fields = [
            draw(bin_spellings(b)) if odd == 0 else str(b),
            draw(st.sampled_from(ODD_CENTERS)) if odd == 1
            else repr((b + 0.5) * width),
            draw(st.sampled_from(ODD_VALUES)) if odd == 2
            else repr(draw(st.sampled_from([0.0, 1.0])
                           | st.floats(min_value=1e-3, max_value=10.0))),
        ]
        if odd == 3 and quoted:
            fields[1] = "1,5"  # one field when quoted
        if odd == 4:
            fields.append("7")
        if odd == 5:
            fields.pop()
        lines.append((render(fields, False), render(fields, True)))
    text, plain = ("\n".join(part) + "\n" for part in zip(*lines))
    bom = draw(st.booleans()) and draw(st.booleans())
    return bins, bom, text, plain


def row_of(message):
    found = re.search(r" row (\d+): ", message)
    return found and found.group(1)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(histogram_files())
def test_block_reader_matches_per_line_reference(tmp_path_factory, file):
    bins, bom, text, plain = file
    tmp = tmp_path_factory.mktemp("hist")
    paths = {}
    for name, content in (("file", text), ("plain", plain)):
        paths[name] = tmp / f"{name}.csv"
        paths[name].write_bytes(b"\xef\xbb\xbf" * bom + content.encode())
    expected = outcome(reference_read_histogram_csv, paths["plain"], bins)
    if text != plain:
        # quotes and blanks around header names only widen the grammar
        widened = outcome(reference_read_histogram_csv, paths["file"], bins)
        assert widened[0] is None or widened[0] == expected[0]
    for block_rows in (1, 3, 4096):
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            got = outcome(read_histogram_csv, paths["file"], bins)
        if expected[0] is not None:
            assert got == expected
            continue
        assert got[0] is None
        assert got[1].startswith(str(paths["file"]))
        if row_of(expected[1]):
            assert row_of(got[1]) == row_of(expected[1])


def read(tmp_path, text, bins=2):
    path = tmp_path / "hist.csv"
    path.write_text(text)
    return read_histogram_csv(str(path), bins)


@pytest.mark.parametrize("text", [
    'bin,center_rad,value\n"0","0.5","1"\n1,"2,5",3\n',
    ' Bin , center_rad ,"value"\n0,x,1\n1,y,3\n',
])
def test_quoted_fields_and_spaced_header_names_are_read(tmp_path, text):
    assert read(tmp_path, text).values.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("body, message", [
    ("0,1,1\n1,2,x\n", "row 3: field 'value' is not a number: 'x'"),
    ("0,1,1\n+1,2,1\n01,2,1\n", "row 4: repeated bin 01"),
    ("0,1,1\nx,2,nan\n", "row 3: field 'bin' is not an integer: 'x'"),
    ("0,1,1\n0,2,x\n", "row 3: field 'value' is not a number: 'x'"),
    ("0,1,1\n0,2,-1\n", "row 3: repeated bin 0"),
    ("0,1,1\n1,2,-0.5\n", "row 3: value must be finite and nonnegative, "
                          "got '-0.5'"),
    ("0,1,1\n1,2\n", "row 3: expected 3 fields, got 2"),
    ("0,1,1\n5,2,1\n", "expected bin indices 0..1, got 2 rows"),
    ("0,1,0\n1,2,0\n", "histogram values sum to 0.0"),
    ("0,1,1e308\n1,2,1e308\n", "histogram values sum to inf"),
])
@pytest.mark.parametrize("block_rows", [1, 4096])
def test_messages_name_the_file_and_row(tmp_path, body, message, block_rows):
    path = tmp_path / "hist.csv"
    with mock.patch.object(ingest, "BLOCK_ROWS", block_rows), \
            pytest.raises(InputFormatError) as err:
        read(tmp_path, "bin,center_rad,value\n" + body)
    sep = " " if message.startswith("row ") else ": "
    assert str(err.value) == f"{path}{sep}{message}"


@pytest.mark.parametrize("row, reason", [
    ('1,"2,1', "unterminated quoted field"),
    ('1,"2"x,1', "',' expected after '\"'"),
])
def test_broken_quoting_in_center_rad_is_rejected(tmp_path, row, reason):
    # the per-line reader split on "," and never read center_rad
    path = tmp_path / "hist.csv"
    path.write_text(f"bin,center_rad,value\n0,1,1\n{row}\n")
    reference = reference_read_histogram_csv(str(path), 2)
    assert reference.values.tolist() == [0.5, 0.5]
    with pytest.raises(InputFormatError) as err:
        read_histogram_csv(str(path), 2)
    assert str(err.value) == f"{path} row 3: {reason}"


@pytest.mark.parametrize("block_rows", [1, 3, 4096])
@pytest.mark.parametrize("where, row", [("header", 1), ("row", 3)])
@pytest.mark.parametrize("after", ["bad-closing-quote", "128-kib-of-rows"])
def test_open_quote_is_judged_on_its_own_line(tmp_path, block_rows, where,
                                              row, after):
    # a reader that lets the quote run on names the open row with a fault
    # of a later row, or with the field size limit of 128 KiB
    rest = (['1,2,1"x', "1,2,1"] if after == "bad-closing-quote"
            else [f"{b},2000.25,3000.25" for b in range(1, 10_000)])
    lines = (['bin,center_rad,"value'] if where == "header"
             else [HIST_HEADER, "0,1,1", '1,2,"1'])
    path = tmp_path / "hist.csv"
    path.write_text("\n".join(lines + rest) + "\n")
    with mock.patch.object(ingest, "BLOCK_ROWS", block_rows), \
            pytest.raises(InputFormatError) as err:
        read_histogram_csv(str(path), 2)
    assert str(err.value) == f"{path} row {row}: unterminated quoted field"


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n\n", "histogram file has no header row"),
    ("bin,center,value\n0,1,1\n", "row 1: expected header "
                                  "bin,center_rad,value, got bin,center,value"),
])
def test_header_errors_name_the_file(tmp_path, text, message):
    with pytest.raises(InputFormatError) as err:
        read(tmp_path, text)
    sep = " " if message.startswith("row ") else ": "
    assert str(err.value) == f"{tmp_path / 'hist.csv'}{sep}{message}"


def test_clean_block_breaking_a_rule_is_judged_once(tmp_path):
    # a clean block that breaks the repeated-bin rule is judged on the
    # loadtxt reader's values alone; the CSV reader does not read it again
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(ingest, "_convert",
                              wraps=ingest._convert) as convert, \
            pytest.raises(InputFormatError) as err:
        read(tmp_path, "bin,center_rad,value\n0,1,1\n1,2,1\n1,3,1\n")
    assert loadtxt.call_count == 1
    assert convert.call_count == 0
    assert str(err.value).endswith("row 4: repeated bin 1")


def test_clean_file_takes_one_loadtxt_call(tmp_path):
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(ingest, "_convert",
                              wraps=ingest._convert) as convert:
        hist = read(tmp_path, "bin,center_rad,value\n1,2,3\n0,1,1\n")
    assert (loadtxt.call_count, convert.call_count) == (1, 0)
    assert hist.values.tolist() == [0.25, 0.75]
