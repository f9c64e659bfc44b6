import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacerose.estimator import ols_fit, report_rows
from pacerose.files import csv_text, write_atomic


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "out.csv"
    write_atomic(path, (f"{i},{i * i}\n" for i in range(5)))
    assert path.read_text() == "0,0\n1,1\n2,4\n3,9\n4,16\n"
    write_atomic(path, "one string\n")
    assert path.read_text() == "one string\n"


def test_failing_chunks_keep_the_earlier_file(tmp_path):
    class Interrupted(Exception):
        pass

    def chunks():
        yield "header\n"
        raise Interrupted

    path = tmp_path / "trips.csv"
    path.write_text("earlier trips\n")
    with pytest.raises(Interrupted):
        write_atomic(path, chunks())
    assert path.read_text() == "earlier trips\n"
    assert os.listdir(tmp_path) == ["trips.csv"]


# floats the writer must keep to the bit: signed zeros, subnormals, the
# largest float and the non-finite values
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                  1.7976931348623157e308, math.inf, -math.inf, math.nan]


def reference_cell(value) -> str:
    """One cell by the per-value rule: text as it is, a bool (checked
    first: True is an int) true or false, an integer with str and any other
    number as repr(float(x))."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


@st.composite
def table(draw):
    """A row count n and 1 to 8 columns, each of a kind drawn at random:
    float, int64, range, bool and str columns of n rows, or str constants."""
    n = draw(st.integers(0, 12))
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    text = st.text()
    kinds = {
        "float": lambda: np.array(draw(st.lists(floats, min_size=n,
                                                max_size=n))),
        "int64": lambda: np.array(draw(st.lists(
            st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
            dtype=np.int64),
        "range": lambda: range(draw(st.integers(-5, 5)), 10**6)[:n],
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)), dtype=bool),
        "str": lambda: draw(st.lists(text, min_size=n, max_size=n)),
        "constant": lambda: draw(text),
    }
    # at least one sequence column: constants alone make no rows
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                          max_size=8).filter(lambda c: set(c) != {"constant"}))
    return n, names, [kinds[name]() for name in names]


class TestCsvText:
    @settings(max_examples=200, deadline=None)
    @given(case=table())
    def test_cells_follow_the_per_value_rule(self, case):
        n, names, columns = case
        reference = "".join(",".join(
            reference_cell(c if isinstance(c, str) else c[i]) for c in columns)
            + "\n" for i in range(n))
        header = [f"c{j}" for j in range(len(columns))]
        assert csv_text(columns) == reference
        assert csv_text(columns, header) == ",".join(header) + "\n" + reference
        # a one-shot iterator of columns, and one-shot columns, read once
        assert csv_text(iter(columns)) == reference
        assert csv_text([c if isinstance(c, str) else iter(c)
                         for c in columns]) == reference

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS),
                           min_size=1, max_size=20))
    def test_floats_read_back_to_the_same_bits(self, values):
        column = np.array(values)
        back = np.array([float(line) for line in csv_text((column,)).split()])
        nan = np.isnan(column)
        # repr writes every NaN as nan, whatever its sign and payload
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.int64),
                              column[~nan].view(np.int64))

    def test_report_rows_transposed_by_zip(self):
        # fit_report.csv's columns: a one-shot zip of the report's rows
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = 1.0 + 3.0 * X[:, 0] + rng.normal(size=40)
        rows = report_rows(ols_fit(X, y, ("a", "b")))
        assert {row[-1] for row in rows} == {True, False}
        header = ("name", "coefficient", "std_err", "t_value", "p_value",
                  "significant_5pct")
        expected = ",".join(header) + "\n" + "".join(
            ",".join(map(reference_cell, row)) + "\n" for row in rows)
        assert csv_text(zip(*rows), header) == expected
        assert len(expected.splitlines()) == 1 + len(rows)

    def test_constant_columns_fill_every_row(self):
        assert csv_text(("0", range(3), "1.0")) == \
            "0,0,1.0\n0,1,1.0\n0,2,1.0\n"
        assert csv_text((), ("a", "b")) == "a,b\n"
        assert csv_text(("x",)) == ""

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            csv_text((np.zeros(3), range(2)))
