import csv
import io
import logging
import math
import tracemalloc
from itertools import chain, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacerose import ingest
from pacerose.angles import TWO_PI, build_histogram, wrap_angle
from pacerose.cli import RunConfig, _trips
from pacerose.errors import InputFormatError, InsufficientDataError, read_input
from pacerose.ingest import (
    EARTH_RADIUS_M,
    ROAD_CLASSES,
    TRIP_HEADER_LONLAT,
    TRIP_HEADER_PLANAR,
    FilterPolicy,
    directions,
    network_orientation_histogram,
    parse_network,
    parse_trips,
    percentile_filter,
)

TRIP_HEADER = "origin_x,origin_y,dest_x,dest_y,duration_s,distance_km"
NET_HEADER = "ax,ay,bx,by,class"


def trips_from(text):
    return parse_trips(io.StringIO(text))


def trip_row(ox, oy, dx, dy, duration=60.0, distance=1.0):
    return np.array([[ox, oy, dx, dy, duration, distance]], dtype=float)


def trip_direction(ox, oy, dx, dy, lonlat=False, compass=False):
    theta, moving = directions(trip_row(ox, oy, dx, dy), lonlat=lonlat,
                               compass=compass)
    assert moving.tolist() == [True]
    return float(theta[0])


def segment(ax, ay, bx, by, length=None):
    if length is None:
        length = math.hypot(bx - ax, by - ay)
    return [ax, ay, bx, by, length]


class TestParseTrips:
    def test_single_row(self):
        trips = trips_from(f"{TRIP_HEADER}\n0,0,1000,1000,600,1.5\n")
        assert len(trips) == 1
        assert trips[0, 4] == 600.0
        assert trips[0, 5] == 1.5

    def test_zero_duration_skipped_with_diagnostic(self, caplog):
        with caplog.at_level(logging.WARNING):
            trips = trips_from(f"{TRIP_HEADER}\n0,0,1,1,0,1.0\n0,0,1,1,60,1.0\n")
        assert len(trips) == 1
        assert any("row 2" in r.message for r in caplog.records)

    def test_header_only_gives_empty_list(self):
        assert trips_from(f"{TRIP_HEADER}\n").shape == (0, 6)

    def test_malformed_header(self):
        with pytest.raises(InputFormatError):
            trips_from("x,y,z\n1,2,3\n")

    def test_unparseable_row_names_row_and_field(self):
        with pytest.raises(InputFormatError) as err:
            trips_from(f"{TRIP_HEADER}\n0,0,1,oops,60,1.0\n")
        assert "row 2" in str(err.value)
        assert "dest_y" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        text = f"# trip log\n\n{TRIP_HEADER}\n# a comment\n0,0,1,1,60,1.0\n\n"
        assert len(trips_from(text)) == 1

    def test_lonlat_header(self):
        text = ("origin_lon,origin_lat,dest_lon,dest_lat,duration_s,"
                "distance_km\n139.7,35.7,139.8,35.8,600,12\n")
        trips = parse_trips(io.StringIO(text), lonlat=True)
        assert trips.tolist() == [[139.7, 35.7, 139.8, 35.8, 600.0, 12.0]]

    def test_empty_file_rejected(self):
        with pytest.raises(InputFormatError):
            trips_from("")

    def test_skip_warning_per_reason_names_count_and_first_rows(self, caplog):
        rows = ["0,0,1,1,60,1.0"] * 10
        for i in (1, 3, 4, 5, 6, 7, 8):
            rows[i] = "0,0,1,1,0,1.0"
        rows[9] = "0,0,1,1,-5,0"
        rows[2] = "0,0,1,1,60,-1e-3"
        with caplog.at_level(logging.WARNING):
            trips = trips_from(TRIP_HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(trips) == 1
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            "skipped 8 trip(s) with non-positive duration_s: "
            "row 3, 5, 6, 7, 8, ...",
            "skipped 1 trip(s) with non-positive distance_km: row 4",
        ]

    def test_skipped_rows_are_counted_not_kept(self):
        lines = chain([TRIP_HEADER], repeat("0,0,1,1,0,1", 200_000),
                      ["0,0,1,1,60,1"])
        tracemalloc.start()
        try:
            trips, warnings = logged_warnings(parse_trips, lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trips.tolist() == [[0.0, 0.0, 1.0, 1.0, 60.0, 1.0]]
        assert warnings == ["skipped 200000 trip(s) with non-positive "
                            "duration_s: row 2, 3, 4, 5, 6, ..."]
        assert peak < 5e6

    def test_first_bad_row_in_file_order_is_named(self):
        good = "0,0,1,1,60,1.0"
        text = f"{TRIP_HEADER}\n{good}\n0,0,1,oops,60,1.0\n{good}\n0,inf,1,1,60,1\n"
        with pytest.raises(InputFormatError) as err:
            trips_from(text)
        assert str(err.value) == "row 3: field 'dest_y' is not a number: 'oops'"
        text = f"{TRIP_HEADER}\n{good}\n 0, inf ,1,1,60,1\n0,0,1,oops,60,1.0\n"
        with pytest.raises(InputFormatError) as err:
            trips_from(text)
        assert str(err.value) == "row 3: field 'origin_y' must be finite, got 'inf'"

    @pytest.mark.parametrize("body, row", [
        ('0,0,1,1,60,"1\n0,0,1,1,60,1\n', 2),
        ('0,0,1,1,60,"1\n0,0,1,1,60,1"\n0,0,1,1,60,1\n', 2),
        ('0,0,1,1,60,1\n0,0,1,1,60,"1\n', 3),
        ('0,0,1,1,60,1\n0,0,1,1,60,"1\n# comment\n\n', 3),
    ])
    def test_unterminated_quote_names_its_row(self, body, row):
        with pytest.raises(InputFormatError) as err:
            trips_from(f"{TRIP_HEADER}\n{body}")
        assert str(err.value) == f"row {row}: unterminated quoted field"

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
    def test_first_error_precedes_a_later_open_quote(self, block_rows):
        text = (f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,0,1,oops,60,1\n"
                '0,0,1,1,60,1\n0,0,"1,1,60,1\n')
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            with pytest.raises(InputFormatError) as err:
                trips_from(text)
            assert str(err.value) == (
                "row 3: field 'dest_y' is not a number: 'oops'")
            with pytest.raises(InputFormatError) as err:
                trips_from("x,y\n" + text)
            assert str(err.value).startswith("row 1: expected header")

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    @pytest.mark.parametrize("text, message", [
        (f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,0,1,1,60,1\x00\n0,0,1,x,60,1\n",
         "row 3: line contains NUL"),
        (f"{TRIP_HEADER}\n0,0,1,x,60,1\n0,0,1,1,60,1\x00\n",
         "row 2: field 'dest_y' is not a number: 'x'"),
        (f"{TRIP_HEADER}\x00\n0,0,1,1,60,1\n", "row 1: line contains NUL"),
    ], ids=["row", "after-a-bad-row", "header"])
    def test_nul_line_is_named_in_file_order(self, block_rows, text, message):
        # on every Python, as the csv module of Python 3.10 does by itself
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            with pytest.raises(InputFormatError) as err:
                trips_from(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("block_rows", [1, 4096])
    @pytest.mark.parametrize("body, message", [
        ("nan,0,1,1,1e300,x", "row 2: field 'origin_x' must be finite, got 'nan'"),
        # the earlier row is named although it breaks a later rule
        ("0,0,1,1,1e300,1e-300\n0,0,1,1,x,1\n0,0,1",
         "row 2: pace duration_s / distance_km is not finite (1e300 / 1e-300)"),
    ], ids=["finite-before-number", "earlier-row-first"])
    def test_rule_precedence(self, block_rows, body, message):
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            with pytest.raises(InputFormatError) as err:
                trips_from(f"{TRIP_HEADER}\n{body}\n")
        assert str(err.value) == message

    def test_overflowing_pace_rejected(self):
        with pytest.raises(InputFormatError) as err:
            trips_from(f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,0,1,1,1e300,1e-300\n")
        assert "row 3" in str(err.value)


class TestParseNetwork:
    def test_class_filter_keeps_matching(self):
        text = f"{NET_HEADER}\n0,0,100,0,primary\n0,0,0,50,other\n"
        segments = parse_network(io.StringIO(text), class_filter={"primary"})
        assert len(segments) == 1
        assert segments[0, 4] == pytest.approx(100.0)

    def test_class_filter_excludes(self):
        text = f"{NET_HEADER}\n0,0,100,0,primary\n"
        assert len(parse_network(io.StringIO(text),
                                 class_filter={"motorway"})) == 0

    def test_class_case_insensitive(self):
        text = f"{NET_HEADER}\n0,0,100,0,PRIMARY\n"
        segments = parse_network(io.StringIO(text), class_filter={"primary"})
        assert len(segments) == 1

    def test_zero_length_flagged(self):
        text = f"{NET_HEADER}\n5,5,5,5,trunk\n"
        segments = parse_network(io.StringIO(text))
        assert directions(segments, lonlat=False)[1].tolist() == [False]
        assert segments[0, 4] == 0.0

    def test_length_column_used(self):
        text = f"{NET_HEADER},length_m\n0,0,3,4,primary,7.5\n"
        segments = parse_network(io.StringIO(text))
        assert segments[0, 4] == 7.5

    def test_length_computed_when_absent(self):
        text = f"{NET_HEADER}\n0,0,3,4,primary\n"
        segments = parse_network(io.StringIO(text))
        assert segments[0, 4] == pytest.approx(5.0)

    def test_unknown_class_rejected(self):
        text = f"{NET_HEADER}\n0,0,1,1,footpath\n"
        with pytest.raises(InputFormatError) as err:
            parse_network(io.StringIO(text))
        assert "row 2" in str(err.value)

    def test_zero_length_with_distinct_endpoints_rejected(self):
        text = f"{NET_HEADER},length_m\n0,0,1,1,primary,0\n"
        with pytest.raises(InputFormatError):
            parse_network(io.StringIO(text))

    @pytest.mark.parametrize("block_rows", [1, 4096])
    @pytest.mark.parametrize("body, message", [
        ("0,x,inf,1,footpath,-1", "row 2: field 'ay' is not a number: 'x'"),
        ("0,0,inf,1,footpath,-1", "row 2: field 'bx' must be finite, got 'inf'"),
        ("0,0,1,1,footpath,-1", "row 2: unknown road class 'footpath'"),
        ("0,0,1,1,primary,-1", "row 2: negative length_m"),
        ("0,0,1,1,primary", "row 2: expected 6 fields, got 5"),
        # the earlier row is named although it breaks a later rule
        ("0,0,1,1,primary,0\nx,0,1,1,primary,1\n0,0",
         "row 2: zero length_m but distinct endpoints"),
    ], ids=["number-before-finite", "finite-before-class",
            "class-before-length", "negative-length", "field-count",
            "earlier-row-first"])
    def test_rule_precedence(self, block_rows, body, message):
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            with pytest.raises(InputFormatError) as err:
                parse_network(io.StringIO(f"{NET_HEADER},length_m\n{body}\n"))
        assert str(err.value) == message

    def test_lonlat_length_in_meters(self):
        # one degree of latitude is ~111.2 km on a 6371 km sphere
        text = f"{NET_HEADER}\n139.7,35.7,139.7,36.7,primary\n"
        segments = parse_network(io.StringIO(text), lonlat=True)
        assert segments[0, 4] == pytest.approx(111195, rel=1e-3)

    def test_lonlat_length_across_the_antimeridian(self):
        # 0.02 degrees of longitude at latitude -17, not 359.98
        text = f"{NET_HEADER}\n179.99,-17.0,-179.99,-17.0,primary\n"
        segments = parse_network(io.StringIO(text), lonlat=True)
        expected = (EARTH_RADIUS_M * math.radians(0.02)
                    * math.cos(math.radians(17.0)))
        assert segments[0, 4] == pytest.approx(expected, rel=1e-9)
        assert 2126.0 < segments[0, 4] < 2128.0

    @pytest.mark.parametrize("row, field, value", [
        ("10,100,10.01,100,primary", "ay", "100"),
        ("10,45,10.01,-90.5,primary", "by", "-90.5"),
    ])
    def test_lonlat_latitude_beyond_a_pole_rejected(self, row, field, value):
        with pytest.raises(InputFormatError) as err:
            parse_network(io.StringIO(f"{NET_HEADER}\n0,0,1,1,primary\n{row}\n"),
                          lonlat=True)
        assert str(err.value) == (
            f"row 3: field '{field}' must be in [-90, 90], got '{value}'")
        # planar coordinates have no such range
        assert len(parse_network(io.StringIO(f"{NET_HEADER}\n{row}\n"))) == 1


class TestTripDirection:
    def test_due_east(self):
        assert trip_direction(0, 0, 1, 0) == 0.0

    def test_due_north(self):
        assert trip_direction(0, 0, 0, 1) == pytest.approx(math.pi / 2)

    def test_southwest(self):
        assert trip_direction(0, 0, -1, -1) == pytest.approx(5 * math.pi / 4)

    def test_degenerate_rejected(self):
        theta, moving = directions(trip_row(3, 4, 3, 4), lonlat=False)
        assert theta.size == 0
        assert moving.tolist() == [False]

    def test_compass_convention(self):
        # +x reinterpreted as north: due-"east" input becomes pi/2
        assert trip_direction(0, 0, 1, 0, compass=True) == (
            pytest.approx(math.pi / 2)
        )

    def test_lonlat_eastward(self):
        theta = trip_direction(139.70, 35.70, 139.71, 35.70, lonlat=True)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_lonlat_northward(self):
        theta = trip_direction(139.70, 35.70, 139.70, 35.71, lonlat=True)
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("ox, dx, expected", [
        (179.99, -179.99, 0.0),  # 0.02 degrees east across the antimeridian
        (-179.99, 179.99, math.pi),
        (10.0, -709.99, 0.0),  # 0.01 degrees east, less two turns
        (0.0, -180.0, math.pi),  # half a turn is not wrapped
    ])
    def test_lonlat_longitude_taken_the_short_way(self, ox, dx, expected):
        theta = trip_direction(ox, -17.0, dx, -17.0, lonlat=True)
        assert theta == pytest.approx(expected, abs=1e-12)

    def test_lonlat_within_half_a_turn_keeps_its_bits(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack([rng.uniform([-89.9, -80, -89.9, -80],
                                            [89.9, 80, 89.9, 80], (500, 4)),
                                np.ones((500, 2))])
        theta, moving = directions(rows, lonlat=True)
        dx = (rows[:, 2] - rows[:, 0]) * np.cos(
            np.radians(0.5 * (rows[:, 1] + rows[:, 3])))
        assert moving.all()
        assert theta.tolist() == wrap_angle(
            np.arctan2(rows[:, 3] - rows[:, 1], dx)).tolist()

    @pytest.mark.parametrize("row, field, value", [
        ("10,100,10.01,100,60,1", "origin_lat", "100"),
        ("10,45,10.01,-91,60,1", "dest_lat", "-91"),
        # a skipped trip is checked too
        ("10,45,10.01,90.000001,0,1", "dest_lat", "90.000001"),
    ])
    def test_lonlat_latitude_beyond_a_pole_rejected(self, row, field, value):
        header = ",".join(TRIP_HEADER_LONLAT)
        with pytest.raises(InputFormatError) as err:
            parse_trips(io.StringIO(f"{header}\n{row}\n"), lonlat=True)
        assert str(err.value) == (
            f"row 2: field '{field}' must be in [-90, 90], got '{value}'")
        # planar coordinates have no such range
        trips_from(f"{TRIP_HEADER}\n{row}\n")

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3))
    def test_reverse_is_opposite(self, ox, oy, dx, dy):
        if ox == dx and oy == dy:
            return
        forward = trip_direction(ox, oy, dx, dy)
        backward = trip_direction(dx, dy, ox, oy)
        assert backward == pytest.approx(wrap_angle(forward + math.pi),
                                         abs=2e-15)


class TestPace:
    def paces(self, *rows):
        text = TRIP_HEADER + "\n" + "\n".join(
            f"0,0,1,1,{duration!r},{distance!r}" for duration, distance in rows
        ) + "\n"
        trips = trips_from(text)
        return trips[:, 4] / trips[:, 5]

    def test_examples(self):
        assert self.paces((600.0, 5.0), (120.0, 1.0)).tolist() == [120.0, 120.0]

    def test_zero_distance_unconstructible(self):
        assert self.paces((3600.0, 0.0)).size == 0

    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=0.5, max_value=8.0))
    def test_scale_consistent(self, duration, distance, factor):
        base, scaled = self.paces((duration, distance),
                                  (duration * factor, distance * factor))
        assert scaled == pytest.approx(base, rel=1e-12)


def stable_argsort_kept(paces, policy):
    """The cut as a stable argsort makes it: the reference for the filter."""
    paces = np.asarray(paces, dtype=float)
    n = paces.size
    order = np.argsort(paces, kind="stable")
    return np.sort(order[math.floor(policy.lower_fraction * n):
                         n - math.floor(policy.upper_fraction * n)])


@st.composite
def paces_and_cut(draw):
    """Paces with many ties, all equal, or any floats (NaN, infinities and
    -0.0 included), and a cut of given fractions, none, or one that leaves
    exactly one trip."""
    paces = draw(st.one_of(
        st.lists(st.floats(0.0, 30.0).map(lambda p: round(p, 1)),
                 min_size=1, max_size=300),
        st.builds(lambda pace, n: [pace] * n, st.floats(allow_nan=False),
                  st.integers(1, 300)),
        st.lists(st.floats(), min_size=1, max_size=100)))
    n = len(paces)
    how = draw(st.sampled_from(["fractions", "none", "one left"]))
    if how == "none":
        return paces, FilterPolicy(0.0, 0.0), how
    if how == "one left":
        low = draw(st.integers(0, n - 1))
        # a quarter past each count keeps floor() off a rounding edge
        return paces, FilterPolicy((low + 0.25) / n,
                                   (n - 1 - low + 0.25) / n), how
    return paces, FilterPolicy(draw(st.floats(0.0, 0.45)),
                               draw(st.floats(0.0, 0.45))), how


class TestPercentileFilter:
    def test_nearest_rank_example(self):
        paces = list(range(1, 21))  # 1..20
        kept = percentile_filter(paces, FilterPolicy(0.05, 0.10))
        # drop lowest 1 and highest 2 -> values 2..18 remain
        assert [paces[i] for i in kept] == list(range(2, 19))

    def test_zero_policy_is_identity(self):
        paces = [5.0, 1.0, 3.0]
        assert percentile_filter(paces, FilterPolicy(0.0, 0.0)).tolist() == [0, 1, 2]

    def test_ties_broken_by_original_index(self):
        paces = [7.0] * 20
        kept = percentile_filter(paces, FilterPolicy(0.05, 0.10))
        # lowest original index dropped at the bottom, highest two at the top
        assert len(kept) == 17
        assert kept.tolist() == list(range(1, 18))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=0.45),
           st.floats(min_value=0.0, max_value=0.45))
    def test_retained_count_formula(self, paces, lower, upper):
        kept = percentile_filter(paces, FilterPolicy(lower, upper))
        n = len(paces)
        assert len(kept) == n - math.floor(lower * n) - math.floor(upper * n)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=60),
           st.floats(min_value=0.0, max_value=0.45),
           st.floats(min_value=0.0, max_value=0.45))
    def test_matches_sort_with_index_tiebreak(self, paces, lower, upper):
        n = len(paces)
        order = sorted(range(n), key=lambda i: (paces[i], i))
        expected = sorted(order[math.floor(lower * n):n - math.floor(upper * n)])
        kept = percentile_filter([float(p) for p in paces],
                                 FilterPolicy(lower, upper))
        assert kept.tolist() == expected

    @given(paces_and_cut())
    @example(([2.0, math.nan, 1.0, -0.0, math.inf, 0.0, math.nan, 2.0],
              FilterPolicy(0.0, 0.0), "none"))
    @example(([math.nan, 3.0, math.nan, 1.0, math.nan, 2.0],
              FilterPolicy(0.2, 0.2), "fractions"))
    def test_matches_the_stable_argsort(self, case):
        paces, policy, how = case
        kept = percentile_filter(paces, policy)
        assert kept.dtype == np.intp
        assert kept.tolist() == stable_argsort_kept(paces, policy).tolist()
        if how == "none":
            assert kept.tolist() == list(range(len(paces)))
        if how == "one left":
            assert kept.size == 1

    def test_matches_the_stable_argsort_on_many_ties(self):
        paces = np.round(np.random.default_rng(3).normal(300, 40, 100_000), 1)
        policy = FilterPolicy(0.05, 0.10)
        assert (percentile_filter(paces, policy).tolist()
                == stable_argsort_kept(paces, policy).tolist())

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            percentile_filter([], FilterPolicy(0.0, 0.0))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FilterPolicy(0.6, 0.5)
        with pytest.raises(ValueError):
            FilterPolicy(-0.1, 0.0)
        with pytest.raises(ValueError):
            FilterPolicy(0.0, 1.0)


class TestSegmentOrientations:
    def orientations(self, ax, ay, bx, by):
        theta, moving = directions(np.array([segment(ax, ay, bx, by)]),
                                   lonlat=False)
        assert moving.tolist() == [True]
        return float(theta[0]), float(wrap_angle(theta[0] + math.pi))

    def test_diagonal(self):
        both = self.orientations(0, 0, 1, 1)
        assert both[0] == pytest.approx(math.pi / 4)
        assert both[1] == pytest.approx(5 * math.pi / 4)

    def test_horizontal(self):
        both = self.orientations(0, 0, 1, 0)
        assert both == (0.0, pytest.approx(math.pi))

    def test_downward(self):
        both = self.orientations(0, 0, 0, -2)
        assert both[0] == pytest.approx(3 * math.pi / 2)
        assert both[1] == pytest.approx(math.pi / 2)

    def test_zero_length_rejected(self):
        theta, moving = directions(np.array([segment(1, 1, 1, 1)]),
                                   lonlat=False)
        assert theta.size == 0
        assert moving.tolist() == [False]


class TestNetworkHistogram:
    def random_segments(self, rng, n=200):
        segs = []
        for _ in range(n):
            ax, ay = rng.uniform(-100, 100, 2)
            bx, by = rng.uniform(-100, 100, 2)
            if (ax, ay) == (bx, by):
                continue
            segs.append(segment(ax, ay, bx, by))
        return np.array(segs)

    def test_point_symmetric_by_construction(self):
        rng = np.random.default_rng(0)
        hist = network_orientation_histogram(self.random_segments(rng),
                                             bins=32, lonlat=False)
        assert np.array_equal(hist.values, np.roll(hist.values, 16))

    def test_length_weighting_changes_weights(self):
        segs = np.array([
            segment(0, 0, 10, 0, 10.0),
            segment(0, 0, 0, 1, 1.0),
        ])
        by_count = network_orientation_histogram(segs, bins=4, lonlat=False)
        by_length = network_orientation_histogram(segs, bins=4,
                                                  length_weighted=True,
                                                  lonlat=False)
        np.testing.assert_allclose(by_count.values, [0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(by_length.values,
                                   [10 / 22, 1 / 22, 10 / 22, 1 / 22])

    def test_zero_length_segments_skipped(self, caplog):
        segs = np.array([
            segment(0, 0, 1, 0, 1.0),
            segment(2, 2, 2, 2, 0.0),
        ])
        with caplog.at_level(logging.WARNING):
            hist = network_orientation_histogram(segs, bins=4, lonlat=False)
        assert hist.values.sum() == pytest.approx(1.0)
        assert any("zero-length" in r.message for r in caplog.records)

    def test_all_zero_length_rejected(self):
        segs = np.array([segment(0, 0, 0, 0, 0.0)])
        with pytest.raises(InsufficientDataError):
            network_orientation_histogram(segs, bins=4, lonlat=False)

    @pytest.mark.parametrize("segs, lonlat, total", [
        ([segment(0, 0, 1, 0, 1e308), segment(0, 0, 0, 1, 1e308)], False,
         "inf"),
        # a moving lon/lat segment too short for its length to be nonzero
        ([segment(0, 0, 5e-324, 0, 0.0)], True, "0.0"),
        # as parse_network computes for endpoints 1.5e308 apart on each axis
        ([segment(0, 0, 1, 1, math.inf), segment(0, 0, 0, 1)], False, "inf"),
    ], ids=["overflow", "underflow", "infinite-length"])
    def test_weight_total_must_be_positive_and_finite(self, segs, lonlat,
                                                      total):
        segs = np.array(segs)
        network_orientation_histogram(segs, bins=4, lonlat=lonlat)
        with pytest.raises(InputFormatError) as err:
            network_orientation_histogram(segs, bins=4, length_weighted=True,
                                          lonlat=lonlat)
        assert str(err.value) == (f"segment weights sum to {total}; lengths "
                                  "must sum to a positive finite number")

    @pytest.mark.parametrize("length_weighted", [False, True])
    @pytest.mark.parametrize("bins", [5, 8, 32, 33])
    def test_is_build_histogram_of_the_directions(self, bins,
                                                  length_weighted):
        rng = np.random.default_rng(bins)
        segs = self.random_segments(rng, 300)
        segs[::7, 2:4] = segs[::7, 0:2]  # zero-length segments are left out
        theta, moving = directions(segs, lonlat=False)
        weights = segs[moving, 4] if length_weighted else None
        hist = network_orientation_histogram(
            segs, bins=bins, length_weighted=length_weighted, lonlat=False)
        expected = build_histogram(theta, weights, bins, point_symmetric=True)
        assert np.array_equal(hist.values, expected.values)

    def test_mirrored_bin_when_opposite_rounds_onto_a_boundary(self):
        # theta = 7*pi/4 wraps from -pi/4; theta + pi rounds to just below
        # the 3*pi/4 boundary of bin 3, yet the segment counts in bins 7 and 3
        hist = network_orientation_histogram(
            np.array([segment(0, 0, 1, -1)]), bins=8, lonlat=False)
        assert hist.values.tolist() == [0, 0, 0, 0.5, 0, 0, 0, 0.5]

    @pytest.mark.parametrize("bins", [5, 7, 32])
    def test_matches_per_segment_binning(self, bins):
        # each segment adds its weight to the bins of theta and theta + pi
        rng = np.random.default_rng(bins)
        segs = self.random_segments(rng, 300)
        hist = network_orientation_histogram(segs, bins=bins,
                                             length_weighted=True,
                                             lonlat=False)
        expected = np.zeros(bins)
        for ax, ay, bx, by, length in segs:
            theta = wrap_angle(math.atan2(by - ay, bx - ax))
            for angle in (theta, wrap_angle(theta + math.pi)):
                expected[int(angle * bins / TWO_PI) % bins] += length
        np.testing.assert_allclose(hist.values, expected / expected.sum(),
                                   rtol=1e-12, atol=1e-15)


    @pytest.mark.parametrize("bins", [7, 32])
    def test_lonlat_matches_per_segment_reference(self, bins):
        # east-west spans shrink by cos(mean latitude) before the arctan2;
        # at latitudes 55-60 that turns most orientations by degrees
        rng = np.random.default_rng(bins)
        ends = rng.uniform([139.0, 55.0], [140.0, 60.0],
                           size=(300, 2, 2)).tolist()
        text = NET_HEADER + "\n" + "\n".join(
            f"{ax!r},{ay!r},{bx!r},{by!r},primary"
            for (ax, ay), (bx, by) in ends) + "\n"
        segs = parse_network(io.StringIO(text), lonlat=True)
        hist = network_orientation_histogram(segs, bins=bins,
                                             length_weighted=True, lonlat=True)
        expected = np.zeros(bins)
        for (ax, ay), (bx, by) in ends:
            dx = (bx - ax) * math.cos(math.radians((ay + by) / 2))
            dy = by - ay
            length = EARTH_RADIUS_M * math.radians(math.hypot(dx, dy))
            theta = wrap_angle(math.atan2(dy, dx))
            for angle in (theta, wrap_angle(theta + math.pi)):
                expected[int(angle * bins / TWO_PI) % bins] += length
        np.testing.assert_allclose(hist.values, expected / expected.sum(),
                                   rtol=1e-12, atol=1e-15)
        unscaled = network_orientation_histogram(
            segs, bins=bins, length_weighted=True, lonlat=False)
        assert np.abs(unscaled.values - hist.values).max() > 1e-3
        with pytest.raises(TypeError):
            network_orientation_histogram(segs, bins=bins)


def reference_load(text, lonlat, compass):
    """Per-line reference of the trip ingest: kept rows, directions, paces.

    Returns the 1-based line number and field name of the first bad field
    instead when a row does not parse or, for lon/lat input, has a
    latitude beyond [-90, 90].
    """
    names = TRIP_HEADER_LONLAT if lonlat else TRIP_HEADER_PLANAR
    rows, thetas, paces = [], [], []
    skipped = {"duration_s": [], "distance_km": []}
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader([line]))]
        if not header:
            header = True
            continue
        values = []
        for field, name in zip(fields, names):
            try:
                values.append(float(field))
            except ValueError:
                return lineno, name
        for column in (1, 3) if lonlat else ():
            if abs(values[column]) > 90.0:
                return lineno, names[column]
        if values[4] <= 0.0:
            skipped["duration_s"].append(lineno)
            continue
        if values[5] <= 0.0:
            skipped["distance_km"].append(lineno)
            continue
        rows.append(values)
        dx = values[2] - values[0]
        dy = values[3] - values[1]
        if lonlat:
            if abs(dx) > 180.0:
                # the short way round, by a multiple of 360 degrees
                dx = math.fmod(dx, 360.0)
                if abs(dx) > 180.0:
                    dx -= math.copysign(360.0, dx)
            dx *= math.cos(math.radians(0.5 * (values[1] + values[3])))
        if dx == 0.0 and dy == 0.0:
            continue
        raw_bearing = math.atan2(dy, dx)
        thetas.append(wrap_angle(0.5 * math.pi - raw_bearing) if compass
                      else wrap_angle(raw_bearing))
        paces.append(values[4] / values[5])
    return rows, thetas, paces, skipped


def single_reader_error(text):
    """(row, reason) of the first row that one strict CSV reader over all
    content lines frames across lines, or None when none does."""
    numbered = [(n, line.strip()) for n, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.strip().startswith("#")]
    current, ended = [], []

    def feed():
        for n, line in numbered:
            current.append(n)
            yield line
        ended.append(True)

    try:
        for _ in csv.reader(feed(), strict=True):
            if len(current) > 1:
                return current[0], "unterminated quoted field"
            current.clear()
    except csv.Error as exc:
        return current[0], "unterminated quoted field" if ended else str(exc)
    return None


def expected_warnings(skipped):
    return [f"skipped {len(rows)} trip(s) with non-positive {what}: row "
            + ", ".join(map(str, rows[:5])) + (", ..." if len(rows) > 5 else "")
            for what, rows in skipped.items() if rows]


def logged_warnings(parse, *args, **kwargs):
    """``parse(*args, **kwargs)`` and the warnings it logged."""
    with mock.patch.object(ingest.log, "warning") as warning:
        result = parse(*args, **kwargs)
    return result, [c.args[0] % c.args[1:] for c in warning.call_args_list]


coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
lats = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)

# numbers float() reads and np.loadtxt does not, and tab padding, which both
# read: each sends its block from the loadtxt reader to the CSV reader or not
ODD_NUMBERS = ["1_000", "\u0661\u0662", "\t7.5", "2.5\t"]
# a character that str.strip() drops from either end of a line or a class,
# and that sends a block to the CSV reader; \x1c-\x1e would do the same,
# but the references split lines with str.splitlines(), which breaks lines
# at them (TestLoadtxtReader covers all four inside a field)
SEPARATOR = "\x1f"


def odd_fields(draw, fields):
    """``fields`` with, now and then, one number replaced by an odd one."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        column = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        fields[column] = draw(st.sampled_from(ODD_NUMBERS))
    return fields


def padded(draw, line):
    """``line``, now and then with a separator character at one end."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        line = draw(st.sampled_from([SEPARATOR + line, line + SEPARATOR]))
    return line


def quoting(draw):
    """Whether each field is quoted with probability 1/2 and blank and
    comment lines appear, or no field is quoted and blank and comment
    lines appear in some files only: then many blocks are clean, so the
    loadtxt reader and the CSV reader take turns."""
    quoted = draw(st.booleans())
    return quoted, quoted or draw(st.booleans())


@st.composite
def trip_files(draw):
    lonlat = draw(st.booleans())
    header = TRIP_HEADER_LONLAT if lonlat else TRIP_HEADER_PLANAR
    lines = ["# trip log", "", ",".join(header)]
    quoted_mode, extras = quoting(draw)
    kinds = ["trip", "trip", "trip", "degenerate"]
    kinds += ["comment", "blank"] if extras else ["trip"]
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append("  # " + draw(st.text("abc, ", max_size=8)))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        y = lats if lonlat else coords
        ox, oy = draw(coords), draw(y)
        dx, dy = (ox, oy) if kind == "degenerate" else (draw(coords), draw(y))
        duration = draw(st.sampled_from([0.0, -1.0, 60.0]) | st.floats(1.0, 1e5))
        distance = draw(st.sampled_from([0.0, 2.5]) | st.floats(0.01, 1e3))
        fields = [repr(v) for v in (ox, oy, dx, dy, duration, distance)]
        if quoted_mode:
            quoted = draw(st.lists(st.booleans(), min_size=6, max_size=6))
            fields = [f'" {f}"' if q else f" {f}"
                      for f, q in zip(fields, quoted)]
        else:
            fields = odd_fields(draw, fields)
        lines.append(padded(draw, ",".join(fields)))
    return lonlat, lines


class TestColumnarIngest:
    @staticmethod
    def load(tmp_dir, lines, lonlat, compass):
        path = tmp_dir / "trips.csv"
        path.write_text("\n".join(lines) + "\n")
        return read_input(path, _trips, RunConfig(lonlat=lonlat,
                                                  compass=compass))

    @settings(max_examples=60, deadline=None)
    @given(trip_files(), st.booleans(), st.data())
    def test_matches_per_line_reference(self, tmp_path_factory, file,
                                        compass, data):
        # block sizes 1-3 put headers, skips, bad fields and open quotes on
        # block boundaries
        for block_rows in (1, 2, 3, ingest.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
                self.check_against_reference(tmp_path_factory, file, compass,
                                             data)

    def check_against_reference(self, tmp_path_factory, file, compass, data):
        lonlat, lines = file
        tmp_dir = tmp_path_factory.mktemp("trips")
        text = "\n".join(lines) + "\n"
        reference = reference_load(text, lonlat, compass)
        if len(reference) == 2:
            # odd_fields' 1_000 as a latitude
            with pytest.raises(InputFormatError) as err:
                parse_trips(io.StringIO(text), lonlat=lonlat)
            assert str(err.value).startswith(
                f"row {reference[0]}: field '{reference[1]}' must be in "
                "[-90, 90], got ")
            return
        rows, thetas, paces, skipped = reference
        kept, warnings = logged_warnings(parse_trips, io.StringIO(text),
                                         lonlat=lonlat)
        assert kept.tolist() == rows
        assert warnings == expected_warnings(skipped)
        if thetas:
            theta, pace = self.load(tmp_dir, lines, lonlat, compass)
            gap = np.abs(theta - np.array(thetas))
            assert np.all(np.minimum(gap, TWO_PI - gap) <= 1e-15)
            assert pace.tolist() == paces
        else:
            with pytest.raises(InputFormatError):
                self.load(tmp_dir, lines, lonlat, compass)

        data_lines = [i for i, line in enumerate(lines)
                      if line.strip() and not line.strip().startswith("#")][1:]
        if data_lines:
            target = data.draw(st.sampled_from(data_lines))
            column = data.draw(st.integers(min_value=0, max_value=5))
            fields = next(csv.reader([lines[target].strip()]))
            fields[column] = "x1"
            bad = lines[:target] + [",".join(fields)] + lines[target + 1:]
            expected = reference_load("\n".join(bad), lonlat, compass)
            assert expected[0] == target + 1
            with pytest.raises(InputFormatError) as err:
                parse_trips(io.StringIO("\n".join(bad)), lonlat=lonlat)
            assert str(err.value).startswith(
                f"row {target + 1}: field '{expected[1]}'")

            # a quote opened in one field runs on until a later quote or
            # the end of input
            fields[column] = '"1'
            bad = lines[:target] + [",".join(fields)] + lines[target + 1:]
            row, reason = single_reader_error("\n".join(bad))
            assert row == target + 1
            with pytest.raises(InputFormatError) as err:
                parse_trips(io.StringIO("\n".join(bad)), lonlat=lonlat)
            assert str(err.value) == f"row {row}: {reason}"


def float_field(field, name):
    try:
        return float(field)
    except ValueError:
        raise ValueError(f"field '{name}' is not a number: {field!r}") from None


def reference_network(text, class_filter):
    """Per-line reference of ``parse_network`` on planar input.

    Returns the kept ``[ax, ay, bx, by, length_m]`` rows, or the line
    number and message of the first bad row.
    """
    rows, width = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader([line]))]
        if width is None:
            width = len(fields)
            continue
        try:
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, "
                                 f"got {len(fields)}")
            ax, ay, bx, by = [float_field(f, name) for f, name in
                              zip(fields, ("ax", "ay", "bx", "by"))]
            if fields[4].lower() not in ROAD_CLASSES:
                raise ValueError(f"unknown road class {fields[4]!r}")
            if width == 5:
                length = float(np.hypot(bx - ax, by - ay))
            else:
                length = float_field(fields[5], "length_m")
                if length < 0.0:
                    raise ValueError("negative length_m")
                if length == 0.0 and (ax, ay) != (bx, by):
                    raise ValueError("zero length_m but distinct endpoints")
        except ValueError as exc:
            return lineno, str(exc)
        if fields[4].lower() in class_filter:
            rows.append([ax, ay, bx, by, length])
    return rows


def mixed_case(draw, word):
    flips = draw(st.lists(st.booleans(), min_size=len(word),
                          max_size=len(word)))
    return "".join(c.upper() if f else c for c, f in zip(word, flips))


@st.composite
def network_files(draw):
    has_length = draw(st.booleans())
    names = ["ax", "ay", "bx", "by", "class"] + ["length_m"] * has_length
    lines = ["# edges", "", ",".join(mixed_case(draw, n) for n in names)]
    quoted_mode, extras = quoting(draw)
    kinds = ["edge", "edge", "edge", "degenerate"]
    kinds += ["comment", "blank"] if extras else ["edge"]
    # the edge row, if any, that gets an extra trailing field
    wide = draw(st.none() | st.integers(min_value=0, max_value=25))
    for i in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append("  # " + draw(st.text("abc, ", max_size=8)))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        ax, ay = draw(coords), draw(coords)
        bx, by = (ax, ay) if kind == "degenerate" else (draw(coords),
                                                        draw(coords))
        fields = [repr(v) for v in (ax, ay, bx, by)]
        road_class = mixed_case(draw, draw(st.sampled_from(ROAD_CLASSES)))
        fields.append(padded(draw, road_class))
        if has_length:
            fields.append(repr(draw(st.sampled_from([0.0, -1.0])
                                    | st.floats(0.01, 1e4))))
        if i == wide:
            fields.append("7")
        if quoted_mode:
            quoted = draw(st.lists(st.booleans(), min_size=len(fields),
                                   max_size=len(fields)))
            fields = [f'" {f}"' if q else f" {f}"
                      for f, q in zip(fields, quoted)]
        else:
            fields = odd_fields(draw, fields[:4]) + fields[4:]
        lines.append(padded(draw, ",".join(fields)))
    return lines


class TestNetworkIngest:
    @settings(max_examples=60, deadline=None)
    @given(network_files(), st.sets(st.sampled_from(ROAD_CLASSES)), st.data())
    def test_matches_per_line_reference(self, lines, class_filter, data):
        data_lines = [i for i, line in enumerate(lines)
                      if line.strip() and not line.strip().startswith("#")][1:]
        files = [lines]
        if data_lines:
            target = data.draw(st.sampled_from(data_lines))
            fields = next(csv.reader([lines[target].strip()]))
            column = data.draw(st.integers(0, len(fields) - 1))
            fields[column] = "x1"
            files.append(lines[:target] + [",".join(fields)]
                         + lines[target + 1:])
        for block_rows in (1, 2, 3, ingest.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
                for file in files:
                    text = "\n".join(file) + "\n"
                    expected = reference_network(text, class_filter)
                    if isinstance(expected, list):
                        segments = parse_network(io.StringIO(text),
                                                 class_filter=class_filter)
                        assert segments.tolist() == expected
                        continue
                    with pytest.raises(InputFormatError) as err:
                        parse_network(io.StringIO(text),
                                      class_filter=class_filter)
                    assert str(err.value) == "row {}: {}".format(*expected)


class TestLoadtxtReader:
    """Blocks np.loadtxt reads, and the guards that send a block to the CSV
    reader instead; each test fails when its guard is taken out."""

    @staticmethod
    def counted(parse, text, **kwargs):
        """``parse`` on ``text`` and the counts of np.loadtxt calls and of
        blocks the CSV reader converted."""
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(ingest, "_convert",
                                  wraps=ingest._convert) as convert:
            result = parse(io.StringIO(text), **kwargs)
        return result, loadtxt.call_count, convert.call_count

    @pytest.mark.parametrize("block_rows", [3, 4096])
    def test_clean_files_take_one_loadtxt_call_per_block(self, block_rows):
        rows = [f"{i},{i + 1},{i + 3},{i - 2},{60 + i},1.5" for i in range(10)]
        edges = [f"{i},0,{i}.5,2,{ROAD_CLASSES[i % 5].upper()},{i + 1}"
                 for i in range(10)]
        blocks = math.ceil(10 / block_rows)
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            trips, calls, converted = self.counted(
                parse_trips, "\n".join([TRIP_HEADER, *rows]) + "\n")
            assert (calls, converted) == (blocks, 0)
            assert trips.tolist() == [[float(v) for v in row.split(",")]
                                      for row in rows]
            segments, calls, converted = self.counted(
                parse_network,
                "\n".join([f"{NET_HEADER},length_m", *edges]) + "\n")
            assert (calls, converted) == (blocks, 0)
            assert segments.tolist() == [
                [float(v) for v in edge.split(",") if not v.isalpha()]
                for edge in edges]

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_inside_a_field_is_not_a_number(self, separator):
        # np.loadtxt reads '1\x1c' as 1.0; float() does not read it at all
        text = (f"{TRIP_HEADER}\n0,0,1,1,60,1\n0,1{separator},1,1,60,1\n"
                "0,0,1,1,60,1\n")
        with pytest.raises(InputFormatError) as err:
            trips_from(text)
        assert str(err.value) == ("row 3: field 'origin_y' is not a number: "
                                  f"{'1' + separator!r}")

    def test_extra_field_in_a_clean_edge_block(self):
        text = (f"{NET_HEADER},length_m\n0,0,1,1,primary,2\n"
                "0,0,1,1,primary,2,7\n0,0,1,1,trunk,2\n")
        with pytest.raises(InputFormatError) as err:
            parse_network(io.StringIO(text))
        assert str(err.value) == "row 3: expected 6 fields, got 7"

    @pytest.mark.parametrize("road_class, message", [
        ("primary\x00", "line contains NUL"),
        ("primary" + " " * 9 + "x", "unknown road class 'primary         x'"),
    ], ids=["nul", "sixteen-characters-or-more"])
    def test_class_text_np_loadtxt_would_cut(self, road_class, message):
        text = (f"{NET_HEADER}\n0,0,1,1,primary\n0,0,1,1,{road_class}\n"
                "0,0,1,1,trunk\n")
        with pytest.raises(InputFormatError) as err:
            parse_network(io.StringIO(text))
        assert str(err.value) == f"row 3: {message}"

    def test_blank_line_keeps_the_row_numbers_of_skipped_trips(self):
        # np.loadtxt skips an empty line without a word
        text = (f"{TRIP_HEADER}\n0,0,1,1,0,1\n\n0,0,1,1,0,1\n"
                "0,0,1,1,60,1\n0,0,1,1,60,0\n")
        trips, warnings = logged_warnings(parse_trips, io.StringIO(text))
        assert trips.tolist() == [[0.0, 0.0, 1.0, 1.0, 60.0, 1.0]]
        assert warnings == [
            "skipped 2 trip(s) with non-positive duration_s: row 2, 4",
            "skipped 1 trip(s) with non-positive distance_km: row 6",
        ]
