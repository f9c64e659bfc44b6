import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pacerose.angles import (
    TWO_PI,
    AngularHistogram,
    TotalError,
    bin_index,
    build_histogram,
    compass_to_math,
    require_size,
    wrap_angle,
)
from pacerose.errors import InputFormatError

finite_angles = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_full_period(self):
        assert wrap_angle(TWO_PI) == 0.0

    def test_negative(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)

    @given(finite_angles)
    def test_range(self, x):
        w = wrap_angle(x)
        assert 0.0 <= w < TWO_PI

    @given(finite_angles)
    def test_idempotent(self, x):
        w = wrap_angle(x)
        assert wrap_angle(w) == w

    def test_tiny_negative_does_not_hit_two_pi(self):
        assert wrap_angle(-1e-18) < TWO_PI


class TestCompassConversion:
    def test_north_is_pi_half(self):
        assert compass_to_math(0.0) == pytest.approx(math.pi / 2)

    def test_east_is_zero(self):
        assert compass_to_math(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    @given(finite_angles)
    def test_self_inverse(self, a):
        w = wrap_angle(a)
        assert compass_to_math(compass_to_math(w)) == pytest.approx(w, abs=1e-9)


class TestArrayArguments:
    @given(st.lists(finite_angles, max_size=30), st.integers(1, 72))
    def test_array_matches_scalar_calls(self, angles, bins):
        array = np.array(angles)
        assert wrap_angle(array).tolist() == [wrap_angle(a) for a in angles]
        assert compass_to_math(array).tolist() == [
            compass_to_math(a) for a in angles]
        indices = bin_index(array, bins)
        assert indices.dtype == np.int64
        assert indices.tolist() == [bin_index(a, bins) for a in angles]

    def test_scalar_gives_python_scalar(self):
        assert type(wrap_angle(1.0)) is float
        assert type(compass_to_math(1.0)) is float
        assert type(bin_index(1.0, 4)) is int

    def test_nonfinite_element_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(np.array([0.0, math.nan]))


def uniform_centers(bin_count):
    uniform = AngularHistogram(bin_count, np.full(bin_count, 1.0 / bin_count))
    return uniform.bin_centers()


class TestBinCenter:
    def test_first_of_four(self):
        assert uniform_centers(4)[0] == pytest.approx(math.pi / 4)

    def test_last_of_32(self):
        assert uniform_centers(32)[31] == pytest.approx(TWO_PI * 31.5 / 32)

    def test_third_of_four(self):
        assert uniform_centers(4)[2] == pytest.approx(5 * math.pi / 4)


class TestBuildHistogram:
    def test_one_angle_per_bin(self):
        h = build_histogram([0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                            bin_count=4)
        np.testing.assert_allclose(h.values, [0.25, 0.25, 0.25, 0.25])

    def test_both_in_first_bin(self):
        h = build_histogram([0.0, 0.1], bin_count=4)
        np.testing.assert_allclose(h.values, [1.0, 0.0, 0.0, 0.0])

    def test_uniform_monte_carlo(self):
        # binomial std dev is ~0.0055 per bin; 0.05 is a ~9 sigma band
        rng = np.random.default_rng(0)
        h = build_histogram(rng.uniform(0.0, TWO_PI, 1000), bin_count=32)
        assert np.all(np.abs(h.values - 1.0 / 32) < 0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], bin_count=4)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([0.0, 1.0], weights=[0.0, 0.0], bin_count=4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([0.0, 1.0], weights=[1.0, -0.5], bin_count=4)

    @pytest.mark.parametrize("angles, weights, message", [
        ([0.0, math.nan], None, "angles must be finite"),
        ([-math.inf], [1.0], "angles must be finite"),
        ([0.0, 1.0], [1.0], "weights must match angles in length"),
    ], ids=["nan-angle", "infinite-angle", "short-weights"])
    def test_bad_arguments_are_named(self, angles, weights, message):
        with pytest.raises(ValueError) as err:
            build_histogram(angles, weights=weights, bin_count=4)
        assert str(err.value) == message

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=64))
    def test_sums_to_one(self, angles, bins):
        weights = [1.0 + i for i in range(len(angles))]
        h = build_histogram(angles, weights=weights, bin_count=bins)
        assert abs(float(h.values.sum()) - 1.0) <= 1e-12

    def test_rotation_is_cyclic_shift_bit_identical(self):
        rng = np.random.default_rng(7)
        angles = rng.uniform(0.0, TWO_PI, 500)
        weights = rng.uniform(0.1, 2.0, 500)
        bins = 32
        h1 = build_histogram(angles, weights=weights, bin_count=bins)
        shifted = np.array([wrap_angle(a + TWO_PI / bins) for a in angles])
        h2 = build_histogram(shifted, weights=weights, bin_count=bins)
        assert np.array_equal(h2.values, np.roll(h1.values, 1))


class TestFromWeights:
    def test_divides_by_the_sum(self):
        h = AngularHistogram.from_weights([1.0, 3.0, 0.0, 4.0])
        assert h.values.tolist() == [0.125, 0.375, 0.0, 0.5]

    def test_divides_by_a_given_total(self):
        weights = np.array([0.1, 0.7, 0.2])
        total = 1.0000000000000002
        h = AngularHistogram.from_weights(weights, total)
        assert np.array_equal(h.values, weights / total)

    @pytest.mark.parametrize("weights, total, shown", [
        ([0.0, 0.0], None, "0.0"),
        ([], None, "0.0"),
        ([1.0, 1.0], 0.0, "0.0"),
        ([1.0, 1.0], -2.0, "-2.0"),
        ([1.0, 1.0], math.inf, "inf"),
        ([1.0, 1.0], math.nan, "nan"),
        ([1e308, 1e308], None, "inf"),
    ], ids=["zero-sum", "empty", "zero-total", "negative-total",
            "inf-total", "nan-total", "overflowing-sum"])
    def test_total_must_be_positive_and_finite(self, weights, total, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is no warning
            with pytest.raises(TotalError) as err:
                AngularHistogram.from_weights(weights, total)
        assert str(err.value) == f"histogram values sum to {shown}"
        assert repr(err.value.total) == shown
        # an input error to the commands, a ValueError to the library
        assert isinstance(err.value, InputFormatError)
        assert isinstance(err.value, ValueError)

    def test_build_histogram_of_no_angles_has_zero_total(self):
        with pytest.raises(TotalError, match="sum to 0.0"):
            build_histogram([], bin_count=4)


class TestPointSymmetricHistogram:
    @given(st.lists(finite_angles, min_size=1, max_size=40),
           st.sampled_from([2, 4, 8, 32, 36, 72]))
    def test_even_bins_are_exactly_point_symmetric(self, angles, bins):
        weights = [1.0 + 0.1 * i for i in range(len(angles))]
        h = build_histogram(angles, weights, bins, point_symmetric=True)
        assert np.array_equal(h.values, np.roll(h.values, bins // 2))

    @pytest.mark.parametrize("bins", [4, 8, 32, 72])
    def test_even_bins_exact_for_angles_on_bin_edges(self, bins):
        # angles on every bin edge and just beside it, in both directions
        edges = np.arange(bins) * (TWO_PI / bins)
        angles = np.concatenate([edges, np.nextafter(edges, -1.0),
                                 np.nextafter(edges, 10.0), -edges])
        h = build_histogram(angles, np.linspace(1.0, 2.0, angles.size),
                            bins, point_symmetric=True)
        assert np.array_equal(h.values, np.roll(h.values, bins // 2))
        # each angle's own bin plus B/2, by its weight
        own = bin_index(angles, bins)
        expected = np.zeros(bins)
        for i, w in zip(own, np.linspace(1.0, 2.0, angles.size)):
            expected[i] += w
            expected[(i + bins // 2) % bins] += w
        np.testing.assert_allclose(h.values, expected / expected.sum(),
                                   rtol=1e-14)

    @pytest.mark.parametrize("bins", [1, 3, 5, 33])
    def test_odd_bins_count_the_bin_of_theta_plus_pi(self, bins):
        rng = np.random.default_rng(bins)
        angles = rng.uniform(-10.0, 10.0, 200)
        weights = rng.uniform(0.5, 2.0, 200)
        h = build_histogram(angles, weights, bins, point_symmetric=True)
        expected = np.zeros(bins)
        for a, w in zip(angles, weights):
            expected[bin_index(a, bins)] += w
            expected[bin_index(a + math.pi, bins)] += w
        np.testing.assert_allclose(h.values, expected / expected.sum(),
                                   rtol=1e-13)

    def test_total_is_the_doubled_sample_sum(self):
        # the bins are divided by the sum of the repeated sample weights,
        # not by the sum of the bins
        weights = np.array([0.1, 0.2, 0.3, 1e-17, 7.0])
        angles = np.array([0.1, 1.0, 2.0, 3.0, 4.0])
        h = build_histogram(angles, weights, 8, point_symmetric=True)
        both = np.repeat(weights, 2)
        bins = np.bincount(
            np.column_stack([bin_index(angles, 8),
                             (bin_index(angles, 8) + 4) % 8]).ravel(),
            weights=both, minlength=8)
        assert np.array_equal(h.values, bins / both.sum())


class TestRequireSize:
    LIMIT = np.iinfo(np.intp).max // 16

    def test_within_the_rule(self):
        require_size("n", 1)
        require_size("n", self.LIMIT)
        require_size("n", 5, 5)

    @pytest.mark.parametrize("n, low, message", [
        (0, 1, "n must be >= 1, got 0"),
        (4, 5, "n must be >= 5, got 4"),
        (LIMIT + 1, 1, f"n must be at most {LIMIT}, got {LIMIT + 1}"),
        (10 ** 20, 1, f"n must be at most {LIMIT}, got {10 ** 20}"),
    ])
    def test_outside_the_rule(self, n, low, message):
        with pytest.raises(ValueError) as err:
            require_size("n", n, low)
        assert str(err.value) == message


class TestHistogramLookup:
    """A histogram's value at an angle is ``values[bin_index(angle, B)]``."""

    def test_uniform(self):
        h = AngularHistogram(32, np.full(32, 1.0 / 32))
        assert h.values[bin_index(1.234, 32)] == pytest.approx(1.0 / 32)

    def test_delta(self):
        values = np.zeros(32)
        values[0] = 1.0
        h = AngularHistogram(32, values)
        assert h.values[bin_index(0.01, 32)] == 1.0

    def test_just_over_boundary(self):
        values = np.zeros(32)
        values[0] = 1.0
        h = AngularHistogram(32, values)
        assert h.values[bin_index(TWO_PI / 32 + 1e-9, 32)] == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            AngularHistogram(4, [1.0, 2.0, 3.0, 4.0])


class TestAngularHistogramType:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AngularHistogram(4, [0.5, 0.5])

    def test_negative_value(self):
        with pytest.raises(ValueError):
            AngularHistogram(2, [1.5, -0.5])

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            AngularHistogram(2, [0.6, 0.6])

    @pytest.mark.parametrize("bin_count, values, message", [
        (0, [], "bin_count must be >= 1"),
        (2, [0.5, math.nan], "histogram values must be finite"),
        (2, [math.inf, 0.5], "histogram values must be finite"),
    ], ids=["no-bins", "nan", "infinite"])
    def test_bad_arguments_are_named(self, bin_count, values, message):
        with pytest.raises(ValueError) as err:
            AngularHistogram(bin_count, values)
        assert str(err.value) == message

    def test_normalization_error_writes_the_sum_as_a_float(self):
        # numpy 2 writes a float64 scalar's repr as np.float64(8.0)
        with pytest.raises(ValueError) as err:
            AngularHistogram(4, [2.0, 2.0, 2.0, 2.0])
        assert str(err.value) == "histogram must sum to 1, got 8.0"

    def test_values_read_only(self):
        h = AngularHistogram(2, [0.5, 0.5])
        with pytest.raises(ValueError):
            h.values[0] = 1.0

    def test_bin_index_covers_circle(self):
        centers = uniform_centers(32)
        for i in range(32):
            assert bin_index(centers[i], 32) == i

    def test_point_symmetry_defect(self):
        h = AngularHistogram(4, [0.3, 0.2, 0.3, 0.2])
        assert np.array_equal(h.values, np.roll(h.values, 2))
