import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pacerose.angles import (
    TWO_PI,
    AngularHistogram,
    bin_index,
    build_histogram,
    compass_to_math,
    wrap_angle,
)

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
