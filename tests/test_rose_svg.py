"""SVG bytes do not depend on the numpy version; bad arguments are
refused."""

import numpy as np
import pytest

from pacerose.rose_svg import curve_svg, rose_svg


def test_max_value_is_written_as_a_plain_float():
    # numpy 2 writes a float64's repr as "np.float64(0.5)", numpy 1 as "0.5"
    svg = rose_svg(np.array([0.5, 0.25]), "t")
    assert "max value 0.5<" in svg


def test_one_bin_is_a_disc():
    # an arc whose ends coincide draws nothing, so the one wedge is a circle
    svg = rose_svg([0.7], "t")
    assert "<path" not in svg
    assert ('<circle cx="210.0" cy="210.0" r="180.000" fill="#4878a8" '
            'fill-opacity="0.75" stroke="#2f4f6f" stroke-width="0.5"/>'
            in svg)
    assert "<path" not in rose_svg([0.0], "t")


def test_two_bins_are_two_half_discs():
    svg = rose_svg([1.0, 0.25], "t")
    assert svg.count("<path") == 2
    assert ('<path d="M 210.0 210.0 L 120.000 210.000 '
            'A 90.000 90.000 0 0 0 300.000 210.000 Z"' in svg)


@pytest.mark.parametrize("values", [[], [0.5, -0.25]],
                         ids=["empty", "negative"])
def test_rose_needs_nonnegative_values(values):
    with pytest.raises(ValueError) as err:
        rose_svg(values, "t")
    assert str(err.value) == "rose_svg needs at least one nonnegative value"


@pytest.mark.parametrize("offsets, values", [([0.0, 1.0], [1.0]),
                                             ([0.0], [1.0])],
                         ids=["unequal", "one-point"])
def test_curve_needs_two_matching_points(offsets, values):
    with pytest.raises(ValueError) as err:
        curve_svg(offsets, values, "t")
    assert str(err.value) == "curve_svg needs matching offsets and values"
