"""SVG bytes do not depend on the numpy version."""

import numpy as np

from pacerose.rose_svg import rose_svg


def test_max_value_is_written_as_a_plain_float():
    # numpy 2 writes a float64's repr as "np.float64(0.5)", numpy 1 as "0.5"
    svg = rose_svg(np.array([0.5, 0.25]), "t")
    assert "max value 0.5<" in svg
