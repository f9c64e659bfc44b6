"""Angle arithmetic and circular histograms.

Angles are floats or float arrays in radians, in the mathematical
convention: 0 points along +x (east) and angles grow counterclockwise.
Canonical storage range is [0, 2*pi). The circle is split into
``bin_count`` equal half-open bins [i*2*pi/B, (i+1)*2*pi/B), each
represented by its center (i+0.5)*2*pi/B.

All functions here are pure; histograms are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "AngularHistogram",
    "bin_index",
    "build_histogram",
    "compass_to_math",
    "wrap_angle",
]


def wrap_angle(x):
    """Wrap finite angles (radians) into [0, 2*pi).

    A scalar gives a float, an array an array of the same shape.
    Idempotent: wrapping an already-wrapped angle returns it bit-identically.

    Raises
    ------
    ValueError
        If any angle is NaN or infinite.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = np.fmod(x, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    # adding TWO_PI to a tiny negative can round up to exactly TWO_PI
    r = np.where(r >= TWO_PI, 0.0, r)
    return float(r) if r.ndim == 0 else r


def compass_to_math(bearing):
    """Convert compass bearings (0 = north, clockwise) to math convention.

    Takes a scalar or an array, like ``wrap_angle``. The transform is its
    own inverse.
    """
    return wrap_angle(0.5 * math.pi - bearing)


def bin_index(angle, bin_count: int):
    """Index of the half-open bin containing ``angle`` (wrapped first).

    A scalar gives an int, an array an int array of the same shape.
    """
    idx = np.trunc(wrap_angle(angle) * bin_count / TWO_PI).astype(np.int64)
    # multiply can round up to bin_count for angles just below 2*pi
    idx = np.minimum(idx, bin_count - 1)
    return int(idx) if idx.ndim == 0 else idx


@dataclass(frozen=True)
class AngularHistogram:
    """Frequencies over ``bin_count`` equal circular bins.

    ``values[i]`` belongs to the half-open interval starting at i*2*pi/B.
    The values sum to 1 within 1e-12.
    """

    bin_count: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.bin_count,):
            raise ValueError(
                f"expected {self.bin_count} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("histogram values must be finite")
        if np.any(values < 0.0):
            raise ValueError("histogram values must be nonnegative")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValueError(
                f"histogram must sum to 1, got {float(values.sum())!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def bin_width(self) -> float:
        return TWO_PI / self.bin_count

    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.bin_count) + 0.5) * (TWO_PI / self.bin_count)

    def rotated(self, shift_bins: int) -> "AngularHistogram":
        """Histogram after rotating all underlying angles by shift_bins bins."""
        return AngularHistogram(self.bin_count,
                                np.roll(self.values, shift_bins))

    def point_symmetry_defect(self) -> float:
        """Max |values[i] - values[i + B/2]| over all bin pairs (B even)."""
        if self.bin_count % 2 != 0:
            raise ValueError("point symmetry is defined for even bin counts")
        half = self.bin_count // 2
        return float(np.max(np.abs(self.values - np.roll(self.values, half))))


def build_histogram(angles, weights=None, bin_count: int = 32) -> AngularHistogram:
    """Normalized angular histogram of ``angles`` with optional weights.

    Each angle contributes its weight to the half-open bin containing it;
    bin totals are divided by the total weight. Weights default to 1.

    Raises
    ------
    ValueError
        On empty input, nonpositive total weight, negative weights, or
        non-finite angles.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1:
        angles = angles.reshape(-1)
    if angles.size == 0:
        raise ValueError("cannot build a histogram from zero angles")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    if weights is None:
        weights = np.ones(angles.size)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != angles.shape:
            raise ValueError("weights must match angles in length")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and nonnegative")
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    values = np.bincount(bin_index(angles, bin_count), weights=weights,
                         minlength=bin_count) / total
    return AngularHistogram(bin_count, values)
