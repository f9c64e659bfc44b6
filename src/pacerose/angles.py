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

from .errors import InputFormatError

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "AngularHistogram",
    "TotalError",
    "bin_index",
    "build_histogram",
    "compass_to_math",
    "require_size",
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


class TotalError(InputFormatError, ValueError):
    """A histogram total that is not positive and finite."""

    def __init__(self, total: float):
        super().__init__(f"histogram values sum to {total!r}")
        self.total = total


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

    @classmethod
    def from_weights(cls, weights, total=None) -> "AngularHistogram":
        """Nonnegative bin ``weights`` over ``total``, by default their sum:
        the one normalization. A total that is not positive and finite, such
        as a sum that overflows to ``inf`` (no warning), raises TotalError."""
        weights = np.asarray(weights, dtype=float)
        with np.errstate(over="ignore"):
            total = float(weights.sum() if total is None else total)
        if not 0.0 < total < math.inf:
            raise TotalError(total)
        return cls(weights.size, weights / total)

    def rotated(self, shift_bins: int) -> "AngularHistogram":
        """Histogram after rotating all underlying angles by shift_bins bins."""
        return AngularHistogram(self.bin_count,
                                np.roll(self.values, shift_bins))


def build_histogram(angles, weights=None, bin_count: int = 32,
                    point_symmetric: bool = False) -> AngularHistogram:
    """Histogram of ``angles``, each adding its weight (default 1) to the
    half-open bin containing it, divided by the weights' sum by
    ``AngularHistogram.from_weights``: no angles at all raise TotalError.

    With ``point_symmetric`` each angle also counts half a turn on, and the
    sum is doubled: for an even bin count in its own bin plus B/2, so the
    result is point symmetric to the last bit even where angle + pi rounds
    onto a bin edge, and for an odd one in the bin of angle + pi. Raises
    ValueError on non-finite angles or negative weights.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1)
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    weights = (np.ones(angles.size) if weights is None
               else np.asarray(weights, dtype=float))
    if weights.shape != angles.shape:
        raise ValueError("weights must match angles in length")
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    index = bin_index(angles, bin_count)
    if point_symmetric:
        opposite = (bin_index(angles + math.pi, bin_count) if bin_count % 2
                    else (index + bin_count // 2) % bin_count)
        # side by side, so bins j and j + B/2 add the same weights in order
        index = np.column_stack([index, opposite]).ravel()
        weights = np.repeat(weights, 2)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    return AngularHistogram.from_weights(
        np.bincount(index, weights=weights, minlength=bin_count), total)


def require_size(name: str, n: int, low: int = 1):
    """The one size rule: a count ``n`` of floats is at least ``low`` and its
    array fits with room to spare (``16 n`` bytes at most ``np.intp``'s max;
    ``np.arange`` refuses some sizes under ``8 n``), or a ValueError names
    ``name``. A size too large for memory raises MemoryError on allocation."""
    limit = np.iinfo(np.intp).max // 16
    if not low <= n <= limit:
        bound = f">= {low}" if n < low else f"at most {limit}"
        raise ValueError(f"{name} must be {bound}, got {n}")
