"""Influence-curve reconstruction, prediction, and sign diagnostics.

The fitted coefficients define two periodic influence curves: one giving the
weight of demand mass at a signed angular offset from the travel direction,
one giving the weight of network mass. Curves are Fourier sums over the
fitted harmonics; reconstruction can restrict itself to statistically
significant terms, prediction always uses every fitted coefficient.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .angles import AngularHistogram, require_size
from .errors import (InputFormatError, NumericalError, SpecMismatchError,
                     read_input)
from .estimator import FitResult, t_statistics
from .features import ModelSpec, fourier_basis, model_signal
from .files import json_object, json_value, write_atomic
from .special import t_p_value

MODEL_FORMAT = "pacerose-model/1"

_COLUMN_RE = re.compile(r"^([ab])_([cs])(\d+)$")

__all__ = [
    "InfluenceCurve",
    "check_grid_size",
    "expected_sign_report",
    "load_model",
    "predict_pace",
    "reconstruct_curve",
    "save_model",
]


@dataclass(frozen=True)
class InfluenceCurve:
    """A reconstructed influence curve sampled on an offset grid.

    ``offsets`` are strictly increasing. ``reconstruct_curve`` samples the
    even grid -pi + 2 pi i / G, i < G, in [-pi, pi); its offset G // 2 is
    exactly 0.0, and every value is finite.
    """

    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def value_at_zero(self) -> float:
        """Curve value at the offset nearest 0 (0 itself on the grids of
        ``reconstruct_curve``)."""
        i = int(np.argmin(np.abs(self.offsets)))
        return float(self.values[i])

    def argmax_offset(self) -> float:
        return float(self.offsets[int(np.argmax(self.values))])

    def argmin_offset(self) -> float:
        return float(self.offsets[int(np.argmin(self.values))])


def _curve_series(column_names, coefficients, mask, kind):
    """The requested curve's coefficients in ``fourier_basis`` order, and
    the harmonics of its terms."""
    prefix = "a" if kind == "alpha" else "b"
    rows = {}
    for j, name in enumerate(column_names):
        m = _COLUMN_RE.match(name)
        if m is None:
            raise ValueError(f"unrecognized column name {name!r}")
        if m.group(1) == prefix and (mask is None or mask[j]):
            # cos k theta is row 2k - 1 of the basis, sin k theta row 2k
            k = int(m.group(3))
            rows[2 * k - (m.group(2) == "c")] = float(coefficients[j])
    harmonics = {(row + 1) // 2 for row in rows}
    series = np.zeros(2 * max(harmonics, default=0) + 1)
    series[list(rows)] = list(rows.values())
    return series, harmonics


def check_grid_size(grid_size: int):
    """Refuse a curve grid other than an even number >= 8 that fits an
    array: an odd grid has no offset 0 to read alpha(0) and beta(0) at."""
    if grid_size < 8 or grid_size % 2:
        raise ValueError(
            f"curve grid must be an even number >= 8, got {grid_size}")
    require_size("curve grid", grid_size)


def reconstruct_curve(
    column_names,
    coefficients,
    mask=None,
    kind: str = "alpha",
    grid_size: int = 256,
) -> InfluenceCurve:
    """Fourier reconstruction of an influence curve on a uniform offset grid.

    ``mask`` (boolean, aligned with ``column_names``) keeps only masked-in
    terms; masked-out terms contribute zero. With no mask every coefficient
    of the requested kind enters. A value beyond the float range raises
    NumericalError.
    """
    check_grid_size(grid_size)
    if kind not in ("alpha", "beta"):
        raise ValueError("kind must be 'alpha' or 'beta'")
    coefficients = np.asarray(coefficients, dtype=float)
    if len(column_names) != coefficients.size:
        raise ValueError("column_names and coefficients must align")
    if mask is not None and len(mask) != len(column_names):
        raise ValueError("mask and column_names must align")
    offsets = -math.pi + np.arange(grid_size) * (2.0 * math.pi / grid_size)
    offsets[grid_size // 2] = 0.0  # -pi + pi rounds to 4.4e-16 for G = 50
    series, harmonics = _curve_series(column_names, coefficients, mask, kind)
    # with only even harmonics the curve has period pi, so offsets i and
    # i + G/2 tie exactly: the first half is computed and copied, and the
    # extremes are reported at the first of two tied offsets
    period_pi = all(k % 2 == 0 for k in harmonics)
    computed = offsets[:grid_size // 2] if period_pi else offsets
    with np.errstate(over="ignore", invalid="ignore"):
        values = fourier_basis(computed, series.size // 2) @ series
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{kind} curve exceeds the float range")
    if period_pi:
        values = np.tile(values, 2)
    return InfluenceCurve(offsets=offsets, values=values)


def predict_pace(
    theta,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    fit: FitResult,
    spec: ModelSpec,
):
    """Predicted pace (s/km) for direction ``theta``.

    A scalar ``theta`` gives a float, an array of directions an array of
    the same shape. Uses every fitted coefficient; significance masking
    applies only to curve reconstruction.
    """
    if fit.column_names != spec.column_names:
        raise SpecMismatchError(
            "fit and spec disagree on the regression columns"
        )
    paces = model_signal(theta, demand_hist, network_hist, spec, fit.params())
    return float(paces) if np.ndim(paces) == 0 else paces


def expected_sign_report(alpha: InfluenceCurve, beta: InfluenceCurve) -> str:
    """Plain-text diagnostic of curve signs at zero offset.

    More same-direction demand is expected to raise pace (alpha(0) > 0);
    more same-direction road supply is expected to lower it (beta(0) < 0).
    Informational only; never raises.
    """
    lines = []
    for curve, name, expect_positive in (
        (alpha, "alpha", True),
        (beta, "beta", False),
    ):
        v0 = curve.value_at_zero()
        if v0 == 0.0:
            verdict = "indeterminate (zero)"
        else:
            sign = "positive" if v0 > 0.0 else "negative"
            expected = "positive" if expect_positive else "negative"
            verdict = (
                f"{sign}; matches expectation ({expected})"
                if (v0 > 0.0) == expect_positive
                else f"{sign}; contrary to expectation ({expected})"
            )
        lines.append(f"{name}(0) = {v0:.4f} -> {verdict}")
        lines.append(
            f"  {name} argmax offset = {curve.argmax_offset():+.4f} rad, "
            f"argmin offset = {curve.argmin_offset():+.4f} rad"
        )
    return "\n".join(lines)


# the statistics of model.json, in file order: key, shape (_COLUMNS: one
# value per column; (): a number; int: a count, checked by load_model
# against the spec and the other counts), and a number's closed range and
# whether it may be infinite, as an exact fit's t values and F statistic are
_COLUMNS = "one value per column"
_STATISTICS = (
    ("gamma", (), -math.inf, math.inf, False),
    ("gamma_std_error", (), 0.0, math.inf, False),
    ("coefficients", _COLUMNS, -math.inf, math.inf, False),
    ("std_errors", _COLUMNS, 0.0, math.inf, False),
    ("t_values", _COLUMNS, -math.inf, math.inf, True),
    ("p_values", _COLUMNS, 0.0, 1.0, False),
    ("r_squared", (), 0.0, 1.0, False),
    ("f_statistic", (), 0.0, math.inf, True),
    ("prob_f", (), 0.0, 1.0, False),
    ("n_samples", int, None, None, False),
    ("dof_residual", int, None, None, False),
    ("rank", int, None, None, False),
)


def save_model(
    path,
    fit: FitResult,
    spec: ModelSpec,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
):
    """Write a self-contained fitted model as versioned JSON."""
    payload = {
        "format": MODEL_FORMAT,
        "k_max": spec.k_max,
        "bins": spec.bins,
        "point_symmetric": spec.network_point_symmetric,
        "column_names": list(fit.column_names),
        **{key: np.asarray(getattr(fit, key)).tolist()
           for key, *_ in _STATISTICS},
        "demand_hist": demand_hist.values.tolist(),
        "network_hist": network_hist.values.tolist(),
    }
    write_atomic(path, json.dumps(payload, indent=1) + "\n")


def _model_numbers(payload: dict, key: str, shape, low=-math.inf,
                   high=math.inf, may_be_infinite=False):
    """Entry ``key``: an integer for shape int, a number for shape () or
    else a float array of ``shape``, whose values are finite, unless
    ``may_be_infinite``, and lie in [low, high]."""
    if shape is int:
        return json_value(payload, key, int)
    values = json_value(payload, key, list[float] if shape else float)
    if np.shape(values) != shape:
        raise ValueError(
            f"{key}: expected shape {shape}, got {np.shape(values)}")
    bad = np.isnan(values) if may_be_infinite else ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(f"{key}: values must be finite")
    if np.any((values < low) | (values > high)):
        raise ValueError(f"{key}: values must be in [{low:g}, {high:g}]")
    return values


def load_model(path):
    """Load a model written by save_model.

    Returns (fit, spec, demand_hist, network_hist); each error names ``path``.

    Raises
    ------
    InputFormatError
        If the file is not a JSON object, lacks a key, or holds a value of
        the wrong JSON type, an array whose length disagrees with the spec's
        columns or bins, a statistic outside its ``_STATISTICS`` row, a
        dof_residual below 1, a rank outside [1, parameter count], n_samples
        other than rank + dof_residual, or an invalid spec or histogram.
    SpecMismatchError
        On an unknown format, or column names or histograms the spec refuses.
    """
    return read_input(path, _model)


def _model(f):
    """``load_model`` of the open model file ``f``."""
    payload = json_object(f)
    try:
        if payload.get("format") != MODEL_FORMAT:
            raise SpecMismatchError(
                f"unsupported model format {payload.get('format')!r}")
        spec = ModelSpec(
            k_max=json_value(payload, "k_max", int),
            bins=json_value(payload, "bins", int),
            network_point_symmetric=json_value(payload, "point_symmetric",
                                               bool),
        )
        column_names = tuple(json_value(payload, "column_names", list[str]))
        dof_residual = json_value(payload, "dof_residual", int)
        if dof_residual < 1:
            raise ValueError("dof_residual must be >= 1")
        if (len(column_names) != spec.parameter_count - 1
                or column_names != spec.column_names):
            raise SpecMismatchError("model column names do not match its spec")
        columns = (len(column_names),)
        stats = {key: _model_numbers(payload, key,
                                     columns if shape is _COLUMNS else shape,
                                     low, high, may_be_infinite)
                 for key, shape, low, high, may_be_infinite in _STATISTICS}
        gamma_t = float(t_statistics(stats["gamma"],
                                     stats["gamma_std_error"]))
        fit = FitResult(column_names=column_names, **stats,
                        gamma_t_value=gamma_t,
                        gamma_p_value=t_p_value(abs(gamma_t), dof_residual))
        if not 1 <= fit.rank <= spec.parameter_count:
            raise ValueError(f"rank must be in [1, {spec.parameter_count}], "
                             f"got {fit.rank}")
        if fit.n_samples != fit.rank + dof_residual:
            raise ValueError(f"n_samples must be rank + dof_residual = "
                             f"{fit.rank + dof_residual}, got {fit.n_samples}")
        demand_hist = AngularHistogram(
            spec.bins, _model_numbers(payload, "demand_hist", (spec.bins,)))
        network_hist = AngularHistogram(
            spec.bins, _model_numbers(payload, "network_hist", (spec.bins,)))
        spec.check_histograms(demand_hist, network_hist)
    except (ValueError, OverflowError) as exc:
        # OverflowError: a dof_residual beyond the float range
        raise InputFormatError(f"invalid model: {exc}") from exc
    return fit, spec, demand_hist, network_hist
