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

from .angles import AngularHistogram
from .errors import InputFormatError, SpecMismatchError
from .estimator import FitResult, t_statistics
from .features import ModelSpec, fourier_basis, model_signal
from .files import json_object, json_value, write_atomic
from .special import t_p_value

MODEL_FORMAT = "pacerose-model/1"

_COLUMN_RE = re.compile(r"^([ab])_([cs])(\d+)$")

__all__ = [
    "InfluenceCurve",
    "expected_sign_report",
    "load_model",
    "predict_pace",
    "reconstruct_curve",
    "save_model",
]


@dataclass(frozen=True)
class InfluenceCurve:
    """A reconstructed influence curve sampled on an offset grid.

    ``offsets`` are strictly increasing in [-pi, pi); for an even grid size
    the midpoint is exactly 0.0.
    """

    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    kind: str = "alpha"
    significance_filtered: bool = False

    def __post_init__(self):
        if self.kind not in ("alpha", "beta"):
            raise ValueError("kind must be 'alpha' or 'beta'")
        offsets = np.asarray(self.offsets, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if offsets.shape != values.shape or offsets.ndim != 1:
            raise ValueError("offsets and values must be 1-D and equally long")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if np.any(np.diff(offsets) <= 0.0):
            raise ValueError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "values", values)

    def value_at_zero(self) -> float:
        """Curve value at offset 0 (exact grid point for even grid sizes)."""
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
    of the requested kind enters.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    if kind not in ("alpha", "beta"):
        raise ValueError("kind must be 'alpha' or 'beta'")
    coefficients = np.asarray(coefficients, dtype=float)
    if len(column_names) != coefficients.size:
        raise ValueError("column_names and coefficients must align")
    offsets = -math.pi + np.arange(grid_size) * (2.0 * math.pi / grid_size)
    series, harmonics = _curve_series(column_names, coefficients, mask, kind)
    # with only even harmonics the curve has period pi, so offsets i and
    # i + G/2 tie exactly: the first half is computed and copied, and the
    # extremes are reported at the first of two tied offsets
    period_pi = grid_size % 2 == 0 and all(k % 2 == 0 for k in harmonics)
    computed = offsets[:grid_size // 2] if period_pi else offsets
    values = fourier_basis(computed, series.size // 2) @ series
    if period_pi:
        values = np.tile(values, 2)
    return InfluenceCurve(
        offsets=offsets,
        values=values,
        kind=kind,
        significance_filtered=mask is not None,
    )


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
        "gamma": fit.gamma,
        "gamma_std_error": fit.gamma_std_error,
        "coefficients": [float(v) for v in fit.coefficients],
        "std_errors": [float(v) for v in fit.std_errors],
        "t_values": [float(v) for v in fit.t_values],
        "p_values": [float(v) for v in fit.p_values],
        "r_squared": fit.r_squared,
        "f_statistic": fit.f_statistic,
        "prob_f": fit.prob_f,
        "n_samples": fit.n_samples,
        "dof_residual": fit.dof_residual,
        "rank": fit.rank,
        "demand_hist": [float(v) for v in demand_hist.values],
        "network_hist": [float(v) for v in network_hist.values],
    }
    write_atomic(path, json.dumps(payload, indent=1) + "\n")


# an exact fit (zero residuals) has infinite t values and F statistic
_MAY_BE_INFINITE = ("t_values", "f_statistic")

# the closed range of each statistic that has one
_RANGES = {
    "std_errors": (0.0, math.inf), "gamma_std_error": (0.0, math.inf),
    "p_values": (0.0, 1.0), "prob_f": (0.0, 1.0), "r_squared": (0.0, 1.0),
    "f_statistic": (0.0, math.inf),
}


def _model_numbers(payload: dict, key: str, shape: tuple):
    """Entry ``key``, a number for shape () or else a float array of
    ``shape``, checked for finiteness and against its ``_RANGES`` entry."""
    values = json_value(payload, key, list[float] if shape else float)
    if np.shape(values) != shape:
        raise ValueError(
            f"{key}: expected shape {shape}, got {np.shape(values)}")
    bad = np.isnan(values) if key in _MAY_BE_INFINITE else ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(f"{key}: values must be finite")
    low, high = _RANGES.get(key, (-math.inf, math.inf))
    if np.any((values < low) | (values > high)):
        raise ValueError(f"{key}: values must be in [{low:g}, {high:g}]")
    return values


def load_model(path):
    """Load a model written by save_model.

    Returns (fit, spec, demand_hist, network_hist).

    Raises
    ------
    InputFormatError
        If the file is not a JSON object, lacks a key, or holds a value of
        the wrong JSON type, an array whose length disagrees with the spec's
        columns or bins, a non-finite value, a statistic outside its range
        (a rank outside [1, parameter count], n_samples other than
        rank + dof_residual, a negative standard error or F statistic, a
        p-value, prob_f or r_squared outside [0, 1]), or an invalid spec or
        histogram.
    SpecMismatchError
        On an unknown format or column names that disagree with the spec.
    """
    payload = json_object(path)
    if payload.get("format") != MODEL_FORMAT:
        raise SpecMismatchError(
            f"unsupported model format {payload.get('format')!r}"
        )
    try:
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
        gamma = _model_numbers(payload, "gamma", ())
        gamma_se = _model_numbers(payload, "gamma_std_error", ())
        gamma_t = float(t_statistics(gamma, gamma_se))
        fit = FitResult(
            column_names=column_names,
            gamma=gamma,
            coefficients=_model_numbers(payload, "coefficients", columns),
            std_errors=_model_numbers(payload, "std_errors", columns),
            t_values=_model_numbers(payload, "t_values", columns),
            p_values=_model_numbers(payload, "p_values", columns),
            gamma_std_error=gamma_se,
            gamma_t_value=gamma_t,
            gamma_p_value=t_p_value(abs(gamma_t), dof_residual),
            r_squared=_model_numbers(payload, "r_squared", ()),
            f_statistic=_model_numbers(payload, "f_statistic", ()),
            prob_f=_model_numbers(payload, "prob_f", ()),
            n_samples=json_value(payload, "n_samples", int),
            dof_residual=dof_residual,
            rank=json_value(payload, "rank", int),
        )
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
    except (ValueError, OverflowError) as exc:
        # OverflowError: a dof_residual beyond the float range
        raise InputFormatError(f"{path}: invalid model: {exc}") from exc
    return fit, spec, demand_hist, network_hist
