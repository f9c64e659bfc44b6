"""Fourier-weighted histogram features and the regression design matrix.

For a trip heading theta and a histogram h with bin centers c_j, harmonic k
gives the feature pair

    sum_j h_j cos(k (c_j - theta)) = C_k cos(k theta) + S_k sin(k theta)
    sum_j h_j sin(k (c_j - theta)) = S_k cos(k theta) - C_k sin(k theta)

with the histogram's moments C_k, S_k = sum_j h_j cos/sin(k c_j). So the
design factors as [1 X] = F(theta) M(d, n): the Fourier basis F(theta) =
[1, cos theta, sin theta, ..., cos K theta, sin K theta] times the moment
matrix M of both histograms. Every evaluation goes through that product:
``model_features`` is F M without the intercept column, ``model_signal``
evaluates a model as F (M [gamma; c]) a block of directions at a time,
without forming X, and ``fourier_design`` hands the solver F and M, so the
fit never forms X.
Rotating data and histograms together leaves every feature unchanged, and
demand and network columns sharing a k both lie in the span of cos(k theta)
and sin(k theta): the design is collinear whenever both carry mass at k.

Moments within rounding of zero are set to exactly zero, so a harmonic a
histogram lacks gives exactly zero columns rather than rounding noise.

Column layout is fixed: demand columns a_c1, a_s1, ..., a_cK, a_sK, then
network columns in ascending harmonic, cos before sin. When the network
histogram is point symmetric, odd network harmonics vanish identically and
only even-k columns are emitted. Every model has an intercept; it is not a
column here, the estimator adds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, AngularHistogram
from .errors import SpecMismatchError
from .estimator import FactoredDesign, require_samples, row_blocks

POINT_SYMMETRY_TOL = 1e-9
# C_k or S_k within ZERO_MOMENT_ULPS * eps * (B + 2*pi*k) of zero is the
# rounding noise of a moment that vanishes exactly, such as an odd moment of
# a point-symmetric histogram, and is set to 0
ZERO_MOMENT_ULPS = 4.0

__all__ = [
    "ModelSpec",
    "build_design_matrix",
    "demand_features",
    "fourier_basis",
    "fourier_design",
    "model_features",
    "model_signal",
    "moment_matrix",
    "network_features",
]


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the regression: harmonic depth, bins, and symmetry handling.

    Counts come from the harmonic ranges in O(1), so a huge ``k_max`` is
    refused by a count check; column names are built only when asked for.
    """

    k_max: int = 8
    bins: int = 32
    network_point_symmetric: bool = True

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.network_point_symmetric and self.bins % 2 != 0:
            raise ValueError("point-symmetric network requires an even bin count")

    @property
    def demand_harmonics(self) -> range:
        return range(1, self.k_max + 1)

    @property
    def network_harmonics(self) -> range:
        if self.network_point_symmetric:
            return range(2, self.k_max + 1, 2)
        return range(1, self.k_max + 1)

    @property
    def demand_column_names(self) -> tuple:
        return tuple(
            f"a_{part}{k}" for k in self.demand_harmonics for part in ("c", "s")
        )

    @property
    def network_column_names(self) -> tuple:
        return tuple(
            f"b_{part}{k}" for k in self.network_harmonics for part in ("c", "s")
        )

    @property
    def column_names(self) -> tuple:
        return self.demand_column_names + self.network_column_names

    @property
    def parameter_count(self) -> int:
        """Number of fitted parameters including the intercept."""
        return 1 + 2 * (len(self.demand_harmonics)
                        + len(self.network_harmonics))

    def check_histograms(self, demand_hist: AngularHistogram,
                         network_hist: AngularHistogram):
        """Raise SpecMismatchError unless both histograms have the spec's
        bins and the network is point symmetric when the spec asks for it."""
        for hist, what in ((demand_hist, "demand"), (network_hist, "network")):
            if hist.bin_count != self.bins:
                raise SpecMismatchError(
                    f"{what} histogram has {hist.bin_count} bins, "
                    f"spec wants {self.bins}"
                )
        if self.network_point_symmetric:
            _check_point_symmetry(network_hist)


def fourier_basis(thetas, k_max: int) -> np.ndarray:
    """F(theta) = [1, cos theta, sin theta, ..., cos K theta, sin K theta].

    Shape ``np.shape(thetas) + (2 * k_max + 1,)``; ``k_max`` 0 gives the
    constant column alone. Every Fourier series in an angle, a feature, a
    curve or a planted histogram, is evaluated as this basis times its
    coefficients in this order. Harmonic k comes from k - 1 by the
    angle-addition formulas, four products in place of two cos/sin calls;
    the error grows like k times the rounding unit.
    """
    thetas = np.asarray(thetas, dtype=float)
    # built one basis function per row, so each step runs on contiguous rows
    f = np.empty((2 * k_max + 1, thetas.size))
    f[0] = 1.0
    if k_max:
        cos1 = np.cos(thetas.ravel(), out=f[1])
        sin1 = np.sin(thetas.ravel(), out=f[2])
    term = np.empty(thetas.size)
    for k in range(2, k_max + 1):
        cos_prev, sin_prev = f[2 * k - 3], f[2 * k - 2]
        cos_k = np.multiply(cos_prev, cos1, out=f[2 * k - 1])
        cos_k -= np.multiply(sin_prev, sin1, out=term)
        sin_k = np.multiply(sin_prev, cos1, out=f[2 * k])
        sin_k += np.multiply(cos_prev, sin1, out=term)
    return f.T.reshape(thetas.shape + (2 * k_max + 1,))


def demand_features(theta: float, hist: AngularHistogram, k_max: int) -> np.ndarray:
    """Demand feature vector of length 2*k_max for one direction."""
    return (fourier_basis(theta, k_max)
            @ _moment_columns(hist, range(1, k_max + 1), k_max))


def network_features(
    theta: float,
    hist: AngularHistogram,
    k_max: int,
    point_symmetric: bool = True,
) -> np.ndarray:
    """Network feature vector for one direction.

    With ``point_symmetric`` the histogram is validated against
    value[i] == value[i + B/2] and only even harmonics are emitted (odd ones
    are identically zero for such histograms).
    """
    if point_symmetric:
        _check_point_symmetry(hist)
    harmonics = range(2, k_max + 1, 2) if point_symmetric else range(1, k_max + 1)
    return fourier_basis(theta, k_max) @ _moment_columns(hist, harmonics, k_max)


def _check_point_symmetry(hist: AngularHistogram):
    if hist.bin_count % 2 != 0:
        raise SpecMismatchError(
            "point-symmetric network features need an even bin count"
        )
    half = hist.bin_count // 2
    defect = np.abs(hist.values - np.roll(hist.values, half))
    worst = int(np.argmax(defect))
    if defect[worst] > POINT_SYMMETRY_TOL:
        raise SpecMismatchError(
            "network histogram is not point symmetric: bins "
            f"{worst % half} and {worst % half + half} differ by "
            f"{defect[worst]:.3e}"
        )


def model_features(
    thetas,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    spec: ModelSpec,
) -> np.ndarray:
    """All regressor columns of ``spec`` at ``thetas``, in column order.

    Validates both histograms against the spec (bin count, point symmetry
    when the spec asks for it). Any number of directions is accepted; the
    result has shape ``np.shape(thetas) + (parameter_count - 1,)``.
    """
    spec.check_histograms(demand_hist, network_hist)
    return (fourier_basis(thetas, spec.k_max)
            @ moment_matrix(demand_hist, network_hist, spec)[:, 1:])


def model_signal(
    thetas,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    spec: ModelSpec,
    params,
):
    """``params[0] + model_features(thetas, ...) @ params[1:]``.

    Evaluated as ``F(theta) w`` with ``w = M params``, one block of
    ``BLOCK_ROWS`` directions at a time, so neither X nor more than a block
    of F is held; the result has the shape of ``thetas``. The same checks as
    ``model_features`` run.
    """
    spec.check_histograms(demand_hist, network_hist)
    weights = moment_matrix(demand_hist, network_hist, spec) @ params
    thetas = np.asarray(thetas, dtype=float)
    flat = thetas.ravel()
    signal = np.empty(flat.size)
    for start, stop in row_blocks(flat.size):
        signal[start:stop] = fourier_basis(flat[start:stop],
                                           spec.k_max) @ weights
    return signal.reshape(thetas.shape)


def _moment_columns(hist: AngularHistogram, harmonics: range, k_max: int):
    """The columns of ``hist``'s features in M.

    Shape ``(2 * k_max + 1, 2 * len(harmonics))``: harmonic k's pair in rows
    2k-1 and 2k, from the moments C_k, S_k of ``hist``, which are rows 2k-1
    and 2k of ``hist.values @ fourier_basis(centers, k_max)``; rounding noise
    of a zero moment is 0.
    """
    k = np.asarray(harmonics, dtype=int)
    moments = hist.values @ fourier_basis(hist.bin_centers(), k_max)
    c, s = moments[2 * k - 1], moments[2 * k]
    noise = (ZERO_MOMENT_ULPS * np.finfo(float).eps
             * (hist.bin_count + TWO_PI * k))
    c[np.abs(c) <= noise] = 0.0
    s[np.abs(s) <= noise] = 0.0
    m = np.zeros((2 * k_max + 1, 2 * k.size))
    cols = 2 * np.arange(k.size)
    # C_k cos k theta + S_k sin k theta, then S_k cos k theta - C_k sin k theta
    m[2 * k - 1, cols], m[2 * k, cols] = c, s
    m[2 * k - 1, cols + 1], m[2 * k, cols + 1] = s, -c
    return m


def moment_matrix(
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    spec: ModelSpec,
) -> np.ndarray:
    """M with ``[1 X] = fourier_basis(theta, spec.k_max) @ M``.

    Shape ``(2 * k_max + 1, parameter_count)``: the intercept column, then
    the spec's columns. A harmonic's rows are exactly zero in every column
    whose histogram lacks that harmonic.
    """
    intercept = np.zeros((2 * spec.k_max + 1, 1))
    intercept[0] = 1.0
    return np.hstack([
        intercept,
        _moment_columns(demand_hist, spec.demand_harmonics, spec.k_max),
        _moment_columns(network_hist, spec.network_harmonics, spec.k_max),
    ])


def _targets(paces, directions, spec: ModelSpec):
    """Paces and directions as float arrays, enough of them for ``spec``."""
    y = np.asarray(paces, dtype=float)
    thetas = np.asarray(directions, dtype=float)
    if y.shape != thetas.shape or y.ndim != 1:
        raise ValueError("paces and directions must be 1-D and equally long")
    require_samples(y.size, spec.parameter_count)
    return y, thetas


def build_design_matrix(
    paces,
    directions,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    spec: ModelSpec,
):
    """Design matrix X (N x (p-1)) and target vector y for the regression.

    Row i concatenates the demand and network features of trip i's
    direction; y_i is its pace in seconds per kilometer. The intercept is
    appended later by the estimator.
    """
    y, thetas = _targets(paces, directions, spec)
    X = model_features(thetas, demand_hist, network_hist, spec)
    return X, y.copy()


def fourier_design(
    paces,
    directions,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    spec: ModelSpec,
):
    """The regression of ``build_design_matrix`` without its N x p matrix.

    Returns (design, y) for ``ols_fit``: ``[1 X] = F(theta) M`` as a
    ``FactoredDesign`` with F ``fourier_basis`` and M ``moment_matrix``.
    The same checks run first; F is made a block of rows at a time.
    """
    y, thetas = _targets(paces, directions, spec)
    spec.check_histograms(demand_hist, network_hist)
    if not np.all(np.isfinite(thetas)):
        raise ValueError("directions must be finite")
    moments = moment_matrix(demand_hist, network_hist, spec)

    def basis(start, stop):
        return fourier_basis(thetas[start:stop], spec.k_max)

    return FactoredDesign(thetas.size, moments, basis), y
