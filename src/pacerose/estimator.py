"""Ordinary least squares with inference statistics.

Every design is given as ``[1 X] = G M``: a tall basis G (N x q) that is
produced one block of rows at a time and a small matrix M (q x p) with
orthogonal rows. A dense X is the case G = [1 X], M = I; the model's Fourier
design is the case G = F(theta), M = the histogram moments (see
``features.fourier_design``). The solver never holds [1 X]. It accumulates
the R factor of [G y] block by block (each block is stacked under the
running R and factored again, the TSQR merge), so [1 X] = Q R_G M = Q A W
with Q orthonormal, W the nonzero rows of M over their norms (orthonormal
rows) and A the columns of R_G times those norms. So pinv([1 X]) =
W^T pinv(A) Q^T: the SVD of A, of at most q columns, gives the singular
values and rank of [1 X], and params = W^T pinv(A) z, with z the y column
of R, is the minimum-norm least-squares solution. The residual sum of
squares comes from the explicit residuals y - G (M params), summed over the
same blocks, so an exact fit has RSS exactly 0. An exactly zero column of
[1 X] is a zero column of W: coefficient and standard error 0 (t 0, p 1).

The minimum-norm path exists because the Fourier features are structurally
collinear: demand and network features that share a harmonic k both span
{cos(k*theta), sin(k*theta)}, so the design is never of full column rank
when both histograms carry that k. The minimum-norm solution is the
conventional resolution (pseudoinverse-based OLS packages report it). Every
fit reports its rank and dependent columns, so a caller that wants the hard
error refuses a rank-deficient fit itself (``fit --strict-rank``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InsufficientDataError, NumericalError
from .special import f_p_value, t_p_value

RANK_RCOND = 1e-10
# a coefficient is significant when its p-value is below this level
SIGNIFICANCE_LEVEL = 0.05
_NULLSPACE_COMPONENT_TOL = 1e-6
# rows of G per block: a block of a few hundred kB stays in cache while it
# is factored, and the loop's per-block cost stays small next to the QR
BLOCK_ROWS = 1024

__all__ = [
    "FactoredDesign",
    "FitResult",
    "ols_fit",
    "pinv_row_scales",
    "report_rows",
    "require_samples",
    "row_blocks",
    "significance_mask",
    "t_statistics",
]


@dataclass(frozen=True)
class FitResult:
    """Coefficients and inference statistics of one least-squares fit.

    ``coefficients`` etc. cover the slope columns in design order; the
    intercept (gamma) is carried separately. ``dof_residual`` is
    n_samples - rank, which equals n_samples - parameter_count whenever the
    design has full column rank.
    """

    column_names: tuple
    gamma: float
    coefficients: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)
    t_values: np.ndarray = field(repr=False)
    p_values: np.ndarray = field(repr=False)
    gamma_std_error: float
    gamma_t_value: float
    gamma_p_value: float
    r_squared: float
    f_statistic: float
    prob_f: float
    n_samples: int
    dof_residual: int
    rank: int
    dependent_columns: tuple = ()

    @property
    def parameter_count(self) -> int:
        return len(self.column_names) + 1

    def params(self) -> np.ndarray:
        """Intercept followed by the slope coefficients."""
        return np.concatenate([[self.gamma], self.coefficients])


@dataclass(frozen=True)
class FactoredDesign:
    """A design ``[1 X] = G M`` whose tall basis G is made a block at a time.

    ``basis(start, stop)`` returns rows start:stop of G, shape
    ``(stop - start, q)``; ``moments`` is M, shape ``(q, p)``, whose first
    column gives the intercept column of [1 X]. M's rows must be orthogonal,
    as ``ols_fit`` solves through M's closed-form pseudoinverse
    (``pinv_row_scales``): any other M raises ValueError.
    """

    rows: int
    moments: np.ndarray
    basis: Callable

    def __post_init__(self):
        pinv_row_scales(self.moments)

    @classmethod
    def dense(cls, X) -> FactoredDesign:
        """``[1 X]`` itself as the basis, with M the identity."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError("X must be N x m and y length N")
        if not np.all(np.isfinite(X)):
            raise ValueError("X and y must be finite")

        def basis(start, stop):
            return np.column_stack([np.ones(stop - start), X[start:stop]])
        return cls(X.shape[0], np.eye(X.shape[1] + 1), basis)


def row_blocks(rows: int):
    """(start, stop) of each block of BLOCK_ROWS of ``rows`` rows, for every
    loop over N rows of floats: the fit, the model signal, the noise draws
    and the trip CSV writer. Ingest reads text in 4096-line blocks
    (``ingest.BLOCK_ROWS``) to spread each parser call's fixed cost."""
    for start in range(0, rows, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, rows)


def t_statistics(params, se):
    """The t statistics ``params / se``.

    Where a standard error is 0 (an exact fit, or an exactly zero column),
    the t statistic is 0 for a zero parameter and infinite with the
    parameter's sign otherwise. A ratio beyond the float range is infinite
    too, with no warning.
    """
    params, se = np.asarray(params, dtype=float), np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(se > 0.0, params / np.where(se > 0.0, se, 1.0),
                        np.where(params == 0.0, 0.0, np.inf * np.sign(params)))


def pinv_row_scales(moments) -> np.ndarray:
    """c with ``pinv(M) = M^T diag(c)``: 1 / |m_i|^2 for each row m_i of M,
    0 for a zero row. That holds for orthogonal rows only, so an M M^T with
    an entry off the diagonal beyond q rounding units of |m_i| |m_j| raises
    ValueError."""
    squared = np.einsum("ij,ij->i", moments, moments)
    gram = moments @ moments.T
    np.fill_diagonal(gram, 0.0)
    if np.any(np.abs(gram) > len(squared) * np.finfo(float).eps
              * np.sqrt(np.outer(squared, squared))):
        raise ValueError("the rows of M must be orthogonal")
    return np.divide(1.0, squared, out=np.zeros_like(squared),
                     where=squared != 0.0)


def _dependent_column_names(row_space: np.ndarray, names) -> tuple:
    """Columns with a nontrivial component outside the row space of [1 X]:
    sqrt(1 - |row_space[j]|^2) for column j, whatever orthonormal basis of
    it ``row_space`` holds, so 1 for an exactly zero column."""
    outside = np.sqrt(np.maximum(1.0 - np.sum(row_space ** 2, axis=1), 0.0))
    involved = outside > _NULLSPACE_COMPONENT_TOL * outside.max()
    labels = ("intercept",) + tuple(names)
    return tuple(label for label, hit in zip(labels, involved) if hit)


def require_samples(n: int, p: int):
    """The one sample-count rule: fitting p parameters needs n > p samples.

    One sample more than parameters leaves the residual degree of freedom
    the standard errors divide by.
    """
    if n <= p:
        raise InsufficientDataError(
            f"need more than {p} samples for {p} parameters, got {n}"
        )


def _r_factor(design: FactoredDesign, y: np.ndarray):
    """R of [G y], one block of G at a time.

    Each block is stacked under the R so far and factored again, so no
    more than one block of G exists at once. A Householder step leaves an
    all-zero column all zero, so a column of G that is 0 in every block is
    an exactly zero column of R.
    """
    q = design.moments.shape[0]
    r = np.zeros((0, q + 1))
    for start, stop in row_blocks(design.rows):
        g = design.basis(start, stop)
        # filled transposed, so LAPACK reads the stack in column order
        stacked = np.empty((q + 1, len(r) + stop - start))
        stacked[:, :len(r)] = r.T
        stacked[:q, len(r):] = g.T
        stacked[q, len(r):] = y[start:stop]
        r = np.linalg.qr(stacked.T, mode="r")
    return r


def _sums_of_squares(design: FactoredDesign, y, params, ybar: float):
    """Residual and total sums of squares, block by block.

    The residuals are explicit, y - G (M params), so an exact fit has a
    residual sum of exactly 0.
    """
    basis_coefficients = design.moments @ params
    rss = tss = 0.0
    for start, stop in row_blocks(design.rows):
        residuals = y[start:stop] - design.basis(start, stop) @ basis_coefficients
        deviations = y[start:stop] - ybar
        rss += float(residuals @ residuals)
        tss += float(deviations @ deviations)
    return rss, tss


def ols_fit(X, y, column_names=None) -> FitResult:
    """Least-squares fit of y on [1 X] with standard inference statistics.

    Parameters
    ----------
    X : (N, m) array or FactoredDesign
        Regressor columns, without an intercept (added internally), or the
        whole design [1 X] in factored form.
    y : (N,) array
        Response.
    column_names : sequence of str, optional
        Labels for the m columns; defaults to x1..xm.

    On a rank-deficient [1 X] the result is the deterministic minimum-norm
    solution with pseudoinverse-based standard errors; ``rank`` is then
    below ``parameter_count`` and ``dependent_columns`` names the columns
    involved.

    Raises
    ------
    InsufficientDataError
        If N <= m + 1.
    NumericalError
        If a coefficient or standard error lies beyond the float range.
    """
    y = np.asarray(y, dtype=float)
    design = X if isinstance(X, FactoredDesign) else FactoredDesign.dense(X)
    if y.ndim != 1 or y.shape[0] != design.rows:
        raise ValueError("X must be N x m and y length N")
    if not np.all(np.isfinite(y)):
        raise ValueError("X and y must be finite")
    n = design.rows
    q, p = design.moments.shape
    if column_names is None:
        column_names = tuple(f"x{j + 1}" for j in range(p - 1))
    else:
        column_names = tuple(column_names)
        if len(column_names) != p - 1:
            raise ValueError("column_names must match the number of columns")
    require_samples(n, p)
    # y over the power of two at its largest magnitude, so the sums of
    # squares neither overflow nor underflow at any unit of y; the scaling
    # is exact, and the parameters and standard errors are scaled back
    exponent = math.frexp(float(np.max(np.abs(y))))[1]
    y = np.ldexp(y, -exponent)

    r = _r_factor(design, y)
    # [1 X] = Q A W (see the module docstring); ``keep`` drops the rows of
    # M that are zero or meet an exactly zero column of R_G (see _r_factor)
    scales = pinv_row_scales(design.moments)
    keep = (scales > 0.0) & r[:, :q].any(axis=0)
    root = np.sqrt(scales[keep])
    u, s, vt = np.linalg.svd(r[:, :q][:, keep] / root, full_matrices=False)
    rank = int(np.sum(s > RANK_RCOND * s[0]))
    # W^T V: orthonormal right singular vectors spanning [1 X]'s row space
    row_space = (design.moments[keep] * root[:, None]).T @ vt[:rank].T
    dependent = (_dependent_column_names(row_space, column_names)
                 if rank < p else ())
    params = row_space @ ((u[:, :rank].T @ r[:, q]) / s[:rank])

    ybar = float(y.mean())
    rss, tss = _sums_of_squares(design, y, params, ybar)
    dof_residual = n - rank

    degenerate = tss == 0.0 or float(np.ptp(y)) == 0.0
    if degenerate:
        r_squared = 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - rss / tss))

    df_model = rank - 1
    if degenerate or df_model == 0:
        f_statistic = 0.0
        prob_f = 1.0
    elif rss == 0.0:
        f_statistic = math.inf
        prob_f = 0.0
    else:
        # computed from RSS directly so a near-perfect fit stays finite
        f_statistic = ((tss - rss) / df_model) / (rss / dof_residual)
        f_statistic = max(0.0, f_statistic)
        prob_f = f_p_value(f_statistic, df_model, dof_residual)

    sigma2 = rss / dof_residual
    # the diagonal of the pseudoinverse covariance sigma2 W^T V S^-2 V^T W
    se = np.sqrt(sigma2 * np.sum((row_space / s[:rank]) ** 2, axis=1))
    t_all = t_statistics(params, se)
    p_all = np.array([t_p_value(float(abs(t)), dof_residual) for t in t_all])

    with np.errstate(over="ignore"):
        params, se = np.ldexp(params, exponent), np.ldexp(se, exponent)
    if not (np.all(np.isfinite(params)) and np.all(np.isfinite(se))):
        raise NumericalError(
            "coefficients or standard errors exceed the float range")
    return FitResult(
        column_names=column_names,
        gamma=float(params[0]),
        coefficients=params[1:].copy(),
        std_errors=se[1:].copy(),
        t_values=t_all[1:].copy(),
        p_values=p_all[1:].copy(),
        gamma_std_error=float(se[0]),
        gamma_t_value=float(t_all[0]),
        gamma_p_value=float(p_all[0]),
        r_squared=float(r_squared),
        f_statistic=float(f_statistic),
        prob_f=float(prob_f),
        n_samples=n,
        dof_residual=dof_residual,
        rank=rank,
        dependent_columns=dependent,
    )


def significance_mask(fit: FitResult) -> np.ndarray:
    """Boolean mask over slope coefficients with p-value below
    ``SIGNIFICANCE_LEVEL``.

    The intercept is not part of the mask; it always enters prediction and
    is reported separately.
    """
    return fit.p_values < SIGNIFICANCE_LEVEL


def report_rows(fit: FitResult):
    """Rows (name, coefficient, std_err, t_value, p_value, significant).

    The intercept row comes first, then slopes in design order.
    """
    p_values = [fit.gamma_p_value, *fit.p_values.tolist()]
    return list(zip(("gamma", *fit.column_names), fit.params().tolist(),
                    [fit.gamma_std_error, *fit.std_errors.tolist()],
                    [fit.gamma_t_value, *fit.t_values.tolist()], p_values,
                    [p < SIGNIFICANCE_LEVEL for p in p_values]))
