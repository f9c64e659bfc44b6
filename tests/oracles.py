"""Independent oracles the tests check the package against.

Everything here is deliberately implemented without touching the package's
own code paths: plain-Python Gaussian elimination on the normal equations
for OLS, numerical quadrature for the t and F tail probabilities, and loop
based Fourier feature sums with a locally defined angle wrap.
"""

import math

import numpy as np
from scipy import integrate


def gaussian_solve(matrix, rhs):
    """Solve a dense linear system by Gaussian elimination, partial pivoting."""
    a = [list(map(float, row)) for row in np.asarray(matrix)]
    b = list(map(float, rhs))
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for row in range(col + 1, n):
            f = a[row][col] / a[col][col]
            for c in range(col, n):
                a[row][c] -= f * a[col][c]
            b[row] -= f * b[col]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        s = b[row] - sum(a[row][c] * x[c] for c in range(row + 1, n))
        x[row] = s / a[row][row]
    return np.array(x)


def gaussian_inverse(matrix):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(matrix, dtype=float).tolist()
    n = len(a)
    aug = [row + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[piv][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0.0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return np.array([row[n:] for row in aug])


def _normal_equations(x_matrix, y):
    """OLS via the normal equations: params and their covariance."""
    x_matrix = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.column_stack([np.ones(y.size), x_matrix])
    gram = a.T @ a
    params = gaussian_solve(gram, a.T @ y)
    resid = y - a @ params
    dof = y.size - a.shape[1]
    sigma2 = float(resid @ resid) / dof
    return params, sigma2 * gaussian_inverse(gram)


def normal_equations_fit(x_matrix, y):
    """OLS via the normal equations: params and standard errors."""
    params, cov = _normal_equations(x_matrix, y)
    return params, np.sqrt(np.diag(cov))


def histogram_moments(values, k):
    """The moments C_k, S_k of a histogram, by a loop over its bins."""
    width = 2.0 * math.pi / len(values)
    c = sum(v * math.cos(k * (j + 0.5) * width) for j, v in enumerate(values))
    s = sum(v * math.sin(k * (j + 0.5) * width) for j, v in enumerate(values))
    return c, s


def carries(values, k):
    """Whether a histogram carries harmonic k: a moment above 1e-12."""
    return math.hypot(*histogram_moments(values, k)) > 1e-12


def min_norm_fourier_fit(thetas, paces, demand, network, k_max,
                         network_harmonics):
    """The model's minimum-norm fit, from its Fourier series.

    Paces are fitted on cos k theta and sin k theta for each harmonic k
    that either histogram carries, by the normal equations. Each series
    pair (a_k, b_k) is then split over the model's columns by the block
    M_k^T / (R_d,k^2 + R_n,k^2) of pinv(M), written out below, and the
    series' covariance is carried through the same map. The columns are
    the demand pairs for k = 1..k_max, then the network pairs for
    ``network_harmonics``, cos before sin. Returns the params and standard
    errors, intercept first.
    """
    columns = ([(demand, k) for k in range(1, k_max + 1)]
               + [(network, k) for k in network_harmonics])
    harmonics = [k for k in range(1, k_max + 1)
                 if any(carries(values, j) for values, j in columns
                        if j == k)]
    series = np.column_stack([f(k * np.asarray(thetas)) for k in harmonics
                              for f in (np.cos, np.sin)])
    series_params, series_cov = _normal_equations(series, paces)
    split = np.zeros((1 + 2 * len(columns), 1 + 2 * len(harmonics)))
    split[0, 0] = 1.0
    for i, k in enumerate(harmonics):
        pair = [(j, histogram_moments(values, k))
                for j, (values, jk) in enumerate(columns) if jk == k]
        norm2 = sum(c * c + s * s for _, (c, s) in pair)
        for j, (c, s) in pair:
            # the column pair C cos k theta + S sin k theta and
            # S cos k theta - C sin k theta, against a_k and b_k
            split[1 + 2 * j, 1 + 2 * i] = c / norm2
            split[1 + 2 * j, 2 + 2 * i] = s / norm2
            split[2 + 2 * j, 1 + 2 * i] = s / norm2
            split[2 + 2 * j, 2 + 2 * i] = -c / norm2
    cov = split @ series_cov @ split.T
    return split @ series_params, np.sqrt(np.diag(cov))


def t_p_quad(t, dof):
    """Two-sided Student-t p-value by numerical quadrature of the density."""
    t = abs(float(t))
    log_norm = (math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
                - 0.5 * math.log(dof * math.pi))

    def density(u):
        return math.exp(log_norm - 0.5 * (dof + 1) * math.log1p(u * u / dof))

    tail, _ = integrate.quad(density, t, math.inf)
    return 2.0 * tail


def f_sf_quad(f_value, dof1, dof2):
    """F-distribution survival function by numerical quadrature."""
    if f_value <= 0.0:
        return 1.0
    log_norm = (math.lgamma((dof1 + dof2) / 2.0) - math.lgamma(dof1 / 2.0)
                - math.lgamma(dof2 / 2.0)
                + 0.5 * dof1 * math.log(dof1 / dof2))

    def density(u):
        return math.exp(
            log_norm + (0.5 * dof1 - 1.0) * math.log(u)
            - 0.5 * (dof1 + dof2) * math.log1p(dof1 * u / dof2)
        )

    tail, _ = integrate.quad(density, f_value, math.inf)
    return tail


def _wrap_signed(x):
    # independent wrap into [-pi, pi) using modulo arithmetic
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def brute_force_features(theta, values, harmonics):
    """Loop-based Fourier-weighted histogram sums for one direction."""
    bins = len(values)
    width = 2.0 * math.pi / bins
    out = []
    for k in harmonics:
        cos_sum = 0.0
        sin_sum = 0.0
        for j in range(bins):
            center = (j + 0.5) * width
            offset = _wrap_signed(center - theta)
            cos_sum += values[j] * math.cos(k * offset)
            sin_sum += values[j] * math.sin(k * offset)
        out.extend([cos_sum, sin_sum])
    return np.array(out)
