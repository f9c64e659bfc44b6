"""Regularized incomplete beta function and the tail probabilities built on it.

The continued fraction is evaluated with the modified Lentz algorithm
(Numerical Recipes style) to well below 1e-12 absolute error on [0, 1],
which is the only special-function machinery this package needs: two-sided
Student-t p-values and the F-distribution survival function both reduce to
a single incomplete-beta evaluation.
"""

import math

_MAX_ITER = 500
_EPS = 3e-15
_FPMIN = 1e-300

__all__ = ["f_p_value", "log_beta", "regularized_incomplete_beta", "t_p_value"]


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) via log-gamma."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for I_x(a, b), modified Lentz iteration.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # one Lentz step for the fraction's even term, then one for its odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0, clamped to [0, 1] outside the open interval."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("incomplete beta requires a > 0 and b > 0")
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    # use the symmetry transformation where the fraction converges fastest
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_p_value(t: float, dof: int) -> float:
    """Two-sided p-value of Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(0.5 * dof, 0.5, x)


def f_p_value(f_value: float, dof1: int, dof2: int) -> float:
    """Survival function P(F > f_value) for the F(dof1, dof2) distribution."""
    if dof1 < 1 or dof2 < 1:
        raise ValueError("dof1 and dof2 must be >= 1")
    if math.isnan(f_value):
        raise ValueError("f_value must not be NaN")
    if f_value <= 0.0:
        return 1.0
    if math.isinf(f_value):
        return 0.0
    x = dof2 / (dof2 + dof1 * f_value)
    return regularized_incomplete_beta(0.5 * dof2, 0.5 * dof1, x)
