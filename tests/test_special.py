import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import f_sf_quad, t_p_quad
from pacerose.special import (
    _EPS,
    _FPMIN,
    _MAX_ITER,
    _betacf,
    f_p_value,
    regularized_incomplete_beta,
    t_p_value,
)


def _betacf_two_steps(a, b, x):
    """The continued fraction as it was written before its two Lentz
    updates became one inner loop: each update spelled out."""
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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
    raise ArithmeticError("did not converge")


def _fraction_or_error(betacf, a, b, x):
    try:
        return betacf(a, b, x)
    except ArithmeticError:
        return "no convergence"


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-14
            )

    def test_arcsine_closed_form(self):
        # I_x(1/2, 1/2) = (2/pi) asin(sqrt(x))
        for x in (0.01, 0.25, 0.75, 0.99):
            expected = 2.0 / math.pi * math.asin(math.sqrt(x))
            assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(
                expected, abs=1e-12
            )

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.001, max_value=0.999))
    def test_symmetry(self, a, b, x):
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -1.0, 0.5)


    def test_fraction_is_bit_identical_to_the_two_step_loop(self):
        # a and b log-uniform over [1e-2, 1e6], each on the side
        # regularized_incomplete_beta evaluates, where the fraction converges
        rng = np.random.default_rng(30)
        a, b = 10.0 ** rng.uniform(-2.0, 6.0, (2, 2000))
        x = rng.uniform(0.0, 1.0, 2000)
        for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist()):
            if xi >= (ai + 1.0) / (ai + bi + 2.0):
                ai, bi, xi = bi, ai, 1.0 - xi
            assert (_fraction_or_error(_betacf, ai, bi, xi)
                    == _fraction_or_error(_betacf_two_steps, ai, bi, xi))


class TestTPValue:
    def test_zero_statistic(self):
        assert t_p_value(0.0, 5) == 1.0

    def test_large_dof_normal_limit(self):
        assert t_p_value(1.96, 10000) == pytest.approx(0.050, abs=0.001)

    def test_classical_table_value(self):
        assert t_p_value(12.7062, 1) == pytest.approx(0.05, abs=1e-3)

    def test_symmetric_in_sign(self):
        assert t_p_value(-2.5, 17) == t_p_value(2.5, 17)

    @pytest.mark.parametrize("dof", [1, 10, 100, 10000])
    @pytest.mark.parametrize("t", [0.5, 1.96, 3.0, 10.0])
    def test_against_quadrature(self, t, dof):
        assert t_p_value(t, dof) == pytest.approx(t_p_quad(t, dof), abs=1e-6)

    def test_monotone_in_statistic(self):
        values = [t_p_value(t, 30) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


class TestFPValue:
    def test_zero_statistic(self):
        assert f_p_value(0.0, 3, 7) == 1.0

    def test_infinite_statistic(self):
        assert f_p_value(math.inf, 3, 7) == 0.0

    def test_reference_fit_prob(self):
        # dof from 10969 samples and 25 parameters
        assert f_p_value(302.8, 24, 10944) < 1e-6

    def test_median_near_one_for_equal_dofs(self):
        assert f_p_value(1.0, 10000, 10000) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("dof1,dof2", [(1, 1), (10, 10), (24, 10944),
                                           (100, 100), (1, 10000)])
    @pytest.mark.parametrize("f", [0.5, 1.0, 2.0, 5.0])
    def test_against_quadrature(self, f, dof1, dof2):
        assert f_p_value(f, dof1, dof2) == pytest.approx(
            f_sf_quad(f, dof1, dof2), abs=1e-6
        )

    def test_squared_t_equals_f(self):
        # T^2 ~ F(1, dof)
        t = 2.3
        dof = 29
        assert f_p_value(t * t, 1, dof) == pytest.approx(
            t_p_value(t, dof), abs=1e-12
        )


@pytest.mark.parametrize("function, args, message", [
    (regularized_incomplete_beta, (1.0, 1.0, math.nan), "x must not be NaN"),
    (t_p_value, (math.nan, 5), "t must not be NaN"),
    (t_p_value, (1.0, 0), "dof must be >= 1"),
    (f_p_value, (math.nan, 3, 7), "f_value must not be NaN"),
    (f_p_value, (1.0, 0, 7), "dof1 and dof2 must be >= 1"),
    (f_p_value, (1.0, 3, 0), "dof1 and dof2 must be >= 1"),
], ids=["beta-nan-x", "t-nan", "t-dof", "f-nan", "f-dof1", "f-dof2"])
def test_bad_arguments_are_named(function, args, message):
    with pytest.raises(ValueError) as err:
        function(*args)
    assert str(err.value) == message
