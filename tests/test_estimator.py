import numpy as np
import pytest

from oracles import normal_equations_fit
from fixtures import ALL_CASES, PARAMETER_COUNT
from pacerose.errors import InsufficientDataError, NumericalError
from pacerose.estimator import (
    BLOCK_ROWS,
    FactoredDesign,
    FitResult,
    _r_factor,
    ols_fit,
    report_rows,
    significance_mask,
)
from pacerose.special import t_p_value


def random_instance(rng, n, m, noise=1.0):
    X = rng.normal(size=(n, m))
    params = rng.normal(scale=3.0, size=m + 1)
    y = params[0] + X @ params[1:] + noise * rng.normal(size=n)
    return X, y


class TestOlsBasics:
    def test_exact_line(self):
        fit = ols_fit(np.array([[1.0], [2.0], [3.0], [4.0]]),
                      np.array([3.0, 5.0, 7.0, 9.0]))
        assert fit.gamma == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_target_degenerate(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        fit = ols_fit(X, np.full(40, 7.5))
        assert fit.gamma == pytest.approx(7.5, abs=1e-10)
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-10)
        assert fit.r_squared == 0.0
        assert fit.f_statistic == 0.0
        assert fit.prob_f == 1.0

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.ones((3, 3)), np.ones(3))

    def test_one_dimensional_x_is_one_column(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([3.0, 5.0, 7.0, 9.0])
        fit = ols_fit(x, y)
        column = ols_fit(x.reshape(-1, 1), y)
        assert fit.column_names == column.column_names == ("x1",)
        assert fit.gamma == column.gamma
        np.testing.assert_array_equal(fit.coefficients, column.coefficients)

    @pytest.mark.parametrize("X, y, message", [
        (np.ones((5, 1, 1)), np.ones(5), "X must be N x m and y length N"),
        ([[1.0], [np.nan], [3.0], [4.0], [5.0]], np.ones(5),
         "X and y must be finite"),
        (np.ones((5, 1)), np.ones(4), "X must be N x m and y length N"),
        (np.ones((5, 1)), [1.0, 2.0, np.inf, 4.0, 5.0],
         "X and y must be finite"),
    ], ids=["three-dimensional-x", "nan-in-x", "short-y", "infinite-y"])
    def test_bad_x_or_y_rejected(self, X, y, message):
        with pytest.raises(ValueError) as err:
            ols_fit(X, y)
        assert str(err.value) == message

    def test_coefficients_beyond_the_float_range_raise(self):
        # y fits a float, the slope 1e310 does not
        x = np.linspace(0.0, 1e-3, 10)
        with pytest.raises(NumericalError) as err:
            ols_fit(x, 1e306 + (1e308 * x) * 100)
        assert str(err.value) == (
            "coefficients or standard errors exceed the float range")

    def test_column_name_count_must_match_columns(self):
        with pytest.raises(ValueError) as err:
            ols_fit(np.ones((5, 2)), np.ones(5), column_names=("a",))
        assert str(err.value) == (
            "column_names must match the number of columns")

    def test_shapes_in_result(self):
        rng = np.random.default_rng(2)
        X, y = random_instance(rng, 50, 4)
        fit = ols_fit(X, y)
        assert fit.n_samples == 50
        assert fit.rank == 5
        assert fit.dof_residual == 45
        assert fit.parameter_count == 5
        assert len(fit.coefficients) == 4
        assert fit.rank == fit.parameter_count

    def test_t_is_coef_over_se(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, 80, 5)
        fit = ols_fit(X, y)
        np.testing.assert_allclose(
            fit.t_values, fit.coefficients / fit.std_errors, rtol=1e-12
        )


class TestOracleEquivalence:
    def test_random_200x10(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng, 200, 10)
        fit = ols_fit(X, y)
        params, se = normal_equations_fit(X, y)
        np.testing.assert_allclose(fit.params(), params, rtol=1e-8)
        np.testing.assert_allclose(
            np.concatenate([[fit.gamma_std_error], fit.std_errors]),
            se, rtol=1e-6,
        )

    @pytest.mark.parametrize("n,m", [(30, 2), (100, 7), (500, 20), (1000, 30)])
    def test_well_conditioned_sizes(self, n, m):
        rng = np.random.default_rng(n + m)
        X, y = random_instance(rng, n, m)
        fit = ols_fit(X, y)
        params, se = normal_equations_fit(X, y)
        np.testing.assert_allclose(fit.params(), params, rtol=1e-8)
        np.testing.assert_allclose(
            np.concatenate([[fit.gamma_std_error], fit.std_errors]),
            se, rtol=1e-6,
        )


class TestOlsProperties:
    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, 300, 8)
        fit = ols_fit(X, y)
        A = np.column_stack([np.ones(300), X])
        residuals = y - A @ fit.params()
        assert np.max(np.abs(A.T @ residuals)) <= 1e-8 * np.linalg.norm(y)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        X, y = random_instance(rng, 120, 6)
        base = ols_fit(X, y)
        shifted = ols_fit(X, y + 100.0)
        assert shifted.gamma == pytest.approx(base.gamma + 100.0, abs=1e-8)
        np.testing.assert_allclose(shifted.coefficients, base.coefficients,
                                   atol=1e-10 * max(1.0, np.abs(base.coefficients).max()))
        np.testing.assert_allclose(shifted.std_errors, base.std_errors, rtol=1e-10)
        np.testing.assert_allclose(shifted.t_values, base.t_values, rtol=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        X, y = random_instance(rng, 120, 6)
        base = ols_fit(X, y)
        scaled = ols_fit(X, 3.0 * y)
        np.testing.assert_allclose(scaled.coefficients, 3.0 * base.coefficients,
                                   rtol=1e-10)
        np.testing.assert_allclose(scaled.std_errors, 3.0 * base.std_errors,
                                   rtol=1e-10)
        np.testing.assert_allclose(scaled.t_values, base.t_values, rtol=1e-10)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-10)
        assert scaled.f_statistic == pytest.approx(base.f_statistic, rel=1e-10)

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_power_of_two_scale_is_exact(self, exponent):
        # y * 2**1000 squares beyond the float range and y * 2**-1000 to 0;
        # the fit must not see the unit of y
        rng = np.random.default_rng(9)
        X, y = random_instance(rng, 2 * BLOCK_ROWS + 7, 6)
        base = ols_fit(X, y)
        scaled = ols_fit(X, np.ldexp(y, exponent))
        for name in ("t_values", "p_values", "gamma_t_value", "gamma_p_value",
                     "r_squared", "f_statistic", "prob_f", "rank"):
            np.testing.assert_array_equal(getattr(scaled, name),
                                          getattr(base, name), err_msg=name)
        np.testing.assert_array_equal(scaled.params(),
                                      np.ldexp(base.params(), exponent))
        np.testing.assert_array_equal(
            [scaled.gamma_std_error, *scaled.std_errors],
            np.ldexp([base.gamma_std_error, *base.std_errors], exponent))
        assert 0.5 < base.r_squared < 1.0

    def test_fitted_plus_residuals_is_y(self):
        rng = np.random.default_rng(8)
        X, y = random_instance(rng, 60, 3)
        fit = ols_fit(X, y)
        fitted = np.column_stack([np.ones(60), X]) @ fit.params()
        np.testing.assert_allclose(fitted + (y - fitted), y, rtol=1e-12)


class TestRankDeficiency:
    def test_min_norm_reports_rank(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 1))
        X = np.hstack([x, x])
        y = 2.0 + x[:, 0] * 4.0
        fit = ols_fit(X, y, column_names=("left", "right"))
        assert fit.rank == 2
        assert fit.rank != fit.parameter_count
        assert set(fit.dependent_columns) >= {"left", "right"}
        # min-norm splits the slope evenly between the twin columns
        np.testing.assert_allclose(fit.coefficients, [2.0, 2.0], atol=1e-8)
        fitted = np.column_stack([np.ones(50), X]) @ fit.params()
        np.testing.assert_allclose(fitted, y, atol=1e-8)

    def test_all_zero_regressors_return_mean(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        fit = ols_fit(np.zeros((8, 3)), y)
        assert fit.gamma == pytest.approx(float(y.mean()), abs=1e-10)
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-12)
        assert fit.rank == 1

    def test_zero_columns_get_zero_coefficient_and_p_one(self):
        # SVD rounding once gave such columns |coef| ~1e-16, p = 0
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5000, 6))
        X[:, [2, 4]] = 0.0
        y = (3.0 + X @ np.array([1.0, -2.0, 0.0, 0.5, 0.0, 1.5])
             + rng.normal(size=5000))
        fit = ols_fit(X, y)
        for j in (2, 4):
            assert (fit.coefficients[j], fit.std_errors[j], fit.t_values[j],
                    fit.p_values[j]) == (0.0, 0.0, 0.0, 1.0)
        assert fit.rank == 5
        assert not significance_mask(fit)[[2, 4]].any()

    def test_all_zero_columns_stay_exactly_zero_in_r(self):
        # the solver drops the basis columns that are exactly zero in R: it
        # rests on each Householder step and each TSQR merge keeping a
        # column of G that is 0 in every block an exactly zero column of R
        rng = np.random.default_rng(2)
        n = 3 * BLOCK_ROWS + 17
        X = rng.normal(size=(n, 5))
        X[:, [1, 3]] = 0.0
        r = _r_factor(FactoredDesign.dense(X), rng.normal(size=n))
        # the columns of R are those of [1 X y]
        assert r.shape == (7, 7)
        assert not r[:, [2, 4]].any()
        assert np.all(np.abs(np.diag(r)[[0, 1, 3, 5, 6]]) > 1.0)


    def test_moments_with_rows_that_are_not_orthogonal_are_refused(self):
        # the fit solves through the closed-form pinv of orthogonal rows,
        # which would be a wrong fit, without an error, for these
        moments = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="rows of M must be orthogonal"):
            FactoredDesign(10, moments, lambda start, stop: np.ones(
                (stop - start, 3)))


class TestSignificanceMask:
    def test_all_significant(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 3))
        y = 1.0 + X @ np.array([5.0, 5.0, 5.0]) + 0.1 * rng.normal(size=500)
        fit = ols_fit(X, y)
        assert significance_mask(fit).all()

    @pytest.mark.parametrize("case_name", sorted(ALL_CASES))
    def test_recorded_case_counts(self, case_name):
        case = ALL_CASES[case_name]
        dof = case["n_samples"] - PARAMETER_COUNT
        alpha_hits = sum(
            t_p_value(abs(t), dof) < 0.05
            for name, (_, _, t) in case["coefficients"].items()
            if name.startswith("a_")
        )
        beta_hits = sum(
            t_p_value(abs(t), dof) < 0.05
            for name, (_, _, t) in case["coefficients"].items()
            if name.startswith("b_")
        )
        assert alpha_hits == case["significant_alpha"]
        assert beta_hits == case["significant_beta"]


class TestReportRows:
    def test_gamma_first_then_columns(self):
        rng = np.random.default_rng(13)
        X, y = random_instance(rng, 40, 2)
        fit = ols_fit(X, y, column_names=("u", "v"))
        rows = report_rows(fit)
        assert [r[0] for r in rows] == ["gamma", "u", "v"]
        assert rows[1][1] == pytest.approx(float(fit.coefficients[0]))

    def test_row_count_for_standard_spec(self, scenario):
        from pacerose import build_design_matrix

        from pacerose.synth import generate_paces, sample_directions

        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        assert len(report_rows(fit)) == PARAMETER_COUNT
