import json
import math
import os
from itertools import islice
from unittest import mock

import numpy as np
import pytest

from conftest import standard_demand, standard_network, standard_scenario
from fixtures import CASE_A, CASE_A_ALPHA_AT_ZERO, PARAMETER_COUNT
from pacerose.angles import AngularHistogram
from pacerose.errors import InputFormatError, SpecMismatchError
from pacerose.estimator import ols_fit, significance_mask
from pacerose.features import ModelSpec, build_design_matrix
from pacerose.model import (
    InfluenceCurve,
    expected_sign_report,
    load_model,
    predict_pace,
    reconstruct_curve,
    save_model,
)
from pacerose.special import t_p_value
from pacerose.synth import generate_paces, sample_directions

SPEC = ModelSpec()
NAMES = SPEC.column_names


def case_a_vectors():
    coeffs = np.array([CASE_A["coefficients"][n][0] for n in NAMES])
    dof = CASE_A["n_samples"] - PARAMETER_COUNT
    mask = np.array([
        t_p_value(abs(CASE_A["coefficients"][n][2]), dof) < 0.05
        for n in NAMES
    ])
    return coeffs, mask


class TestReconstructCurve:
    def test_zero_coefficients_flat(self):
        curve = reconstruct_curve(NAMES, np.zeros(len(NAMES)), kind="alpha")
        assert np.all(curve.values == 0.0)

    def test_single_cosine_term(self):
        coeffs = np.zeros(len(NAMES))
        coeffs[NAMES.index("a_c1")] = 1.0
        curve = reconstruct_curve(NAMES, coeffs, kind="alpha")
        assert curve.value_at_zero() == pytest.approx(1.0, abs=1e-12)
        assert curve.values[0] == pytest.approx(-1.0, abs=1e-12)  # at -pi
        np.testing.assert_allclose(curve.values, np.cos(curve.offsets),
                                   atol=1e-12)

    def test_recorded_masked_alpha_at_zero(self):
        coeffs, mask = case_a_vectors()
        curve = reconstruct_curve(NAMES, coeffs, mask=mask, kind="alpha")
        assert curve.value_at_zero() == pytest.approx(CASE_A_ALPHA_AT_ZERO,
                                                      abs=0.01)
        assert curve.significance_filtered

    def test_masked_out_terms_contribute_nothing(self):
        coeffs = np.zeros(len(NAMES))
        coeffs[NAMES.index("a_c2")] = 5.0
        coeffs[NAMES.index("a_s3")] = 4.0
        mask = np.zeros(len(NAMES), dtype=bool)
        mask[NAMES.index("a_c2")] = True
        curve = reconstruct_curve(NAMES, coeffs, mask=mask, kind="alpha")
        np.testing.assert_allclose(curve.values,
                                   5.0 * np.cos(2 * curve.offsets), atol=1e-12)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(0)
        c1 = rng.normal(size=len(NAMES))
        c2 = rng.normal(size=len(NAMES))
        a, b = 2.5, -1.25
        lhs = reconstruct_curve(NAMES, a * c1 + b * c2, kind="beta")
        r1 = reconstruct_curve(NAMES, c1, kind="beta")
        r2 = reconstruct_curve(NAMES, c2, kind="beta")
        np.testing.assert_allclose(lhs.values, a * r1.values + b * r2.values,
                                   atol=1e-12)

    def test_grid_mean_is_zero(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=len(NAMES))
        curve = reconstruct_curve(NAMES, coeffs, kind="alpha")
        assert abs(float(curve.values.mean())) < 1e-10

    def test_beta_curve_even_harmonics_period_pi(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=len(NAMES))
        curve = reconstruct_curve(NAMES, coeffs, kind="beta", grid_size=256)
        half = 128
        rolled = np.roll(curve.values, half)
        np.testing.assert_allclose(curve.values, rolled, atol=1e-10)

    def test_period_pi_ties_report_the_first_offset(self):
        # at seed 1 the rounding of a full-grid sum put both extremes in
        # the second half, pi away from their tied twins in the first
        names = tuple(f"b_{part}{k}" for k in (2, 4, 6, 8) for part in "cs")
        coeffs = np.random.default_rng(1).normal(0.0, 10.0, len(names))
        curve = reconstruct_curve(names, coeffs, kind="beta", grid_size=256)
        first_half = curve.values[:128]
        assert np.array_equal(first_half, curve.values[128:])
        assert curve.argmax_offset() == curve.offsets[np.argmax(first_half)]
        assert curve.argmin_offset() == curve.offsets[np.argmin(first_half)]
        assert curve.argmax_offset() < 0.0 and curve.argmin_offset() < 0.0

    def test_odd_harmonics_fill_the_whole_grid(self):
        curve = reconstruct_curve(NAMES, np.eye(len(NAMES))[NAMES.index("a_c1")],
                                  kind="alpha", grid_size=64)
        np.testing.assert_allclose(curve.values, np.cos(curve.offsets),
                                   atol=1e-15)

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            reconstruct_curve(NAMES, np.zeros(len(NAMES)), grid_size=4)

    def test_offsets_cover_half_open_interval(self):
        curve = reconstruct_curve(NAMES, np.zeros(len(NAMES)), grid_size=64)
        assert curve.offsets[0] == -math.pi
        assert curve.offsets[-1] < math.pi
        assert curve.offsets[32] == 0.0


class TestPredictPace:
    def test_uniform_histograms_give_gamma(self):
        uniform = AngularHistogram(32, np.full(32, 1.0 / 32))
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0, 2 * math.pi, 60)
        y = np.full(60, 133.0)
        X, yy = build_design_matrix(y, thetas, uniform, uniform, SPEC)
        fit = ols_fit(X, yy, SPEC.column_names)
        for theta in (0.0, 1.0, 4.5):
            assert predict_pace(theta, uniform, uniform, fit, SPEC) == (
                pytest.approx(133.0, abs=1e-9)
            )

    def test_round_trip_on_noiseless_scenario(self):
        scenario = standard_scenario(n_trips=3000)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        for i in range(0, 3000, 457):
            predicted = predict_pace(float(thetas[i]), scenario.demand_hist,
                                     scenario.network_hist, fit, scenario.spec)
            assert predicted == pytest.approx(float(paces[i]), abs=1e-6)

    def test_reproduces_fitted_values(self):
        scenario = standard_scenario(n_trips=2000, noise_std=25.0)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        fitted = np.column_stack([np.ones(len(y)), X]) @ fit.params()
        for i in range(0, 2000, 311):
            predicted = predict_pace(float(thetas[i]), scenario.demand_hist,
                                     scenario.network_hist, fit, scenario.spec)
            assert predicted == pytest.approx(float(fitted[i]), abs=1e-10)

    def test_in_sample_mean_matches(self):
        scenario = standard_scenario(n_trips=2000, noise_std=25.0)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        fitted = np.column_stack([np.ones(len(y)), X]) @ fit.params()
        assert float(fitted.mean()) == pytest.approx(
            float(y.mean()), abs=1e-8
        )

    def test_array_of_directions_matches_scalar_calls(self):
        scenario = standard_scenario(n_trips=500, noise_std=25.0)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        args = (scenario.demand_hist, scenario.network_hist, fit,
                scenario.spec)
        batch = predict_pace(thetas[:40], *args)
        assert batch.shape == (40,)
        single = [predict_pace(float(t), *args) for t in thetas[:40]]
        assert all(type(v) is float for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-13)

    def test_spec_mismatch_rejected(self):
        scenario = standard_scenario(n_trips=2000)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        other_spec = ModelSpec(k_max=4)
        with pytest.raises(SpecMismatchError):
            predict_pace(0.0, scenario.demand_hist, scenario.network_hist,
                         fit, other_spec)


class TestExpectedSignReport:
    def curve_from(self, c1_alpha, c2_beta):
        coeffs = np.zeros(len(NAMES))
        coeffs[NAMES.index("a_c1")] = c1_alpha
        coeffs[NAMES.index("b_c2")] = c2_beta
        alpha = reconstruct_curve(NAMES, coeffs, kind="alpha")
        beta = reconstruct_curve(NAMES, coeffs, kind="beta")
        return alpha, beta

    def test_expected_signs(self):
        alpha, beta = self.curve_from(10.0, -5.0)
        text = expected_sign_report(alpha, beta)
        assert "alpha(0) = 10.0000 -> positive; matches expectation" in text
        assert "beta(0) = -5.0000 -> negative; matches expectation" in text

    def test_contrary_signs(self):
        alpha, beta = self.curve_from(-10.0, 5.0)
        text = expected_sign_report(alpha, beta)
        assert "contrary to expectation" in text

    def test_zero_curves_indeterminate(self):
        alpha, beta = self.curve_from(0.0, 0.0)
        text = expected_sign_report(alpha, beta)
        assert text.count("indeterminate (zero)") == 2

    def test_recorded_alpha_positive(self):
        coeffs, mask = case_a_vectors()
        alpha = reconstruct_curve(NAMES, coeffs, mask=mask, kind="alpha")
        beta = reconstruct_curve(NAMES, coeffs, mask=mask, kind="beta")
        text = expected_sign_report(alpha, beta)
        assert "alpha(0) = 286.2200 -> positive; matches expectation" in text


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        scenario = standard_scenario(n_trips=2000)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        path = tmp_path / "model.json"
        save_model(path, fit, scenario.spec, scenario.demand_hist,
                   scenario.network_hist)
        loaded_fit, loaded_spec, d, n = load_model(path)
        assert loaded_spec == scenario.spec
        assert loaded_fit.gamma == fit.gamma
        np.testing.assert_array_equal(loaded_fit.coefficients,
                                      fit.coefficients)
        np.testing.assert_array_equal(d.values, scenario.demand_hist.values)
        for theta in (0.0, 2.0):
            assert predict_pace(theta, d, n, loaded_fit, loaded_spec) == (
                pytest.approx(predict_pace(theta, scenario.demand_hist,
                                           scenario.network_hist, fit,
                                           scenario.spec), abs=1e-12)
            )

    @staticmethod
    def saved_payload(tmp_path):
        scenario = standard_scenario(n_trips=500, noise_std=10.0)
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        path = tmp_path / "model.json"
        save_model(path, fit, scenario.spec, scenario.demand_hist,
                   scenario.network_hist)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit, named", [
        (lambda p: {k: v for k, v in p.items() if k != "std_errors"},
         "std_errors"),
        (lambda p: dict(p, coefficients=p["coefficients"][:-1]),
         "coefficients"),
        (lambda p: dict(p, gamma=math.nan), "gamma"),
        (lambda p: dict(p, network_hist=p["network_hist"] + [0.0]),
         "network_hist"),
        (lambda p: dict(p, rank=-5), "rank must be in"),
        (lambda p: dict(p, rank=10**6), "rank must be in"),
        (lambda p: dict(p, n_samples=0), "n_samples must be"),
        (lambda p: dict(p, r_squared=7.5), "r_squared: values must be in"),
        (lambda p: dict(p, prob_f=-3.0), "prob_f: values must be in"),
        (lambda p: dict(p, f_statistic=-1.0),
         "f_statistic: values must be in"),
        (lambda p: dict(p, p_values=[2.0] + p["p_values"][1:]),
         "p_values: values must be in"),
        (lambda p: dict(p, std_errors=[-1.0] + p["std_errors"][1:]),
         "std_errors: values must be in"),
        (lambda p: dict(p, gamma_std_error=-2.0),
         "gamma_std_error: values must be in"),
    ], ids=["missing-key", "short-coefficients", "nan-gamma",
            "long-histogram", "negative-rank", "rank-above-parameters",
            "zero-samples", "r-squared-above-1", "negative-prob-f",
            "negative-f", "p-value-above-1", "negative-std-error",
            "negative-gamma-std-error"])
    def test_schema_violation_is_input_error(self, tmp_path, edit, named):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(edit(self.saved_payload(tmp_path))))
        with pytest.raises(InputFormatError, match=named) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: invalid model: ")

    @pytest.mark.parametrize("key, value, kind", [
        ("point_symmetric", "false", "boolean"),
        ("point_symmetric", 1, "boolean"),
        ("k_max", 8.0, "integer"),
        ("bins", "32", "integer"),
        ("n_samples", 500.5, "integer"),
        ("dof_residual", None, "integer"),
        ("rank", True, "integer"),
    ])
    def test_json_types_are_strict(self, tmp_path, key, value, kind):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(dict(self.saved_payload(tmp_path),
                                        **{key: value})))
        with pytest.raises(InputFormatError) as err:
            load_model(path)
        assert str(err.value) == (f"{path}: invalid model: {key} must be a "
                                  f"JSON {kind}, got {value!r}")

    @staticmethod
    def exact_fit(value):
        """A fit of ``y = value`` on two zero columns: every residual is 0."""
        spec = ModelSpec(k_max=1, bins=4)
        fit = ols_fit(np.zeros((4, 2)), np.full(4, value), spec.column_names)
        return fit, spec, AngularHistogram(4, np.full(4, 0.25))

    @pytest.mark.parametrize("value, t, p", [(-4.0, -math.inf, 0.0),
                                             (0.0, 0.0, 1.0)])
    def test_exact_fit_gamma_t_survives_round_trip(self, tmp_path, value, t, p):
        fit, spec, hist = self.exact_fit(value)
        path = tmp_path / "model.json"
        save_model(path, fit, spec, hist, hist)
        loaded = load_model(path)[0]
        assert (fit.gamma_t_value, fit.gamma_p_value) == (t, p)
        assert (loaded.gamma_t_value, loaded.gamma_p_value) == (t, p)

    def test_exact_fit_f_statistic_survives_round_trip(self, tmp_path):
        # y = 1 + x exactly: zero residuals, an infinite F statistic
        exact = (math.inf, 0.0, 1.0)
        fit = ols_fit([[0], [0], [0], [1], [1]], [1, 1, 1, 2, 2])
        assert (fit.f_statistic, fit.prob_f, fit.r_squared) == exact
        # the same fit beside a zero column, named as a spec names them
        spec = ModelSpec(k_max=1, bins=4)
        fit = ols_fit([[0, 0], [0, 0], [0, 0], [1, 0], [1, 0]],
                      [1, 1, 1, 2, 2], spec.column_names)
        assert (fit.f_statistic, fit.prob_f, fit.r_squared) == exact
        hist = AngularHistogram(4, np.full(4, 0.25))
        path = tmp_path / "model.json"
        save_model(path, fit, spec, hist, hist)
        loaded = load_model(path)[0]
        assert (loaded.f_statistic, loaded.prob_f, loaded.r_squared) == exact
        np.testing.assert_array_equal(loaded.coefficients, fit.coefficients)

    @pytest.mark.parametrize("failure", ["encoding", "rename"])
    def test_failed_save_keeps_the_earlier_model(self, tmp_path, failure):
        class Interrupted(Exception):
            pass

        encode = json.JSONEncoder.iterencode

        def encode_partway(encoder, o, _one_shot=False):
            yield from islice(encode(encoder, o, _one_shot), 10)
            raise Interrupted

        fit, spec, hist = self.exact_fit(1.0)
        path = tmp_path / "model.json"
        path.write_text("earlier model\n")
        if failure == "encoding":
            patch = mock.patch.object(json.JSONEncoder, "iterencode",
                                      encode_partway)
        else:
            patch = mock.patch.object(os, "replace", side_effect=Interrupted)
        with patch, pytest.raises(Interrupted):
            save_model(path, fit, spec, hist, hist)
        assert path.read_text() == "earlier model\n"
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_saved_model_gets_the_umask_mode(self, tmp_path, umask, mode):
        fit, spec, hist = self.exact_fit(1.0)
        path = tmp_path / "model.json"
        previous = os.umask(umask)
        try:
            save_model(path, fit, spec, hist, hist)
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode

    def test_non_json_is_input_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("gamma = 133.0\n")
        with pytest.raises(InputFormatError):
            load_model(path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(SpecMismatchError):
            load_model(path)


class TestInfluenceCurveType:
    def test_validation(self):
        with pytest.raises(ValueError):
            InfluenceCurve(offsets=np.array([0.0, 0.0]),
                           values=np.array([1.0, 2.0]), kind="alpha")
        with pytest.raises(ValueError):
            InfluenceCurve(offsets=np.array([0.0, 1.0]),
                           values=np.array([1.0, 2.0]), kind="delta")
