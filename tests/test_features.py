import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_features, carries, min_norm_fourier_fit
from conftest import (
    RAW_ALPHA,
    RAW_BETA,
    RAW_GAMMA,
    STANDARD_SPEC,
    standard_demand,
    standard_network,
    standard_scenario,
)
from pacerose.angles import TWO_PI, AngularHistogram
from pacerose import estimator
from pacerose.errors import InsufficientDataError, SpecMismatchError
from pacerose.estimator import ols_fit
from pacerose.features import (
    ModelSpec,
    build_design_matrix,
    fourier_basis,
    fourier_design,
    model_signal,
    moment_matrix,
    network_features,
)
from pacerose.synth import generate_paces, harmonic_histogram, sample_directions


def delta_histogram(bins, at_bin):
    values = np.zeros(bins)
    values[at_bin] = 1.0
    return AngularHistogram(bins, values)


def uniform_histogram(bins=32):
    return AngularHistogram(bins, np.full(bins, 1.0 / bins))


class TestModelSpec:
    def test_standard_parameter_count(self):
        spec = ModelSpec(k_max=8, bins=32, network_point_symmetric=True)
        assert spec.parameter_count == 25
        assert len(spec.demand_column_names) == 16
        assert spec.network_column_names == (
            "b_c2", "b_s2", "b_c4", "b_s4", "b_c6", "b_s6", "b_c8", "b_s8"
        )

    def test_asymmetric_counts(self):
        spec = ModelSpec(k_max=3, bins=16, network_point_symmetric=False)
        assert spec.parameter_count == 1 + 6 + 6

    def test_shape_questions_do_not_build_names(self):
        spec = ModelSpec(k_max=10 ** 12)

        def built(spec):
            raise AssertionError("column names built to count them")

        with patch.object(ModelSpec, "demand_column_names", property(built)):
            assert spec.network_harmonics == range(2, 10 ** 12 + 1, 2)
            assert spec.parameter_count == 1 + 2 * (10 ** 12 + 5 * 10 ** 11)

    def test_symmetry_needs_even_bins(self):
        with pytest.raises(ValueError):
            ModelSpec(k_max=2, bins=9, network_point_symmetric=True)

    def test_k_and_bins_validated(self):
        with pytest.raises(ValueError):
            ModelSpec(k_max=0)
        with pytest.raises(ValueError):
            ModelSpec(bins=1)


class TestDemandFeatures:
    def test_uniform_vanishes(self):
        f = network_features(1.234, uniform_histogram(), 8,
                             point_symmetric=False)
        assert f.shape == (16,)
        assert np.max(np.abs(f)) < 1e-12

    def test_delta_at_own_direction(self):
        d = delta_histogram(32, 5)
        f = network_features(d.bin_centers()[5], d, 2,
                             point_symmetric=False)
        np.testing.assert_allclose(f, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_two_mass_hand_value(self):
        values = np.zeros(32)
        values[0] = 0.5
        values[8] = 0.5
        d = AngularHistogram(32, values)
        f = network_features(d.bin_centers()[0], d, 1,
                             point_symmetric=False)
        np.testing.assert_allclose(f, [0.5, 0.5], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        values = rng.random(32)
        d = AngularHistogram(32, values / values.sum())
        for theta in rng.uniform(0.0, TWO_PI, 10):
            expected = brute_force_features(theta, list(d.values), range(1, 9))
            np.testing.assert_allclose(
                network_features(theta, d, 8, point_symmetric=False),
                expected, atol=1e-12
            )

    def test_delta_offset_gives_cos_k_delta(self):
        d = delta_histogram(32, 9)
        theta = d.bin_centers()[4]
        delta = d.bin_centers()[9] - theta
        f = network_features(theta, d, 6, point_symmetric=False)
        for k in range(1, 7):
            assert f[2 * k - 2] == pytest.approx(math.cos(k * delta), abs=1e-12)
            assert f[2 * k - 1] == pytest.approx(math.sin(k * delta), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            AngularHistogram(8, np.ones(8))


class TestNetworkFeatures:
    def test_symmetric_emits_even_harmonics_only(self):
        f = network_features(0.7, standard_network(), 8, point_symmetric=True)
        assert f.shape == (8,)

    def test_uniform_vanishes(self):
        f = network_features(2.2, uniform_histogram(), 8, point_symmetric=True)
        assert np.max(np.abs(f)) < 1e-12

    def test_odd_harmonics_vanish_on_symmetric_histogram(self):
        # forcing all harmonics on a point-symmetric histogram: odd ones
        # cancel in pairs because cos(k(x+pi)) = -cos(kx) for odd k
        rng = np.random.default_rng(1)
        half = rng.random(16)
        values = np.concatenate([half, half])
        n = AngularHistogram(32, values / values.sum())
        for theta in rng.uniform(0.0, TWO_PI, 20):
            f = network_features(theta, n, 7, point_symmetric=False)
            for k in (1, 3, 5, 7):
                assert abs(f[2 * k - 2]) < 1e-12
                assert abs(f[2 * k - 1]) < 1e-12

    def test_asymmetric_histogram_rejected_with_worst_pair(self):
        values = np.zeros(8)
        values[0] = 0.75
        values[4] = 0.25
        n = AngularHistogram(8, values)
        with pytest.raises(SpecMismatchError) as err:
            network_features(0.0, n, 2, point_symmetric=True)
        assert "bins 0 and 4" in str(err.value)

    def test_matches_brute_force(self):
        n = standard_network()
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0.0, TWO_PI, 10):
            expected = brute_force_features(theta, list(n.values), (2, 4, 6, 8))
            np.testing.assert_allclose(
                network_features(theta, n, 8, point_symmetric=True),
                expected, atol=1e-12,
            )


class TestDesignMatrix:
    def test_shapes(self):
        spec = ModelSpec()
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0.0, TWO_PI, 100)
        X, y = build_design_matrix(np.full(100, 120.0), thetas,
                                   standard_demand(), standard_network(), spec)
        assert X.shape == (100, 24)
        assert y.shape == (100,)
        assert spec.parameter_count == 25

    def test_uniform_histograms_zero_design(self):
        spec = ModelSpec()
        rng = np.random.default_rng(4)
        thetas = rng.uniform(0.0, TWO_PI, 60)
        X, _ = build_design_matrix(np.full(60, 100.0), thetas,
                                   uniform_histogram(), uniform_histogram(),
                                   spec)
        assert np.max(np.abs(X)) < 1e-12

    def test_identical_directions_identical_rows(self):
        spec = ModelSpec()
        thetas = np.full(30, 1.0)
        X, _ = build_design_matrix(np.arange(30, dtype=float) + 100.0, thetas,
                                   standard_demand(), standard_network(), spec)
        assert np.array_equal(X[0], X[7])

    def test_underdetermined_rejected(self):
        spec = ModelSpec()
        thetas = np.linspace(0.1, 6.0, 10)
        with pytest.raises(InsufficientDataError):
            build_design_matrix(np.full(10, 100.0), thetas,
                                standard_demand(), standard_network(), spec)

    def test_as_many_trips_as_parameters_rejected(self):
        spec = ModelSpec()
        n = spec.parameter_count
        thetas = np.linspace(0.1, 6.0, n)
        with pytest.raises(InsufficientDataError,
                           match=f"need more than {n} samples for {n} "
                                 f"parameters, got {n}$"):
            build_design_matrix(np.full(n, 100.0), thetas,
                                standard_demand(), standard_network(), spec)

    @pytest.mark.parametrize("thetas, message", [
        (np.append(np.linspace(0.1, 6.0, 39), np.nan),
         "directions must be finite"),
        (np.linspace(0.1, 6.0, 39),
         "paces and directions must be 1-D and equally long"),
    ], ids=["nan", "one-short"])
    def test_bad_directions_rejected(self, thetas, message):
        # the checks are fourier_design's, so a NaN direction is refused
        # rather than giving a NaN row
        with pytest.raises(ValueError, match=message):
            build_design_matrix(np.full(40, 100.0), thetas,
                                standard_demand(), standard_network(),
                                ModelSpec())

    def test_bin_count_mismatch_rejected(self):
        spec = ModelSpec(bins=32)
        thetas = np.linspace(0.1, 6.0, 40)
        with pytest.raises(SpecMismatchError):
            build_design_matrix(np.full(40, 100.0), thetas,
                                uniform_histogram(16), uniform_histogram(32),
                                spec)

    def test_joint_rotation_invariance(self):
        spec = ModelSpec()
        d = standard_demand()
        n = standard_network()
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0.0, TWO_PI, 200)
        paces = np.full(200, 100.0)
        X1, _ = build_design_matrix(paces, thetas, d, n, spec)
        shift = 5
        delta = shift * TWO_PI / spec.bins
        X2, _ = build_design_matrix(paces, (thetas + delta) % TWO_PI,
                                    d.rotated(shift), n.rotated(shift), spec)
        assert np.max(np.abs(X1 - X2)) < 1e-10


@st.composite
def kernel_cases(draw, point_symmetric):
    """(k_max, histogram, thetas) with thetas on bin edges and near 2*pi."""
    k_max = draw(st.integers(1, 16))
    # with point symmetry the drawn values are the first half of the bins
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0),
                                 min_size=1 if point_symmetric else 2,
                                 max_size=36 if point_symmetric else 72)))
    raw[draw(st.integers(0, raw.size - 1))] += 1.0  # positive total
    if point_symmetric:
        raw = np.concatenate([raw, raw])
    bins = raw.size
    hist = AngularHistogram(bins, raw / raw.sum())
    edges = draw(st.lists(st.integers(0, bins), min_size=1, max_size=4))
    thetas = ([j * TWO_PI / bins for j in edges]
              + [0.0, TWO_PI - 1e-12, float(np.nextafter(TWO_PI, 0.0))]
              + draw(st.lists(st.floats(-20.0, 20.0), max_size=3)))
    return k_max, hist, thetas


@pytest.mark.parametrize("point_symmetric", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_brute_force_oracle(point_symmetric, data):
    k_max, hist, thetas = data.draw(kernel_cases(point_symmetric))
    spec = ModelSpec(k_max=k_max, bins=hist.bin_count,
                     network_point_symmetric=point_symmetric)
    values = list(hist.values)
    expected = np.array([
        np.concatenate([brute_force_features(t, values, spec.demand_harmonics),
                        brute_force_features(t, values,
                                             spec.network_harmonics)])
        for t in thetas])
    # the histogram is both the demand and the network histogram
    spec.check_histograms(hist, hist)
    got = (fourier_basis(np.array(thetas), k_max)
           @ moment_matrix(hist, hist, spec)[:, 1:])
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    for t, row in zip(thetas, expected):
        np.testing.assert_allclose(
            network_features(t, hist, k_max, point_symmetric),
            row[2 * k_max:], rtol=0.0, atol=1e-12,
        )


def brute_force_design(thetas, demand, network, spec):
    return np.array([
        np.concatenate([
            brute_force_features(t, list(demand.values), spec.demand_harmonics),
            brute_force_features(t, list(network.values),
                                 spec.network_harmonics),
        ]) for t in thetas
    ])


ASYMMETRIC_NETWORK = harmonic_histogram(32, [0.04, 0.10, 0.03, 0.08],
                                        [0.05, 0.07, -0.02, 0.06])


@pytest.mark.parametrize("spec, network, exempt", [
    (ModelSpec(), standard_network(), ()),
    (ModelSpec(network_point_symmetric=False), ASYMMETRIC_NETWORK, ()),
    # odd moments of a point-symmetric histogram are rounding noise (~1e-17),
    # so the fit's values for those columns are noise in any implementation
    (ModelSpec(network_point_symmetric=False), standard_network(),
     tuple(f"b_{part}{k}" for k in (1, 3, 5, 7) for part in "cs")),
])
def test_fit_on_kernel_design_matches_brute_force_design(spec, network,
                                                         exempt):
    scenario = standard_scenario(n_trips=400, noise_std=20.0)
    thetas = sample_directions(scenario)
    paces, _ = generate_paces(thetas, scenario)
    X, y = build_design_matrix(paces, thetas, scenario.demand_hist, network,
                               spec)
    fast = ols_fit(X, y, spec.column_names)
    slow = ols_fit(brute_force_design(thetas, scenario.demand_hist, network,
                                      spec), y, spec.column_names)
    assert fast.rank == slow.rank
    keep = np.array([True] + [name not in exempt
                              for name in spec.column_names])
    for got, want in (
        (fast.params(), slow.params()),
        (np.concatenate([[fast.gamma_std_error], fast.std_errors]),
         np.concatenate([[slow.gamma_std_error], slow.std_errors])),
    ):
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(want[keep])))


def _case_histogram(rng, kind, bins, period_bins):
    """A histogram of one of the shapes the factored-fit test mixes."""
    centers = (np.arange(bins) + 0.5) * (TWO_PI / bins)
    if kind == "concentrated":
        kappa = rng.uniform(20.0, 400.0)
        values = np.exp(kappa * (np.cos(centers - rng.uniform(0.0, TWO_PI)) - 1.0))
    else:
        values = rng.uniform(0.1, 1.0, bins)
    if kind == "vanished":
        # a pattern repeating every period_bins bins: every harmonic that is
        # not a multiple of bins / period_bins vanishes
        values = np.tile(values[:period_bins], bins // period_bins)
    return values / values.sum()


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def factored_fit_cases(draw):
    k_max = draw(st.integers(1, 8))
    point_symmetric = draw(st.booleans())
    bins = (2 * draw(st.integers(2, 20)) if point_symmetric
            else draw(st.integers(3, 40)))
    spec = ModelSpec(k_max=k_max, bins=bins,
                     network_point_symmetric=point_symmetric)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ("random", "concentrated", "vanished")
    demand = _case_histogram(rng, draw(st.sampled_from(kinds)), bins,
                             draw(st.sampled_from(_divisors(bins))))
    network = _case_histogram(
        rng, draw(st.sampled_from(kinds)), bins,
        draw(st.sampled_from(_divisors(bins // 2 if point_symmetric else bins))))
    if point_symmetric:
        network = np.tile(network[:bins // 2], 2)
        network /= network.sum()
    # trips head where the demand histogram puts them, and their paces
    # scatter as observed paces do: on a near-exact fit the F statistic is
    # the ratio to an RSS at the rounding level, which no two solvers share
    n = spec.parameter_count + 1 + draw(st.integers(0, 300))
    thetas = ((rng.choice(bins, size=n, p=demand) + rng.random(n))
              * (TWO_PI / bins))
    paces = (200.0 + rng.normal(0.0, 20.0, spec.parameter_count - 1)
             @ np.cos(np.outer(np.arange(1, spec.parameter_count), thetas))
             + rng.normal(0.0, draw(st.sampled_from([5.0, 50.0])), n))
    block_rows = draw(st.integers(1, 64))
    return (spec, AngularHistogram(bins, demand), AngularHistogram(bins, network),
            thetas, paces, block_rows)


@settings(max_examples=150, deadline=None)
@given(case=factored_fit_cases())
def test_fourier_fit_matches_the_dense_design_fit(case):
    spec, demand, network, thetas, paces, block_rows = case
    X, y = build_design_matrix(paces, thetas, demand, network, spec)
    with patch.object(estimator, "BLOCK_ROWS", block_rows):
        design, y_design = fourier_design(paces, thetas, demand, network, spec)
        fast = ols_fit(design, y_design, spec.column_names)
    dense = ols_fit(X, y, spec.column_names)
    assert fast.rank == dense.rank
    assert fast.dependent_columns == dense.dependent_columns
    assert (fast.n_samples, fast.dof_residual) == (dense.n_samples,
                                                   dense.dof_residual)
    # Two backward-stable solvers agree to about eps * kappa([1 X]) and no
    # closer. Designs conditioned like the model's own (the benchmark fits
    # have kappa ~600) meet the fixed tolerances; worse ones, such as all
    # trips inside one bin, must agree to 1e4 * eps * kappa.
    s = np.linalg.svd(np.column_stack([np.ones(len(y)), X]), compute_uv=False)
    kappa = s[0] / s[dense.rank - 1]
    slack = 1e4 * np.finfo(float).eps * kappa if kappa > 1e4 else 0.0
    # r^2 and F have scale 1 even where the fit explains nothing
    for got, want, rtol, least_scale in (
        (fast.params(), dense.params(), 1e-10, 0.0),
        (np.append(fast.std_errors, fast.gamma_std_error),
         np.append(dense.std_errors, dense.gamma_std_error), 1e-10, 0.0),
        (np.append(fast.t_values, fast.gamma_t_value),
         np.append(dense.t_values, dense.gamma_t_value), 1e-9, 0.0),
        ([fast.r_squared], [dense.r_squared], 1e-10, 1.0),
        ([fast.f_statistic], [dense.f_statistic], 1e-10, 1.0),
    ):
        scale = max(least_scale, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=max(rtol, slack) * scale)
    np.testing.assert_allclose(
        np.append(fast.p_values, fast.gamma_p_value),
        np.append(dense.p_values, dense.gamma_p_value), rtol=0.0,
        atol=max(1e-7, slack))


def _asymmetric_histograms():
    # demand lacks harmonic 2, the network 4, and neither carries 6
    cos = np.array([0.06, 0.0, 0.05, 0.04, 0.03, 0.0, 0.02, 0.05])
    sin = np.array([0.05, 0.0, 0.04, 0.03, 0.06, 0.0, 0.05, 0.02])
    network_cos = np.array([0.04, 0.1, 0.05, 0.0, 0.03, 0.0, 0.06, 0.02])
    network_sin = np.array([0.03, 0.07, 0.02, 0.0, 0.05, 0.0, 0.04, 0.03])
    return (harmonic_histogram(32, cos, sin),
            harmonic_histogram(32, network_cos, network_sin))


def _rank_deficiency_cases():
    rng = np.random.default_rng(4)
    six = [AngularHistogram.from_weights(rng.uniform(0.1, 1.0, 6))
           for _ in range(2)]
    return {
        "point-symmetric": (STANDARD_SPEC, standard_demand(),
                            standard_network()),
        "asymmetric-network": (ModelSpec(k_max=8, bins=32,
                                         network_point_symmetric=False),
                               *_asymmetric_histograms()),
        "symmetric-network-unconstrained": (
            ModelSpec(k_max=8, bins=32, network_point_symmetric=False),
            standard_demand(), standard_network()),
        "k-above-half-the-bins": (ModelSpec(k_max=5, bins=6,
                                            network_point_symmetric=False),
                                  *six),
    }


def _spread_trips(spec, seed=9, n=3000):
    """Directions all round the circle, so F has full rank, and paces with
    a signal in several harmonics and noise."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, n)
    paces = (240.0 + 20.0 * np.cos(thetas) - 12.0 * np.sin(2.0 * thetas)
             + 8.0 * np.cos(3.0 * thetas - 1.0)
             + 5.0 * np.sin(spec.k_max * thetas) + rng.normal(0.0, 15.0, n))
    return thetas, paces


@pytest.mark.parametrize("case", ["point-symmetric", "asymmetric-network"])
def test_rank_deficient_fit_matches_the_split_fourier_series(case):
    spec, demand, network = _rank_deficiency_cases()[case]
    thetas, paces = _spread_trips(spec)
    fit = ols_fit(*fourier_design(paces, thetas, demand, network, spec),
                  spec.column_names)
    assert fit.rank < fit.parameter_count
    if case == "point-symmetric":
        assert (fit.rank, fit.parameter_count) == (17, 25)
    params, se = min_norm_fourier_fit(thetas, paces, demand.values,
                                      network.values, spec.k_max,
                                      spec.network_harmonics)
    for got, want in ((fit.params(), params),
                      (np.append(fit.gamma_std_error, fit.std_errors), se)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("case", sorted(_rank_deficiency_cases()))
def test_dependent_columns_are_the_zero_and_the_shared_harmonics(case):
    spec, demand, network = _rank_deficiency_cases()[case]
    thetas, paces = _spread_trips(spec)
    fit = ols_fit(*fourier_design(paces, thetas, demand, network, spec),
                  spec.column_names)
    demand_has = {k: carries(demand.values, k) for k in spec.demand_harmonics}
    network_has = {k: k in spec.network_harmonics
                   and carries(network.values, k)
                   for k in spec.demand_harmonics}
    # a column is dependent when it is zero, its histogram lacking its
    # harmonic, or when both histograms carry its harmonic
    expected = tuple(
        name for name in spec.column_names
        if not (demand_has if name[0] == "a" else network_has)[int(name[3:])]
        or (demand_has[int(name[3:])] and network_has[int(name[3:])]))
    assert expected and fit.dependent_columns == expected
    carried = [k for k in spec.demand_harmonics
               if demand_has[k] or network_has[k]]
    assert fit.rank == 1 + 2 * len(carried)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 1024])
def test_model_signal_in_blocks_matches_one_product(block_rows):
    # BLAS rounds a row's dot product by where the row falls in the
    # matrix, so a block may differ from the one product by a few ulp
    demand, network = standard_demand(), standard_network()
    params = np.concatenate([[RAW_GAMMA], RAW_ALPHA, RAW_BETA])
    thetas = np.random.default_rng(block_rows).uniform(-TWO_PI, TWO_PI, 4097)
    weights = moment_matrix(demand, network, STANDARD_SPEC) @ params
    expected = fourier_basis(thetas, STANDARD_SPEC.k_max) @ weights
    with patch.object(estimator, "BLOCK_ROWS", block_rows):
        got = model_signal(thetas, demand, network, STANDARD_SPEC, params)
        square = model_signal(thetas[:4096].reshape(64, 64), demand, network,
                              STANDARD_SPEC, params)
        one = model_signal(thetas[5], demand, network, STANDARD_SPEC, params)
    np.testing.assert_allclose(got, expected, rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(square, expected[:4096].reshape(64, 64),
                               rtol=2e-15, atol=0.0)
    assert one.shape == ()
    np.testing.assert_allclose(one, expected[5], rtol=2e-15, atol=0.0)
