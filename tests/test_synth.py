import io
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RAW_ALPHA,
    RAW_BETA,
    RAW_GAMMA,
    STANDARD_SPEC,
    standard_demand,
    standard_network,
    standard_scenario,
)
from pacerose import estimator
from pacerose.angles import TWO_PI, AngularHistogram, bin_index, wrap_angle
from pacerose.errors import InputFormatError
from pacerose.estimator import BLOCK_ROWS, ols_fit
from pacerose.features import (
    ModelSpec,
    build_design_matrix,
    fourier_basis,
    model_signal,
    moment_matrix,
)
from pacerose.ingest import directions, parse_trips
from pacerose.synth import (
    SyntheticScenario,
    _rng_streams,
    canonicalized,
    generate_paces,
    harmonic_histogram,
    identifiable_coefficients,
    make_rotated_grid_network,
    sample_directions,
    scenario_from_dict,
    scenario_manifest,
    trip_csv_lines,
)


def features(thetas, demand, network, spec):
    """The spec's columns at ``thetas``: F(theta) M without the intercept."""
    spec.check_histograms(demand, network)
    return (fourier_basis(thetas, spec.k_max)
            @ moment_matrix(demand, network, spec)[:, 1:])


def svd_projection(spec, demand, network, gamma, alpha, beta):
    """Reference: the row-space projection Vr Vr^T of [gamma, alpha, beta].

    Vr spans the right singular vectors of the design with intercept on 512
    uniform directions whose singular values exceed 1e-10 of the largest.
    """
    thetas = (np.arange(512) + 0.5) * (TWO_PI / 512)
    A = np.column_stack([np.ones(512),
                         features(thetas, demand, network, spec)])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    basis = vt[s > 1e-10 * s[0]]
    return basis.T @ (basis @ np.concatenate([[gamma], alpha, beta]))


def delta_scenario(at_bin=3, n_trips=200):
    values = np.zeros(32)
    values[at_bin] = 1.0
    return SyntheticScenario(
        spec=STANDARD_SPEC,
        gamma=100.0,
        alpha=np.zeros(16),
        beta=np.zeros(8),
        demand_hist=AngularHistogram(32, values),
        network_hist=standard_network(),
        n_trips=n_trips,
        noise_std=0.0,
        seed=7,
    )


class TestSampleDirections:
    def test_delta_histogram_confines_directions(self):
        scenario = delta_scenario(at_bin=3)
        thetas = sample_directions(scenario)
        assert len(thetas) == 200
        assert all(bin_index(t, 32) == 3 for t in thetas)

    def test_uniform_counts_within_binomial_bound(self):
        uniform = AngularHistogram(32, np.full(32, 1.0 / 32))
        scenario = SyntheticScenario(
            spec=STANDARD_SPEC, gamma=100.0, alpha=np.zeros(16),
            beta=np.zeros(8), demand_hist=uniform,
            network_hist=standard_network(), n_trips=32000, seed=123,
        )
        thetas = sample_directions(scenario)
        counts = np.bincount([bin_index(t, 32) for t in thetas], minlength=32)
        sigma = math.sqrt(32000 * (1 / 32) * (31 / 32))
        assert np.all(np.abs(counts - 1000) <= 4 * sigma)

    def test_same_seed_same_sequence(self):
        s = standard_scenario(n_trips=500, seed=99)
        np.testing.assert_array_equal(sample_directions(s),
                                      sample_directions(s))

    def test_different_seeds_differ(self):
        a = standard_scenario(n_trips=500, seed=1)
        b = standard_scenario(n_trips=500, seed=2)
        assert not np.array_equal(sample_directions(a), sample_directions(b))

    @pytest.mark.parametrize("seed, n_trips", [(1, 26), (7, 1000),
                                               (99, 40_000)])
    def test_matches_the_reference_bitwise(self, seed, n_trips):
        # reference: all bin draws, then all jitter draws, then
        # (bin + jitter) * bin width
        scenario = standard_scenario(n_trips=n_trips, seed=seed)
        rng, _ = _rng_streams(seed, 2)
        cdf = np.cumsum(scenario.demand_hist.values)
        cdf[-1] = 1.0
        bins = np.searchsorted(cdf, rng.random(n_trips), side="right")
        expected = ((bins + rng.random(n_trips))
                    * scenario.demand_hist.bin_width)
        assert sample_directions(scenario).tobytes() == expected.tobytes()

    def test_memory_per_trip_is_bounded(self):
        # Bound: below 20 B per trip. The bin indices and the jitter take
        # 8 B each; neither the bins' uniform draw nor bins + jitter may
        # outlive the step that needs it.
        n = 200_000
        scenario = standard_scenario(n_trips=n)
        # numpy's first seeded generator of a process allocates about 1 MB
        # of one-off state, which this bound is not about
        sample_directions(standard_scenario(n_trips=100))
        tracemalloc.start()
        try:
            sample_directions(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 20


class TestGeneratePaces:
    def test_uniform_histograms_give_constant_gamma(self):
        uniform = AngularHistogram(32, np.full(32, 1.0 / 32))
        scenario = SyntheticScenario(
            spec=STANDARD_SPEC, gamma=155.0, alpha=np.zeros(16),
            beta=np.zeros(8), demand_hist=uniform, network_hist=uniform,
            n_trips=100, noise_std=0.0, seed=5,
        )
        thetas = sample_directions(scenario)
        paces, n_clamped = generate_paces(thetas, scenario)
        assert n_clamped == 0
        np.testing.assert_allclose(paces, 155.0, atol=1e-10)

    def test_no_directions_rejected(self, scenario):
        with pytest.raises(ValueError) as err:
            generate_paces([], scenario)
        assert str(err.value) == "directions must be nonempty"

    def test_noiseless_exact_recovery(self, scenario):
        thetas = sample_directions(scenario)
        paces, n_clamped = generate_paces(thetas, scenario)
        assert n_clamped == 0
        X, y = build_design_matrix(paces, thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        assert abs(fit.gamma - scenario.gamma) < 1e-6
        np.testing.assert_allclose(fit.coefficients,
                                   scenario.coefficient_vector(), atol=1e-6)

    def test_clamping_counted(self):
        scenario = standard_scenario(n_trips=2000, noise_std=400.0, seed=3)
        thetas = sample_directions(scenario)
        paces, n_clamped = generate_paces(thetas, scenario)
        assert n_clamped > 0
        assert float(paces.min()) == 1.0

    def test_noise_is_reproducible(self):
        scenario = standard_scenario(n_trips=300, noise_std=20.0, seed=17)
        thetas = sample_directions(scenario)
        p1, _ = generate_paces(thetas, scenario)
        p2, _ = generate_paces(thetas, scenario)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("seed", [0, 5, 7])
    @pytest.mark.parametrize("n_trips", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                         BLOCK_ROWS + 1, 100_000, 250_001])
    def test_blocked_noise_matches_one_draw_bitwise(self, seed, n_trips):
        # reference: the signal plus one draw of all the noise, clamped;
        # generate_paces draws the noise a block of BLOCK_ROWS at a time.
        # A scenario needs more trips than parameters; the paces of fewer
        # directions come from the same noise stream.
        scenario = standard_scenario(n_trips=max(n_trips, 100),
                                     noise_std=30.0, seed=seed)
        thetas = sample_directions(scenario)[:n_trips]
        params = np.concatenate([[scenario.gamma],
                                 scenario.coefficient_vector()])
        signal = model_signal(thetas, scenario.demand_hist,
                              scenario.network_hist, scenario.spec, params)
        _, noise_rng = _rng_streams(seed, 2)
        expected = np.maximum(
            signal + noise_rng.normal(0.0, scenario.noise_std, n_trips), 1.0)
        paces, _ = generate_paces(thetas, scenario)
        assert paces.tobytes() == expected.tobytes()


class TestIdentifiableCoefficients:
    def test_projection_is_idempotent(self):
        g, a, b = identifiable_coefficients(
            STANDARD_SPEC, standard_demand(), standard_network(),
            RAW_GAMMA, RAW_ALPHA, RAW_BETA,
        )
        g2, a2, b2 = identifiable_coefficients(
            STANDARD_SPEC, standard_demand(), standard_network(), g, a, b,
        )
        assert g2 == pytest.approx(g, abs=1e-10)
        np.testing.assert_allclose(a2, a, atol=1e-10)
        np.testing.assert_allclose(b2, b, atol=1e-10)

    def test_gamma_passes_through(self):
        g, _, _ = identifiable_coefficients(
            STANDARD_SPEC, standard_demand(), standard_network(),
            RAW_GAMMA, RAW_ALPHA, RAW_BETA,
        )
        assert g == pytest.approx(RAW_GAMMA, abs=1e-9)

    def test_projection_preserves_the_signal(self):
        raw = standard_scenario(canonical=False)
        canon = canonicalized(raw)
        thetas = np.linspace(0.0, TWO_PI, 123, endpoint=False)
        X = features(thetas, raw.demand_hist, raw.network_hist, raw.spec)
        raw_signal = raw.gamma + X @ raw.coefficient_vector()
        canon_signal = canon.gamma + X @ canon.coefficient_vector()
        np.testing.assert_allclose(canon_signal, raw_signal, atol=1e-9)

    @pytest.mark.parametrize("point_symmetric", [True, False])
    @pytest.mark.parametrize("k_max", [1, 8, 16])
    def test_matches_svd_row_space_projection(self, k_max, point_symmetric):
        rng = np.random.default_rng(k_max)
        spec = ModelSpec(k_max=k_max, bins=48,
                         network_point_symmetric=point_symmetric)
        demand = harmonic_histogram(48, rng.uniform(-0.02, 0.02, k_max),
                                    rng.uniform(-0.02, 0.02, k_max))
        network_amplitudes = rng.uniform(-0.02, 0.02, (2, k_max))
        if point_symmetric:
            network_amplitudes[:, 0::2] = 0.0  # odd harmonics
        network = harmonic_histogram(48, *network_amplitudes,
                                     point_symmetric=point_symmetric)
        alpha = rng.normal(0.0, 10.0, 2 * k_max)
        beta = rng.normal(0.0, 10.0, len(spec.network_column_names))
        g, a, b = identifiable_coefficients(spec, demand, network,
                                            200.0, alpha, beta)
        expected = svd_projection(spec, demand, network, 200.0, alpha, beta)
        got = np.concatenate([[g], a, b])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_more_parameters_than_default_grid_directions(self):
        # 1 + 4 * 128 = 513 parameters: the grid must grow past 512
        spec = ModelSpec(k_max=128, bins=8, network_point_symmetric=False)
        demand = harmonic_histogram(8, [0.1, 0.05], [0.0, 0.1])
        network = harmonic_histogram(8, [0.05, 0.1], [0.1, 0.0])
        rng = np.random.default_rng(3)
        alpha = rng.normal(0.0, 10.0, 256)
        beta = rng.normal(0.0, 10.0, 256)
        g, a, b = identifiable_coefficients(spec, demand, network,
                                            200.0, alpha, beta)
        thetas = rng.uniform(0.0, TWO_PI, 50)
        X = features(thetas, demand, network, spec)
        np.testing.assert_allclose(
            g + X @ np.concatenate([a, b]),
            200.0 + X @ np.concatenate([alpha, beta]), rtol=1e-9)


class TestRotatedGridNetwork:
    def test_mass_bins_at_zero_rotation(self):
        hist = make_rotated_grid_network(0.0, 32)
        expected = np.zeros(32)
        expected[[0, 8, 16, 24]] = 0.25
        np.testing.assert_array_equal(hist.values, expected)

    def test_point_symmetry_exact(self):
        for rotation in (0.0, 0.1, 1.0, 2.5, 5.0):
            hist = make_rotated_grid_network(rotation, 32)
            assert np.array_equal(hist.values, np.roll(hist.values, 16))

    @staticmethod
    def quarter_masses(rotation, bins):
        """The grid as four 0.25 masses: the bins of rotation and
        rotation + pi/2, and each of those bins plus B/2."""
        values = np.zeros(bins)
        for base in (rotation, rotation + 0.5 * math.pi):
            j = bin_index(wrap_angle(base), bins)
            values[j] += 0.25
            values[(j + bins // 2) % bins] += 0.25
        return values

    @pytest.mark.parametrize("bins", [2, 4, 8, 32, 72])
    def test_equals_four_quarter_masses(self, bins):
        width = TWO_PI / bins
        # on bin edges, beside them, within bins, negative and past 2*pi
        rotations = [0.0, width, 3 * width, math.pi / 4, math.pi / 2,
                     math.nextafter(width, 0.0), math.nextafter(width, 9.0),
                     0.1, 1.0, 2.5, 5.0, 7 * math.pi / 4, -0.3, -width,
                     TWO_PI, 20.0]
        for rotation in rotations:
            hist = make_rotated_grid_network(rotation, bins)
            assert np.array_equal(hist.values,
                                  self.quarter_masses(rotation, bins)), rotation

    def test_odd_bins_refused(self):
        with pytest.raises(ValueError, match="even bin count"):
            make_rotated_grid_network(0.3, 33)

    def test_quarter_turn_is_four_bin_shift(self):
        # pi/4 spans 4 bins of width 2*pi/32
        base = make_rotated_grid_network(0.0, 32)
        turned = make_rotated_grid_network(math.pi / 4, 32)
        np.testing.assert_array_equal(turned.values, np.roll(base.values, 4))


# paces the writer must keep to the bit: signed zeros, subnormals, the
# smallest normal and values far beyond any real pace
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 1e300, -1e300, 1.7976931348623157e308, 0.1]


@st.composite
def trip_columns(draw):
    """Directions and paces of n trips with special values planted, and a
    block size for the writer."""
    n = draw(st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS,
                              BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    paces = rng.normal(110.0, 30.0, n)
    if n:
        planted = st.floats(allow_nan=False, allow_infinity=False) | \
            st.sampled_from(SPECIAL_FLOATS)
        for column in (thetas, paces):
            for i, value in draw(st.lists(st.tuples(
                    st.integers(0, n - 1), planted), max_size=8)):
                column[i] = value
    block_rows = draw(st.sampled_from([1, 2, 3, 7, BLOCK_ROWS]))
    return thetas, paces, block_rows


class TestTripCsvWriter:
    @settings(max_examples=60, deadline=None)
    @given(case=trip_columns())
    def test_chunks_join_to_the_per_line_reference(self, case):
        thetas, paces, block_rows = case
        with patch.object(estimator, "BLOCK_ROWS", block_rows):
            chunks = list(trip_csv_lines(thetas, paces))
        reference = "".join(
            f"0,0,{1000*math.cos(t)!r},{1000*math.sin(t)!r},{float(p)!r},1.0\n"
            for t, p in zip(thetas, paces))
        assert chunks[0] == ("origin_x,origin_y,dest_x,dest_y,duration_s,"
                             "distance_km\n")
        assert "".join(chunks[1:]) == reference
        # one chunk per block: the text is never held whole
        assert len(chunks) == 1 + -(-thetas.size // block_rows)


class TestTripCsvRoundTrip:
    def test_full_pipeline_round_trip(self, scenario):
        thetas = sample_directions(scenario)
        paces, _ = generate_paces(thetas, scenario)
        text = "".join(trip_csv_lines(thetas, paces))
        trips = parse_trips(io.StringIO(text))
        assert len(trips) == scenario.n_trips
        re_thetas, moving = directions(trips, lonlat=False)
        assert moving.all()
        re_paces = trips[:, 4] / trips[:, 5]
        X, y = build_design_matrix(re_paces, re_thetas, scenario.demand_hist,
                                   scenario.network_hist, scenario.spec)
        fit = ols_fit(X, y, scenario.spec.column_names)
        predictions = fit.gamma + X @ fit.coefficients
        np.testing.assert_allclose(predictions, paces, atol=1e-6)
        np.testing.assert_allclose(fit.coefficients,
                                   scenario.coefficient_vector(), atol=1e-6)

    def test_recovery_error_shrinks_with_sample_size(self):
        medians = []
        for n_trips in (2000, 8000, 32000):
            errors = []
            for seed in range(5):
                scenario = standard_scenario(n_trips=n_trips, noise_std=30.0,
                                             seed=1000 + seed)
                thetas = sample_directions(scenario)
                paces, _ = generate_paces(thetas, scenario)
                X, y = build_design_matrix(paces, thetas,
                                           scenario.demand_hist,
                                           scenario.network_hist,
                                           scenario.spec)
                fit = ols_fit(X, y, scenario.spec.column_names)
                err = np.concatenate([
                    [fit.gamma - scenario.gamma],
                    fit.coefficients - scenario.coefficient_vector(),
                ])
                errors.append(float(np.sqrt(np.mean(err ** 2))))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


class TestScenarioParsing:
    def payload(self, **overrides):
        base = {
            "k_max": 8,
            "bins": 32,
            "point_symmetric": True,
            "gamma": 200.0,
            "alpha": list(RAW_ALPHA),
            "beta": list(RAW_BETA),
            "demand_hist": {"kind": "harmonic", "cos": [0.06] * 8,
                            "sin": [0.05] * 8},
            "network_hist": {"kind": "rotated_grid", "rotation_rad": 0.2},
            "n_trips": 500,
            "noise_std": 0.0,
            "seed": 4,
        }
        base.update(overrides)
        return base

    def test_round_trip_through_manifest(self):
        scenario = scenario_from_dict(self.payload())
        manifest = scenario_manifest(scenario, 0)
        rebuilt = scenario_from_dict({
            **manifest,
            "demand_hist": manifest["demand_hist"],
            "network_hist": manifest["network_hist"],
            "canonicalize_coefficients": False,
        })
        np.testing.assert_allclose(rebuilt.alpha, scenario.alpha, atol=1e-15)
        np.testing.assert_allclose(rebuilt.beta, scenario.beta, atol=1e-15)
        assert rebuilt.seed == scenario.seed

    def test_uniform_and_values_kinds(self):
        scenario = scenario_from_dict(self.payload(
            demand_hist={"kind": "uniform"},
            network_hist={"kind": "values", "values": [1.0] * 32},
        ))
        np.testing.assert_allclose(scenario.demand_hist.values, 1 / 32)

    def test_missing_key_rejected(self):
        payload = self.payload()
        del payload["gamma"]
        with pytest.raises(InputFormatError):
            scenario_from_dict(payload)

    def test_unknown_histogram_kind_rejected(self):
        with pytest.raises(InputFormatError):
            scenario_from_dict(self.payload(
                demand_hist={"kind": "mystery"}
            ))

    def test_asymmetric_network_rejected(self):
        values = np.zeros(32)
        values[0] = 1.0
        with pytest.raises(InputFormatError):
            scenario_from_dict(self.payload(
                network_hist={"kind": "values", "values": list(values)}
            ))

    def network_with_excess(self, excess):
        """A payload whose network bins 3 and 19 differ by
        excess / (32 + excess) once normalized."""
        values = np.ones(32)
        values[3] += excess
        return self.payload(network_hist={"kind": "values",
                                          "values": list(values)})

    def test_network_defect_within_the_features_tolerance_accepted(self):
        # a defect of 1e-10, inside the features' point-symmetry tolerance
        scenario = scenario_from_dict(self.network_with_excess(3.2e-9))
        values = scenario.network_hist.values
        assert not np.array_equal(values, np.roll(values, 16))

    def test_asymmetric_network_named_as_the_features_name_it(self):
        with pytest.raises(InputFormatError) as err:
            scenario_from_dict(self.network_with_excess(1e-6))
        assert str(err.value) == ("invalid scenario: network histogram is not "
                                  "point symmetric: bins 3 and 19 differ by "
                                  "3.125e-08")


class TestHarmonicHistogram:
    def test_moments_are_planted(self):
        hist = harmonic_histogram(32, [0.2, 0.0, 0.1], [0.0, 0.3, 0.0])
        centers = hist.bin_centers()
        for k, expected in ((1, 0.1), (3, 0.05)):
            moment = float(np.cos(k * centers) @ hist.values)
            assert moment == pytest.approx(expected, abs=1e-12)
        sin2 = float(np.sin(2 * centers) @ hist.values)
        assert sin2 == pytest.approx(0.15, abs=1e-12)

    def test_no_amplitudes_give_the_uniform_histogram(self):
        hist = harmonic_histogram(8, [], [])
        np.testing.assert_array_equal(hist.values, np.full(8, 1 / 8))

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            harmonic_histogram(32, [1.5], [0.0])

    def test_odd_amplitude_with_symmetry_rejected(self):
        with pytest.raises(ValueError):
            harmonic_histogram(32, [0.1, 0.1], [0.0, 0.0],
                               point_symmetric=True)

    @pytest.mark.parametrize("bins, cos, sin, message", [
        (8, [0.0, 0.1], [0.0], "amplitude vectors must have equal length"),
        (9, [0.0, 0.1], [0.0, 0.0],
         "point symmetry requires an even bin count"),
    ], ids=["unequal-amplitudes", "odd-bins"])
    def test_bad_arguments_are_named(self, bins, cos, sin, message):
        with pytest.raises(ValueError) as err:
            harmonic_histogram(bins, cos, sin, point_symmetric=True)
        assert str(err.value) == message


class TestScenarioValidation:
    def test_too_few_trips_rejected(self):
        with pytest.raises(ValueError):
            SyntheticScenario(
                spec=STANDARD_SPEC, gamma=1.0, alpha=np.zeros(16),
                beta=np.zeros(8), demand_hist=standard_demand(),
                network_hist=standard_network(), n_trips=10,
            )

    def test_wrong_alpha_length_rejected(self):
        with pytest.raises(ValueError):
            SyntheticScenario(
                spec=STANDARD_SPEC, gamma=1.0, alpha=np.zeros(5),
                beta=np.zeros(8), demand_hist=standard_demand(),
                network_hist=standard_network(), n_trips=100,
            )

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("alpha", np.full(16, math.nan)),
        ("beta", np.full(8, math.inf)), ("noise_std", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(spec=STANDARD_SPEC, gamma=1.0, alpha=np.zeros(16),
                      beta=np.zeros(8), demand_hist=standard_demand(),
                      network_hist=standard_network(), n_trips=100)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            SyntheticScenario(**kwargs)

    def test_wrong_beta_length_rejected(self):
        with pytest.raises(ValueError) as err:
            SyntheticScenario(
                spec=STANDARD_SPEC, gamma=1.0, alpha=np.zeros(16),
                beta=np.zeros(16), demand_hist=standard_demand(),
                network_hist=standard_network(), n_trips=100,
            )
        assert str(err.value) == "beta length must match the network columns"

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticScenario(
                spec=STANDARD_SPEC, gamma=1.0, alpha=np.zeros(16),
                beta=np.zeros(8), demand_hist=standard_demand(),
                network_hist=standard_network(), n_trips=100,
                noise_std=-1.0,
            )
