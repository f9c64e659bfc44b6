"""Synthetic trips with known ground truth for end-to-end testing.

A scenario fixes the model shape, the generating histograms, ground-truth
coefficients, trip count, noise level, and seed. Directions are drawn from
the demand histogram by inverse CDF with uniform jitter inside the chosen
bin; paces are the model signal plus Gaussian noise, clamped below at
1 s/km (the clamp count is reported so tests can insist on zero).

Ground-truth coefficients should be canonicalized first: demand and network
features sharing a harmonic are exactly collinear, so only the projection
of the coefficient vector onto the design's row space is recoverable by any
least-squares fit. The design is [1 X] = F(theta) M with F the Fourier basis,
so for directions rich enough to give F full column rank that row space is
the row space of the moment matrix M, and the projection is pinv(M) M, with
the fit's closed-form pinv(M) (``estimator.pinv_row_scales``). Scenarios
built from the projection are recovered exactly by ``fit`` on noiseless data.

Randomness uses counter-based Philox streams split per purpose, so the same
seed reproduces the same trips regardless of how generation is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .angles import TWO_PI, AngularHistogram, build_histogram, require_size
from .errors import InputFormatError, SpecMismatchError
from .estimator import pinv_row_scales, row_blocks
from .features import ModelSpec, fourier_basis, model_signal, moment_matrix
from .files import csv_text, json_value
from .ingest import TRIP_HEADER_PLANAR

PACE_FLOOR_S_PER_KM = 1.0

__all__ = [
    "PACE_FLOOR_S_PER_KM",
    "SyntheticScenario",
    "canonicalized",
    "generate_paces",
    "harmonic_histogram",
    "identifiable_coefficients",
    "make_rotated_grid_network",
    "sample_directions",
    "scenario_from_dict",
    "scenario_manifest",
    "trip_csv_lines",
]


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground truth for one synthetic dataset."""

    spec: ModelSpec
    gamma: float
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    demand_hist: AngularHistogram
    network_hist: AngularHistogram
    n_trips: int
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        finite = (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
                  and math.isfinite(self.gamma)
                  and math.isfinite(self.noise_std))
        if not finite:
            raise ValueError("gamma, alpha, beta and noise_std must be finite")
        if alpha.shape != (2 * self.spec.k_max,):
            raise ValueError("alpha must have 2*k_max entries")
        if beta.shape != (2 * len(self.spec.network_harmonics),):
            raise ValueError("beta length must match the network columns")
        self.spec.check_histograms(self.demand_hist, self.network_hist)
        require_size("n_trips", self.n_trips, self.spec.parameter_count + 1)
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def coefficient_vector(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])


def _rng_streams(seed: int, n_streams: int):
    children = np.random.SeedSequence(seed).spawn(n_streams)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def harmonic_histogram(
    bins: int,
    cos_amplitudes,
    sin_amplitudes,
    point_symmetric: bool = False,
) -> AngularHistogram:
    """Histogram whose k-th trigonometric moments are amplitude/2.

    Bin j gets (1 + sum_k a_k cos(k c_j) + b_k sin(k c_j)) / B before
    normalization, which by discrete orthogonality plants the moments
    directly. Amplitudes must keep every bin positive. With
    ``point_symmetric`` the histogram is symmetrized exactly afterwards
    (only meaningful when odd amplitudes are zero).
    """
    cos_amplitudes = np.asarray(cos_amplitudes, dtype=float)
    sin_amplitudes = np.asarray(sin_amplitudes, dtype=float)
    if cos_amplitudes.shape != sin_amplitudes.shape:
        raise ValueError("amplitude vectors must have equal length")
    centers = (np.arange(bins) + 0.5) * (TWO_PI / bins)
    series = np.ones(2 * cos_amplitudes.size + 1)
    series[1::2], series[2::2] = cos_amplitudes, sin_amplitudes
    values = fourier_basis(centers, cos_amplitudes.size) @ series
    if np.any(values <= 0.0):
        raise ValueError("amplitudes too large: histogram would go nonpositive")
    if point_symmetric:
        if bins % 2 != 0:
            raise ValueError("point symmetry requires an even bin count")
        odd = [k for k in range(1, cos_amplitudes.size + 1, 2)
               if cos_amplitudes[k - 1] or sin_amplitudes[k - 1]]
        if odd:
            raise ValueError(f"point symmetry forbids odd harmonics {odd}")
        values = 0.5 * (values + np.roll(values, bins // 2))
    return AngularHistogram.from_weights(values)


def make_rotated_grid_network(rotation: float, bins: int) -> AngularHistogram:
    """Four-peak point-symmetric histogram mimicking a rotated grid network.

    Mass 0.25 lands in the bins containing rotation, rotation + pi/2, and
    their opposites. Exactly point symmetric, so the bin count must be even.
    """
    if bins % 2 != 0:
        raise ValueError("grid network histogram requires an even bin count")
    return build_histogram([rotation, rotation + 0.5 * math.pi],
                           bin_count=bins, point_symmetric=True)


def identifiable_coefficients(
    spec: ModelSpec,
    demand_hist: AngularHistogram,
    network_hist: AngularHistogram,
    gamma: float,
    alpha,
    beta,
):
    """Project (gamma, alpha, beta) onto the recoverable coefficient subspace.

    The projection is ``pinv(M) M [gamma; alpha; beta]`` with M the
    ``moment_matrix``, whose block of pinv(M) for harmonic k is
    ``M_k^T / (R_d,k^2 + R_n,k^2)``, or zero when that sum is 0. Gamma passes
    through unchanged. The projector is formed first, so coefficients near
    the float range are not overflowed by the moments.
    """
    m = moment_matrix(demand_hist, network_hist, spec)
    projector = (m.T * pinv_row_scales(m)) @ m
    alpha = np.asarray(alpha, dtype=float)
    projected = projector @ np.concatenate([[gamma], alpha,
                                            np.asarray(beta, dtype=float)])
    return (float(projected[0]), projected[1:1 + alpha.size],
            projected[1 + alpha.size:])


def canonicalized(scenario: SyntheticScenario) -> SyntheticScenario:
    """Scenario with coefficients replaced by their identifiable projection."""
    gamma, alpha, beta = identifiable_coefficients(
        scenario.spec, scenario.demand_hist, scenario.network_hist,
        scenario.gamma, scenario.alpha, scenario.beta)
    return replace(scenario, gamma=gamma, alpha=alpha, beta=beta)


def sample_directions(scenario: SyntheticScenario) -> np.ndarray:
    """Trip directions drawn from the scenario's demand histogram."""
    rng, _ = _rng_streams(scenario.seed, 2)
    n = scenario.n_trips
    hist = scenario.demand_hist
    cdf = np.cumsum(hist.values)
    cdf[-1] = 1.0
    # the bin draws, then the jitter draws; (bins + jitter) * width, formed
    # in the jitter array, so at most two N-arrays are alive at once
    bins = np.searchsorted(cdf, rng.random(n), side="right")
    jitter = rng.random(n)
    jitter += bins
    jitter *= hist.bin_width
    return jitter


def generate_paces(directions, scenario: SyntheticScenario):
    """Paces for the given directions: signal + seeded Gaussian noise.

    Returns (paces, n_clamped); paces below the 1 s/km floor are clamped
    and counted. A pace that is not finite before the clamp, from an
    overflowing signal or noise draw, raises InputFormatError.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.size == 0:
        raise ValueError("directions must be nonempty")
    params = np.concatenate([[scenario.gamma], scenario.coefficient_vector()])
    with np.errstate(over="ignore", invalid="ignore"):
        signal = model_signal(directions, scenario.demand_hist,
                              scenario.network_hist, scenario.spec, params)
        if scenario.noise_std > 0.0:
            _, noise_rng = _rng_streams(scenario.seed, 2)
            # a block at a time: the same bits as one draw of all of them
            for start, stop in row_blocks(signal.size):
                signal[start:stop] += noise_rng.normal(
                    0.0, scenario.noise_std, stop - start)
    finite = np.isfinite(signal)
    if not finite.all():
        raise InputFormatError(
            f"invalid scenario: the pace of {int((~finite).sum())} of "
            f"{signal.size} trips is not finite; gamma, alpha, beta or "
            "noise_std is too large")
    n_clamped = int(np.count_nonzero(signal < PACE_FLOOR_S_PER_KM))
    # in place: signal is model_signal's own array
    np.maximum(signal, PACE_FLOOR_S_PER_KM, out=signal)
    return signal, n_clamped


def trip_csv_lines(directions, paces):
    """Trip CSV text in the ingest format: the header line, then one string
    per block of ``BLOCK_ROWS`` trips, so the whole text is never held.
    Every trip starts at the origin and covers exactly 1 km, so the duration
    is the pace and the re-ingested bearing is the direction to the last bit
    atan2 allows. ``math.cos`` and ``sin`` place the destination: numpy's
    may differ from them in the last bit."""
    yield csv_text((), TRIP_HEADER_PLANAR)
    directions = np.asarray(directions, dtype=float)
    paces = np.asarray(paces, dtype=float)
    for start, stop in row_blocks(directions.size):
        thetas = directions[start:stop].tolist()
        yield csv_text(("0", "0", [1000.0 * math.cos(t) for t in thetas],
                        [1000.0 * math.sin(t) for t in thetas],
                        paces[start:stop], "1.0"))


def scenario_manifest(scenario: SyntheticScenario, n_clamped: int) -> dict:
    """JSON-ready record of the scenario's shape, seed, and ground truth."""
    return {
        "format": "pacerose-scenario-manifest/1",
        "k_max": scenario.spec.k_max,
        "bins": scenario.spec.bins,
        "point_symmetric": scenario.spec.network_point_symmetric,
        "gamma": scenario.gamma,
        "alpha": [float(v) for v in scenario.alpha],
        "beta": [float(v) for v in scenario.beta],
        "alpha_columns": list(scenario.spec.demand_column_names),
        "beta_columns": list(scenario.spec.network_column_names),
        "demand_hist": [float(v) for v in scenario.demand_hist.values],
        "network_hist": [float(v) for v in scenario.network_hist.values],
        "n_trips": scenario.n_trips,
        "noise_std": scenario.noise_std,
        "seed": scenario.seed,
        "n_clamped": n_clamped,
    }


def _histogram_from_spec(payload: dict, key: str, spec: ModelSpec):
    """The histogram ``payload[key]`` describes: bin values or a kind.

    A ValueError about the entry's content is prefixed with ``key``, as in
    ``network_hist: unknown histogram kind 'nope'``.
    """
    if isinstance(payload.get(key), list):  # the bin values alone
        payload = {key: {"kind": "values", "values": payload[key]}}
    entry = json_value(payload, key, dict)
    try:
        return _histogram(entry, spec.bins, point_symmetric=(
            key == "network_hist" and spec.network_point_symmetric))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _histogram(entry: dict, bins: int, point_symmetric: bool):
    kind = json_value(entry, "kind", str)
    if kind == "values":
        return AngularHistogram.from_weights(
            json_value(entry, "values", list[float]))
    if kind == "uniform":
        return AngularHistogram.from_weights(np.ones(bins))
    if kind == "harmonic":
        return harmonic_histogram(
            bins,
            json_value(entry, "cos", list[float], []),
            json_value(entry, "sin", list[float], []),
            point_symmetric=point_symmetric,
        )
    if kind == "rotated_grid":
        return make_rotated_grid_network(
            json_value(entry, "rotation_rad", float, 0.0), bins)
    raise ValueError(f"unknown histogram kind {kind!r}")


def scenario_from_dict(payload: dict) -> SyntheticScenario:
    """Build a scenario from a parsed scenario JSON object.

    Unless ``canonicalize_coefficients`` is set false, the supplied
    coefficients are projected onto the identifiable subspace; the manifest
    then records the projected ground truth.
    """
    try:
        spec = ModelSpec(
            k_max=json_value(payload, "k_max", int, 8),
            bins=json_value(payload, "bins", int, 32),
            network_point_symmetric=json_value(payload, "point_symmetric",
                                               bool, True),
        )
        scenario = SyntheticScenario(
            spec=spec,
            gamma=json_value(payload, "gamma", float),
            alpha=json_value(payload, "alpha", list[float]),
            beta=json_value(payload, "beta", list[float]),
            demand_hist=_histogram_from_spec(payload, "demand_hist", spec),
            network_hist=_histogram_from_spec(payload, "network_hist", spec),
            n_trips=json_value(payload, "n_trips", int),
            noise_std=json_value(payload, "noise_std", float, 0.0),
            seed=json_value(payload, "seed", int, 0),
        )
        if json_value(payload, "canonicalize_coefficients", bool, True):
            scenario = canonicalized(scenario)
    except (ValueError, SpecMismatchError) as exc:
        raise InputFormatError(f"invalid scenario: {exc}") from exc
    return scenario
