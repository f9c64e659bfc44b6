#!/usr/bin/env python3
"""Parameter-recovery study: coefficient RMSE versus sample size and noise.

For each (n_trips, noise_std) cell, generates several seeded synthetic
datasets, refits, and reports the median RMSE between the recovered and
generating coefficients. RMSE should fall roughly like 1/sqrt(n).
"""

import argparse

import numpy as np

from pacerose.estimator import ols_fit
from pacerose.features import ModelSpec, fourier_design
from pacerose.synth import (
    SyntheticScenario,
    canonicalized,
    generate_paces,
    harmonic_histogram,
    sample_directions,
)

SPEC = ModelSpec(k_max=8, bins=32, network_point_symmetric=True)
ALPHA = np.array([30.0, -12.0, 18.0, 8.0, -10.0, 6.0, 9.0, -7.0,
                  12.0, 5.0, -8.0, 11.0, 7.0, -9.0, 6.0, 10.0])
BETA = np.array([-14.0, 6.0, 9.0, -5.0, 4.0, -7.0, 8.0, -6.0])


def one_rmse(n_trips, noise_std, seed):
    scenario = canonicalized(SyntheticScenario(
        spec=SPEC,
        gamma=240.0,
        alpha=ALPHA,
        beta=BETA,
        demand_hist=harmonic_histogram(32, [0.06] * 8, [0.05] * 8),
        network_hist=harmonic_histogram(
            32,
            [0.0, 0.10, 0.0, 0.08, 0.0, 0.07, 0.0, 0.06],
            [0.0, 0.07, 0.0, 0.06, 0.0, 0.05, 0.0, 0.08],
            point_symmetric=True,
        ),
        n_trips=n_trips,
        noise_std=noise_std,
        seed=seed,
    ))
    thetas = sample_directions(scenario)
    paces, _ = generate_paces(thetas, scenario)
    design, y = fourier_design(paces, thetas, scenario.demand_hist,
                               scenario.network_hist, scenario.spec)
    fit = ols_fit(design, y, scenario.spec.column_names)
    err = np.concatenate([[fit.gamma - scenario.gamma],
                          fit.coefficients - scenario.coefficient_vector()])
    return float(np.sqrt(np.mean(err ** 2)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[2000, 8000, 32000])
    parser.add_argument("--noises", type=float, nargs="+",
                        default=[10.0, 30.0, 60.0])
    parser.add_argument("--seeds", type=int, default=5)
    opts = parser.parse_args()

    header = "n_trips " + "".join(f"  noise={s:<8g}" for s in opts.noises)
    print(header)
    for n_trips in opts.sizes:
        cells = []
        for noise in opts.noises:
            rmses = [one_rmse(n_trips, noise, 100 + s)
                     for s in range(opts.seeds)]
            cells.append(float(np.median(rmses)))
        print(f"{n_trips:>7}" + "".join(f"  {c:<14.4f}" for c in cells))


if __name__ == "__main__":
    main()
