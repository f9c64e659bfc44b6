"""pacerose: direction-dependent congestion regression.

Turns trip logs and a road network into angular histograms, builds a
Fourier-feature linear model of trip pace against the demand and
road-orientation distributions, estimates it by least squares with
inference statistics, and reconstructs the angular influence curves.

The names below are imported from their modules on first use (PEP 562),
so ``import pacerose`` and ``python -m pacerose --help`` do not import
numpy.
"""

import importlib

# each module and the names the package exports from it
_MODULE_EXPORTS = {
    "angles": ("AngularHistogram", "bin_index", "build_histogram",
               "wrap_angle"),
    "errors": ("InputFormatError", "InsufficientDataError", "NumericalError",
               "PaceroseError", "RankDeficiencyError", "SpecMismatchError"),
    "estimator": ("FitResult", "ols_fit", "report_rows", "significance_mask"),
    "features": ("ModelSpec", "build_design_matrix", "network_features"),
    "ingest": ("FilterPolicy", "directions", "network_orientation_histogram",
               "parse_histogram", "parse_network", "parse_trips",
               "percentile_filter"),
    "model": ("InfluenceCurve", "expected_sign_report", "load_model",
              "predict_pace", "reconstruct_curve", "save_model"),
    "special": ("f_p_value", "regularized_incomplete_beta", "t_p_value"),
    "synth": ("SyntheticScenario", "canonicalized", "generate_paces",
              "harmonic_histogram", "identifiable_coefficients",
              "make_rotated_grid_network", "sample_directions",
              "scenario_from_dict"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
