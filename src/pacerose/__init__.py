"""pacerose: direction-dependent congestion regression.

Turns trip logs and a road network into angular histograms, builds a
Fourier-feature linear model of trip pace against the demand and
road-orientation distributions, estimates it by least squares with
inference statistics, and reconstructs the angular influence curves.
"""

from .angles import (
    AngularHistogram,
    bin_index,
    build_histogram,
    wrap_angle,
)
from .errors import (
    InputFormatError,
    InsufficientDataError,
    NumericalError,
    PaceroseError,
    RankDeficiencyError,
    SpecMismatchError,
)
from .estimator import FitResult, ols_fit, report_rows, significance_mask
from .features import (
    ModelSpec,
    build_design_matrix,
    demand_features,
    network_features,
)
from .ingest import (
    FilterPolicy,
    directions,
    network_orientation_histogram,
    parse_histogram,
    parse_network,
    parse_trips,
    percentile_filter,
)
from .model import (
    InfluenceCurve,
    expected_sign_report,
    load_model,
    predict_pace,
    reconstruct_curve,
    save_model,
)
from .special import f_p_value, regularized_incomplete_beta, t_p_value
from .synth import (
    SyntheticScenario,
    canonicalized,
    generate_paces,
    harmonic_histogram,
    identifiable_coefficients,
    make_rotated_grid_network,
    sample_directions,
    scenario_from_dict,
)

__version__ = "0.1.0"
