"""Data-dependent risk bounds via iteratively localized Rademacher norms.

The library computes, from a labeled sample alone, a radius that bounds
the risk of every estimate consistent with the labels, with an explicit
exponential tail certificate.  A simulation harness verifies coverage
and convergence rates on synthetic interval-learning problems, and an
entropy module characterizes the attainable rates through fixed points
of entropy integrals.
"""

__version__ = "0.1.0"

import types as _types

from .classes import (
    ConceptClass,
    DimensionMismatchError,
    InconsistentLabelsError,
    Sample,
    SampledRestriction,
    load_sample_csv,
    load_vectors_csv,
    reduce_by_labels,
    restrict,
)
from .concentration import (
    LadderConstants,
    LadderInputs,
    MassartParams,
    PhiLadder,
    constants_from_gammas,
    ladder_constants,
    massart_lower_threshold,
    massart_upper_threshold,
    phi_ladder,
)
from .entropy import (
    DivergentIntegralError,
    EntropyCurve,
    FixedPointError,
    FixedPointResult,
    convex_class_gamma,
    curve_fixed_point,
    empirical_covering_entropy,
    entropy_integral,
    fixed_point,
    inclusion_to_bracketing,
    rate_exponent_fit,
    smooth_boundary_gamma,
    vc_delta_hat,
)
from .rademacher import (
    BoundTrace,
    LocalizationConfig,
    LocalNormEvaluator,
    RademacherDraw,
    RiskBoundResult,
    default_iterations,
    localize,
    risk_bound,
)
from .simulate import (
    DistributionSpec,
    ExperimentReport,
    IntervalSymdiffTable,
    ReplicationResult,
    derive_seed,
    diagnose_ladder,
    draw_sample,
    interval_deviation_scan,
    interval_labels,
    mc_mean_sup_deviation,
    minimal_interval_learner,
    oracle_sequence,
    run_coverage,
    run_rates,
    true_risk,
    worst_consistent_risk,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
