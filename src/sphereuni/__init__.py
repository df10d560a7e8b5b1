"""Uniformity testing on high-dimensional spheres.

Three tests (mean-direction, axial, smallest-angle packing), their
min-p combination (Tippett's rule with a Sidak cutoff), samplers for the
null and the heavy-tailed / FvML alternatives, and a reproducible Monte
Carlo harness.
"""

from .experiments import (
    DiagnosticReport,
    ExperimentPlan,
    ExperimentResult,
    run_bingham_scaling_diagnostic,
    run_fvml_packing_blindness,
    run_independence_diagnostic,
    run_packing_lln_diagnostic,
    run_rayleigh_blindness_diagnostic,
    run_rejection_experiment,
)
from .nulldist import NullLaw, cdf, quantile, upper_p_value
from .sampling import (
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    draw_marginal,
    sample_alpha_spherical,
    sample_from_model,
    sample_fvml,
    sample_uniform_sphere,
)
from .stats import (
    PairwiseSummary,
    TestOutcome,
    bingham_statistic,
    fisher_combination,
    packing_statistic,
    pairwise_summary,
    rayleigh_statistic,
    run_all_tests,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeModel",
    "DiagnosticReport",
    "ExperimentPlan",
    "ExperimentResult",
    "HeavyTailMarginal",
    "NullLaw",
    "PairwiseSummary",
    "SeedSpec",
    "SphericalSample",
    "TestOutcome",
    "bingham_statistic",
    "cdf",
    "draw_marginal",
    "fisher_combination",
    "packing_statistic",
    "pairwise_summary",
    "quantile",
    "rayleigh_statistic",
    "run_all_tests",
    "run_bingham_scaling_diagnostic",
    "run_fvml_packing_blindness",
    "run_independence_diagnostic",
    "run_packing_lln_diagnostic",
    "run_rayleigh_blindness_diagnostic",
    "run_rejection_experiment",
    "sample_alpha_spherical",
    "sample_from_model",
    "sample_fvml",
    "sample_uniform_sphere",
    "upper_p_value",
]
