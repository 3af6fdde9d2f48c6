"""Adaptive one-sided monotonicity testing for halfspaces on the Boolean cube.

Layers, bottom up:

* oracle: points, halfspaces, restrictions, query-counted black-box access,
  and anti-monotone-edge certificates;
* spectral: sampling estimators for means and degree-1 Fourier mass, plus
  exact spectra for validation;
* subroutines: influence discovery, weight-sign probing, the edge tester,
  and the balance search;
* schedule / tester: the desk-scale constants that replace the paper's
  accuracy and confidence formulas, the (n, eps)-dependent round counts,
  the regularize-and-balance step, the default edge-first test and the
  adaptive test (initialization phase, then the edge test);
* truth: exact and Monte-Carlo ground-truth oracles for distance to
  monotone, with executable structural identities;
* generators / harness / cli: certified instance families, seeded benchmark
  suites, and the command-line surface.
"""

from .generators import GeneratedInstance, InstanceFamily, generate
from .harness import ExperimentRecord, SuiteConfig, run_suite
from .oracle import (
    AntiMonotoneEdgeCertificate,
    LTFSpec,
    OracleHandle,
    QueryBudgetExceededError,
    Restriction,
    Verdict,
    compose,
    eval_ltf,
    random_assignment,
    random_point,
    restrict,
    restricted_spec,
    verify_certificate,
)
from .rng import SplitRng
from .schedule import ParameterSchedule, build_schedule
from .spectral import (
    ExactSpectrum,
    SpectralEstimate,
    check_fourier_regular,
    degree1_square_terms,
    estimate_mean,
    estimate_sum_of_squares,
    exact_spectrum,
)
from .subroutines import (
    HiInfluenceResult,
    check_weight_positive,
    edge_tester,
    find_balanced_restriction,
    find_hi_influence_vars,
)
from .tester import (
    main_procedure,
    maintain_regular_and_balanced,
    mono_test_ltf,
    regularize_and_balance,
    staged_test_ltf,
)
from .truth import (
    Classification,
    DistanceReport,
    WeightProfile,
    check_distance_lower_bound,
    check_negative_mass_lower_bound,
    check_restriction_preserves_distance,
    classify_non_monotone,
    dist_ltf_to_monotone_exact,
    dist_ltf_to_monotone_mc,
    dist_to_monotone_matching,
    drop_negative_weights,
)

__all__ = [
    "AntiMonotoneEdgeCertificate",
    "Classification",
    "DistanceReport",
    "ExactSpectrum",
    "ExperimentRecord",
    "GeneratedInstance",
    "HiInfluenceResult",
    "InstanceFamily",
    "LTFSpec",
    "OracleHandle",
    "ParameterSchedule",
    "QueryBudgetExceededError",
    "Restriction",
    "SpectralEstimate",
    "SplitRng",
    "SuiteConfig",
    "Verdict",
    "WeightProfile",
    "build_schedule",
    "check_distance_lower_bound",
    "check_fourier_regular",
    "check_negative_mass_lower_bound",
    "check_restriction_preserves_distance",
    "check_weight_positive",
    "classify_non_monotone",
    "compose",
    "degree1_square_terms",
    "dist_ltf_to_monotone_exact",
    "dist_ltf_to_monotone_mc",
    "dist_to_monotone_matching",
    "drop_negative_weights",
    "edge_tester",
    "estimate_mean",
    "estimate_sum_of_squares",
    "eval_ltf",
    "exact_spectrum",
    "find_balanced_restriction",
    "find_hi_influence_vars",
    "generate",
    "main_procedure",
    "maintain_regular_and_balanced",
    "mono_test_ltf",
    "random_assignment",
    "random_point",
    "regularize_and_balance",
    "restrict",
    "restricted_spec",
    "run_suite",
    "staged_test_ltf",
    "verify_certificate",
]
