"""Adaptive one-sided monotonicity testing for halfspaces on the Boolean cube.

Layers, bottom up:

* oracle: points, halfspaces, restrictions, query-counted black-box access,
  and anti-monotone-edge certificates;
* spectral: sampling estimators for means and degree-1 Fourier mass, plus
  exact spectra for validation;
* subroutines: influence discovery, weight-sign probing, and the edge
  tester;
* schedule / tester: the desk-scale constants that replace the paper's
  accuracy and confidence formulas, the eps-dependent round count, the
  regularize-and-balance step, the default edge-first test and the
  adaptive test (initialization phase, then the edge test);
* truth: exact ground-truth oracles for distance to monotone (a
  Monte-Carlo estimate only as a cross-check), with executable structural
  identities;
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
    certificate_holds,
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
    degree1_square_terms,
    estimate_mean,
    estimate_sum_of_squares,
    exact_spectrum,
)
from .subroutines import (
    HiInfluenceResult,
    check_weight_positive,
    edge_tester,
    find_hi_influence_vars,
)
from .tester import (
    main_procedure,
    mono_test_ltf,
    regularize_and_balance,
    staged_test_ltf,
)
from .truth import (
    DistanceReport,
    WeightProfile,
    check_restriction_preserves_distance,
    dist_ltf_to_monotone_exact,
    dist_ltf_to_monotone_mc,
    dist_to_monotone_matching,
    drop_negative_weights,
)

__all__ = [
    "AntiMonotoneEdgeCertificate",
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
    "certificate_holds",
    "check_restriction_preserves_distance",
    "check_weight_positive",
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
    "find_hi_influence_vars",
    "generate",
    "main_procedure",
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
