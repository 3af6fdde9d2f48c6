"""Adaptive one-sided monotonicity testing for halfspaces on the Boolean cube.

Layers, bottom up:

* oracle: points, halfspaces and their evaluator, restrictions,
  query-counted black-box access, and anti-monotone-edge certificates;
* subroutines: bisection between antipodal points, which finds Phase 1's
  high-influence variables and the signs of their weights, the bounded
  mean check of Phase 1's balanced assignment, and the edge tester;
* schedule / tester: the desk-scale constants that replace the paper's
  accuracy and confidence formulas, the eps-dependent round count, the
  regularize-and-balance step, the default edge-first test and the
  adaptive test (initialization phase, then the edge test), whose Phase 1
  rests on a measurement, not a proof (see schedule);
* truth: exact ground-truth oracles for distance to monotone (a
  Monte-Carlo estimate only as a cross-check), means, degree-1 coefficients
  and influences, with executable structural identities;
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
from .subroutines import (
    bisect_edges,
    edge_tester,
    estimate_mean,
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
    "ExperimentRecord",
    "GeneratedInstance",
    "InstanceFamily",
    "LTFSpec",
    "OracleHandle",
    "ParameterSchedule",
    "QueryBudgetExceededError",
    "Restriction",
    "SplitRng",
    "SuiteConfig",
    "Verdict",
    "WeightProfile",
    "bisect_edges",
    "build_schedule",
    "certificate_holds",
    "check_restriction_preserves_distance",
    "compose",
    "dist_ltf_to_monotone_exact",
    "dist_ltf_to_monotone_mc",
    "dist_to_monotone_matching",
    "drop_negative_weights",
    "edge_tester",
    "estimate_mean",
    "eval_ltf",
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
