"""Derived parameters for the two-phase tester.

The paper drives the tester with parameters such as tau' = tau^2 eps^3 / C
and eps' = eps^3 / (C ln(1/eps)).  Those call for sample sizes far beyond
any executable budget, so the tester runs with the constants below instead.
Each constant but the two bisection sizes replaces a paper formula (written
with C = 2) that it beats at every n >= 2 and eps in (0, 1/2];
tests/test_schedule.py checks each one on a grid.  Below,
lam = eps^2 / (36 ln(12/eps)), tau_p = lam eps / log2(n)^2 is the paper's
tau, and lam <= 1/(144 ln 24) < 0.0022 and tau_p < 0.0011 since
eps <= 1/2.

* INFLUENCE_TAU = 0.5 replaces the initialization step's influence
  threshold tau_p^2 eps^3 / C, below 1e-6.
* DELTA = 1e-3 replaces that step's confidence tau'^2 / C, below 1e-12
  with the tau' above; it sizes the step's mean check.
* BISECT_SAMPLES = 30 and BISECT_HITS = 2 (provisional, measured): the
  step keeps the coordinates that end at least BISECT_HITS of
  BISECT_SAMPLES bisections (subroutines.bisect_edges).  That they include
  every |fhat(i)| >= INFLUENCE_TAU rests on a measurement, not a proof
  (tests/test_acceptance.py::test_influence_search_contract).
* EDGE_EPS = 0.2 replaces the final edge test's eps^3 / (C ln(1/eps)),
  which grows with eps and is below 0.091 at eps = 1/2.  It sizes the
  edge test only when Phase 1 leaves fixed coordinates: the test then runs
  on a restriction of f, whose distance to monotone is not proven to be at
  least eps, and gets distance min(eps, EDGE_EPS / 4), that is
  ceil(m ln(1/EDGE_DELTA) / min(eps, EDGE_EPS / 4)) edges for m free
  variables, never fewer than the bound asks at distance eps.  The factor
  4 is a stated margin without proof, kept until the distance of the
  restricted functions is measured.  When no coordinate is fixed the edge
  test runs on f itself and is sized from the run's eps (see
  subroutines.edge_tester for the bound).
* EDGE_DELTA = 0.1 is the final edge test's confidence.

With tau' = INFLUENCE_TAU, the paper's regularity check in the
initialization step uses the threshold sqrt(12 tau' / eps) >= sqrt(12).
It exceeds 1, no degree-1 coefficient does, so no function fails it and
the step skips it: regularity up to INFLUENCE_TAU comes from the search for
the high variables alone, as measured above.

What still depends on (n, eps) lives in ParameterSchedule.  Throughout, log
means log base 2, except the ln(...) factors written explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

INFLUENCE_TAU = 0.5
DELTA = 1e-3
BISECT_SAMPLES = 30  # provisional, measured
BISECT_HITS = 2  # provisional, measured
EDGE_EPS = 0.2
EDGE_DELTA = 0.1

C = 2.0  # the paper's "large enough" constant, at desk scale


@dataclass(frozen=True)
class ParameterSchedule:
    n: int
    eps: float
    eps_requested: float
    rb_rounds: int  # ceil(C / eps)

    def to_dict(self) -> dict:
        return {**asdict(self), "influence_tau": INFLUENCE_TAU,
                "delta": DELTA, "bisect_samples": BISECT_SAMPLES,
                "bisect_hits": BISECT_HITS, "edge_eps": EDGE_EPS,
                "edge_delta": EDGE_DELTA}


def build_schedule(n: int, eps: float) -> ParameterSchedule:
    """Populate every (n, eps)-dependent parameter for a run on n variables.

    eps is clamped into (0, 1/2]: the distance to monotone never exceeds 1/2,
    so larger requests are equivalent to 1/2 (a warning is emitted).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    eps_requested = float(eps)
    if eps > 0.5:
        warnings.warn(f"eps={eps} clamped to 0.5 "
                      "(distance to monotone is at most 1/2)", stacklevel=2)
        eps = 0.5
    return ParameterSchedule(n=n, eps=eps, eps_requested=eps_requested,
                             rb_rounds=int(math.ceil(C / eps)))
