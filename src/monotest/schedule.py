"""Derived parameters for the two-phase tester.

The paper drives the tester with parameters such as tau' = tau^2 eps^3 / C
and eps' = eps^3 / (C ln(1/eps)).  Those call for sample sizes far beyond
any executable budget, so the tester runs with the constants below instead.
Each constant replaces a paper formula (written with C = 2) that it beats
at every n >= 2 and eps in (0, 1/2]; tests/test_schedule.py checks each one
on a grid.  Below, tau_p = lam eps / log2(n)^2 is the paper's tau, and
lam <= 1/(144 ln 24) < 0.0022 and tau_p < 0.0011 since eps <= 1/2.

* INFLUENCE_TAU = 0.5 replaces the influence threshold of both phase steps:
  tau_p^2 eps^3 / C (initialization) and (tau_p eps / C)^2 sqrt(lam)
  (maintenance), both below 1e-6.
* DELTA = 1e-3 replaces the confidences tau'^2 / C and tau'^2 / (C log2 n)
  of the two steps (below 1e-12 with the tau' above) and the balance
  search's eps^3 / (200 C log2(n)^2) <= 1/3200.
* ESTIMATOR_DELTA = 1e-2 floors the influence search's per-block confidence
  INFLUENCE_TAU^2 DELTA / (8 log2 n) <= 3.2e-5.
* EDGE_EPS = 0.2 replaces the final edge test's eps^3 / (C ln(1/eps)),
  which grows with eps and is below 0.091 at eps = 1/2.  It sizes the
  edge test only when Phase 1 or the stages leave fixed coordinates: the
  test then runs on a restriction of f, whose distance to monotone is not
  proven to be at least eps, and gets distance EDGE_EPS / 4, that is
  ceil(4 m ln(1/EDGE_DELTA) / EDGE_EPS) edges for m free variables.  The
  factor 4 is a stated margin without proof, kept until the distance of
  the restricted functions is measured.  When no coordinate is fixed the
  edge test runs on f itself and is sized from the run's eps (see
  subroutines.edge_tester for the bound).
* EDGE_DELTA = 0.1 is the final edge test's confidence.

With tau' = INFLUENCE_TAU, the paper's regularity checks use thresholds
sqrt(12 tau' / eps) >= sqrt(12) (initialization) and
sqrt(C tau' / sqrt(lam)) > 4.6 (maintenance).  Both exceed 1, no degree-1
coefficient does, so no function fails them and the steps skip them:
regularity up to INFLUENCE_TAU comes from the influence search alone.

What still depends on (n, eps) lives in ParameterSchedule.  Throughout, log
means log base 2, except the ln(...) factors written explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

INFLUENCE_TAU = 0.5
DELTA = 1e-3
ESTIMATOR_DELTA = 1e-2
EDGE_EPS = 0.2
EDGE_DELTA = 0.1

C = 2.0            # the paper's "large enough" constant, at desk scale
TAU_FLOOR = 1e-3   # keeps star_floor = 1/tau^2 at 1e6 or below
ROUND_CAP = 256    # caps the balance-search and maintenance round counts


@dataclass(frozen=True)
class ParameterSchedule:
    n: int
    eps: float
    eps_requested: float
    lam: float         # eps^2 / (36 ln(12/eps))
    tau: float         # max(lam eps / log2(n)^2, TAU_FLOOR)
    star_floor: float  # 1 / tau^2: stages run while this many stars remain
    rb_rounds: int     # ceil(C / eps)
    stage_cap: int     # ceil(4 log2(n))
    fbr_rounds: int    # min(ceil(C log2(n) / eps^3), ROUND_CAP)
    m_rounds: int      # min(ceil(C log2(n) / sqrt(lam)), ROUND_CAP)

    def to_dict(self) -> dict:
        return {**asdict(self), "influence_tau": INFLUENCE_TAU,
                "delta": DELTA, "estimator_delta": ESTIMATOR_DELTA,
                "edge_eps": EDGE_EPS, "edge_delta": EDGE_DELTA}


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
    log2n = math.log2(n)
    lam = eps * eps / (36.0 * math.log(12.0 / eps))
    # above the floor only at n = 2 with eps near 1/2
    tau = max(lam * eps / log2n ** 2, TAU_FLOOR)
    return ParameterSchedule(
        n=n, eps=eps, eps_requested=eps_requested, lam=lam, tau=tau,
        star_floor=1.0 / tau ** 2,
        rb_rounds=int(math.ceil(C / eps)),
        stage_cap=int(math.ceil(4 * log2n)),
        fbr_rounds=min(int(math.ceil(C * log2n / eps ** 3)), ROUND_CAP),
        m_rounds=min(int(math.ceil(C * log2n / math.sqrt(lam))), ROUND_CAP),
    )
