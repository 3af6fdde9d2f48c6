"""The monotonicity tester for halfspaces.

The default, mono_test_ltf, is the uniform edge tester of Goldreich,
Goldwasser, Lehman, Ron and Samorodnitsky run on f itself: ceil(n ln(1/delta)
/ (2 eps)) uniform edges with delta = EDGE_DELTA, which finds a violated edge
with probability at least 1 - delta when f is eps-far from monotone, since a
halfspace is unate and an eps-far unate function violates at least a 2 eps/n
fraction of its edges (see subroutines.edge_tester, which proves that bound
and gives the batches and their costs).  A pass costs exactly
2 ceil(n ln(1/delta) / (2 eps)) queries.

staged_test_ltf is Phase 1 of the paper's adaptive search followed by the
same edge test.  Phase 1 (initialization) finds the high-influence
variables by bisection, whose edges also show their weights' signs, then
fixes them under an assignment that leaves the remainder balanced; with
every coefficient of size INFLUENCE_TAU or more fixed, the remainder is
regular up to INFLUENCE_TAU.  That the bisection finds every such
coefficient rests on a measurement, not a proof (see schedule).  The
paper's Phase 2 would then halve the free set down to 1/tau^2 variables,
above 8e5 at every n and eps for the paper's tau (below 0.0011, see
schedule), so it is not implemented: the edge test runs on the Phase-1
restriction directly.  Phase 1 only adds
queries to the guarantee that edge test already gives; the path stays for
measuring the adaptive mechanism.

One-sidedness is structural: the only rejecting paths carry a certificate
extracted from an actually-queried anti-monotone edge, so a monotone input
can never be rejected, whatever the randomness does.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .oracle import (
    OracleHandle,
    Restriction,
    Verdict,
    random_assignment,
    restrict,
)
from .rng import SplitRng
from .schedule import (
    BISECT_HITS,
    BISECT_SAMPLES,
    DELTA,
    EDGE_DELTA,
    EDGE_EPS,
    ParameterSchedule,
)
from .subroutines import bisect_edges, edge_tester, estimate_mean
# bound only because perfbench/tracing.py wraps these names here; the code
# they named is deleted, so nothing calls them
check_fourier_regular = None
find_balanced_restriction = None
maintain_regular_and_balanced = None
find_hi_influence_vars = None
check_weight_positive = None


def high_variables(f: OracleHandle, rng: SplitRng
                   ) -> Union[Verdict, np.ndarray]:
    """Phase 1's search: the free coordinates of f (ambient labels,
    ascending) that end at least BISECT_HITS of BISECT_SAMPLES bisect_edges
    samples, or a non-monotone verdict if one ends on an anti-monotone
    edge.  A sample ends on at most one coordinate, so the set holds at
    most BISECT_SAMPLES // BISECT_HITS coordinates (15).  That it includes
    every |fhat(i)| >= INFLUENCE_TAU is measured, not proven (see
    schedule)."""
    found = bisect_edges(f, BISECT_SAMPLES, rng)
    if found.certificate is not None:
        return Verdict.non_monotone(found.certificate, "rb:negative-weight")
    labels, hits = np.unique(found.coords[found.coords >= 0],
                             return_counts=True)
    return labels[hits >= BISECT_HITS]


def regularize_and_balance(f: OracleHandle, eps: float,
                           sched: ParameterSchedule, rng: SplitRng
                           ) -> Union[Verdict, Restriction]:
    """Initialization phase.  Pull out the variables of f whose degree-1
    coefficient reaches INFLUENCE_TAU with high_variables, rejecting on any
    anti-monotone edge its bisections end on, then fix them under an
    assignment that leaves the remainder balanced.

    Returns the fixing restriction, whose support is exactly the discovered
    high-influence set, a non-monotone verdict with certificate, or a
    monotone verdict whose diagnostic `rb:...` names the bailing branch.
    The assignment of round r is drawn from the stream ("rho", r), and its
    mean check (accuracy eps/6, confidence 1 - DELTA/2) stops as soon as it
    has decided whether |E f| is within 1 - 7 eps/6.  When no variable is
    high there is nothing to fix, so one round is run instead of
    sched.rb_rounds.
    """
    high = high_variables(f, rng.child("influence"))
    if isinstance(high, Verdict):
        return high
    bound = 1.0 - 7.0 * eps / 6.0
    # with nothing to fix, every round would re-test the same function
    for r in range(sched.rb_rounds if high.size else 1):
        fix = random_assignment(high, f.ambient_n,
                                rng.child("rho", r).generator)
        mean = estimate_mean(restrict(f, fix), eps / 6.0, DELTA / 2.0,
                             rng.child("mean", r).generator, bound=bound)
        if abs(mean) <= bound:
            return fix
    return Verdict.monotone("rb:round-exhaustion")


def main_procedure(f: OracleHandle, rho: Restriction, eps: float,
                   rng: SplitRng) -> Verdict:
    """Final phase: the edge tester on f under rho, at confidence
    1 - EDGE_DELTA.

    The edge test gets distance eps when rho fixes no coordinate, since it
    then tests f itself, and min(eps, EDGE_EPS / 4) otherwise (see
    schedule)."""
    edge_eps = eps if rho.num_stars == rho.n else min(eps, EDGE_EPS / 4.0)
    return edge_tester(restrict(f, rho), edge_eps, EDGE_DELTA,
                       rng.child("edge"))


def _run_eps(eps: float, sched: ParameterSchedule) -> float:
    """The clamped eps every step runs with; eps must be the value sched was
    built for."""
    if eps != sched.eps_requested:
        raise ValueError(f"eps={eps} does not match the schedule")
    return sched.eps


def mono_test_ltf(f: OracleHandle, eps: float, sched: ParameterSchedule,
                  rng: SplitRng) -> Verdict:
    """Default test: the uniform edge tester on f itself, at the clamped
    sched.eps and confidence 1 - EDGE_DELTA.

    A monotone input yields "monotone" with probability 1; an input eps-far
    from monotone is rejected, with a certificate, with probability at least
    1 - EDGE_DELTA.  eps must be the value sched was built for.
    """
    return edge_tester(f, _run_eps(eps, sched), EDGE_DELTA, rng.child("edge"))


def staged_test_ltf(f: OracleHandle, eps: float, sched: ParameterSchedule,
                    rng: SplitRng) -> Verdict:
    """Adaptive test: initialization phase, then the final edge test on
    the restriction it returns.

    The input is promised to be a halfspace; behaviour on other functions is
    unspecified.  A monotone input yields "monotone" with probability 1.
    eps must be the value sched was built for; every phase runs with the
    clamped sched.eps.
    """
    eps = _run_eps(eps, sched)
    phase1 = regularize_and_balance(f, eps, sched, rng.child("rb"))
    if isinstance(phase1, Verdict):
        return phase1
    return main_procedure(f, phase1, eps, rng.child("main"))
