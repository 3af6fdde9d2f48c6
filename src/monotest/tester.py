"""The monotonicity tester for halfspaces.

The default, mono_test_ltf, is the uniform edge tester of Goldreich,
Goldwasser, Lehman, Ron and Samorodnitsky run on f itself: ceil(n ln(1/delta)
/ eps) uniform edges with delta = EDGE_DELTA, which finds a violated edge with
probability at least 1 - delta when f is eps-far from monotone (see
subroutines.edge_tester).  It draws its edges in batches of 64, 128, 256, ...
up to a byte-bounded chunk.  Every edge is still uniform and independent of
the others, so the batches change when the tester stops, not what it samples,
and the bound holds as before.  A pass costs exactly 2 ceil(n ln(1/delta) /
eps) queries; a rejection whose first violated edge is the j-th drawn,
counting from 0, costs at most 2 (2j + 64) queries.

staged_test_ltf is Phase 1 of the paper's adaptive search followed by the
same edge test.  Phase 1 (initialization) strips out high-influence
variables after checking their weight signs, then fixes them under an
assignment that leaves the remainder balanced; with every coefficient of
size INFLUENCE_TAU or more fixed, the remainder is regular up to
INFLUENCE_TAU.  The paper's Phase 2 would then repeatedly halve the free
set down to 1/tau^2 free variables, above 8e5 at every n and eps for the
paper's tau (below 0.0011, see schedule), so it is not implemented: the
edge test runs on the Phase-1 restriction directly.  Phase 1 only adds
queries to the guarantee that edge test already gives; the path stays for
measuring the adaptive mechanism.

One-sidedness is structural: the only rejecting paths carry a certificate
extracted from an actually-queried anti-monotone edge, so a monotone input
can never be rejected, whatever the randomness does.
"""

from __future__ import annotations

from typing import Union

from .oracle import (
    OracleHandle,
    Restriction,
    Verdict,
    compose,
    random_assignment,
    restrict,
)
from .rng import SplitRng
from .schedule import (
    DELTA,
    EDGE_DELTA,
    EDGE_EPS,
    ESTIMATOR_DELTA,
    INFLUENCE_TAU,
    ParameterSchedule,
)
from .spectral import estimate_mean
from .subroutines import (
    FAIL,
    NEGATIVE,
    check_weight_positive,
    edge_tester,
    find_hi_influence_vars,
)
# not called here any more, but perfbench/tracing.py wraps them under these names
from .spectral import check_fourier_regular  # noqa: F401
from .subroutines import find_balanced_restriction  # noqa: F401


def _regular_balanced_step(f: OracleHandle, base: Restriction, eps: float,
                           rounds: int, prefix: str, label: str,
                           rng: SplitRng) -> Union[Verdict, Restriction]:
    """Pull out the variables of f under base whose degree-1 coefficient
    reaches INFLUENCE_TAU, certify that their weights are positive
    (rejecting on any witnessed negative), then fix them under an
    assignment that leaves the remainder balanced.

    Returns the fixing restriction, whose support is exactly the discovered
    high-influence set, a non-monotone verdict with certificate, or a
    monotone verdict whose diagnostic `prefix:...` names the bailing branch.
    The assignment of round r is drawn from the stream (label, r), and its
    mean check (accuracy eps/6, confidence 1 - DELTA/2) stops as soon as it
    has decided whether |E f| is within 1 - 7 eps/6.  When no variable is
    high there is nothing to fix, so one round is run instead of `rounds`.
    """
    found = find_hi_influence_vars(f, base, INFLUENCE_TAU, DELTA,
                                   rng.child("influence"),
                                   min_call_delta=ESTIMATOR_DELTA)
    if found.failed:
        return Verdict.monotone(f"{prefix}:influence-cap")
    high = found.variables
    if high.size > 4.0 / INFLUENCE_TAU ** 2:
        return Verdict.monotone(f"{prefix}:h-overflow")
    for i in high:
        probe = check_weight_positive(f, base, int(i), INFLUENCE_TAU / 2.0,
                                      DELTA, rng.child("sign", int(i)))
        if probe.decision == NEGATIVE:
            return Verdict.non_monotone(probe.certificate,
                                        f"{prefix}:negative-weight")
        if probe.decision == FAIL:
            return Verdict.monotone(f"{prefix}:check-fail")
    bound = 1.0 - 7.0 * eps / 6.0
    # with nothing to fix, every round would re-test the same function
    for r in range(rounds if high.size else 1):
        fix = random_assignment(high, f.ambient_n,
                                rng.child(label, r).generator)
        sub = restrict(f, compose(base, fix))
        mean = estimate_mean(sub, eps / 6.0, DELTA / 2.0,
                             rng.child("mean", r).generator, bound=bound)
        if abs(mean.value) <= bound:
            return fix
    return Verdict.monotone(f"{prefix}:round-exhaustion")


def regularize_and_balance(f: OracleHandle, eps: float,
                           sched: ParameterSchedule, rng: SplitRng
                           ) -> Union[Verdict, Restriction]:
    """Initialization phase: the regularize-and-balance step on f itself,
    with sched.rb_rounds rounds."""
    return _regular_balanced_step(
        f, Restriction.all_stars(f.ambient_n), eps, sched.rb_rounds,
        "rb", "rho", rng)


def maintain_regular_and_balanced(f: OracleHandle, rho_p: Restriction,
                                  eps: float, sched: ParameterSchedule,
                                  rng: SplitRng
                                  ) -> Union[Verdict, Restriction]:
    """The same step on f under rho_p, with sched.m_rounds rounds.  A
    returned restriction fixes only the new variables; the caller composes
    it with rho_p.  No tester path calls it: it was the paper's per-stage
    maintenance, and stays for a restriction step that would reuse it."""
    return _regular_balanced_step(f, rho_p, eps, sched.m_rounds,
                                  "maintain", "eta", rng)


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
