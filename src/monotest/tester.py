"""The two-phase monotonicity tester for halfspaces.

Phase 1 (initialization) strips out high-influence variables after checking
their weight signs, then fixes them under an assignment that leaves the
remainder balanced; with every coefficient of size INFLUENCE_TAU or more
fixed, the remainder is regular up to INFLUENCE_TAU.  Phase 2 repeatedly
halves the set of free variables, keeping the restricted function balanced
the same way, until few enough variables remain that the plain edge tester
is affordable; any witnessed anti-monotone edge along the way rejects
immediately.

One-sidedness is structural: the only rejecting paths carry a certificate
extracted from an actually-queried anti-monotone edge, so a monotone input
can never be rejected, whatever the randomness does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

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
# not called here any more, but perfbench/tracing.py wraps it under this name
from .spectral import check_fourier_regular  # noqa: F401
from .subroutines import (
    FAIL,
    NEGATIVE,
    check_weight_positive,
    edge_tester,
    find_balanced_restriction,
    find_hi_influence_vars,
)


@dataclass
class StageState:
    """Bookkeeping for one stage of the main loop."""

    t: int
    stars_before: int
    a_vars: np.ndarray
    fixed_high: np.ndarray
    stars_after: int


@dataclass
class QueryLedger:
    """Per-phase query accounting plus stage traces for a single run."""

    queries_rb: int = 0
    queries_main: int = 0
    queries_edge: int = 0
    stages: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.queries_rb + self.queries_main + self.queries_edge


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
    The assignment of round r is drawn from the stream (label, r).
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
    for r in range(rounds):
        fix = random_assignment(high, f.ambient_n,
                                rng.child(label, r).generator)
        sub = restrict(f, compose(base, fix))
        mean = estimate_mean(sub, eps / 6.0, DELTA / 2.0,
                             rng.child("mean", r).generator)
        if abs(mean.value) <= 1.0 - 7.0 * eps / 6.0:
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
    """Stage maintenance: the same step on f under rho_p, with
    sched.m_rounds rounds.  A returned restriction fixes only the new
    variables; the caller composes it with rho_p."""
    return _regular_balanced_step(f, rho_p, eps, sched.m_rounds,
                                  "maintain", "eta", rng)


def main_procedure(f: OracleHandle, rho: Restriction, eps: float,
                   sched: ParameterSchedule, rng: SplitRng,
                   ledger: Optional[QueryLedger] = None) -> Verdict:
    """Stage phase: halve the free variables while maintaining regularity and
    balance, then hand the small remainder to the edge tester."""
    rho_t = rho
    t = 0
    while rho_t.num_stars >= sched.star_floor:
        stage_rng = rng.child("stage", t)
        stars = rho_t.stars()
        keep = stage_rng.child("a-draw").generator.integers(
            0, 2, size=stars.size).astype(bool)
        a_vars = stars[keep]
        rho_p = find_balanced_restriction(f, rho_t, a_vars, eps, sched,
                                          stage_rng.child("balance"))
        if rho_p is None:
            return Verdict.monotone("fbr:give-up")
        assert rho_p.extends(rho_t), "stage restriction must extend its parent"
        out = maintain_regular_and_balanced(f, rho_p, eps, sched,
                                            stage_rng.child("maintain"))
        if isinstance(out, Verdict):
            return out
        rho_next = compose(rho_p, out)
        # structural stage invariants: support only grows, values persist,
        # and at least the drawn variables disappeared from the stars
        assert rho_next.extends(rho_t)
        assert rho_next.num_stars <= rho_t.num_stars - a_vars.size
        if ledger is not None:
            ledger.stages.append(StageState(
                t, int(stars.size), a_vars, out.support(),
                rho_next.num_stars))
        rho_t = rho_next
        t += 1
        if t > sched.stage_cap:
            return Verdict.monotone("main:loop-cap")
    before = f.query_count
    verdict = edge_tester(restrict(f, rho_t), EDGE_EPS, EDGE_DELTA,
                          rng.child("edge"))
    if ledger is not None:
        ledger.queries_edge += f.query_count - before
    return verdict


def mono_test_ltf(f: OracleHandle, eps: float, sched: ParameterSchedule,
                  rng: SplitRng,
                  ledger: Optional[QueryLedger] = None) -> Verdict:
    """Full test: initialization phase, then the stage phase.

    The input is promised to be a halfspace; behaviour on other functions is
    unspecified.  A monotone input yields "monotone" with probability 1.
    """
    start = f.query_count
    phase1 = regularize_and_balance(f, eps, sched, rng.child("rb"))
    if ledger is not None:
        ledger.queries_rb += f.query_count - start
    if isinstance(phase1, Verdict):
        return phase1
    before_main = f.query_count
    verdict = main_procedure(f, phase1, eps, sched, rng.child("main"), ledger)
    if ledger is not None:
        # edge queries are tracked inside main_procedure; the rest is stage work
        ledger.queries_main += (f.query_count - before_main
                                - ledger.queries_edge)
    return verdict
