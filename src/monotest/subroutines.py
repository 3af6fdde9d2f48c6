"""Mid-level probes: high-influence variable discovery, weight-sign checks,
the uniform edge tester, and the two stage-building searches.

Everything here returns a certificate whenever it claims non-monotonicity;
there is no rejection path without a witnessed anti-monotone edge.  All
randomness comes in through SplitRng nodes so each invocation draws from its
own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import bits
from .oracle import (
    AntiMonotoneEdgeCertificate,
    OracleHandle,
    Restriction,
    Verdict,
    compose,
    random_assignment,
    restrict,
)
from .rng import SplitRng
from .schedule import ParameterSchedule
from .spectral import check_fourier_regular, estimate_mean, estimate_sum_of_squares

# edges per drawn batch; its lo and hi endpoints stay within
# bits.CHUNK_BYTES (see bits.chunk_rows)
EDGE_CHUNK = 8192

POSITIVE = "positive"
NEGATIVE = "negative"
FAIL = "fail"


# ---------------------------------------------------------------------------
# high-influence variable discovery


@dataclass(frozen=True)
class HiInfluenceResult:
    """Output of the split-and-prune influence search.

    variables is None exactly when the escape cap tripped (an upstream signal
    that the estimator misbehaved); otherwise it lists free coordinates, in
    ambient labels, whose degree-1 coefficient cleared the pruning threshold.
    """

    variables: Optional[np.ndarray]
    estimator_calls: int
    call_cap: int
    queries_used: int

    @property
    def failed(self) -> bool:
        return self.variables is None


def find_hi_influence_vars(f: OracleHandle, rho: Restriction, tau: float,
                           delta: float, rng: SplitRng,
                           min_call_delta: Optional[float] = None
                           ) -> HiInfluenceResult:
    """Find every free variable with |fhat_rho(i)| >= tau, excluding all with
    |fhat_rho(i)| < tau/2 (each guarantee holding with probability 1-delta).

    Pads the free variables to a power of two with synthetic irrelevant
    coordinates, then repeatedly halves the heaviest surviving block: a block
    stays alive while its estimated degree-1 mass exceeds 3 tau^2 / 4, each
    estimate taken to accuracy tau^2/10 at per-call confidence
    tau^2 delta / (8 log2 n).  Fails (never silently) if the total number of
    estimator calls would exceed ceil(8 log2(n) / tau^2).

    min_call_delta, when given, floors the per-call confidence parameter
    (profile knob; the formula value is used whenever it is larger).
    """
    view = restrict(f, rho)
    k = view.domain_size
    before = f.query_count
    if k == 0:
        return HiInfluenceResult(np.empty(0, dtype=np.int64), 0, 0, 0)
    log2n = max(1.0, math.log2(f.ambient_n))
    call_cap = int(math.ceil(8.0 * log2n / tau ** 2))
    call_delta = tau ** 2 * delta / (8.0 * log2n)
    if min_call_delta is not None:
        call_delta = max(call_delta, min_call_delta)
    width = 1 << max(0, (k - 1).bit_length())
    eta = tau ** 2 / 10.0
    threshold = 3.0 * tau ** 2 / 4.0

    worklist: list[list[int]] = [list(range(width))]
    calls = 0
    while True:
        pick = None
        best = 1
        for idx, block in enumerate(worklist):
            if len(block) > best:
                pick, best = idx, len(block)
        if pick is None:
            break
        block = worklist.pop(pick)
        half = len(block) // 2
        for part in (block[:half], block[half:]):
            if calls + 1 > call_cap:  # the next call would exceed the cap
                return HiInfluenceResult(None, calls, call_cap,
                                         f.query_count - before)
            calls += 1
            est = estimate_sum_of_squares(
                view, part, eta, call_delta,
                rng.child("esos", calls).generator, n_dummy=width - k)
            if est.value > threshold:
                worklist.append(part)
    survivors = sorted(b[0] for b in worklist if b[0] < k)
    labels = view.domain[np.asarray(survivors, dtype=np.int64)] \
        if survivors else np.empty(0, dtype=np.int64)
    return HiInfluenceResult(labels, calls, call_cap, f.query_count - before)


# ---------------------------------------------------------------------------
# weight-sign probing


@dataclass(frozen=True)
class WeightSignResult:
    decision: str  # positive | negative | fail
    certificate: Optional[AntiMonotoneEdgeCertificate]
    queries_used: int


def check_weight_positive(f: OracleHandle, rho: Restriction, i: int,
                          tau: float, delta: float,
                          rng: SplitRng) -> WeightSignResult:
    """Probe the sign of weight i by sampling edges in direction i.

    Draws ceil(2 ln(1/delta) / tau) uniform edges consistent with rho (fixed
    coordinates pinned, other free coordinates uniform, both settings of
    coordinate i queried) and reports the orientation of the first
    bi-chromatic one.  Fails iff no sampled edge is bi-chromatic, which has
    probability at most delta whenever |fhat_rho(i)| >= tau.  A halfspace is
    unate, so mixed orientations cannot occur.
    """
    if rho.assignment[i] != 0:
        raise ValueError(f"coordinate {i} is fixed by the restriction")
    k_edges = int(math.ceil(2.0 * math.log(1.0 / delta) / tau))
    view = restrict(f, rho)
    gen = rng.generator
    pts = bits.random_packed(gen, k_edges, f.ambient_n)
    lo = pts.copy()
    bits.set_bit_column(lo, i, plus=False)
    hi = pts
    bits.set_bit_column(hi, i, plus=True)
    v = view.query_packed(np.concatenate([lo, hi], axis=0))
    v_lo, v_hi = v[:k_edges], v[k_edges:]
    bichromatic = np.flatnonzero(v_lo != v_hi)
    if bichromatic.size == 0:
        return WeightSignResult(FAIL, None, 2 * k_edges)
    first = int(bichromatic[0])
    if v_lo[first] == 1:  # f drops when x_i rises: anti-monotone edge
        base = bits.unpack(view.lift(lo[first][None, :]), f.ambient_n)[0]
        cert = AntiMonotoneEdgeCertificate(base, int(i))
        return WeightSignResult(NEGATIVE, cert, 2 * k_edges)
    return WeightSignResult(POSITIVE, None, 2 * k_edges)


# ---------------------------------------------------------------------------
# the uniform edge tester


def edge_tester(f: OracleHandle, eps: float, delta: float,
                rng: SplitRng) -> Verdict:
    """Sample ceil(4 m ln(1/delta) / eps) uniform edges of the free cube and
    reject on the first anti-monotone one.  Never rejects a monotone
    function; finds a witness with probability >= 1-delta when the function
    is eps-far from monotone."""
    m_free = f.domain_size
    if m_free == 0:
        return Verdict.monotone("edge:empty-domain")
    budget = int(math.ceil(4.0 * m_free * math.log(1.0 / delta) / eps))
    dom = f.domain
    gen = rng.generator
    chunk = bits.chunk_rows(EDGE_CHUNK, bits.nbytes(f.ambient_n), copies=2)
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        coords = dom[gen.integers(0, m_free, size=k)]
        pts = bits.random_packed(gen, k, f.ambient_n)
        byte_idx = coords >> 3
        mask = (1 << (coords & 7)).astype(np.uint8)
        rows = np.arange(k)
        both = np.concatenate([pts, pts], axis=0)
        lo, hi = both[:k], both[k:]
        lo[rows, byte_idx] &= ~mask
        hi[rows, byte_idx] |= mask
        v = f.query_packed(both)
        v_lo, v_hi = v[:k], v[k:]
        anti = np.flatnonzero((v_lo == 1) & (v_hi == -1))
        if anti.size:
            first = int(anti[0])
            base = bits.unpack(f.lift(lo[first][None, :]), f.ambient_n)[0]
            cert = AntiMonotoneEdgeCertificate(base, int(coords[first]))
            return Verdict.non_monotone(cert, "edge:anti-monotone-edge")
        done += k
    return Verdict.monotone("edge:pass")


# ---------------------------------------------------------------------------
# stage building: balance search and the regularity/balance maintenance step


def find_balanced_restriction(f: OracleHandle, rho_t: Restriction,
                              a_vars, eps: float, sched: ParameterSchedule,
                              rng: SplitRng) -> Optional[Restriction]:
    """Search for an extension of rho_t fixing exactly the variables in a_vars
    under which the restricted function looks nearly balanced.

    Each round draws a uniform assignment of a_vars and accepts as soon as a
    mean estimate (accuracy 0.01) lands within +-0.03.  Returns None when
    every round is exhausted: the caller treats that as a give-up signal.
    """
    a_vars = np.asarray(sorted(int(i) for i in a_vars), dtype=np.int64)
    for r in range(sched.fbr_rounds):
        rho_star = random_assignment(a_vars, f.ambient_n,
                                     rng.child("assign", r).generator)
        rho_p = compose(rho_t, rho_star)
        est = estimate_mean(restrict(f, rho_p), 0.01, sched.fbr_delta,
                            rng.child("mean", r).generator)
        if abs(est.value) <= 0.03:
            return rho_p
    return None


def maintain_regular_and_balanced(f: OracleHandle, rho_p: Restriction,
                                  eps: float, sched: ParameterSchedule,
                                  rng: SplitRng
                                  ) -> Union[Verdict, Restriction]:
    """One stage-maintenance pass: pull out the high-influence variables of
    f under rho_p, certify their weights are positive (rejecting on any
    witnessed negative), then fix them so the remainder stays regular and
    balanced.

    Returns a restriction eta with support exactly the discovered
    high-influence set on success, a non-monotone verdict with certificate,
    or a monotone verdict whose diagnostic names the bailing branch.
    """
    tau_p, delta = sched.m_tau_prime, sched.m_delta
    found = find_hi_influence_vars(f, rho_p, tau_p, delta,
                                   rng.child("influence"),
                                   min_call_delta=sched.estimator_delta_floor)
    if found.failed:
        return Verdict.monotone("maintain:influence-cap")
    high = found.variables
    if high.size > 4.0 / tau_p ** 2:
        return Verdict.monotone("maintain:h-overflow")
    for i in high:
        probe = check_weight_positive(f, rho_p, int(i), tau_p / 2.0, delta,
                                      rng.child("sign", int(i)))
        if probe.decision == NEGATIVE:
            return Verdict.non_monotone(probe.certificate,
                                        "maintain:negative-weight")
        if probe.decision == FAIL:
            return Verdict.monotone("maintain:check-fail")
    for r in range(sched.m_rounds):
        eta = random_assignment(high, f.ambient_n,
                                rng.child("eta", r).generator)
        sub = restrict(f, compose(rho_p, eta))
        reg = check_fourier_regular(sub, None, sched.m_cfr_threshold,
                                    delta / 2.0, rng.child("cfr", r).generator)
        mean = estimate_mean(sub, eps / 6.0, delta / 2.0,
                             rng.child("mean", r).generator)
        if reg.is_regular and abs(mean.value) <= 1.0 - 7.0 * eps / 6.0:
            return eta
    return Verdict.monotone("maintain:round-exhaustion")
