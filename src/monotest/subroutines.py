"""Mid-level probes: high-influence variable discovery, weight-sign checks,
and the uniform edge tester.

Everything here returns a certificate whenever it claims non-monotonicity;
there is no rejection path without a witnessed anti-monotone edge.  All
randomness comes in through SplitRng nodes so each invocation draws from its
own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bits
from .oracle import AntiMonotoneEdgeCertificate, OracleHandle, Verdict
from .rng import SplitRng
from .spectral import degree1_square_terms, squares_sample_count
# not called here any more, but perfbench/tracing.py wraps it under this name
from .spectral import estimate_mean  # noqa: F401
# bound only because perfbench/tracing.py wraps these names here: spectral
# has no regularity check, and the degree-1 mass wrapper is deleted (the
# influence search sums degree1_square_terms itself), so nothing calls them
check_fourier_regular = None
estimate_sum_of_squares = None

# the edge tester's batches: the first has EDGE_FIRST_BATCH edges and each
# later one twice the one before, up to EDGE_CHUNK edges whose lo and hi
# endpoints stay within bits.CHUNK_BYTES (see bits.chunk_rows)
EDGE_FIRST_BATCH = 64
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


def find_hi_influence_vars(f: OracleHandle, tau: float, delta: float,
                           rng: SplitRng,
                           min_call_delta: Optional[float] = None
                           ) -> HiInfluenceResult:
    """Find every free variable of f with |fhat(i)| >= tau, excluding all
    with |fhat(i)| < tau/2 (each guarantee holding with probability
    1-delta).  To search f under a restriction rho, pass restrict(f, rho).

    Halves the k free coordinates [0, k) into [lo, mid) and [mid, hi) with
    mid = (lo + hi) // 2, and keeps a block alive while its estimated
    degree-1 mass exceeds 3 tau^2 / 4; every alive block of two or more
    coordinates is split, and the singletons left, in ascending order, are
    the result.  Every block is scored from one shared batch of uniform
    queries (degree1_square_terms): its estimate is the sum of the
    per-coordinate terms over the block.  The batch has the sample count of
    a ceil(k/2) block at accuracy eta = tau^2/10 and per-block confidence
    call_delta = tau^2 delta / (8 log2 n).  Fails (never silently) if the
    number of blocks scored would exceed call_cap = ceil(8 log2(n) / tau^2).
    The set of blocks scored does not depend on the order of the splits, so
    neither do estimator_calls and the cap decision.

    Why one batch suffices.  The sample count is non-decreasing in the
    block size and every scored block has at most ceil(k/2) coordinates, so
    for any fixed block the estimate is within eta of the block's true mass
    with probability >= 1 - call_delta.  The blocks that get scored depend
    on the batch, so the union bound runs over a candidate set C fixed in
    advance: the two halves of [0, k), and both children of every block of
    two or more coordinates whose true mass exceeds
    3 tau^2/4 - eta = 0.65 tau^2.  Until the first wrong estimate, every
    split block was estimated above 3 tau^2/4 within eta, so its true mass
    exceeds 0.65 tau^2 and its children lie in C; hence the first wrong
    estimate, if any, falls on a block of C.  A block at depth d has at
    most ceil(k / 2^d) coordinates, so blocks of two or more lie at depth at
    most ceil(log2 k) - 1 and scored blocks at depth at most ceil(log2 k).
    The blocks of one depth are disjoint and by Parseval the degree-1 mass
    is at most 1, so each of the ceil(log2 k) - 1 depths from 1 on that get
    split holds fewer than 1/(0.65 tau^2) such blocks, and
    |C| <= 2 + 2 (ceil(log2 k) - 1) / (0.65 tau^2) <= call_cap for tau <= 1,
    since ceil(log2 k) - 1 < log2 k <= log2 n.  So every scored estimate is
    within eta except with probability at most |C| call_delta <=
    call_cap call_delta, the same budget as one fresh batch per block.

    min_call_delta, when given, floors the per-block confidence parameter
    (the tester passes schedule.ESTIMATOR_DELTA; the formula value is used
    whenever it is larger).
    """
    k = f.domain_size
    before = f.query_count
    if k == 0:
        return HiInfluenceResult(np.empty(0, dtype=np.int64), 0, 0, 0)
    log2n = max(1.0, math.log2(f.ambient_n))
    call_cap = int(math.ceil(8.0 * log2n / tau ** 2))
    call_delta = tau ** 2 * delta / (8.0 * log2n)
    if min_call_delta is not None:
        call_delta = max(call_delta, min_call_delta)
    eta = tau ** 2 / 10.0
    threshold = 3.0 * tau ** 2 / 4.0

    if k > 1:  # a single variable is never split, so never scored
        m = squares_sample_count(eta, call_delta, (k + 1) // 2)
        terms = degree1_square_terms(f, m, rng.child("esos").generator)
    stack = [(0, k)]  # alive [lo, hi) blocks
    survivors = []
    calls = 0
    while stack:
        lo, hi = stack.pop()
        if hi - lo == 1:
            survivors.append(lo)
            continue
        mid = (lo + hi) // 2
        for a, b in ((lo, mid), (mid, hi)):
            if calls + 1 > call_cap:  # the next block would exceed the cap
                return HiInfluenceResult(None, calls, call_cap,
                                         f.query_count - before)
            calls += 1
            if terms[a:b].sum() > threshold:
                stack.append((a, b))
    labels = f.domain[np.sort(np.asarray(survivors, dtype=np.int64))]
    return HiInfluenceResult(labels, calls, call_cap, f.query_count - before)


# ---------------------------------------------------------------------------
# edge queries, shared by the weight-sign probe and the edge tester


def _query_edges(view: OracleHandle, pts: np.ndarray, coords):
    """Query both ends of k edges in one batch [lo; hi].

    Edge j runs from row j of pts with coordinate coords[j] set to -1 (lo)
    to the same row with it set to +1 (hi); coords may also be one
    coordinate for every edge.  Returns (lo, f(lo), f(hi)).
    """
    k = pts.shape[0]
    coords = np.asarray(coords)
    # hi rows after all lo rows, each one byte from its lo row: the layout
    # LTFEvaluator recognises, evaluating each hi end from its lo end's sum
    both = np.concatenate([pts, pts], axis=0)
    lo, hi = both[:k], both[k:]
    rows = np.arange(k)
    byte_idx = coords >> 3
    mask = (1 << (coords & 7)).astype(np.uint8)
    lo[rows, byte_idx] &= ~mask
    hi[rows, byte_idx] |= mask
    v = view.query_packed(both)
    return lo, v[:k], v[k:]


def _edge_certificate(view: OracleHandle, lo_row: np.ndarray,
                      coord) -> AntiMonotoneEdgeCertificate:
    """Certificate for the edge from lo_row in direction coord, with the
    view's fixed coordinates filled in."""
    base = bits.unpack(view.lift(lo_row[None, :]), view.ambient_n)[0]
    return AntiMonotoneEdgeCertificate(base, int(coord))


# ---------------------------------------------------------------------------
# weight-sign probing


@dataclass(frozen=True)
class WeightSignResult:
    decision: str  # positive | negative | fail
    certificate: Optional[AntiMonotoneEdgeCertificate]
    queries_used: int


def check_weight_positive(f: OracleHandle, i: int, tau: float, delta: float,
                          rng: SplitRng) -> WeightSignResult:
    """Probe the sign of weight i of f by sampling edges in direction i.

    Draws ceil(2 ln(1/delta) / tau) uniform edges of f (on a view, its fixed
    coordinates pinned, the other free coordinates uniform, both settings of
    coordinate i queried) and reports the orientation of the first
    bi-chromatic one.  Fails iff no sampled edge is bi-chromatic, which has
    probability at most delta whenever |fhat(i)| >= tau.  A halfspace is
    unate, so mixed orientations cannot occur.  Raises ValueError if i is
    fixed in f's view.
    """
    if f.rho is not None and f.rho.assignment[i] != 0:
        raise ValueError(f"coordinate {i} is fixed by the restriction")
    k_edges = int(math.ceil(2.0 * math.log(1.0 / delta) / tau))
    pts = bits.random_packed(rng.generator, k_edges, f.ambient_n)
    lo, v_lo, v_hi = _query_edges(f, pts, i)
    bichromatic = np.flatnonzero(v_lo != v_hi)
    if bichromatic.size == 0:
        return WeightSignResult(FAIL, None, 2 * k_edges)
    first = int(bichromatic[0])
    if v_lo[first] == 1:  # f drops when x_i rises: anti-monotone edge
        cert = _edge_certificate(f, lo[first], i)
        return WeightSignResult(NEGATIVE, cert, 2 * k_edges)
    return WeightSignResult(POSITIVE, None, 2 * k_edges)


# ---------------------------------------------------------------------------
# the uniform edge tester


def edge_tester(f: OracleHandle, eps: float, delta: float,
                rng: SplitRng) -> Verdict:
    """Sample ceil(m ln(1/delta) / eps) uniform edges of the free m-cube and
    reject on the first anti-monotone one.  Never rejects a monotone
    function; finds a witness with probability >= 1-delta when the function
    is eps-far from monotone.

    Why that many edges.  Goldreich, Goldwasser, Lehman, Ron and
    Samorodnitsky ("Testing monotonicity", Combinatorica 2000) show that a
    function on the m-cube that is eps-far from monotone violates at least
    an eps/m fraction of its m 2^(m-1) edges: swapping the values at the
    two ends of every violated edge in direction i, one direction after
    another, gives a monotone function (a swap in direction i adds no
    violated edge in any other direction) and changes at most 2 points per
    violated edge, so eps 2^m <= 2 |violated|.  A uniform coordinate and a uniform point give
    a uniform edge, so each sample misses with probability at most
    1 - eps/m, and k samples all miss with probability at most
    exp(-k eps/m) <= delta once k >= m ln(1/delta) / eps.

    Batches.  The edges are drawn in batches of EDGE_FIRST_BATCH, then
    twice the batch before, up to a chunk bounded in bytes, and the batches
    sum to exactly the budget.  Each edge is uniform and independent of the
    others whatever the batch sizes, so the bound above is unchanged; the
    batches decide only how far past the first violated edge the tester
    queries before it looks.  Every batch before the one holding that edge
    had none, and no batch is longer than EDGE_FIRST_BATCH plus all the
    batches before it, so if it is the j-th edge drawn (counting from 0) a
    rejection costs at most 2j + EDGE_FIRST_BATCH edges, two queries each.
    A pass costs exactly 2 ceil(m ln(1/delta) / eps) queries.
    """
    m_free = f.domain_size
    if m_free == 0:
        return Verdict.monotone("edge:empty-domain")
    budget = int(math.ceil(m_free * math.log(1.0 / delta) / eps))
    dom = f.domain
    gen = rng.generator
    chunk = bits.chunk_rows(EDGE_CHUNK, bits.nbytes(f.ambient_n), copies=2)
    batch = min(EDGE_FIRST_BATCH, chunk)
    done = 0
    while done < budget:
        k = min(batch, budget - done)
        coords = dom[gen.integers(0, m_free, size=k)]
        pts = bits.random_packed(gen, k, f.ambient_n)
        lo, v_lo, v_hi = _query_edges(f, pts, coords)
        anti = np.flatnonzero((v_lo == 1) & (v_hi == -1))
        if anti.size:
            first = int(anti[0])
            cert = _edge_certificate(f, lo[first], coords[first])
            return Verdict.non_monotone(cert, "edge:anti-monotone-edge")
        done += k
        batch = min(2 * batch, chunk)
    return Verdict.monotone("edge:pass")
