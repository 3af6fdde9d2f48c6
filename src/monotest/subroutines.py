"""Mid-level probes: bisection between antipodal points, which finds the
high-influence variables of Phase 1 and the signs of their weights, the
mean check that Phase 1's balanced assignment must pass, and the uniform
edge tester.

estimate_mean stops once it has decided on which side of a bound |E[f]|
lies; a cap above MAX_FEASIBLE_QUERIES raises InfeasibleBudgetError
instead of sampling.

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
# bound only because perfbench/tracing.py wraps these names here; the code
# they named is deleted, so nothing calls them
check_fourier_regular = None
estimate_sum_of_squares = None
find_hi_influence_vars = None
check_weight_positive = None

# the edge tester's batches, which fix the order of its stream: the first
# has EDGE_FIRST_BATCH edges and each later one twice the one before, up to
# EDGE_CHUNK edges whose lo and hi endpoints would fit in bits.CHUNK_BYTES
# (see bits.chunk_rows).  A batch reaches the oracle in slices.
EDGE_FIRST_BATCH = 64
EDGE_CHUNK = 8192
# packed bytes per oracle call of the edge tester (lo and hi ends together)
# and of estimate_mean: bounds the arrays live at once (see _slice_rows)
SLICE_BYTES = 1 << 20
# rounds a bisect_edges sample may take beyond 2 ceil(log2 k)
BISECT_ROUND_SLACK = 16
# estimate_mean's most rows per drawn batch, which SLICE_BYTES may lower
MEAN_CHUNK = 16384
MEAN_CONST = 2.0           # Hoeffding: cap m = 2 ln(4/delta) / eps^2
MEAN_FIRST_LOOK = 64       # the bounded mean check looks at 64 * 2^j samples
MAX_FEASIBLE_QUERIES = 1 << 40

# perfbench/tracing.py reads this name
NEGATIVE = "negative"


# ---------------------------------------------------------------------------
# edge queries and certificates


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


def _slice_rows(nb: int, copies: int) -> int:
    """Rows per oracle call: `copies` arrays of nb-byte rows within
    SLICE_BYTES, in a multiple of 4 rows, so consecutive random_packed
    draws of that many rows give the bytes of one whole draw (see
    bits.chunk_rows)."""
    return max(4, (SLICE_BYTES // (copies * nb)) & ~3)


def _slice_witness(view: OracleHandle, gen: np.random.Generator,
                   coords: np.ndarray) -> Optional[AntiMonotoneEdgeCertificate]:
    """Draw one point per entry of coords, query the edges from them in
    those directions, and certify the first anti-monotone one, if any.
    Nothing it allocates outlives the call but the certificate."""
    pts = bits.random_packed(gen, coords.size, view.ambient_n)
    lo, v_lo, v_hi = _query_edges(view, pts, coords)
    anti = np.flatnonzero((v_lo == 1) & (v_hi == -1))
    if anti.size == 0:
        return None
    first = int(anti[0])
    return _edge_certificate(view, lo[first], coords[first])


# ---------------------------------------------------------------------------
# bisection between antipodal points


def bisect_round_cap(k: int) -> int:
    """Rounds a bisect_edges sample on k >= 1 free coordinates may take."""
    return 2 * math.ceil(math.log2(k)) + BISECT_ROUND_SLACK


@dataclass(frozen=True)
class BisectionEdges:
    """coords[j]: ambient label of the edge sample j ended on, -1 if none;
    lo[j]: that edge's x_i = -1 end, lifted to ambient width; queried[j]:
    the sample's queried rounds, after its 2 first queries.  certificate is
    set exactly when a sample ended on an anti-monotone edge."""

    coords: np.ndarray
    lo: np.ndarray
    queried: np.ndarray
    certificate: Optional[AntiMonotoneEdgeCertificate]


def bisect_edges(f: OracleHandle, samples: int,
                 rng: SplitRng) -> BisectionEdges:
    """Run `samples` bisections between antipodal points of f's free
    domain in lockstep; each ends on a bichromatic edge or on none.

    A sample queries a uniform x and x ^ D0, D0 the packed mask of the k
    free coordinates, and ends on no edge if f agrees on them.  Otherwise
    it keeps a point a and a mask d with f(a) != f(a ^ d), from (x, D0).
    Each round splits d with fresh random bytes r and, if d & r and d & ~r
    are both non-empty, queries c = a ^ (d & r), keeping (c, d & ~r) if
    f(c) = f(a) and (a, d & r) otherwise.  When d has one set bit i, a and
    a ^ d form an edge in direction i.  The first queries of all samples go
    in one batch, then each round's in one batch over the samples still
    open.  The sampler stops after the round in which a sample first ends
    on an anti-monotone edge and returns its certificate, so it rejects
    only on a witnessed edge, for any f.  A halfspace is unate: the
    orientation of an edge in direction i is the sign of w_i.

    Round cap.  A sample ends on no edge after bisect_round_cap(k) =
    2 ceil(log2 k) + BISECT_ROUND_SLACK rounds.  Two coordinates stay in d
    together only while every round gives them equal bits of r, so d holds
    two or more after t rounds with probability at most C(k, 2) 2^-t,
    below 2^-17 at the cap.  A queried round shrinks d, so a call queries
    at most samples (2 + min(bisect_round_cap(k), k - 1)) times (1,260 for
    30 samples at k = 4,096), and about samples (2 + log2 k) in practice.
    """
    k, nb = f.domain_size, bits.nbytes(f.ambient_n)
    coords = np.full(samples, -1, dtype=np.int64)
    lo = np.zeros((samples, nb), dtype=np.uint8)
    queried = np.zeros(samples, dtype=np.int64)
    if k == 0:
        return BisectionEdges(coords, lo, queried, None)
    gen = rng.generator
    free = np.isin(np.arange(f.ambient_n), f.domain)
    d0 = bits.pack(np.where(free, 1, -1))[0]
    x = bits.random_packed(gen, samples, f.ambient_n)
    v = f.query_packed(np.concatenate([x, x ^ d0]))
    rows = np.flatnonzero(v[:samples] != v[samples:])  # the open samples
    a, fa, d = x[rows], v[rows], np.tile(d0, (rows.size, 1))
    cap = bisect_round_cap(k)
    for rnd in range(cap + 1):
        ends = bits.BYTE_BITS.sum(axis=1)[d].sum(axis=1) == 1  # popcounts
        if ends.any():
            pos = (d[ends] != 0).argmax(axis=1)
            byte = d[ends, pos]
            coords[rows[ends]] = 8 * pos + bits.BYTE_BITS[byte].argmax(axis=1)
            lo[rows[ends]] = f.lift(a[ends] & ~d[ends])
            # f at the x_i = +1 end is f(a) if a has bit i set
            hi_value = np.where(a[ends, pos] & byte, fa[ends], -fa[ends])
            anti = np.flatnonzero(hi_value == -1)
            if anti.size:
                j = rows[ends][anti[0]]
                return BisectionEdges(coords, lo, queried,
                                      _edge_certificate(f, lo[j], coords[j]))
            rows, a, fa, d = rows[~ends], a[~ends], fa[~ends], d[~ends]
        if rows.size == 0 or rnd == cap:
            break
        r = bits.random_packed(gen, rows.size, f.ambient_n)
        left, right = d & r, d & ~r
        split = np.flatnonzero(left.any(axis=1) & right.any(axis=1))
        if split.size:
            c = a[split] ^ left[split]
            same = f.query_packed(c) == fa[split]
            queried[rows[split]] += 1
            a[split[same]] = c[same]
            d[split] = np.where(same[:, None], right[split], left[split])
    return BisectionEdges(coords, lo, queried, None)


# ---------------------------------------------------------------------------
# the mean check


class InfeasibleBudgetError(RuntimeError):
    """Raised when a parameter choice implies an unrunnable sample size."""


def _check_unit(name: str, value: float):
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def estimate_mean(f: OracleHandle, eps: float, delta: float,
                  rng: np.random.Generator, bound: float) -> float:
    """Decide on which side of bound |E[f]| lies; returns the running mean
    at the stop.

    The caller's test `abs(value) <= bound` is right with probability
    >= 1-delta whenever |E[f]| <= bound - eps (it passes) or
    |E[f]| > bound + eps (it fails), and the sample stops as soon as the
    side is proven.  The cap is m = ceil(2 ln(4/delta) / eps^2).  The
    running mean is looked at after m_j = MEAN_FIRST_LOOK * 2^j samples,
    for each of the K values m_j < m, with radius
    r_j = sqrt(2 ln(4K/delta) / m_j).  It stops "inside" when
    |mean_j| + r_j <= bound + eps and "outside" when
    |mean_j| - r_j > bound - eps; otherwise it goes on to the cap and
    returns the mean of all m samples.  f.query_count grows by the samples
    actually drawn.

    Why this keeps the contract.  By Hoeffding, a look at m_j samples is
    off by more than r_j with probability at most
    2 exp(-m_j r_j^2 / 2) = delta / (2K), and the final look is off by more
    than eps with probability at most 2 exp(-m eps^2 / 2) <= delta / 2.  By
    the union bound, with probability >= 1-delta no look is off.  On that
    event an inside stop gives |E[f]| <= |mean_j| + r_j <= bound + eps, so
    E[f] is not on the failing side, and an outside stop gives
    |E[f]| >= |mean_j| - r_j > bound - eps, so it is not on the passing
    side; at the cap the value is within eps.  And since m_j <= m - 1 <
    2 ln(4/delta) / eps^2, every early radius exceeds eps: an inside stop
    leaves |mean_j| <= bound + eps - r_j < bound and an outside stop
    |mean_j| > bound - eps + r_j > bound, so `abs(value) <= bound` picks
    the side the interval proved, and the two stops never both hold.

    Batches are drawn in multiples of 4 rows, so the first k samples are
    the same whether or not the check stopped early (see bits.chunk_rows).
    """
    _check_unit("eps", eps)
    _check_unit("delta", delta)
    m = int(math.ceil(MEAN_CONST * math.log(4.0 / delta) / eps ** 2))
    if m > MAX_FEASIBLE_QUERIES:
        raise InfeasibleBudgetError(f"mean estimate would need {m} queries")
    looks = [MEAN_FIRST_LOOK << j for j in range(m.bit_length())
             if MEAN_FIRST_LOOK << j < m]
    # r_j^2 * m_j, the K early looks sharing delta / 2
    look_log = MEAN_CONST * math.log(4.0 * max(1, len(looks)) / delta)
    total = 0.0
    chunk = min(MEAN_CHUNK, _slice_rows(bits.nbytes(f.ambient_n), 1))
    done = 0
    for target in looks + [m]:
        while done < target:
            k = min(chunk, target - done)
            pts = bits.random_packed(rng, k, f.ambient_n)
            total += float(f.query_packed(pts).astype(np.float64).sum())
            done += k
        if done < m:
            value = total / done
            radius = math.sqrt(look_log / done)
            if (abs(value) + radius <= bound + eps
                    or abs(value) - radius > bound - eps):
                return value
    return total / m


# ---------------------------------------------------------------------------
# the uniform edge tester


def edge_tester(f: OracleHandle, eps: float, delta: float,
                rng: SplitRng) -> Verdict:
    """Sample ceil(m ln(1/delta) / (2 eps)) uniform edges of the free m-cube
    and reject on the first anti-monotone one.  Never rejects a monotone
    function; finds a witness with probability >= 1-delta when the function
    is unate, as every halfspace and every restriction of one is, and
    eps-far from monotone.

    Why that many edges.  Let V be the set of violated edges and V_i those
    in direction i.  A unate f is non-decreasing or non-increasing in each
    coordinate, so only the negative directions, the non-increasing ones,
    have violated edges, and there every bichromatic edge is violated.  Take
    a negative direction i, and let A and B count the violated edges in the
    other directions of f|_{x_i=-1} and f|_{x_i=+1}, f with x_i fixed and
    every other coordinate left as it is.  Replace f by the restriction
    with fewer, read at both values of x_i.  That changes exactly one end of
    each bichromatic direction-i edge, |V_i| points, and leaves
    2 min(A, B) <= A + B violated edges in the other directions, so |V|
    falls by at least the points changed; what is left is again unate,
    with the same orientations.  After every negative
    direction, f depends on no negative coordinate, so it is monotone, and
    at most |V| points have changed: dist(f, monotone) 2^m <= |V|.  So an
    eps-far f violates at least a 2 eps/m fraction of its m 2^(m-1) edges.
    The bound is tight: sign(-x_1) on m variables is 1/2-far and violates
    1/m of its edges.  (For any f, Goldreich, Goldwasser, Lehman, Ron and
    Samorodnitsky, "Testing monotonicity", Combinatorica 2000, prove half
    that fraction, eps 2^m <= 2 |V|, so on a function that is not unate the
    guarantee holds at distance 2 eps.)  A uniform coordinate and a uniform
    point give a uniform edge, so each sample misses with probability at
    most 1 - 2 eps/m, and k samples all miss with probability at most
    exp(-2 k eps/m) <= delta once k >= m ln(1/delta) / (2 eps).

    Batches.  The edges are drawn in batches of EDGE_FIRST_BATCH, then
    twice the batch before, up to EDGE_CHUNK edges or fewer at large n
    (bits.chunk_rows), and the batches sum to exactly the budget.  Each
    edge is uniform and independent of the others whatever the batch sizes,
    so the bound above is unchanged; the batches decide only how far past
    the first violated edge the tester queries before it looks.  Every
    batch before the one holding that edge had none, and no batch is longer
    than EDGE_FIRST_BATCH plus all the batches before it, so if it is the
    j-th edge drawn (counting from 0) a rejection costs at most
    2j + EDGE_FIRST_BATCH edges, two queries each.  A pass costs exactly
    2 ceil(m ln(1/delta) / (2 eps)) queries.

    Slices.  The batches fix the stream; slices bound the memory.  A batch
    draws its coordinates in one call, then reaches the oracle in slices of
    _slice_rows edges, whose lo and hi ends fit in SLICE_BYTES, each slice
    drawing its points just before it is queried.  Every slice but a
    batch's last holds a multiple of 4 rows, so their points are the bytes
    one draw of the whole batch would give.  Every slice is queried, and the
    witness is the batch's first anti-monotone edge, so the edges, the
    certificate and the query count do not depend on SLICE_BYTES.
    """
    m_free = f.domain_size
    if m_free == 0:
        return Verdict.monotone("edge:empty-domain")
    budget = int(math.ceil(m_free * math.log(1.0 / delta) / (2.0 * eps)))
    dom = f.domain
    gen = rng.generator
    nb = bits.nbytes(f.ambient_n)
    chunk = bits.chunk_rows(EDGE_CHUNK, nb, copies=2)
    step = _slice_rows(nb, 2)
    batch = min(EDGE_FIRST_BATCH, chunk)
    done = 0
    while done < budget:
        k = min(batch, budget - done)
        coords = dom[gen.integers(0, m_free, size=k)]
        cert = None
        for s in range(0, k, step):
            found = _slice_witness(f, gen, coords[s:s + step])
            if cert is None:
                cert = found
        if cert is not None:
            return Verdict.non_monotone(cert, "edge:anti-monotone-edge")
        done += k
        batch = min(2 * batch, chunk)
    return Verdict.monotone("edge:pass")
