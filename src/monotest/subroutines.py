"""Mid-level probes: bisection between antipodal points, which finds the
high-influence variables of Phase 1 and the signs of their weights, and the
uniform edge tester.

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
# not called here any more, but perfbench/tracing.py wraps it under this name
from .spectral import estimate_mean  # noqa: F401
# bound only because perfbench/tracing.py wraps these names here; the code
# they named is deleted, so nothing calls them
check_fourier_regular = None
estimate_sum_of_squares = None
find_hi_influence_vars = None
check_weight_positive = None

# the edge tester's batches: the first has EDGE_FIRST_BATCH edges and each
# later one twice the one before, up to EDGE_CHUNK edges whose lo and hi
# endpoints stay within bits.CHUNK_BYTES (see bits.chunk_rows)
EDGE_FIRST_BATCH = 64
EDGE_CHUNK = 8192
# rounds a bisect_edges sample may take beyond 2 ceil(log2 k)
BISECT_ROUND_SLACK = 16

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
