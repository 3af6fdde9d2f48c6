"""Exact ground truth: distance to monotone, weight profiles, and executable
checkers for the structural facts the tester relies on.

Exact distances are stored as integer counts over 2^n, so equality assertions
between independent oracles are exact rational comparisons with no float
tolerance.  Two independent distance oracles exist on purpose:

* a combinatorial one (maximum matching of violating pairs on the truth
  table), blind to any halfspace structure, and
* a weight-based one (disagreement with the halfspace obtained by erasing
  negative weights), vectorized over subset sums.

Their exact agreement on every tested halfspace is itself one of the
structural facts under test.  Above n = 20, where neither can enumerate,
integer weights get the weight-based distance and the mean from a float64
DP over the pmfs of subset sums (dist_ltf_to_monotone_dp, ltf_mean_dp),
with a proven rounding radius, and the degree-1 coefficients from
leave-one-out means of that DP (degree1_dp).  The Monte-Carlo distance
(dist_ltf_to_monotone_mc) certifies nothing; it is the sampling cross-check
that the tests hold the DP to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bits
from .matching import maximum_matching_size
from .oracle import (
    TABLE_MAX_N,
    LTFEvaluator,
    LTFSpec,
    cube_margins,
    exact_in_float,
    subset_sums,
    truth_table,
)

MATCHING_MAX_N = 12
# rows per Monte-Carlo batch, within bits.CHUNK_BYTES (see bits.chunk_rows)
MC_CHUNK = 65536
# largest sum of |w_i| (and largest n) for the subset-sum DP: the float64 pmf
# of the sum of all |w_i|, DP_MAX_SUM + 1 entries, fits in bits.CHUNK_BYTES
DP_MAX_SUM = bits.CHUNK_BYTES // 8 - 1


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DistanceReport:
    """Distance to the nearest monotone function.

    Exact methods carry an integer numerator over denominator 2^n; the MC
    method carries a confidence radius instead, and the DP method a proven
    bound on its float64 rounding error.
    """

    method: str  # "matching" | "drop-negative-exact" | "drop-negative-dp"
    #              | "drop-negative-mc"
    value: float
    numerator: Optional[int] = None
    denominator: Optional[int] = None
    radius: Optional[float] = None

    def __post_init__(self):
        slack = self.radius if self.radius is not None else 0.0
        if not (-1e-12 <= self.value <= 0.5 + slack):
            raise ValueError(f"distance {self.value} outside [0, 1/2]")


@dataclass(frozen=True)
class WeightProfile:
    """Squared-weight decomposition of a halfspace representation."""

    pos: float            # sum of w_i^2 over w_i >= 0
    neg: float            # sum of w_i^2 over w_i < 0
    regularity: float     # max |w_i| / ||w||_2
    neg_fraction: float   # neg / (pos + neg)

    @classmethod
    def from_weights(cls, w: np.ndarray) -> "WeightProfile":
        w = np.asarray(w, dtype=np.float64)
        sq = w * w
        pos = float(sq[w >= 0].sum())
        neg = float(sq[w < 0].sum())
        norm = math.sqrt(pos + neg)
        if norm == 0.0:
            return cls(0.0, 0.0, 0.0, 0.0)
        return cls(pos, neg, float(np.max(np.abs(w))) / norm, neg / (pos + neg))


# ---------------------------------------------------------------------------
# the monotone projection and the two exact distance oracles


def drop_negative_weights(spec: LTFSpec) -> LTFSpec:
    """Zero out the negative weights; the result is monotone by construction."""
    w = spec.weights.copy()
    w[w < 0] = 0.0
    return LTFSpec(w, spec.theta)


def dist_to_monotone_matching(table: np.ndarray) -> DistanceReport:
    """Distance of an explicit truth table to monotone, by maximum matching.

    The table is indexed by point mask (bit i set <=> x_i = +1).  Builds every
    comparable pair (x below y with f(x)=+1, f(y)=-1) by submask enumeration,
    then matches; disjoint violating pairs / 2^n is the distance.
    """
    size = table.size
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    if n > MATCHING_MAX_N:
        raise ValueError(f"matching oracle limited to n <= {MATCHING_MAX_N}")
    is_plus = table > 0
    adj: dict[int, list[int]] = {}
    for y in np.flatnonzero(~is_plus):
        y = int(y)
        nbrs = []
        s = y
        while True:
            if is_plus[s]:
                nbrs.append(s)
            if s == 0:
                break
            s = (s - 1) & y
        if nbrs:
            # left vertex = the negative point y, neighbours = points below it
            adj[y] = nbrs
    matched = maximum_matching_size(adj)
    return DistanceReport("matching", matched / size, matched, size)


def _slice_counts(spec: LTFSpec):
    """Per slice x' of the non-negative coordinates: c[x'], the number of
    settings y of the negative coordinates with f(x', y) = +1; whether
    g = drop_negative_weights(spec) is +1 on the slice; and the slice size.

    Integer weights sum exactly in floats, so the counts come from sorted
    subset sums.  Otherwise they come from the exact truth tables of f and g.
    """
    w = spec.weights
    pos_idx = w >= 0
    big_l = 1 << int(np.count_nonzero(~pos_idx))
    if not exact_in_float(w):
        idx = np.arange(1 << spec.n)
        pos_bits = int((pos_idx.astype(np.int64) << np.arange(spec.n)).sum())
        f_plus = truth_table(spec) > 0
        g_plus = truth_table(drop_negative_weights(spec)) > 0
        c = np.bincount(idx & pos_bits, weights=f_plus, minlength=idx.size)
        slices = (idx & ~pos_bits) == 0
        return c[slices].astype(np.int64), g_plus[slices], big_l
    wp, wn = w[pos_idx], w[~pos_idx]
    pos_vals = 2.0 * subset_sums(wp) - wp.sum()      # values of sum_P w_i x_i
    neg_vals = np.sort(2.0 * subset_sums(wn) - wn.sum())
    # c[x'] = #{y : neg_sum(y) >= theta - pos_sum(x')}
    c = big_l - np.searchsorted(neg_vals, spec.theta - pos_vals, side="left")
    return c, pos_vals >= spec.theta, big_l


def dist_ltf_to_monotone_exact(spec: LTFSpec) -> DistanceReport:
    """Exact distance of a halfspace to monotone via the erase-negative form.

    Counts disagreements with drop_negative_weights(spec) slice by slice over
    the non-negative part x' (see _slice_counts).  Two formulas are computed
    and must agree exactly: the direct disagreement count, and the
    slice-wise sum of min(c, L - c) where c counts the +1 outputs in the
    slice over the negative coordinates.
    """
    n = spec.n
    if n > TABLE_MAX_N:
        raise ValueError(f"exact oracle limited to n <= {TABLE_MAX_N}")
    c, g_plus, big_l = _slice_counts(spec)
    direct = int(np.where(g_plus, big_l - c, c).sum())
    minform = int(np.minimum(c, big_l - c).sum())
    if direct != minform:
        raise AssertionError(
            f"internal distance formulas disagree: {direct} vs {minform}")
    return DistanceReport("drop-negative-exact", direct / (1 << n),
                          direct, 1 << n)


def dist_ltf_to_monotone_mc(spec: LTFSpec, samples: int, delta: float,
                            rng: np.random.Generator) -> DistanceReport:
    """Monte-Carlo estimate of the distance, with a Hoeffding radius."""
    f_eval = LTFEvaluator(spec)
    g_eval = LTFEvaluator(drop_negative_weights(spec))
    disagreements = 0
    chunk = bits.chunk_rows(MC_CHUNK, bits.nbytes(spec.n))
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        pts = bits.random_packed(rng, m, spec.n)
        disagreements += int(np.count_nonzero(f_eval(pts) != g_eval(pts)))
        done += m
    radius = math.sqrt(math.log(2.0 / delta) / (2.0 * samples))
    return DistanceReport("drop-negative-mc", disagreements / samples,
                          radius=radius)


# ---------------------------------------------------------------------------
# the subset-sum DP: distance and mean at any n for integer weights


def subset_sum_pmf(weights: np.ndarray) -> np.ndarray:
    """p[s] = Pr[S = s], s = 0 .. sum(weights), for S the sum of a uniform
    random subset of non-negative integer weights.

    One step per nonzero weight v: p[v:] += p[:-v], then p *= 0.5, over the
    entries that can be nonzero so far.  The weights go in ascending order,
    so that support grows as slowly as it can.  dist_ltf_to_monotone_dp
    bounds the rounding error.
    """
    v = np.sort(weights[weights > 0]).astype(np.int64)
    p = np.zeros(int(v.sum()) + 1)
    p[0] = 1.0
    top = 1  # p[top:] is still zero
    for vi in v.tolist():
        p[vi: top + vi] += p[:top]  # numpy buffers the overlapping operand
        top += vi
        p[:top] *= 0.5
    return p


def _subset_sum_tails(spec: LTFSpec):
    """(p, ge, lt, k_p) of the form in dist_ltf_to_monotone_dp: p[s] =
    Pr[S_P = s], ge[s] = Pr[S_N >= K - s], lt[s] = Pr[S_N < K - s]."""
    w = spec.weights
    if not (w.size <= DP_MAX_SUM and exact_in_float(w)
            and float(np.abs(w).sum()) <= DP_MAX_SUM):
        raise ValueError("subset-sum DP needs integer weights with sum |w_i| "
                         f"and n at most DP_MAX_SUM = {DP_MAX_SUM}")
    p = subset_sum_pmf(w[w >= 0])
    q = subset_sum_pmf(-w[w < 0])
    w_p, w_all = p.size - 1, p.size + q.size - 2
    # ceil((theta + total) / 2) in integers, theta = num / den exactly;
    # clamped: K <= 0 puts every K - s at or below 0, K > W every K - s above
    # the largest value of S_N; likewise K_P against S_P
    num, den = spec.theta.as_integer_ratio()
    k = min(max(-(-(num + w_all * den) // (2 * den)), 0), w_all + 1)
    k_p = min(max(-(-(num + w_p * den) // (2 * den)), 0), w_p + 1)
    lt = np.zeros(q.size + 1)  # lt[j] = Pr[S_N < j], j = 0 .. q.size
    lt[1:] = np.cumsum(q)
    ge = np.zeros(q.size + 1)  # ge[j] = Pr[S_N >= j]
    ge[:-1] = np.cumsum(q[::-1])[::-1]
    j = np.clip(k - np.arange(p.size), 0, q.size)
    return p, ge[j], lt[j], k_p


def dp_radius(n: int, w_sum: int) -> float:
    """The rounding-error bound of dist_ltf_to_monotone_dp, which proves it:
    (n + sum |w_i| + 3) 2^-53, exact in float64."""
    return (n + w_sum + 3) * 2.0 ** -53


def dist_ltf_to_monotone_dp(spec: LTFSpec) -> DistanceReport:
    """Distance to monotone at any n for integer weights, by a float64
    subset-sum DP, with a proven bound on its rounding error as the radius.

    It computes the disagreement with g = drop_negative_weights(spec) that
    dist_ltf_to_monotone_exact counts and dist_ltf_to_monotone_mc samples.
    It runs on integer weights (oracle.exact_in_float) with n and
    W = sum |w_i| at most DP_MAX_SUM, so that the pmf of a subset sum of all
    |w_i| (W + 1 float64) fits in bits.CHUNK_BYTES, and raises ValueError
    otherwise; no array it makes holds more than W + 2 entries.  It takes
    at most n (W + 1) additions and as many halvings: 5 ms at n = 1,024 and
    61 ms at n = 4,096 on planted-negative-mass instances, whose W is about
    14 n (the best of 15 calls on one core of a shared 2-CPU x86-64 host;
    `certify` in BENCH_kernels.json).

    Form.  Read x_i = +1 as "w_i >= 0 is in the subset" and x_i = -1 as
    "|w_i| for w_i < 0 is in the subset".  Then w.x = 2 (S_P + S_N) - W and
    the non-negative part of w.x is 2 S_P - W_P, where S_P and S_N are
    independent uniform subset sums of the weights >= 0 and of |w_i| over the
    weights < 0, and W_P is the sum of the weights >= 0.  With sign(0) = +1,
    f = +1 iff S_P + S_N >= K and g = +1 iff S_P >= K_P, for the integers
    K = ceil((theta + W) / 2) and K_P = ceil((theta + W_P) / 2), computed
    exactly.  The distance is

        sum_s Pr[S_P = s] * (Pr[S_N < K - s] if s >= K_P
                             else Pr[S_N >= K - s]).

    The negative part 2 S_N - (W - W_P) is symmetric about 0, so each factor
    is the smaller of the two tails: the slice-wise min(c, L - c) form of
    dist_ltf_to_monotone_exact.

    Exactness for n <= 53.  Every pmf entry, tail, product and partial sum
    is a multiple of 2^-n in [0, 1], exact in float64, so no step rounds and
    the value is the exact count over 2^n, whatever the summation order.

    Error radius.  Let u = 2^-53 and e = 2^-1075 (half the smallest
    subnormal).  Since n, W <= DP_MAX_SUM < 2^21, (n + W + 1) u < 2^-31, and
    the second-order terms dropped below (products of two first-order terms)
    sum to less than u.
    1. A DP step maps p to T p, (T p)[s] = (p[s] + p[s - v]) / 2.  The float
       step rounds the sum (relative error <= u; an addition never
       underflows) and halves it (exact unless the result is subnormal, then
       off by <= e).  T does not increase the l1 norm of any vector and keeps
       that of p >= 0, so each step adds at most u ||p||_1 + L e to the l1
       error, over the L <= W + 1 entries it writes.  After the k_P steps
       for S_P, ||p - p*||_1 <= k_P (u + (W + 1) e); likewise k_N steps for
       the pmf q of S_N, with k_P + k_N <= n.
    2. Each tail of S_N is a cumulative sum of q from one end: off by at most
       ||q - q*||_1, plus (W - W_P) u for the rounding of a sum of at most
       W - W_P + 1 non-negative terms of total <= 1, in any order.
    3. The distance is a dot product of p with the chosen tails t, each in
       [0, 1]: |sum p t - sum p* t*| <= ||p - p*||_1 + max |t - t*|.  Each
       product rounds (u relative, plus e if it underflows), and the sum of
       W_P + 1 non-negative products, at most 1, rounds by W_P u.
    In all: (k_P + k_N + (W - W_P) + 1 + W_P) u + (n + 1)(W + 1) e + u
    <= (n + W + 2) u + 2^-1030 < (n + W + 3) u = dp_radius(n, W).
    """
    p, ge, lt, k_p = _subset_sum_tails(spec)
    value = float(np.dot(p[:k_p], ge[:k_p]) + np.dot(p[k_p:], lt[k_p:]))
    w_sum = int(np.abs(spec.weights).sum())
    return DistanceReport("drop-negative-dp", value,
                          radius=dp_radius(spec.n, w_sum))


def ltf_mean_dp(spec: LTFSpec) -> float:
    """E[f] over the uniform cube at any n for integer weights: the subset-sum
    DP of dist_ltf_to_monotone_dp (same conditions and cost), as
    Pr[f = +1] - Pr[f = -1] = sum_s Pr[S_P = s] (Pr[S_N >= K - s]
    - Pr[S_N < K - s]).

    Each of the two dot products is off by at most (n + W + 2) u + 2^-1030,
    by the proof there, and their difference rounds by at most u, so the
    value is within 2 dp_radius(n, W) of the true mean; for n <= 53 it is
    exact, as there.
    """
    p, ge, lt, _ = _subset_sum_tails(spec)
    return float(np.dot(p, ge)) - float(np.dot(p, lt))


def exact_mean(spec: LTFSpec) -> float:
    """E[f] over the uniform cube, by full subset-sum enumeration (n <= 20)."""
    if spec.n > TABLE_MAX_N:
        raise ValueError(f"exact mean limited to n <= {TABLE_MAX_N}")
    plus = int(np.count_nonzero(cube_margins(spec) >= 0.0))
    return (2 * plus - (1 << spec.n)) / (1 << spec.n)


def exact_degree1(spec: LTFSpec) -> np.ndarray:
    """E[f(x) x_i] for every i, half the gap between the means of f with
    x_i = +1 and -1: enumerated for n <= 21, above that by degree1_dp
    (integer weights); the degree-1 reference where exact_spectrum stops."""
    if spec.n > TABLE_MAX_N + 1:
        return degree1_dp(spec)
    w, theta = spec.weights, spec.theta
    return np.array([
        (exact_mean(LTFSpec(np.delete(w, i), theta - w[i]))
         - exact_mean(LTFSpec(np.delete(w, i), theta + w[i]))) / 2
        for i in range(spec.n)])


def degree1_dp(spec: LTFSpec) -> np.ndarray:
    """E[f(x) x_i] for every i, for integer weights (n >= 2, under
    ltf_mean_dp's conditions): half the gap between the ltf_mean_dp means
    of f with x_i fixed to +1 and to -1, once per distinct weight value,
    since equal weights have equal coefficients.

    Error radius.  A zero weight gives two identical DPs: exactly 0.
    Otherwise |w_i| >= 1, so each mean is within 2 dp_radius(n - 1,
    W - |w_i|) <= 2 (n + W + 1) u of its true value (u = 2^-53,
    W = sum |w_i|), their difference rounds by at most 2u and halving it by
    at most 2^-1075: each value is within 2 dp_radius(n, W).  For n <= 53
    every step is exact, and so is the value.
    """
    w, theta = spec.weights, spec.theta
    values, first, inverse = np.unique(w, return_index=True,
                                       return_inverse=True)
    coef = np.empty(values.size)
    for j, i in enumerate(first):
        rest = np.delete(w, i)
        coef[j] = (ltf_mean_dp(LTFSpec(rest, theta - w[i]))
                   - ltf_mean_dp(LTFSpec(rest, theta + w[i]))) / 2
    return coef[inverse]


def min_boundary_gap(spec: LTFSpec) -> float:
    """min_x |w.x - theta| over the cube (n <= 20); 0 means a boundary point."""
    if spec.n > TABLE_MAX_N:
        raise ValueError(f"boundary scan limited to n <= {TABLE_MAX_N}")
    return float(np.min(np.abs(cube_margins(spec))))


# ---------------------------------------------------------------------------
# executable structural checks

PASS, FAIL = "pass", "fail"


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    status: str               # pass | fail
    measured: dict

    @property
    def passed(self) -> bool:
        return self.status == PASS


def check_restriction_preserves_distance(spec: LTFSpec, s_vars) -> StructuralCheck:
    """Averaging the distance to monotone over all assignments of a set of
    non-decreasing (non-negative-weight) variables reproduces the distance of
    the unrestricted function, as an exact rational identity."""
    s_vars = sorted(int(i) for i in s_vars)
    if any(spec.weights[i] < 0 for i in s_vars):
        raise ValueError("restricted variables must have non-negative weights")
    n = spec.n
    if n > MATCHING_MAX_N:
        raise ValueError("full restriction sweep needs the matching oracle")
    table = truth_table(spec)
    free = [i for i in range(n) if i not in s_vars]
    k = len(free)
    # scatter maps: packed index over free coords -> full-table index
    free_part = np.zeros(1 << k, dtype=np.int64)
    for j, pos in enumerate(free):
        block = ((np.arange(1 << k) >> j) & 1) << pos
        free_part |= block
    total_restricted = 0
    for a in range(1 << len(s_vars)):
        fixed_mask = 0
        for j, pos in enumerate(s_vars):
            if (a >> j) & 1:
                fixed_mask |= 1 << pos
        sub = table[free_part | fixed_mask]
        total_restricted += dist_to_monotone_matching(sub).numerator
    full = dist_to_monotone_matching(table)
    # sum over 2^|S| assignments of (count / 2^k), against count_full / 2^n:
    # both sides share denominator 2^n, so compare numerators directly
    measured = {"restricted_sum": total_restricted, "full": full.numerator,
                "s_size": len(s_vars)}
    status = PASS if total_restricted == full.numerator else FAIL
    return StructuralCheck("restriction-preserves-distance", status, measured)
