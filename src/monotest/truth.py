"""Exact and Monte-Carlo ground truth: distance to monotone, weight profiles,
and executable checkers for the structural facts the tester relies on.

Exact distances are stored as integer counts over 2^n, so equality assertions
between independent oracles are exact rational comparisons with no float
tolerance.  Two independent distance oracles exist on purpose:

* a combinatorial one (maximum matching of violating pairs on the truth
  table), blind to any halfspace structure, and
* a weight-based one (disagreement with the halfspace obtained by erasing
  negative weights), vectorized over subset sums.

Their exact agreement on every tested halfspace is itself one of the
structural facts under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bits
from .matching import maximum_matching_size
from .oracle import (
    LTFEvaluator,
    LTFSpec,
    cube_margins,
    exact_in_float,
    subset_sums,
    truth_table,
)

MATCHING_MAX_N = 12
EXACT_MAX_N = 20
# rows per Monte-Carlo batch, within bits.CHUNK_BYTES (see bits.chunk_rows)
MC_CHUNK = 65536


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DistanceReport:
    """Distance to the nearest monotone function.

    Exact methods carry an integer numerator over denominator 2^n; the MC
    method carries a confidence radius instead.
    """

    method: str  # "matching" | "drop-negative-exact" | "drop-negative-mc"
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
    if n > EXACT_MAX_N:
        raise ValueError(f"exact oracle limited to n <= {EXACT_MAX_N}")
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


def exact_mean(spec: LTFSpec) -> float:
    """E[f] over the uniform cube, by full subset-sum enumeration (n <= 20)."""
    if spec.n > EXACT_MAX_N:
        raise ValueError(f"exact mean limited to n <= {EXACT_MAX_N}")
    plus = int(np.count_nonzero(cube_margins(spec) >= 0.0))
    return (2 * plus - (1 << spec.n)) / (1 << spec.n)


def ltf_mean(spec: LTFSpec, rng: Optional[np.random.Generator],
             samples: int) -> float:
    """E[f] over the uniform cube: exact for n <= 20 (see exact_mean), else
    the mean of f over `samples` uniform points drawn from rng.

    The sample sum is exact, and batches of a multiple of 4 rows draw the
    bytes of one whole draw (see bits.chunk_rows), so the value does not
    depend on the batch size.
    """
    if spec.n <= EXACT_MAX_N:
        return exact_mean(spec)
    if rng is None:
        raise ValueError("rng required for the Monte-Carlo mean above n=20")
    ev = LTFEvaluator(spec)
    chunk = bits.chunk_rows(samples, bits.nbytes(spec.n))
    total = 0
    for lo in range(0, samples, chunk):
        pts = bits.random_packed(rng, min(chunk, samples - lo), spec.n)
        total += int(ev(pts).astype(np.int64).sum())
    return total / samples


def min_boundary_gap(spec: LTFSpec) -> float:
    """min_x |w.x - theta| over the cube (n <= 20); 0 means a boundary point."""
    if spec.n > EXACT_MAX_N:
        raise ValueError(f"boundary scan limited to n <= {EXACT_MAX_N}")
    return float(np.min(np.abs(cube_margins(spec))))


# ---------------------------------------------------------------------------
# the structural-parameter classifier


@dataclass(frozen=True)
class Classification:
    is_non_monotone: bool     # all three structural conditions hold
    profile: WeightProfile
    mean: float
    mean_method: str          # "exact" | "mc"
    weight_regular: bool
    balanced: bool
    significant_negative: bool


def classify_non_monotone(spec: LTFSpec, tau: float, gamma: float, lam: float,
                          rng: Optional[np.random.Generator] = None,
                          mc_samples: int = 200_000) -> Classification:
    """Check the three structural conditions of a candidate far-from-monotone
    halfspace: weight regularity <= tau, |E[f]| <= 1 - gamma, and negative
    squared-weight fraction >= lam.  The mean is exact for n <= 20 and
    Monte-Carlo above that (rng required)."""
    profile = WeightProfile.from_weights(spec.weights)
    mu = ltf_mean(spec, rng, mc_samples)
    method = "exact" if spec.n <= EXACT_MAX_N else "mc"
    regular = profile.regularity <= tau
    balanced = abs(mu) <= 1.0 - gamma
    significant = profile.neg_fraction >= lam
    return Classification(regular and balanced and significant, profile,
                          mu, method, regular, balanced, significant)


# ---------------------------------------------------------------------------
# executable structural checks

PASS, FAIL, VACUOUS = "pass", "fail", "vacuous"


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    status: str               # pass | fail | vacuous
    measured: dict

    @property
    def passed(self) -> bool:
        return self.status in (PASS, VACUOUS)


def check_negative_mass_lower_bound(spec: LTFSpec, eps: float) -> StructuralCheck:
    """If f is eps-far from monotone (exact) and max|w_i| <= (eps/16)||w||,
    the negative squared-weight fraction must be >= eps^2 / (16 ln(8/eps))."""
    dist = dist_ltf_to_monotone_exact(spec)
    profile = WeightProfile.from_weights(spec.weights)
    measured = {"distance": dist.value, "regularity": profile.regularity,
                "neg_fraction": profile.neg_fraction, "eps": eps}
    far = dist.value > eps
    regular_enough = profile.regularity <= eps / 16.0
    if not (far and regular_enough):
        return StructuralCheck("negative-mass-lower-bound", VACUOUS, measured)
    bound = eps * eps / (16.0 * math.log(8.0 / eps))
    measured["bound"] = bound
    status = PASS if profile.neg_fraction >= bound else FAIL
    return StructuralCheck("negative-mass-lower-bound", status, measured)


def check_distance_lower_bound(spec: LTFSpec, tau: float, gamma: float,
                               lam: float) -> StructuralCheck:
    """Regular + balanced + significant negative mass must put the function
    far from monotone.

    The asymptotic form of the bound hides constants; with all constants set
    to 1 the expression can go non-positive, in which case the check is
    vacuous.  A hard failure is only flagged when the bound is positive while
    the exact distance is zero; otherwise the measured ratio is reported.
    """
    cls = classify_non_monotone(spec, tau, gamma, lam)
    measured = {"tau": tau, "gamma": gamma, "lam": lam,
                "classified": cls.is_non_monotone}
    if not cls.is_non_monotone or tau > math.sqrt(lam) / 16.0:
        return StructuralCheck("distance-lower-bound", VACUOUS, measured)
    dist = dist_ltf_to_monotone_exact(spec)
    bound = max(0.0, min(math.sqrt(lam) * gamma * gamma - tau,
                         gamma ** 3 / math.log(8.0 / gamma) - tau * gamma))
    measured.update(distance=dist.value, bound=bound,
                    ratio=(dist.value / bound if bound > 0 else math.inf))
    if bound <= 0.0:
        return StructuralCheck("distance-lower-bound", VACUOUS, measured)
    status = FAIL if dist.value == 0.0 else PASS
    return StructuralCheck("distance-lower-bound", status, measured)


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
