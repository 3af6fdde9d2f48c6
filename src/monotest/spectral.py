"""Sampling estimators for means and degree-1 Fourier mass, and exact
spectra for validation.

The degree-1 estimators share one design: draw m uniform points, keep the
per-coordinate signed sums s1[i] = sum_j f(x_j) * x_j[i], and form unbiased
product statistics from them.  A single batch serves every coordinate at
once, which is what makes the subroutines affordable; the per-coordinate
power sums cost O(m * n / 8) via byte histograms.

For g_j = f(x_j) * x_j[i] (i.i.d. +-1 with mean c_i = E[f * x_i]),
(s1^2 - m) / (m (m-1)) is unbiased for c_i^2.

Sample sizes follow the variance structure (the linear statistic dominates
with variance <= 4/m; the degenerate part contributes ~|T|/m^2), with
multipliers large enough that the calibration suites see failure rates well
under the nominal delta.  A parameter choice whose count would exceed
MAX_FEASIBLE_QUERIES raises InfeasibleBudgetError instead of sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bits
from .oracle import LTFSpec, OracleHandle, truth_table

# rows per drawn batch, within bits.CHUNK_BYTES (see bits.chunk_rows)
CHUNK = 16384
# sample-count multipliers; the calibration tests are the authority on these
MEAN_CONST = 2.0           # Hoeffding: m = 2 ln(2/delta) / eps^2 exactly
MEAN_FIRST_LOOK = 64       # the bounded mean check looks at 64 * 2^j samples
SQUARES_CONST = 6.0
MAX_FEASIBLE_QUERIES = 1 << 40

SPECTRUM_FULL_MAX_N = 16


class InfeasibleBudgetError(RuntimeError):
    """Raised when a parameter choice implies an unrunnable sample size."""


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    target_accuracy: float
    confidence: float
    queries_used: int


def _check_unit(name: str, value: float):
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def squares_sample_count(eta: float, delta: float, t_size: int) -> int:
    """Queries for which the degree1_square_terms of a set of t_size
    coordinates sum to its degree-1 mass within eta with probability
    >= 1 - delta; non-decreasing in t_size.  Raises InfeasibleBudgetError
    above MAX_FEASIBLE_QUERIES."""
    log_term = math.log(2.0 / delta)
    # 1/eta^2 covers the linear statistic (variance <= 4/m); the
    # sqrt(|T|)/eta term covers the degenerate part (variance ~ 2|T|/m^2)
    m = int(math.ceil(SQUARES_CONST * log_term * max(
        eta ** -2, math.sqrt(t_size + 1.0) / (2.0 * eta))))
    if m > MAX_FEASIBLE_QUERIES:
        raise InfeasibleBudgetError(
            f"estimator would need {m:.3g} queries; parameters are below "
            "any executable scale")
    return max(m, 8)


# ---------------------------------------------------------------------------
# mean estimation


def estimate_mean(f: OracleHandle, eps: float, delta: float,
                  rng: np.random.Generator,
                  bound: Optional[float] = None) -> SpectralEstimate:
    """Estimate E[f] to within +-eps with probability >= 1-delta, or, given
    a bound, decide on which side of it |E[f]| lies.

    Without a bound: ceil(2 ln(2/delta) / eps^2) uniform queries, the exact
    Hoeffding count for +-1 outputs.

    With a bound, the caller's test `abs(value) <= bound` is right with
    probability >= 1-delta whenever |E[f]| <= bound - eps (it passes) or
    |E[f]| > bound + eps (it fails), as with the fixed-count estimate, but
    the sample stops as soon as the side is proven.  The cap is
    m = ceil(2 ln(4/delta) / eps^2).  The running mean is looked at after
    m_j = MEAN_FIRST_LOOK * 2^j samples, for each of the K values m_j < m,
    with radius r_j = sqrt(2 ln(4K/delta) / m_j).  It stops "inside" when
    |mean_j| + r_j <= bound + eps and "outside" when
    |mean_j| - r_j > bound - eps; otherwise it goes on to the cap and
    returns the mean of all m samples.  queries_used counts the samples
    actually drawn, and target_accuracy is r_j after an early stop.

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
    sequential = bound is not None
    log_term = math.log((4.0 if sequential else 2.0) / delta)
    m = int(math.ceil(MEAN_CONST * log_term / eps ** 2))
    if m > MAX_FEASIBLE_QUERIES:
        raise InfeasibleBudgetError(f"mean estimate would need {m} queries")
    looks = []
    if sequential:
        while MEAN_FIRST_LOOK << len(looks) < m:
            looks.append(MEAN_FIRST_LOOK << len(looks))
    # r_j^2 * m_j, the K early looks sharing delta / 2
    look_log = MEAN_CONST * math.log(4.0 * max(1, len(looks)) / delta)
    total = 0.0
    chunk = bits.chunk_rows(CHUNK, bits.nbytes(f.ambient_n))
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
                return SpectralEstimate(value, radius, delta, done)
    return SpectralEstimate(total / m, eps, delta, m)


# ---------------------------------------------------------------------------
# degree-1 mass


def degree1_square_terms(f: OracleHandle, m: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Unbiased estimates (s1^2 - m) / (m (m-1)) of fhat(i)^2 for every free
    coordinate of the handle (positions, ascending domain order), all from
    one batch of m uniform queries.

    Summing the entries of a set T estimates the degree-1 mass of T, to
    within eta with probability >= 1 - delta once m is at least
    squares_sample_count(eta, delta, |T|); more samples only sharpen it.
    """
    dom = f.domain
    byte_positions = np.unique(dom >> 3)
    s1_amb = np.zeros(8 * byte_positions.size)
    chunk = bits.chunk_rows(CHUNK, bits.nbytes(f.ambient_n))
    done = 0
    while done < m:
        k = min(chunk, m - done)
        pts = bits.random_packed(rng, k, f.ambient_n)
        v = f.query_packed(pts).astype(np.float64)
        s1_amb += bits.signed_bit_sums(pts, v, byte_positions)
        done += k
    s1 = s1_amb[8 * np.searchsorted(byte_positions, dom >> 3) + (dom & 7)]
    return (s1 * s1 - m) / (m * (m - 1.0))


# ---------------------------------------------------------------------------
# exact spectra


@dataclass
class ExactSpectrum:
    """Exact Fourier data for a halfspace.  full[mask] is the coefficient of
    the parity over the set bits of mask."""

    n: int
    mean: float
    degree1: np.ndarray
    full: np.ndarray

    def coefficient(self, s) -> float:
        mask = 0
        for i in s:
            mask |= 1 << int(i)
        return float(self.full[mask])

    def total_mass(self) -> float:
        return float((self.full ** 2).sum())

    def degree1_mass(self, t_set=None) -> float:
        d1 = self.degree1 if t_set is None else self.degree1[list(t_set)]
        return float((d1 ** 2).sum())


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^k vector."""
    a = np.array(values, dtype=np.float64)
    h = 1
    while h < a.size:
        # butterfly on every pair of h-blocks at once
        v = a.reshape(-1, 2, h)
        x = v[:, 0] + v[:, 1]
        v[:, 1] = v[:, 0] - v[:, 1]
        v[:, 0] = x
        h *= 2
    return a


def exact_spectrum(spec: LTFSpec) -> ExactSpectrum:
    """All 2^n coefficients (n <= 16)."""
    n = spec.n
    if n > SPECTRUM_FULL_MAX_N:
        raise ValueError(f"spectrum limited to n <= {SPECTRUM_FULL_MAX_N}")
    table = truth_table(spec).astype(np.float64)
    wht = _fwht(table)
    # points are indexed with bit=1 meaning +1, so parities pick up a
    # (-1)^|S| relative to the vanilla transform
    masks = np.arange(1 << n)
    popc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        popc += (masks >> i) & 1
    full = np.where(popc % 2 == 0, wht, -wht) / (1 << n)
    degree1 = np.array([full[1 << i] for i in range(n)])
    return ExactSpectrum(n, float(full[0]), degree1, full)


def exact_influences(spec: LTFSpec) -> np.ndarray:
    """Inf_i(f) = Pr[f(x) != f(x with bit i flipped)], exactly (n <= 16)."""
    if spec.n > SPECTRUM_FULL_MAX_N:
        raise ValueError("exact influences need the full table")
    table = truth_table(spec)
    idx = np.arange(table.size)
    out = np.empty(spec.n, dtype=np.float64)
    for i in range(spec.n):
        out[i] = np.count_nonzero(table != table[idx ^ (1 << i)]) / table.size
    return out
