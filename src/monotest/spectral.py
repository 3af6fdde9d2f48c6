"""Sampling estimators for means and degree-1 Fourier mass, a regularity
check, and exact spectra for validation.

The degree-1 estimators share one design: draw m uniform points, keep the
per-coordinate signed sums s1[i] = sum_j f(x_j) * x_j[i], and form unbiased
product statistics from them.  A single batch serves every coordinate at
once, which is what makes the subroutines affordable; the per-coordinate
power sums cost O(m * n / 8) via byte histograms.

For g_j = f(x_j) * x_j[i] (i.i.d. +-1 with mean c_i = E[f * x_i]):

* (s1^2 - m) / (m (m-1)) is unbiased for c_i^2,
* the elementary symmetric function of degree 4 in the g_j, divided by
  C(m, 4), is unbiased for c_i^4; since g_j^2 = 1 its Newton expansion
  collapses to a polynomial in s1 and m alone.

Sample sizes follow the variance structure (the linear statistic dominates
with variance <= 4/m; the degenerate part contributes ~|T|/m^2), with
multipliers large enough that the calibration suites see failure rates well
under the nominal delta.  Hard query caps from the coarse worst-case budgets
are asserted on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bits
from .oracle import LTFEvaluator, LTFSpec, OracleHandle, truth_table

# rows per drawn batch, within bits.CHUNK_BYTES (see bits.chunk_rows)
CHUNK = 16384
# sample-count multipliers; the calibration tests are the authority on these
MEAN_CONST = 2.0           # Hoeffding: m = 2 ln(2/delta) / eps^2 exactly
SQUARES_CONST = 6.0
FOURTH_CONST = 32.0
SQUARES_CAP_CONST = 16.0   # cap: queries <= 16 ln(2/delta) / eta^4
FOURTH_CAP_CONST = 128.0   # cap: queries <= 128 ln(2/delta) / tau^16
MAX_FEASIBLE_QUERIES = 1 << 40

REGULAR = "regular"
NOT_REGULAR = "not-regular"

SPECTRUM_FULL_MAX_N = 16
SPECTRUM_DEG1_MAX_N = 24


class InfeasibleBudgetError(RuntimeError):
    """Raised when a parameter choice implies an unrunnable sample size."""


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    target_accuracy: float
    confidence: float
    queries_used: int


@dataclass(frozen=True)
class RegularityResult:
    decision: str               # REGULAR | NOT_REGULAR
    fourth_power_estimate: float
    threshold: float
    queries_used: int

    @property
    def is_regular(self) -> bool:
        return self.decision == REGULAR


def _check_unit(name: str, value: float):
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _sample_count(accuracy: float, delta: float, t_size: int,
                  const: float, cap_const: float, cap_power: float,
                  cap_param: float) -> int:
    log_term = math.log(2.0 / delta)
    # 1/accuracy^2 covers the linear statistic (variance <= 4/m); the
    # sqrt(|T|)/accuracy term covers the degenerate part (variance ~ 2|T|/m^2)
    m_acc = const * log_term * max(accuracy ** -2,
                                   math.sqrt(t_size + 1.0) / (2.0 * accuracy))
    m_cap = cap_const * log_term / cap_param ** cap_power
    m = int(math.ceil(min(m_acc, m_cap)))
    if m > MAX_FEASIBLE_QUERIES:
        raise InfeasibleBudgetError(
            f"estimator would need {m:.3g} queries; parameters are below "
            "any executable scale")
    return max(m, 8)


def squares_sample_count(eta: float, delta: float, t_size: int) -> int:
    """Queries estimate_sum_of_squares spends on a set of t_size
    coordinates; non-decreasing in t_size."""
    return _sample_count(eta, delta, t_size, SQUARES_CONST,
                         SQUARES_CAP_CONST, 4.0, eta)


# ---------------------------------------------------------------------------
# mean estimation


def estimate_mean(f: OracleHandle, eps: float, delta: float,
                  rng: np.random.Generator) -> SpectralEstimate:
    """Estimate E[f] to within +-eps with probability >= 1-delta.

    Uses ceil(2 ln(2/delta) / eps^2) uniform queries, the exact Hoeffding
    count for +-1 outputs.
    """
    _check_unit("eps", eps)
    _check_unit("delta", delta)
    m = int(math.ceil(MEAN_CONST * math.log(2.0 / delta) / eps ** 2))
    if m > MAX_FEASIBLE_QUERIES:
        raise InfeasibleBudgetError(f"mean estimate would need {m} queries")
    total = 0.0
    chunk = bits.chunk_rows(CHUNK, bits.nbytes(f.ambient_n))
    done = 0
    while done < m:
        k = min(chunk, m - done)
        pts = bits.random_packed(rng, k, f.ambient_n)
        total += float(f.query_packed(pts).astype(np.float64).sum())
        done += k
    return SpectralEstimate(total / m, eps, delta, m)


# ---------------------------------------------------------------------------
# shared signed-sum sampling


def _signed_sums(f: OracleHandle, m: int, positions: np.ndarray,
                 n_dummy: int, rng: np.random.Generator):
    """Signed per-coordinate sums over m fresh uniform queries.

    positions index the handle's free coordinates; n_dummy extra columns of
    pure noise are appended (exact coefficient zero, used to pad variable
    sets).  Returns (s1 over positions, s1 over the dummies or None).
    """
    dom = f.domain
    amb_cols = dom[positions]
    byte_positions = np.unique(amb_cols >> 3)
    hist_amb = np.zeros((byte_positions.size, 256), dtype=np.float64)
    hist_dummy = np.zeros((bits.nbytes(n_dummy), 256), dtype=np.float64)
    v_total = 0.0
    chunk = bits.chunk_rows(CHUNK, bits.nbytes(f.ambient_n))
    done = 0
    while done < m:
        k = min(chunk, m - done)
        pts = bits.random_packed(rng, k, f.ambient_n)
        v = f.query_packed(pts).astype(np.float64)
        v_total += v.sum()
        hist_amb += bits.byte_histograms(pts, v, byte_positions)
        if n_dummy:
            dpts = bits.random_packed(rng, k, n_dummy)
            hist_dummy += bits.byte_histograms(dpts, v, range(dpts.shape[1]))
        done += k
    # bit sums -> signed sums
    bm = bits.BYTE_BITS.astype(np.float64)
    s1_amb = 2.0 * (hist_amb @ bm).ravel() - v_total
    s1_dummy = 2.0 * (hist_dummy @ bm).ravel()[:n_dummy] - v_total
    s1 = s1_amb[8 * np.searchsorted(byte_positions, amb_cols >> 3)
                + (amb_cols & 7)]
    return s1, (s1_dummy if n_dummy else None)


def degree1_square_terms(f: OracleHandle, m: int, rng: np.random.Generator,
                         n_dummy: int = 0) -> np.ndarray:
    """Unbiased estimates (s1^2 - m) / (m (m-1)) of fhat(i)^2 for every free
    coordinate of the handle (positions, ascending domain order), followed
    by n_dummy appended dummy coordinates whose exact coefficient is zero,
    all from one batch of m uniform queries.

    Summing the entries of a set T estimates the degree-1 mass of T; the
    sample count that estimate_sum_of_squares picks for |T| gives the
    accuracy it promises, and more samples only sharpen it.
    """
    s1_real, s1_dummy = _signed_sums(
        f, m, np.arange(f.domain_size, dtype=np.int64), n_dummy, rng)
    s1 = np.concatenate([s1_real, s1_dummy]) if n_dummy else s1_real
    return (s1 * s1 - m) / (m * (m - 1.0))


def estimate_sum_of_squares(f: OracleHandle, t_set: Sequence[int], eta: float,
                            delta: float, rng: np.random.Generator,
                            n_dummy: int = 0) -> SpectralEstimate:
    """Estimate the degree-1 mass sum_{i in T} fhat(i)^2 to +-eta w.p. 1-delta.

    T indexes the handle's free coordinates (positions, ascending domain
    order).  Positions >= domain size refer to appended dummy coordinates
    (declared via n_dummy) whose exact coefficient is zero.  Query count
    depends only on |T| and is capped at ceil(16 ln(2/delta) / eta^4); the
    value is the sum over T of degree1_square_terms from that batch.
    """
    _check_unit("eta", eta)
    _check_unit("delta", delta)
    t_arr = np.asarray(sorted({int(i) for i in t_set}), dtype=np.int64)
    if t_arr.size and (t_arr[0] < 0 or t_arr[-1] >= f.domain_size + n_dummy):
        raise ValueError("T outside the (padded) domain")
    m = squares_sample_count(eta, delta, t_arr.size)
    terms = degree1_square_terms(f, m, rng, n_dummy)
    return SpectralEstimate(float(terms[t_arr].sum()), eta, delta, m)


def check_fourier_regular(f: OracleHandle, t_set: Optional[Sequence[int]],
                          tau: float, delta: float,
                          rng: np.random.Generator) -> RegularityResult:
    """Decide degree-1 regularity over T (None = whole domain).

    Outputs NOT_REGULAR w.p. >= 1-delta when some |fhat(i)| >= tau, REGULAR
    w.p. >= 1-delta when every |fhat(i)| <= tau^2/4; anything goes in the gap.
    Decision statistic: sum of fourth powers, thresholded at tau^4/2 (the two
    sides pin it at >= tau^4 and <= tau^4/16).  tau > 1 short-circuits to
    REGULAR with zero queries since no coefficient can reach tau.
    """
    _check_unit("delta", delta)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau > 1.0:
        return RegularityResult(REGULAR, 0.0, tau ** 4 / 2.0, 0)
    t_arr = (np.arange(f.domain_size, dtype=np.int64) if t_set is None
             else np.asarray(sorted({int(i) for i in t_set}), dtype=np.int64))
    if t_arr.size and (t_arr[0] < 0 or t_arr[-1] >= f.domain_size):
        raise ValueError("T outside the domain")
    accuracy = tau ** 4 / 4.0
    m = _sample_count(accuracy, delta, t_arr.size, FOURTH_CONST,
                      FOURTH_CAP_CONST, 16.0, tau)
    before = f.query_count
    s1, _dummy = _signed_sums(f, m, t_arr, 0, rng)
    used = f.query_count - before
    assert used == m, "regularity check exceeded its precomputed budget"
    # unbiased fourth powers from power sums (g^2 = 1 collapses p2, p3, p4)
    e4 = (s1 ** 4 - (6.0 * m - 8.0) * s1 ** 2 + 3.0 * m * m - 6.0 * m) / 24.0
    pairs4 = m * (m - 1.0) * (m - 2.0) * (m - 3.0) / 24.0
    value = float(e4.sum() / pairs4)
    threshold = tau ** 4 / 2.0
    decision = NOT_REGULAR if value > threshold else REGULAR
    return RegularityResult(decision, value, threshold, m)


# ---------------------------------------------------------------------------
# exact spectra


@dataclass
class ExactSpectrum:
    """Exact Fourier data for a halfspace: degree-<=1 always, full table when
    n is small enough.  full[mask] is the coefficient of the parity over the
    set bits of mask."""

    n: int
    mean: float
    degree1: np.ndarray
    full: Optional[np.ndarray] = None

    def coefficient(self, s) -> float:
        mask = 0
        for i in s:
            mask |= 1 << int(i)
        if self.full is None:
            raise ValueError("full spectrum not available at this n")
        return float(self.full[mask])

    def total_mass(self) -> float:
        if self.full is None:
            raise ValueError("full spectrum not available at this n")
        return float((self.full ** 2).sum())

    def degree1_mass(self, t_set=None) -> float:
        d1 = self.degree1 if t_set is None else self.degree1[list(t_set)]
        return float((d1 ** 2).sum())

    def max_abs_degree1(self) -> float:
        return float(np.max(np.abs(self.degree1))) if self.n else 0.0


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
    """All 2^n coefficients for n <= 16; the degree-<=1 slice for n <= 24."""
    n = spec.n
    if n <= SPECTRUM_FULL_MAX_N:
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
    if n > SPECTRUM_DEG1_MAX_N:
        raise ValueError(f"spectrum limited to n <= {SPECTRUM_DEG1_MAX_N}")
    ev = LTFEvaluator(spec)
    nb = bits.nbytes(n)
    s1 = np.zeros(n, dtype=np.float64)
    v_total = 0.0
    block = 1 << 17
    for lo in range(0, 1 << n, block):
        idx = np.arange(lo, min(lo + block, 1 << n), dtype=np.int64)
        packed = np.empty((idx.size, nb), dtype=np.uint8)
        for k in range(nb):
            packed[:, k] = (idx >> (8 * k)) & 0xFF
        v = ev(packed).astype(np.float64)
        v_total += v.sum()
        s1 += bits.signed_bit_sums(packed, v, n)
    size = float(1 << n)
    return ExactSpectrum(n, v_total / size, s1 / size, None)


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
