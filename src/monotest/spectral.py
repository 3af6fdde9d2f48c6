"""The sampling estimator of means, and exact spectra for validation.

estimate_mean takes a fixed Hoeffding count, or, given a bound, stops once
it has decided on which side of the bound |E[f]| lies; a count above
MAX_FEASIBLE_QUERIES raises InfeasibleBudgetError instead of sampling.  No
degree-1 coefficient is estimated: Phase 1 finds its variables by
bisection, which rests on a measurement against truth.exact_degree1, not
on a proof (see schedule).
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
MEAN_CONST = 2.0           # Hoeffding: m = 2 ln(2/delta) / eps^2 exactly
MEAN_FIRST_LOOK = 64       # the bounded mean check looks at 64 * 2^j samples
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
