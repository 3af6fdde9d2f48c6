"""Halfspaces, restrictions, query-counted black-box access, and certificates.

Sign convention, used everywhere: sign(t) = +1 iff t >= 0, so a halfspace
f(x) = sign(w.x - theta) outputs +1 exactly when w.x >= theta.

Every evaluation returns the true sign of w.x - theta, whatever the weights.
eval_ltf and certificate_holds sum each point with math.fsum, whose
correctly rounded result has the exact sign.  truth_table (through
cube_margins) and LTFEvaluator use plain float arithmetic where
exact_in_float holds (integer weights with sum |w_i| < 2^53), otherwise
an fsum re-decision of near-threshold points.  Instances whose weights
sit on an integer grid (every generator in this package emits such
instances) have |w.x - theta| >= 1/2 or w.x = theta, the boundary case,
which maps to +1.

LTFEvaluator, the one path every oracle query takes at every n, sums each
packed row from one 256-entry float64 table per byte, as its docstring
describes, and decides every row of a call in one pass.  truth_table and
cube_margins enumerate the whole cube; they are the exact reference that
the ground-truth helpers use and tests compare against.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bits

TABLE_MAX_N = 20  # largest n the exact references enumerate the cube for
# narrowest packed width, in bytes, at which LTFEvaluator looks for an edge
# batch.  At 128 bytes the one-byte check costs more than it saves even on
# a full batch of 8192 edges; at 256 it pays from the edge tester's second
# batch, of 128 edges, and costs 5-7% on its first, of 64 (README,
# Performance notes).
PAIR_MIN_BYTES = 256
# packed bytes per take of LTFEvaluator's gather, whose intp index and
# float64 result take 8 bytes per packed byte each.  Through the evaluator
# on perfbench's batch shapes 16 KiB was fastest overall: 8 KiB was 10-18%
# slower on 4,096 and 8,192 rows of 64 bytes, and 32 or 64 KiB up to 2.9
# times slower on some shapes (README, Performance notes, has the grid)
FLAT_BLOCK_BYTES = 16 << 10
# pairs per XOR in LTFEvaluator's edge-batch check: as fast as a whole row
# block, whose 1 MiB XOR added 2 MiB to perfbench's mono-4096 peak memory
# with a fixed mmap threshold, where 256 rows (128 KiB at n = 4096) add
# about 0.3 MiB
EDGE_CHECK_ROWS = 256
# offset, within an intp, of its least significant byte
_LOW_BYTE = 0 if sys.byteorder == "little" else np.dtype(np.intp).itemsize - 1


# (8, 256): column b holds the bits of byte value b, converted once here
# since every evaluator built (one per certificate check) multiplies by it
_BYTE_BITS_T = bits.BYTE_BITS.T.astype(np.float64)


class DimensionMismatchError(ValueError):
    pass


class QueryBudgetExceededError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# LTF specification


@dataclass
class LTFSpec:
    """Explicit halfspace: weights w (float64, length n) and threshold theta."""

    weights: np.ndarray
    theta: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.theta):
            raise ValueError("weights and theta must be finite")
        self.weights = w
        self.theta = float(self.theta)

    @property
    def n(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        return {"n": self.n, "weights": self.weights.tolist(), "theta": self.theta}

    @classmethod
    def from_dict(cls, d: dict) -> "LTFSpec":
        spec = cls(np.asarray(d["weights"], dtype=np.float64), float(d["theta"]))
        if "n" in d and int(d["n"]) != spec.n:
            raise ValueError("instance file: n does not match weights length")
        return spec

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LTFSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def exact_in_float(w: np.ndarray) -> bool:
    """True iff every float sum of +-w_i is exact: integer weights whose
    absolute sum stays below 2^53."""
    return bool(np.all(w == np.round(w)) and np.abs(w).sum() < 2.0 ** 53)


def _tie_bound(w: np.ndarray, theta: float) -> float:
    """Bound on the error of the float margins w.x - theta computed here.

    A float sum of k terms, added in any order, is off by at most
    (k - 1) u times their absolute sum, with u = eps/2 (to first order in u;
    the slack below absorbs the rest).  Write W = sum |w_i| and
    nb = ceil(n/8).

    * cube_margins adds at most n weights per subset sum and n for sum(w),
      then subtracts twice: error <= u ((3n + 1) W + |theta|).
    * byte tables: an entry sums at most 8 weights, so the entries of a
      row are off by at most 7 u W in all.  The evaluator adds the nb
      entries of a row by a matrix-vector product with ones, which BLAS may
      carry out in any tree of additions and with fused multiply-adds.  A
      product x * 1.0 is exact, and fma(x, 1.0, a) rounds once, as x + a
      does, so the sum still makes nb - 1 roundings, each of a partial sum
      no larger than the terms' absolute sum, itself below W + 7 u W: the
      set-bit sum s is off by at most (8 + nb) u W.  The hi row of an edge
      batch takes s_lo - T[p, lo_byte] + T[p, hi_byte] instead: two more
      entries, each off by at most 7 u W, and two more roundings of values
      below W, so its s is off by at most (8 + nb) u W + 14 u W + 2 u W =
      (nb + 24) u W.
      The margin 2s - T, with T = fsum(theta, w) within u (W + |theta|) of
      theta + sum(w), is one more rounding of a value below 3W + |theta|:
      error <= u ((2 nb + 20) W + 2 |theta|) for a gathered row and
      u ((2 nb + 52) W + 2 |theta|) for a hi row.

    All are below u (4 n + 64) (W + |theta|) = 2 (n + 16) eps (W + |theta|),
    since 2 nb + 52 <= 2 n + 52, the bound returned (plus a term for
    underflow), so a computed margin beyond it has the true sign.  On the
    exact_in_float branch no bound is needed: every partial sum, in any
    order, is an integer below 2^53 and so exact.
    """
    eps = np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    return 2.0 * (w.size + 16) * (
        eps * (float(np.abs(w).sum()) + abs(theta)) + tiny)


def _near_threshold(margin: np.ndarray, bound: float) -> np.ndarray:
    """Indices of computed margins whose sign may be wrong; `not >` also
    catches a nan from an overflowing sum."""
    return np.flatnonzero(~(np.abs(margin) > bound))


def _exact_margins(w: np.ndarray, theta: float,
                   points_pm: np.ndarray) -> np.ndarray:
    """w.x - theta for each row, correctly rounded.

    w_i * x_i is exact for x_i = +-1, and fsum rounds the whole sum once, so
    the result has the sign of the true value (and is zero only on a tie).
    """
    return np.array([math.fsum([*row, -theta]) for row in w * points_pm],
                    dtype=np.float64)


def _exact_signs(w: np.ndarray, theta: float,
                 points_pm: np.ndarray) -> np.ndarray:
    """sign(w.x - theta) for each row, exactly (zero maps to +1)."""
    return np.where(_exact_margins(w, theta, points_pm) >= 0.0,
                    1, -1).astype(np.int8)


def _ltf_signs(spec: LTFSpec, points_pm: np.ndarray) -> np.ndarray:
    """sign(w.x - theta) for each row of a (k, n) +-1 array, exactly, by
    fsum whatever the weights."""
    if points_pm.ndim != 2 or points_pm.shape[1] != spec.n:
        raise DimensionMismatchError(
            f"points have shape {points_pm.shape}, expected (k, {spec.n})")
    return _exact_signs(spec.weights, spec.theta, points_pm)


def eval_ltf(spec: LTFSpec, x) -> int:
    """Evaluate a halfspace at a single +-1 point (boundary maps to +1)."""
    x = np.asarray(x)
    if x.shape != (spec.n,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, expected ({spec.n},)")
    return int(_ltf_signs(spec, x[None, :])[0])


def subset_sums(w: np.ndarray) -> np.ndarray:
    """All 2^len(w) sums of subsets of w; entry at mask m sums w[i] for set bits.

    Bit i of the mask corresponds to coordinate i being +1, matching the
    packed point layout, so `2*subset_sums(w) - w.sum()` enumerates w.x over
    the whole cube in packed-index order.
    """
    sums = np.empty(1 << len(w), dtype=np.float64)
    sums[0] = 0.0
    for i, wi in enumerate(w):
        h = 1 << i
        np.add(sums[:h], wi, out=sums[h: 2 * h])
    return sums


def cube_margins(spec: LTFSpec) -> np.ndarray:
    """w.x - theta at all 2^n packed indices, from subset sums.

    Where the float arithmetic is not exact, every margin within the tie
    bound of zero is replaced by its correctly rounded value, so each entry
    has the true sign and is zero exactly on the boundary.
    """
    w, theta = spec.weights, spec.theta
    # in place: 2 * sums - sum(w) - theta, with no 2^n-entry temporaries
    margins = subset_sums(w)
    margins *= 2.0
    margins -= w.sum()
    margins -= theta
    if not exact_in_float(w):
        near = _near_threshold(margins, _tie_bound(w, theta))
        if near.size:
            points = ((near[:, None] >> np.arange(spec.n)) & 1) * 2 - 1
            margins[near] = _exact_margins(w, theta, points)
    return margins


def truth_table(spec: LTFSpec) -> np.ndarray:
    """int8 table of f over all 2^n packed indices (n <= TABLE_MAX_N)."""
    if spec.n > TABLE_MAX_N:
        raise ValueError(f"truth table limited to n <= {TABLE_MAX_N}")
    return np.where(cube_margins(spec) >= 0.0, np.int8(1), np.int8(-1))


class LTFEvaluator:
    """Evaluates a halfspace on packed batches; returns int8 +-1 per row.

    One path at every n: per-byte tables of set-bit sums, whose padding
    entries are zero, so padding bits never change an answer.  Every batch
    (or the lo half of an edge batch, below) of nb bytes a row is gathered
    FLAT_BLOCK_BYTES // nb rows at a time: one take of entry 256 p + b of
    the raveled tables for byte b at position p, summed by a product with
    ones into the block's set-bit sums.  The index of that take is an intp
    block made once a call and preset to 256 p; a block's bytes b are
    copied into the low byte of its entries, which is zero in 256 p.
    README, Performance notes, has its cost per batch shape.

    With s the set-bit sum of a row, w.x = 2s - sum(w), and every row of a
    call is decided at once, by one subtraction and one comparison:

    * exact_in_float(w): 2s - sum(w) >= theta.  Every table entry and
      partial row sum is an integer of magnitude at most sum |w_i| < 2^53,
      so it is exact; so are 2s and the correctly rounded 2s - sum(w) = w.x,
      an integer of the same bound.  Comparing an exact w.x with any finite
      theta is exact.  theta stays out of the offset: fl(theta + sum(w))
      loses theta = 0.25 next to sum(w) = 2^52.
    * otherwise: 2s - fsum(theta, w) >= 0, and a row whose margin lies
      within _tie_bound of zero is re-decided with math.fsum.

    Edge batches.  At PAIR_MIN_BYTES bytes and wider, a batch [lo; hi]
    whose row k + j differs from row j in one byte position p_j, for every
    j < k = m/2 (the layout subroutines._query_edges sends), gathers only
    its first half; row k + j gets s_j - T[p_j, lo byte] + T[p_j, hi byte].
    The evaluator checks that layout itself on every batch, and any other
    batch is gathered in full.  Either way every row gets its exact sign:
    on the exact branch the sums are the same integers, and off it the
    _tie_bound covers the two extra entries and roundings.
    """

    def __init__(self, spec: LTFSpec):
        self.spec = spec
        self.n = spec.n
        w = spec.weights
        nb = bits.nbytes(self.n)
        wp = np.zeros(8 * nb, dtype=np.float64)
        wp[: self.n] = w
        # tables[p, b] = sum of the weights of the set bits of byte value b
        # at byte position p
        self._tables = wp.reshape(nb, 8) @ _BYTE_BITS_T
        if exact_in_float(w):
            self._offset = float(w.sum())
            self._threshold = spec.theta
            self._tie_bound = None
        else:
            self._offset = math.fsum([spec.theta, *w])
            self._threshold = 0.0
            self._tie_bound = _tie_bound(w, spec.theta)
        # the gather reads entry 256 p + b of the raveled tables; _base is
        # the (1, nb) row of 256 p that each call's index repeats
        self._flat = self._tables.ravel()
        self._base = np.arange(0, 256 * nb, 256, dtype=np.intp)[None, :]
        self._ones = np.ones(nb)
        self._flat_block = max(1, FLAT_BLOCK_BYTES // nb)

    def __call__(self, packed: np.ndarray) -> np.ndarray:
        pos = (_edge_positions(packed) if packed.shape[1] >= PAIR_MIN_BYTES
               else None)
        half = packed.shape[0] if pos is None else packed.shape[0] // 2
        acc = self._sums(packed[:half])
        if pos is not None:
            # the hi ends of the edges: swap one table entry of each lo sum
            lo, hi, r = packed[:half], packed[half:], np.arange(half)
            acc = np.concatenate([acc, acc - self._tables[pos, lo[r, pos]]])
            acc[half:] += self._tables[pos, hi[r, pos]]
        out = np.empty(packed.shape[0], dtype=np.int8)
        self._decide(acc, packed, out)
        return out

    def _sums(self, rows: np.ndarray) -> np.ndarray:
        """Set-bit sums of rows, each FLAT_BLOCK_BYTES of rows gathered with
        one take on the raveled tables and summed by a product with ones.

        The take's index is built once a call, preset to 256 p in every
        entry of column p; each block writes its bytes b into the low byte
        of those entries, which is zero in 256 p, so the index reads
        256 p + b without a widening add.  The index belongs to the call,
        so concurrent callers share no buffer."""
        m = len(rows)
        acc = np.empty(m)
        step = min(self._flat_block, m) or 1
        # the method, not np.repeat: on a batch of 2 rows the function's
        # dispatch costs about as much as the copy
        index = self._base.repeat(step, axis=0)
        low = index.view(np.uint8)[:, _LOW_BYTE::index.itemsize]
        for i in range(0, m, step):
            block = rows[i: i + step]
            k = len(block)
            low[:k] = block
            np.matmul(self._flat.take(index[:k]), self._ones,
                      out=acc[i: i + step])
        return acc

    def _decide(self, acc: np.ndarray, block: np.ndarray, out: np.ndarray):
        """Write the signs of the rows of block, whose set-bit sums are acc,
        into out."""
        margin = 2.0 * acc - self._offset
        # 0/1 as int8, then +-1 straight into out: no int64 temporary
        np.subtract((margin >= self._threshold).view(np.int8) * 2, 1, out=out)
        if self._tie_bound is not None:
            near = _near_threshold(margin, self._tie_bound)
            if near.size:
                out[near] = _exact_signs(self.spec.weights, self.spec.theta,
                                         bits.unpack(block[near], self.n))


def _edge_positions(packed: np.ndarray) -> Optional[np.ndarray]:
    """If packed is an edge batch [lo; hi], whose row k + j differs from row
    j in exactly one byte for every j < k = m/2, the index of that byte for
    each j; otherwise None.  Checks EDGE_CHECK_ROWS pairs at a time."""
    m = packed.shape[0]
    # one edge takes as many table gathers either way, and numpy's in-place
    # add is about 3 times slower on a one-element sum than on two
    if m % 2 or m < 4:
        return None
    k = m // 2
    pos = np.empty(k, dtype=np.intp)
    rows = EDGE_CHECK_ROWS
    for lo in range(0, k, rows):
        diff = packed[lo: min(lo + rows, k)] ^ packed[k + lo: k + lo + rows]
        # counted first, so that most other batches stop before the argmax
        if np.count_nonzero(diff) != diff.shape[0]:
            return None
        p = diff.argmax(axis=1)
        if not diff[np.arange(p.size), p].all():
            return None
        pos[lo: lo + rows] = p
    return pos


# ---------------------------------------------------------------------------
# Restrictions


@dataclass
class Restriction:
    """Partial assignment in {-1, 0, +1}^n; 0 marks a free (star) coordinate."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int8)
        if a.ndim != 1 or not np.all(np.isin(a, (-1, 0, 1))):
            raise ValueError("restriction entries must lie in {-1, 0, +1}")
        self.assignment = a
        self._packed = None

    @classmethod
    def all_stars(cls, n: int) -> "Restriction":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def fixing(cls, n: int, values: dict[int, int]) -> "Restriction":
        a = np.zeros(n, dtype=np.int8)
        for i, v in values.items():
            a[i] = v
        return cls(a)

    @property
    def n(self) -> int:
        return self.assignment.size

    def stars(self) -> np.ndarray:
        return np.flatnonzero(self.assignment == 0)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.assignment != 0)

    @property
    def num_stars(self) -> int:
        return int(np.count_nonzero(self.assignment == 0))

    def _packed_masks(self):
        # (star_mask, fixed_plus_bits), both packed over n coordinates
        if self._packed is None:
            star = bits.pack(np.where(self.assignment == 0, 1, -1)
                             .astype(np.int8))[0]
            plus = bits.pack(np.where(self.assignment == 1, 1, -1)
                             .astype(np.int8))[0]
            self._packed = (star, plus)
        return self._packed

    def overlay_packed(self, packed: np.ndarray) -> np.ndarray:
        """Replace fixed coordinates of a packed batch with this restriction."""
        star, plus = self._packed_masks()
        out = packed & star
        out |= plus
        return out

    def __str__(self):
        return "".join("*" if v == 0 else ("+" if v > 0 else "-")
                       for v in self.assignment)

    @classmethod
    def from_string(cls, s: str) -> "Restriction":
        table = {"+": 1, "-": -1, "*": 0}
        try:
            return cls(np.array([table[c] for c in s], dtype=np.int8))
        except KeyError as exc:
            raise ValueError(f"bad restriction character {exc}") from exc


def compose(rho: Restriction, rho2: Restriction) -> Restriction:
    """Union of two restrictions with disjoint supports."""
    if rho.n != rho2.n:
        raise DimensionMismatchError("restrictions over different dimensions")
    if np.any((rho.assignment != 0) & (rho2.assignment != 0)):
        raise ValueError("compose requires disjoint supports")
    return Restriction(rho.assignment + rho2.assignment)


def random_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-1 vector of length n."""
    return bits.unpack(bits.random_packed(rng, 1, n), n)[0]


def random_assignment(indices, n: int, rng: np.random.Generator) -> Restriction:
    """Uniform restriction with support exactly `indices`."""
    indices = np.asarray(indices, dtype=np.int64)
    a = np.zeros(n, dtype=np.int8)
    if indices.size:
        a[indices] = rng.integers(0, 2, size=indices.size).astype(np.int8) * 2 - 1
    return Restriction(a)


# ---------------------------------------------------------------------------
# Query-counted oracle access


class _Counter:
    """Thread-safe monotone query counter shared across restricted views."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def add(self, k: int, cap: Optional[int] = None):
        """Add k, or raise if that would take the count above cap; the check
        and the add are one step under the lock."""
        with self._lock:
            if cap is not None and self.value + k > cap:
                raise QueryBudgetExceededError(
                    f"query budget exceeded: {self.value} used, "
                    f"{k} requested, cap {cap}")
            self.value += k


class OracleHandle:
    """Black-box access to a Boolean function on {-1,+1}^n, counting queries.

    Points are packed batches (see bits.py).  Restricted views share the
    parent's counter: k evaluations through any view charge the root exactly k.
    A query_cap makes the handle raise before exceeding the budget; it never
    silently truncates a batch.
    """

    def __init__(self, target: Callable[[np.ndarray], np.ndarray], n: int,
                 query_cap: Optional[int] = None,
                 _counter: Optional[_Counter] = None,
                 _rho: Optional[Restriction] = None):
        self._target = target
        self.ambient_n = n
        self.query_cap = query_cap
        self._counter = _counter if _counter is not None else _Counter()
        self.rho = _rho  # None for the root handle

    @classmethod
    def for_spec(cls, spec: LTFSpec, query_cap: Optional[int] = None
                 ) -> "OracleHandle":
        return cls(LTFEvaluator(spec), spec.n, query_cap=query_cap)

    @classmethod
    def for_function(cls, fn_pm: Callable[[np.ndarray], np.ndarray],
                     n: int) -> "OracleHandle":
        """Wrap a function taking (m, n) +-1 int arrays (for tests/tools)."""
        def target(packed):
            return np.asarray(fn_pm(bits.unpack(packed, n)), dtype=np.int8)
        return cls(target, n)

    @property
    def query_count(self) -> int:
        return self._counter.value

    @property
    def domain(self) -> np.ndarray:
        """Ambient labels of the free coordinates, ascending."""
        if self.rho is None:
            return np.arange(self.ambient_n)
        return self.rho.stars()

    @property
    def domain_size(self) -> int:
        return self.ambient_n if self.rho is None else self.rho.num_stars

    def _charge(self, k: int):
        self._counter.add(k, self.query_cap)

    def query_packed(self, packed: np.ndarray) -> np.ndarray:
        """Evaluate an (m, nbytes(ambient_n)) batch of ambient-width points.

        For restricted views the fixed coordinates of the batch are overridden
        by the restriction, so callers may fill them with anything (typically
        fresh random bytes).  A batch of any other width raises
        DimensionMismatchError, and one of any dtype but uint8 TypeError,
        before a query is charged.
        """
        packed = np.atleast_2d(packed)
        if packed.dtype != np.uint8:
            raise TypeError(f"packed points must be uint8, got {packed.dtype}")
        width = bits.nbytes(self.ambient_n)
        if packed.shape[1] != width:
            raise DimensionMismatchError(
                f"points have {packed.shape[1]} bytes, "
                f"ambient width is {width}")
        self._charge(packed.shape[0])
        if self.rho is not None:
            packed = self.rho.overlay_packed(packed)
        return self._target(packed)

    def lift(self, packed: np.ndarray) -> np.ndarray:
        """Ambient packed points actually seen by the target for this batch."""
        packed = np.atleast_2d(packed)
        return self.rho.overlay_packed(packed) if self.rho is not None else packed


def restrict(f: OracleHandle, rho: Restriction) -> OracleHandle:
    """View of f under rho (ambient coordinates), charging f's counter.

    Restricting an already-restricted handle composes the restrictions; the
    new support must be disjoint from (i.e. star in) the existing one.
    """
    if rho.n != f.ambient_n:
        raise DimensionMismatchError("restriction dimension mismatch")
    merged = rho if f.rho is None else compose(f.rho, rho)
    if merged.num_stars == merged.n:
        merged = None  # identity restriction: keep the fast path
    return OracleHandle(f._target, f.ambient_n, query_cap=f.query_cap,
                        _counter=f._counter, _rho=merged)


def restricted_spec(spec: LTFSpec, rho: Restriction) -> LTFSpec:
    """The halfspace induced on the stars: same weights, shifted threshold."""
    if rho.n != spec.n:
        raise DimensionMismatchError("restriction dimension mismatch")
    fixed = rho.support()
    shift = float(spec.weights[fixed] @ rho.assignment[fixed])
    return LTFSpec(spec.weights[rho.stars()], spec.theta - shift)


# ---------------------------------------------------------------------------
# Certificates and verdicts


@dataclass(frozen=True)
class AntiMonotoneEdgeCertificate:
    """A checkable witness: flipping coordinate i from -1 to +1 flips f from +1 to -1."""

    base_point: np.ndarray  # +-1 int8 vector, ambient width
    coordinate: int

    def __post_init__(self):
        point = np.asarray(self.base_point)
        if point.ndim != 1 or np.count_nonzero(np.abs(point) != 1):
            raise ValueError("base_point must be a 1-d +-1 vector")
        if not 0 <= self.coordinate < point.size:
            raise ValueError(f"coordinate {self.coordinate} is outside "
                             f"[0, {point.size})")

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.base_point, dtype=np.int8).copy()
        hi = lo.copy()
        lo[self.coordinate] = -1
        hi[self.coordinate] = 1
        return lo, hi

    def to_dict(self) -> dict:
        return {"point": bits.point_to_string(self.base_point),
                "coordinate": int(self.coordinate)}

    @classmethod
    def from_dict(cls, d: dict) -> "AntiMonotoneEdgeCertificate":
        return cls(bits.point_from_string(d["point"]), int(d["coordinate"]))


def verify_certificate(f: OracleHandle,
                       cert: AntiMonotoneEdgeCertificate) -> bool:
    """Re-check an ambient-width certificate on a black-box handle with
    exactly 2 queries.  On a restricted view that would change either
    endpoint (it fixes the certificate's coordinate, or a base coordinate
    it fixes to the other value) it fails without a query.  For a known
    halfspace, certificate_holds checks without the evaluator."""
    lo, hi = cert.endpoints()
    if lo.size != f.ambient_n:
        raise DimensionMismatchError(f"certificate has {lo.size} coordinates")
    pts = bits.pack(np.stack([lo, hi]))
    if f.rho is not None and (f.lift(pts) != pts).any():
        return False
    vals = f.query_packed(pts)
    return int(vals[0]) == 1 and int(vals[1]) == -1


def certificate_holds(spec: LTFSpec,
                      cert: AntiMonotoneEdgeCertificate) -> bool:
    """Re-check a certificate against the halfspace itself, exactly, as
    eval_ltf evaluates.  It builds no byte tables and charges no query, so
    a fault in LTFEvaluator cannot confirm its own false witness."""
    signs = _ltf_signs(spec, np.stack(cert.endpoints()))
    return int(signs[0]) == 1 and int(signs[1]) == -1


MONOTONE = "monotone"
NON_MONOTONE = "non-monotone"


@dataclass(frozen=True)
class Verdict:
    """Two-valued outcome plus a diagnostic recording which branch produced it.

    A non-monotone verdict always carries a certificate; there is no code path
    that can reject without one.
    """

    outcome: str
    diagnostic: str
    certificate: Optional[AntiMonotoneEdgeCertificate] = None

    def __post_init__(self):
        if self.outcome not in (MONOTONE, NON_MONOTONE):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == NON_MONOTONE and self.certificate is None:
            raise ValueError("non-monotone verdicts require a certificate")

    @classmethod
    def monotone(cls, diagnostic: str) -> "Verdict":
        return cls(MONOTONE, diagnostic)

    @classmethod
    def non_monotone(cls, certificate: AntiMonotoneEdgeCertificate,
                     diagnostic: str) -> "Verdict":
        return cls(NON_MONOTONE, diagnostic, certificate)

    @property
    def is_monotone(self) -> bool:
        return self.outcome == MONOTONE
