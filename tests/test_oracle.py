import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotest import bits, oracle
from monotest.oracle import (
    AntiMonotoneEdgeCertificate,
    DimensionMismatchError,
    LTFEvaluator,
    LTFSpec,
    OracleHandle,
    PAIR_MIN_BYTES,
    QueryBudgetExceededError,
    Restriction,
    certificate_holds,
    compose,
    eval_ltf,
    exact_in_float,
    random_assignment,
    random_point,
    restrict,
    restricted_spec,
    truth_table,
    _Counter,
    _edge_positions,
    _exact_signs,
    verify_certificate,
)
from monotest.rng import generator_for
from monotest.subroutines import EDGE_CHUNK, _query_edges


def handle(w, theta, **kw):
    return OracleHandle.for_spec(LTFSpec(np.asarray(w, float), theta), **kw)


# ---------------------------------------------------------------------------
# packing


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(n, seed):
    rng = generator_for(seed, "pack")
    packed = bits.random_packed(rng, 7, n)
    pm = bits.unpack(packed, n)
    assert pm.shape == (7, n)
    assert set(np.unique(pm)) <= {-1, 1}
    assert np.array_equal(bits.pack(pm), packed)


@pytest.mark.parametrize("m,n", [(4, 8), (5, 8), (6, 8), (7, 8),
                                 (4, 20), (3, 20), (2, 20), (1, 20),
                                 (0, 20), (3, 40), (1000, 1024)])
def test_random_packed_golden_bytes(m, n):
    # m * nbytes(n) covers every residue mod 4 and odd and even word counts:
    # the sampler must return the bytes of rng.bytes and leave the generator
    # where rng.bytes leaves it, also when a bounded 32-bit draw has left a
    # half-word buffered
    nb = bits.nbytes(n)
    for buffered in (False, True):
        a = generator_for(5, "golden")
        b = generator_for(5, "golden")
        if buffered:
            assert a.integers(0, 10, dtype=np.uint32) == \
                b.integers(0, 10, dtype=np.uint32)
            assert b.bit_generator.state["has_uint32"] == 1
        expect = np.frombuffer(a.bytes(m * nb) if m else b"",
                               dtype=np.uint8).reshape(m, nb)
        expect = expect.copy()
        expect[:, -1] &= bits.tail_mask(n)
        got = bits.random_packed(b, m, n)
        assert got.shape == (m, nb) and got.flags.writeable
        assert np.array_equal(got, expect)
        # the next draws agree: a buffered half-word first, then whole words
        assert np.array_equal(a.integers(0, 2**32, size=3, dtype=np.uint32),
                              b.integers(0, 2**32, size=3, dtype=np.uint32))
        assert a.integers(0, 2**63) == b.integers(0, 2**63)
        assert a.bytes(13) == b.bytes(13)


def test_random_packed_chunked_draws_match_one_draw():
    # at n=3000 a 50k-row draw exceeds CHUNK_BYTES; consecutive draws of
    # chunk_rows rows must give the bytes of one whole draw, which every
    # chunked sampling loop relies on
    n, rows = 3000, 50_000
    chunk = bits.chunk_rows(rows, bits.nbytes(n))
    assert chunk < rows
    one = bits.random_packed(generator_for(5, "mean"), rows, n)
    gen = generator_for(5, "mean")
    parts = [bits.random_packed(gen, min(chunk, rows - lo), n)
             for lo in range(0, rows, chunk)]
    assert len(parts) > 1
    assert np.array_equal(np.concatenate(parts), one)


def test_point_string_roundtrip():
    p = np.array([1, -1, -1, 1, 1], dtype=np.int8)
    assert bits.point_to_string(p) == "+--++"
    assert np.array_equal(bits.point_from_string("+--++"), p)
    with pytest.raises(ValueError):
        bits.point_from_string("+-x")


# ---------------------------------------------------------------------------
# halfspace evaluation


def test_eval_ltf_boundary_is_plus_one():
    assert eval_ltf(LTFSpec(np.array([1.0]), 0.0), np.array([1])) == 1
    assert eval_ltf(LTFSpec(np.array([1.0]), 0.0), np.array([-1])) == -1
    # w.x = theta exactly
    assert eval_ltf(LTFSpec(np.array([1.0, 1.0]), 2.0), np.array([1, 1])) == 1


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eval_ltf(LTFSpec(np.array([1.0, 2.0]), 0.0), np.array([1]))


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_truth_table_matches_pointwise(n, seed):
    rng = generator_for(seed, "tt")
    spec = LTFSpec(np.round(rng.standard_normal(n) * 8), float(rng.integers(-4, 5)))
    table = truth_table(spec)
    for idx in rng.integers(0, 2**n, size=20):
        x = np.array([1 if (idx >> i) & 1 else -1 for i in range(n)], dtype=np.int8)
        assert table[idx] == eval_ltf(spec, x)


def test_eval_backends_agree():
    # the same integer-grid halfspace with a half-integer and a
    # non-half-integer threshold
    rng = generator_for(11, "backends")
    w = np.round(rng.standard_normal(50) * 64)
    w[w == 0] = 3.0
    theta = 7.5
    spec = LTFSpec(w, theta)
    spec_shifted = LTFSpec(w + 0.25 - 0.25, theta + 1e-9)
    X = bits.random_packed(rng, 2000, 50)
    a = OracleHandle.for_spec(spec).query_packed(X)
    b = OracleHandle.for_spec(spec_shifted).query_packed(X)
    # theta differs by 1e-9 but w.x - theta is never within 1e-9 of zero here
    assert np.array_equal(a, b)
    # integer weights take the exact branch, whatever the threshold
    assert exact_in_float(spec.weights) and exact_in_float(spec_shifted.weights)


def _cancellation_spec(n):
    # true w.x - theta at the all-ones point is 1.5, but a float sum that
    # adds 1 to 1e16 first loses it
    w = np.zeros(n)
    w[:4] = [1e16, -1e16, 1.0, 1.0]
    return LTFSpec(w, 0.5)


def test_cancellation_byte_tables():
    spec = _cancellation_spec(21)
    assert not exact_in_float(spec.weights)
    ones = np.ones((1, 21), dtype=np.int8)
    assert OracleHandle.for_spec(spec).query_pm(ones)[0] == 1
    assert eval_ltf(spec, ones[0]) == 1


def test_cancellation_truth_table():
    spec = _cancellation_spec(4)
    table = truth_table(spec)
    assert table[0b1111] == 1
    assert OracleHandle.for_spec(spec).query_pm(np.ones((1, 4)))[0] == 1
    assert eval_ltf(spec, np.ones(4, dtype=np.int8)) == 1
    # every entry agrees with exact rational arithmetic
    for idx in range(16):
        x = [1 if (idx >> i) & 1 else -1 for i in range(4)]
        true = sum(Fraction(wi) * xi for wi, xi in zip(spec.weights, x))
        assert table[idx] == (1 if true >= Fraction(spec.theta) else -1)


def _cube_packed(n):
    """All 2^n points of the cube, packed, row i at packed index i."""
    idx = np.arange(1 << n, dtype=np.int64)
    return np.stack([(idx >> (8 * k)) & 0xFF for k in range(bits.nbytes(n))],
                    axis=1).astype(np.uint8)


@pytest.mark.parametrize("n", [3, 8, 12, 20])
def test_evaluator_matches_truth_table_on_whole_cube(n):
    # the oracle against the exact reference at every point: integer-grid
    # weights, dyadic weights off the exact branch (two scaled by 2^45 so
    # that float sums round; theta is w.x0 rounded, so x0 and its
    # neighbours sit at the threshold) and float cancellation
    rng = generator_for(n, "whole-cube")
    grid = np.round(rng.standard_normal(n) * 16)
    dyadic = rng.integers(-1024, 1025, size=n) / 1024.0
    dyadic[:2] *= 2.0 ** 45
    x0 = random_point(n, rng)
    tie = float(sum(Fraction(wi) * int(xi) for wi, xi in zip(dyadic, x0)))
    specs = [LTFSpec(grid, float(np.floor(0.1 * grid.sum())) + 0.5),
             LTFSpec(dyadic, tie),
             _cancellation_spec(max(n, 4))]
    assert exact_in_float(specs[0].weights)
    assert not exact_in_float(specs[1].weights)
    for spec in specs:
        got = OracleHandle.for_spec(spec).query_packed(_cube_packed(spec.n))
        assert np.array_equal(got, truth_table(spec))


def test_evaluator_ignores_padding_bits():
    # n=12 leaves 4 padding bits in the last byte; setting them changes no
    # answer, on the exact branch and off it
    n = 12
    X = _cube_packed(n)
    padded = X.copy()
    padded[:, -1] |= 0xF0
    for spec in (LTFSpec(np.arange(1.0, n + 1), 3.5), _cancellation_spec(n)):
        f = OracleHandle.for_spec(spec)
        assert np.array_equal(f.query_packed(padded), f.query_packed(X))


@given(st.integers(4, 60), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_float_evaluation_matches_exact_reference(n, seed, wide):
    # dyadic weights k/1024; with `wide` a few are scaled by 2^45 so that
    # float sums round.  theta = w.x0 at a sampled point x0, which is then an
    # exact tie whenever that sum is representable.
    rng = generator_for(seed, "exact-ref")
    w = rng.integers(-1024, 1025, size=n) / 1024.0
    if wide:
        w[rng.choice(n, size=min(3, n), replace=False)] *= 2.0 ** 45
    fw = [Fraction(wi) for wi in w]
    x0 = random_point(n, rng)
    tie = sum(wi * int(xi) for wi, xi in zip(fw, x0))
    theta = float(tie)
    spec = LTFSpec(w, theta)
    # x0, its one-flip neighbours (near the threshold) and random points
    flips = np.repeat(x0[None, :], n, axis=0)
    flips[np.arange(n), np.arange(n)] *= -1
    rand = bits.unpack(bits.random_packed(rng, 32, n), n)
    pts = np.concatenate([x0[None, :], flips, rand])
    got = OracleHandle.for_spec(spec).query_pm(pts)
    expect = [1 if sum(wi * int(xi) for wi, xi in zip(fw, x)) >= Fraction(theta)
              else -1 for x in pts]
    assert list(got) == expect
    assert [eval_ltf(spec, x) for x in pts] == expect
    if Fraction(theta) == tie:
        assert got[0] == 1


def _block_batch(rng, n, ties):
    # 3 gather blocks plus a partial one; the tie point sits in every block
    rows = 3 * max(1, oracle.FLAT_BLOCK_BYTES // bits.nbytes(n)) + 5
    X = bits.unpack(bits.random_packed(rng, rows, n), n)
    X[np.arange(0, rows, rows // 7)] = ties
    return X


def _blocks_exact_spec(rng, n):
    w = rng.integers(-4095, 4096, size=n).astype(np.float64)
    x0 = random_point(n, rng)
    return LTFSpec(w, float(w @ x0) - 0.5), x0   # x0 sits just above


def _blocks_float_spec(rng, n):
    # w_0 = -w_1 = 2^60 cancel exactly wherever x_0 = x_1, but a float sum
    # loses the small weights next to them; theta = w.x0 is an exact tie
    w = rng.integers(-1024, 1025, size=n) / 1024.0
    w[:2] = [2.0 ** 60, -(2.0 ** 60)]
    x0 = random_point(n, rng)
    x0[1] = x0[0]
    theta = float(sum(Fraction(wi) * int(xi) for wi, xi in zip(w, x0)))
    return LTFSpec(w, theta), x0


@pytest.mark.parametrize("make,exact", [(_blocks_exact_spec, True),
                                        (_blocks_float_spec, False)],
                         ids=["exact", "float"])
def test_byte_table_blocks_match_eval_ltf(make, exact):
    n = 4096
    spec, x0 = make(generator_for(21, "blocks"), n)
    assert exact_in_float(spec.weights) == exact
    X = _block_batch(generator_for(22, "blocks"), n, x0)
    got = OracleHandle.for_spec(spec).query_pm(X)
    assert list(got) == [eval_ltf(spec, x) for x in X]
    assert np.all(got[np.all(X == x0, axis=1)] == 1)


def _edge_batch_case(n, wide, restricted, k=40):
    """(spec, evaluator, batch, k): the [lo; hi] batch of k edges that
    _query_edges hands the evaluator, on the root or on a view with a fifth
    of the coordinates fixed.

    x* raises the free coordinates i and c (in different bytes, w_i = w_c =
    1024, more than the evaluator's tie bound) of a point x0, and theta =
    w.x*, an exact tie.  Edge 0 runs from x0 along i, edges 1 and 2 end at
    x*, and edges 3 to 10 start at x*, so hi rows sit on and next to the
    threshold.  With `wide`, the weights are dyadic with three of them
    scaled by 2^45, so float sums round."""
    rng = generator_for(n, "edge-batch", wide, restricted)
    if wide:
        w = rng.integers(-1024, 1025, size=n) / 1024.0
        w[rng.choice(n, size=3, replace=False)] *= 2.0 ** 45
    else:
        w = np.round(rng.standard_normal(n) * 16)
    rho = (random_assignment(rng.choice(n, size=n // 5, replace=False), n, rng)
           if restricted else Restriction.all_stars(n))
    dom = rho.stars()
    i, c = dom[0], dom[-1]
    w[[i, c]] = 1024.0
    x0 = bits.unpack(rho.overlay_packed(bits.random_packed(rng, 1, n)), n)[0]
    x0[[i, c]] = -1
    star = x0.copy()
    star[[i, c]] = 1
    tie = sum(Fraction(wi) * int(xi) for wi, xi in zip(w, star))
    # a small weight d takes up the rounding of w.x*, so that it is a float
    d = next(j for j in dom[1:] if abs(w[j]) <= 1)
    w[d] -= float(tie - Fraction(float(tie))) * star[d]
    spec = LTFSpec(w, float(tie))
    assert Fraction(spec.theta) == sum(Fraction(wi) * int(xi)
                                       for wi, xi in zip(w, star))
    assert exact_in_float(w) != wide
    pts = bits.random_packed(rng, k, n)
    coords = dom[rng.integers(0, dom.size, size=k)]
    with_c, with_i = x0.copy(), x0.copy()
    with_c[c] = with_i[i] = 1
    pts[:3] = bits.pack(np.stack([x0, with_c, with_i]))
    coords[:3] = [i, i, c]
    pts[3:11] = bits.pack(star)
    ev = LTFEvaluator(spec)
    seen = []
    f = OracleHandle(lambda p: seen.append(p) or ev(p), n)
    _, v_lo, v_hi = _query_edges(restrict(f, rho), pts, coords)
    batch = seen[0]
    # both ends of the first 40 edges, which hold every tie, exactly, and
    # every row against the column-wise reference: checking thousands of
    # wide rows exactly would cost hundreds of MiB and seconds of fsum
    c = min(k, 40)
    ends = np.r_[:c, k: k + c]
    got = np.concatenate([v_lo, v_hi])
    assert np.array_equal(got[ends], _exact_signs(
        w, spec.theta, bits.unpack(batch[ends], n)))
    assert np.array_equal(got, _column_signs(ev, batch))
    return spec, ev, batch, k


def _column_signs(ev, batch):
    """ev's answers on batch from a reference gather: ev's byte tables read
    one byte position at a time into a running row sum, then ev._decide."""
    acc = np.zeros(batch.shape[0])
    for p, table in enumerate(ev._tables):
        acc += table.take(batch[:, p])
    out = np.empty(batch.shape[0], dtype=np.int8)
    ev._decide(acc, batch, out)
    return out


@pytest.mark.parametrize("restricted", [False, True], ids=["root", "view"])
@pytest.mark.parametrize("wide", [False, True], ids=["int", "float"])
@pytest.mark.parametrize("n,paired", [(2040, False), (2041, True),
                                      (4096, True)])
def test_edge_batches_match_exact_reference(n, paired, wide, restricted,
                                            monkeypatch):
    # 2040 coordinates pack into 255 bytes, 2041 into 256: the widths on
    # either side of the paired path
    assert (bits.nbytes(n) >= PAIR_MIN_BYTES) == paired
    spec, ev, batch, k = _edge_batch_case(n, wide, restricted)
    assert ev(batch)[k + 1] == 1   # the hi end of edge 1 is the tie x*
    # near misses that are gathered in full: an odd batch, one pair equal,
    # and the hi end of edge 0 moved to x*, two bytes from its lo end x0,
    # where either one-byte change alone stays below theta
    same, two_bytes, two_bits = batch.copy(), batch.copy(), batch.copy()
    same[k + 3] = same[3]
    two_bytes[k] = batch[k + 1]
    assert ev(batch)[k] == -1 and ev(two_bytes)[k] == 1
    # and one pair whose ends differ in two bits of one byte, which is still
    # an edge batch
    two_bits[k + 20] = batch[20]
    two_bits[k + 20, batch.shape[1] // 2] ^= 0x81
    # each batch checked in one block and in blocks of 7 rows, and gathered
    # in takes of the default size and of 7 rows, whose ends the edges
    # straddle
    default = ev._flat_block
    for b, is_edge_batch in ((batch, True), (batch[:-1], False),
                             (same, False), (two_bytes, False),
                             (two_bits, True)):
        expect = _exact_signs(spec.weights, spec.theta, bits.unpack(b, n))
        for rows in (b.shape[0], 7):
            monkeypatch.setattr(oracle, "EDGE_CHECK_ROWS", rows)
            assert (_edge_positions(b) is not None) == is_edge_batch
            for block in (default, 7):
                ev._flat_block = block
                assert np.array_equal(ev(b), expect)


@pytest.mark.parametrize("restricted", [False, True], ids=["root", "view"])
@pytest.mark.parametrize("wide", [False, True], ids=["int", "float"])
def test_wide_edge_batch_matches_column_loop(wide, restricted):
    # a full batch of 4096 edges at n = 16384 (2048 bytes), whose lo half
    # is gathered 8 rows a take: every row as the column-wise reference
    # answers, and the ties and the rows next to them exactly (in
    # _edge_batch_case)
    n, k = 16384, 4096
    assert k == bits.chunk_rows(EDGE_CHUNK, bits.nbytes(n), copies=2)
    _, ev, batch, _ = _edge_batch_case(n, wide, restricted, k)
    assert _edge_positions(batch) is not None


@pytest.mark.parametrize("restricted", [False, True], ids=["root", "view"])
@pytest.mark.parametrize("wide", [False, True], ids=["int", "float"])
# batches of rows - 1, rows and rows + 1 rows are tried besides the small
# ones: the empty batch at n = 16, 128 rows of 1 byte, 16 rows per byte of
# width at 3, 128, 129 and 512 bytes, and 8,192 rows of 64 bytes, the
# largest batch of the edge tester at n = 512
@pytest.mark.parametrize("n,rows", [(8, 128), (16, 0), (24, 48), (512, 8192),
                                    (1024, 2048), (1032, 2064), (4096, 8192)])
def test_flat_and_column_gathers_match_exact_reference(n, rows, wide,
                                                       restricted):
    # the flat gather against the column-wise reference (_column_signs) at
    # 1, 2, 3, 64, 128, 129 and 512 bytes, on batches of one take, of
    # several and of 3 takes plus 5 rows.  Every row must get the
    # reference's sign, and the first 256 rows, which hold the ties and
    # their one-flip neighbours, and the middle and last rows that of the
    # exact reference.
    rng = generator_for(n, "flat-gather", wide, restricted)
    if wide:
        # dyadic weights, three scaled by 2^45 so that float sums round
        w = rng.integers(-1024, 1025, size=n) / 1024.0
        w[rng.choice(n, size=3, replace=False)] *= 2.0 ** 45
    else:
        w = rng.integers(-4095, 4096, size=n).astype(np.float64)
    rho = (random_assignment(rng.choice(n, size=n // 5, replace=False), n, rng)
           if restricted else Restriction.all_stars(n))
    dom = rho.stars()
    x0 = bits.unpack(rho.overlay_packed(bits.random_packed(rng, 1, n)), n)[0]
    tie = sum(Fraction(wi) * int(xi) for wi, xi in zip(w, x0))
    if wide:
        # a small weight takes up the rounding of w.x0, so that theta = w.x0
        # is an exact tie
        d = next(j for j in dom if abs(w[j]) <= 1)
        w[d] -= float(tie - Fraction(float(tie))) * x0[d]
    spec = LTFSpec(w, float(tie))
    assert Fraction(spec.theta) == sum(Fraction(wi) * int(xi)
                                       for wi, xi in zip(w, x0))
    assert exact_in_float(w) != wide
    ev = LTFEvaluator(spec)
    seen = []
    view = restrict(OracleHandle(lambda p: seen.append(p) or ev(p), n), rho)
    tried = {2, 8, 128, 256, 3 * ev._flat_block + 5,
             rows - 1, rows, rows + 1} - {-1}
    for m in sorted(tried):
        if m == 0:
            assert view.query_packed(bits.random_packed(rng, 0, n)).size == 0
            continue
        # x0 and up to 127 of its one-flip neighbours, then random points,
        # with x0 also in the middle and last rows: a wide batch of
        # neighbours would send thousands of rows through math.fsum
        near = min(m // 2, 128)
        flips = np.repeat(x0[None, :], near, axis=0)
        flips[np.arange(near), dom[rng.integers(0, dom.size, size=near)]] *= -1
        batch = bits.random_packed(rng, m, n)
        batch[:near] = bits.pack(flips)
        batch[[0, m // 2, -1]] = bits.pack(x0)
        got = view.query_packed(batch)
        assert np.array_equal(got, _column_signs(ev, seen[-1])), m
        exact = np.r_[:min(m, 256), m // 2, m - 1]
        expect = _exact_signs(w, spec.theta, bits.unpack(seen[-1][exact], n))
        assert np.array_equal(got[exact], expect), m
        assert got[0] == got[-1] == 1
    # n = 4096 edge batches of 8192 edges, the edge tester's largest, and
    # of one edge more
    if n == 4096:
        for k in (rows, rows + 1):
            _, ev, batch, _ = _edge_batch_case(n, wide, restricted, k)
            assert _edge_positions(batch) is not None
            assert ev(batch)[k + 1] == 1


def _int_weights_case(n, lo, hi, at_x0):
    """Integer weights with |w_i| in [lo, hi) and random signs, and theta =
    w.x0 + at_x0 at a random point x0."""
    def make(rng):
        w = rng.integers(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)
        x0 = random_point(n, rng)
        return LTFSpec(w, float(w @ x0) + at_x0), x0
    return make


def _quarter_case(rng):
    # theta = 0.25 next to sum(w) = 2^52 + 22: fl(theta + sum(w)) drops
    # theta, so folding it into the offset would decide w.x = 0 as +1
    w = np.array([2.0 ** 51, 2.0 ** 51] + [1.0] * 22)
    x0 = np.array([1, -1] + [1] * 11 + [-1] * 11, dtype=np.int8)
    assert w @ x0 == 0
    return LTFSpec(w, 0.25), x0


@pytest.mark.parametrize("make,expect_x0", [
    (_int_weights_case(40, 4096, 2 ** 24, 0.5), -1),
    # 40 weights of at least 2^27: sum |w_i| >= 5 * 2^30 > 2^31
    (_int_weights_case(40, 2 ** 27, 2 ** 28, -0.5), 1),
    (_int_weights_case(64, 1, 2 ** 20, 0.0), 1),   # x0 is a tie: +1
    (_quarter_case, -1),
], ids=["wide-weights", "wide-total", "integer-tie", "quarter-theta"])
def test_exact_byte_tables_match_fractions(make, expect_x0):
    rng = generator_for(23, "exact-path")
    spec, x0 = make(rng)
    n = spec.n
    ev = LTFEvaluator(spec)
    assert exact_in_float(spec.weights)
    # x0, its one-flip neighbours and random points
    flips = np.repeat(x0[None, :], n, axis=0)
    flips[np.arange(n), np.arange(n)] *= -1
    rand = bits.unpack(bits.random_packed(rng, 32, n), n)
    pts = np.concatenate([x0[None, :], flips, rand])
    fw = [Fraction(wi) for wi in spec.weights]
    expect = [1 if sum(wi * int(xi) for wi, xi in zip(fw, x))
              >= Fraction(spec.theta) else -1 for x in pts]
    assert expect[0] == expect_x0
    assert list(ev(bits.pack(pts))) == expect
    assert [eval_ltf(spec, x) for x in pts] == expect


def test_nonfast_float_weights_still_work():
    spec = LTFSpec(np.full(30, 0.3), 0.1)
    h = OracleHandle.for_spec(spec)
    v = h.query_pm(np.ones((1, 30), dtype=np.int8))
    assert v[0] == 1


# ---------------------------------------------------------------------------
# restrictions


def test_restrict_identity_and_substitution():
    # fixing x2=+1 in sign(x1+x2) makes the function constant +1
    f = handle([1.0, 1.0], 0.0)
    rho = Restriction.fixing(2, {1: 1})
    fr = restrict(f, rho)
    assert fr.domain_size == 1
    vals = fr.query_pm(np.array([[1], [-1]], dtype=np.int8))
    assert np.all(vals == 1)

    f2 = handle([1.0], 0.0)
    all_stars = Restriction.all_stars(1)
    fr2 = restrict(f2, all_stars)
    assert np.array_equal(fr2.query_pm(np.array([[1], [-1]])), [1, -1])


def test_restrict_enumerated_example():
    # sign(2 x1 - x2 - 1) with x1 = -1 is identically -1
    f = handle([2.0, -1.0], 1.0)
    fr = restrict(f, Restriction.fixing(2, {0: -1}))
    assert np.all(fr.query_pm(np.array([[1], [-1]])) == -1)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_restrict_agrees_with_merge(n, seed):
    rng = generator_for(seed, "rmerge")
    spec = LTFSpec(np.round(rng.standard_normal(n) * 8), float(rng.integers(-6, 7)))
    f = OracleHandle.for_spec(spec)
    mask = rng.integers(0, 3, size=n).astype(np.int8) - 1
    rho = Restriction(mask)
    fr = restrict(f, rho)
    k = rho.num_stars
    if k == 0:
        return
    Y = bits.unpack(bits.random_packed(rng, 16, k), k)
    got = fr.query_pm(Y)
    merged = rho.merge(Y)
    expect = np.array([eval_ltf(spec, row) for row in merged])
    assert np.array_equal(got, expect)


def test_restricted_spec_threshold_shift():
    spec = LTFSpec(np.array([2.0, -1.0, 3.0]), 1.0)
    rho = Restriction.fixing(3, {0: -1, 2: 1})
    sub = restricted_spec(spec, rho)
    assert sub.n == 1
    assert sub.theta == 1.0 - (2.0 * -1 + 3.0 * 1)
    assert np.array_equal(sub.weights, [-1.0])


def test_compose_basic():
    a = Restriction.from_string("**")
    b = Restriction.from_string("**")
    assert str(compose(a, b)) == "**"
    c = compose(Restriction.from_string("+**"), Restriction.from_string("*-*"))
    assert str(c) == "+-*"
    # identity element
    r = Restriction.from_string("+-*")
    assert str(compose(r, Restriction.all_stars(3))) == "+-*"
    with pytest.raises(ValueError):
        compose(Restriction.from_string("+*"), Restriction.from_string("-*"))


@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_compose_commutative_associative(n, seed):
    rng = generator_for(seed, "compose")
    owner = rng.integers(0, 4, size=n)  # 3 = unassigned
    vals = rng.integers(0, 2, size=n).astype(np.int8) * 2 - 1
    parts = []
    for who in range(3):
        a = np.zeros(n, dtype=np.int8)
        a[owner == who] = vals[owner == who]
        parts.append(Restriction(a))
    r1, r2, r3 = parts
    ab = compose(r1, r2)
    assert np.array_equal(compose(r2, r1).assignment, ab.assignment)
    assert np.array_equal(
        compose(ab, r3).assignment, compose(r1, compose(r2, r3)).assignment)
    sup = r2.support()
    assert np.array_equal(compose(ab, r3).assignment[sup], r2.assignment[sup])


# ---------------------------------------------------------------------------
# query accounting


def test_query_counting_and_parent_charging():
    f = handle(np.ones(6), 0.0)
    assert f.query_count == 0
    f.query_pm(np.ones((5, 6), dtype=np.int8))
    assert f.query_count == 5
    fr = restrict(f, Restriction.fixing(6, {0: 1, 1: -1}))
    fr.query_pm(np.ones((3, 4), dtype=np.int8))
    assert f.query_count == 8
    assert fr.query_count == 8  # shared counter


def test_query_cap_raises_without_truncation():
    f = handle(np.ones(4), 0.0, query_cap=10)
    f.query_pm(np.ones((10, 4), dtype=np.int8))
    with pytest.raises(QueryBudgetExceededError):
        f.query_pm(np.ones((1, 4), dtype=np.int8))
    assert f.query_count == 10


@pytest.mark.parametrize("width", [1, 3])
def test_wrong_width_batch_raises_before_charging(width):
    # n=16 takes 2 bytes per point: a narrower batch would fail inside the
    # evaluator after charging, a wider one would be read from its first 2
    f = handle(np.ones(16), 0.0)
    views = (f, restrict(f, Restriction.fixing(16, {0: 1, 9: -1})))
    for view in views:
        with pytest.raises(DimensionMismatchError):
            view.query_packed(np.zeros((4, width), dtype=np.uint8))
        # a right-width batch of another dtype would be charged and then fail
        # in the evaluator, or on a view be masked to bytes nobody asked for
        with pytest.raises(TypeError):
            view.query_packed(np.array([[300, 0]], dtype=np.int64))
        with pytest.raises(TypeError):
            view.query_packed(np.zeros((1, 2), dtype=np.float64))
    assert f.query_count == 0


def test_query_cap_holds_across_threads():
    # a counter that yields between reading and writing its value: two
    # threads that both pass a cap check made outside the lock would both
    # charge and overshoot the cap
    class SlowCounter(_Counter):
        __slots__ = ("_v",)

        @property
        def value(self):
            v = self._v
            time.sleep(0.01)
            return v

        @value.setter
        def value(self, v):
            self._v = v

    f = OracleHandle(LTFEvaluator(LTFSpec(np.ones(4), 0.0)), 4, query_cap=3,
                     _counter=SlowCounter())
    start = threading.Barrier(2, timeout=10)
    outcomes = []

    def charge():
        start.wait()
        try:
            f.query_pm(np.ones((2, 4), dtype=np.int8))
            outcomes.append("ok")
        except QueryBudgetExceededError:
            outcomes.append("capped")

    threads = [threading.Thread(target=charge) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert sorted(outcomes) == ["capped", "ok"]
    assert f.query_count == 2


# ---------------------------------------------------------------------------
# certificates


def test_certificate_negated_dictator():
    f = handle([-1.0], 0.0)
    cert = AntiMonotoneEdgeCertificate(np.array([1], dtype=np.int8), 0)
    assert verify_certificate(f, cert)
    assert f.query_count == 2
    g = handle([1.0], 0.0)
    assert not verify_certificate(g, cert)


def test_certificate_derived_example():
    # f = sign(x1 - 2 x2), base (+1, .), coordinate 2
    f = handle([1.0, -2.0], 0.0)
    cert = AntiMonotoneEdgeCertificate(np.array([1, 1], dtype=np.int8), 1)
    assert verify_certificate(f, cert)


def test_certificate_serialization_roundtrip():
    cert = AntiMonotoneEdgeCertificate(
        np.array([1, -1, 1, 1, -1], dtype=np.int8), 3)
    d = cert.to_dict()
    assert d == {"point": "+-++-", "coordinate": 3}
    back = AntiMonotoneEdgeCertificate.from_dict(d)
    assert back.coordinate == 3
    assert np.array_equal(back.base_point, cert.base_point)


def test_certificate_rejects_malformed_edges():
    # on sign(x1 + x2 - 4 x3 - 0.5) the coordinate -1 would index x3, the
    # one anti-monotone direction, and verify as a real edge
    f = handle([1.0, 1.0, -4.0], 0.5)
    for d in ({"point": "+++", "coordinate": -1},
              {"point": "+++", "coordinate": 3}):
        with pytest.raises(ValueError):
            AntiMonotoneEdgeCertificate.from_dict(d)
    for point in (np.array([[1, 1, 1]], dtype=np.int8),
                  np.array([1, 0, 1], dtype=np.int8)):
        with pytest.raises(ValueError):
            AntiMonotoneEdgeCertificate(point, 0)
    assert f.query_count == 0
    cert = AntiMonotoneEdgeCertificate.from_dict(
        {"point": "+++", "coordinate": 2})
    assert verify_certificate(f, cert)


@pytest.mark.parametrize("make", [_blocks_exact_spec, _blocks_float_spec],
                         ids=["exact", "float"])
def test_certificate_holds_matches_the_evaluator(make):
    # every edge out of x0, which sits on or just above the threshold, so
    # both outcomes occur; the float spec's sums round unless re-decided
    spec, x0 = make(generator_for(23, "holds"), 64)
    f = OracleHandle.for_spec(spec)
    got = []
    for i in range(spec.n):
        cert = AntiMonotoneEdgeCertificate(x0, i)
        lo, hi = cert.endpoints()
        expect = (eval_ltf(spec, lo), eval_ltf(spec, hi)) == (1, -1)
        assert certificate_holds(spec, cert) == expect
        assert verify_certificate(f, cert) == expect
        got.append(expect)
    assert any(got) and not all(got)
    with pytest.raises(DimensionMismatchError):
        certificate_holds(LTFSpec(spec.weights[:-1], spec.theta), cert)


def test_verdict_requires_certificate():
    from monotest.oracle import Verdict
    with pytest.raises(ValueError):
        Verdict("non-monotone", "nope")
    v = Verdict.monotone("edge:pass")
    assert v.is_monotone


# ---------------------------------------------------------------------------
# randomness

def test_random_assignment_support_and_determinism():
    rng1 = generator_for(123, "ra")
    rng2 = generator_for(123, "ra")
    r1 = random_assignment([1, 3], 5, rng1)
    r2 = random_assignment([1, 3], 5, rng2)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert list(r1.support()) == [1, 3]
    empty = random_assignment([], 4, rng1)
    assert empty.num_stars == 4


def test_random_point_law_of_large_numbers():
    rng = generator_for(2024, "lln")
    total, count = 0.0, 0
    for _ in range(100):
        pts = np.stack([random_point(10, rng) for _ in range(100)])
        total += pts.sum()
        count += pts.size
    assert abs(total / count) <= 0.02


def test_unateness_no_mixed_edge_orientations():
    # exhaustive over small random halfspaces: per coordinate, all
    # bi-chromatic edges share one orientation
    rng = generator_for(5, "unate")
    for _ in range(25):
        n = int(rng.integers(2, 9))
        spec = LTFSpec(np.round(rng.standard_normal(n) * 8),
                       float(rng.integers(-5, 6)))
        table = truth_table(spec)
        idx = np.arange(2 ** n)
        for i in range(n):
            hi = idx | (1 << i)
            lo = hi ^ (1 << i)
            diff = table[hi].astype(int) - table[lo].astype(int)
            has_up = np.any(diff > 0)
            has_down = np.any(diff < 0)
            assert not (has_up and has_down)
