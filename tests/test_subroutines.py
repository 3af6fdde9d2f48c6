import math

import numpy as np
import pytest

from monotest import bits, subroutines
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    certificate_holds,
    eval_ltf,
    restrict,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import BISECT_SAMPLES, EDGE_DELTA, EDGE_EPS
from monotest.subroutines import bisect_edges, bisect_round_cap, edge_tester
from monotest.tester import high_variables, main_procedure
from monotest.truth import exact_degree1

S = BISECT_SAMPLES


def planted_heavy(n, heavy=8.0, sign=1.0):
    """One dominant coordinate, the rest unit weights."""
    w = np.ones(n)
    w[0] = sign * heavy
    return LTFSpec(w, 0.0)


def rng_at(seed, *path):
    return SplitRng(seed, path)


def ended(out):
    """Indices of the samples that ended on an edge."""
    return np.flatnonzero(out.coords >= 0)


def edge_values(spec, out, j):
    """f at the x_i = -1 and x_i = +1 ends of sample j's edge, by eval_ltf."""
    i = int(out.coords[j])
    lo = bits.unpack(out.lo[j], spec.n)[0]
    hi = lo.copy()
    hi[i] = 1
    assert lo[i] == -1
    return eval_ltf(spec, lo), eval_ltf(spec, hi)


# ---------------------------------------------------------------------------
# bisect_edges


def worst_case_queries(k):
    """The bound in bisect_edges's docstring for S samples on k free
    coordinates."""
    return S * (2 + min(bisect_round_cap(k), k - 1))


def test_bisect_worst_case_query_bound_pinned():
    assert BISECT_SAMPLES == 30
    assert [bisect_round_cap(k) for k in (1, 2, 8, 17, 4096)] == [
        16, 18, 22, 26, 40]
    assert [worst_case_queries(k) for k in (1, 8, 64, 4096)] == [
        60, 270, 900, 1260]


@pytest.mark.parametrize("weights", [
    pytest.param([3.0, 1.0, 2.0, 1.0, 5.0, 1.0, 1.0, 2.0, 1.0, 4.0, 1.0],
                 id="monotone"),
    pytest.param([3.0, 1.0, 2.0, 1.0, -2.0, 1.0, 1.0, 2.0, 1.0, 4.0, 1.0],
                 id="single-negative"),
])
def test_bisect_edges_contract(weights):
    # on n = 11: every edge a sample ends on is bichromatic under eval_ltf,
    # and its orientation is the sign of its weight (anti-monotone exactly
    # in the negative direction, never on the monotone instance); the
    # queries are the 2S endpoint queries plus the queried rounds, each
    # sample within the pinned cap; equal seeds give equal edges
    spec = LTFSpec(np.array(weights), 1.5)
    n = spec.n
    negative = spec.weights < 0
    edges = certificates = 0
    for t in range(40):
        f = OracleHandle.for_spec(spec)
        out = bisect_edges(f, S, rng_at(t, "contract"))
        assert f.query_count == 2 * S + out.queried.sum()
        assert out.queried.max() <= min(bisect_round_cap(n), n - 1)
        for j in ended(out):
            lo_value, hi_value = edge_values(spec, out, j)
            assert lo_value != hi_value
            assert (hi_value == -1) == negative[out.coords[j]]
            edges += 1
        if out.certificate is not None:
            certificates += 1
            assert negative[out.certificate.coordinate]
            assert certificate_holds(spec, out.certificate)
        again = bisect_edges(OracleHandle.for_spec(spec), S,
                             rng_at(t, "contract"))
        assert np.array_equal(again.coords, out.coords)
        assert np.array_equal(again.lo, out.lo)
        assert repr(again.certificate) == repr(out.certificate)
    assert edges >= 40
    assert (certificates > 0) == negative.any()


# ---------------------------------------------------------------------------
# Phase 1's influence search: tester.high_variables on bisect_edges


def test_influence_search_lone_dictator():
    spec = LTFSpec(np.array([1.0] + [0.0] * 7), 0.0)
    f = OracleHandle.for_spec(spec)
    assert list(high_variables(f, rng_at(1, "dict"))) == [0]


def test_influence_search_planted_gap_n17():
    spec = planted_heavy(17)
    degree1 = exact_degree1(spec)
    assert abs(degree1[0]) >= 0.3
    assert np.max(np.abs(degree1[1:])) < 0.15
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        high = high_variables(f, rng_at(3, "plant17", t))
        assert 0 in high


def test_influence_search_respects_restriction():
    # under rho fixing the heavy coordinate, it is never returned
    spec = planted_heavy(17)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(17, {0: 1})
    for t in range(10):
        high = high_variables(restrict(f, rho), rng_at(4, "fixed", t))
        assert 0 not in high


def test_influence_search_returns_sorted_ambient_labels():
    # an OR of coordinates 3 and 12 (|fhat| = 1/2 each) under a view that
    # fixes two irrelevant coordinates, so positions and labels differ
    w = np.zeros(16)
    w[[3, 12]] = 1.0
    f = OracleHandle.for_spec(LTFSpec(w, -1.0))
    view = restrict(f, Restriction.fixing(16, {0: 1, 5: -1}))
    assert list(high_variables(view, rng_at(17, "pair"))) == [3, 12]


def test_influence_search_cap_trips_on_broken_estimator(monkeypatch):
    # split bytes that are all ones never split d, so no round queries and
    # every sample stops at the round cap, ending on no edge: one draw of
    # the points, then one draw of split bytes per round
    draws = []
    real = bits.random_packed

    def all_ones_after_first(gen, m, n):
        draws.append(m)
        out = real(gen, m, n)
        if len(draws) > 1:
            out[:] = 0xFF
            out[:, -1] &= bits.tail_mask(n)
        return out

    monkeypatch.setattr(bits, "random_packed", all_ones_after_first)
    n = 64
    f = OracleHandle.for_spec(LTFSpec(np.ones(n), 0.5))
    out = subroutines.bisect_edges(f, S, rng_at(5, "trip"))
    assert (out.coords == -1).all() and out.certificate is None
    assert (out.queried == 0).all()
    open_samples = draws[1]
    assert draws[1:] == [open_samples] * bisect_round_cap(n)
    assert f.query_count == 2 * S


@pytest.mark.parametrize("n,pos,queries", [
    pytest.param(17, 0, 193, id="17"),
    pytest.param(64, 0, 248, id="64"),
    pytest.param(4096, 0, 429, id="4096"),
    pytest.param(17, 16, 189, id="17-last"),
    pytest.param(20, 19, 204, id="20-last"),
])
def test_influence_search_scores_blocks_from_one_batch(n, pos, queries):
    # every sample on a dictator starts bichromatic and ends on it; the
    # endpoints of all samples go in one batch, then each round's blocks
    # d & r in one batch over the samples still open
    spec = LTFSpec(np.eye(1, n, pos)[0], 0.0)
    inner = OracleHandle.for_spec(spec)
    batches = []

    def target(packed):
        batches.append(packed.shape[0])
        return inner.query_packed(packed)

    f = OracleHandle(target, n)
    out = bisect_edges(f, S, rng_at(16, "batch", n))
    assert (out.coords == pos).all()
    assert batches[0] == 2 * S and max(batches[1:]) <= S
    assert len(batches) <= 1 + bisect_round_cap(n)
    assert sum(batches) == f.query_count == queries


def test_influence_search_empty_domain():
    f = OracleHandle.for_spec(LTFSpec(np.ones(4), 0.5))
    rho = Restriction(np.ones(4, dtype=np.int8))
    out = bisect_edges(restrict(f, rho), S, rng_at(6, "empty"))
    assert (out.coords == -1).all() and f.query_count == 0
    assert high_variables(restrict(f, rho), rng_at(6, "empty")).size == 0
    assert f.query_count == 0


# ---------------------------------------------------------------------------
# weight signs: the orientation of the edges bisect_edges ends on


def test_weight_sign_negated_dictator():
    f = OracleHandle.for_spec(LTFSpec(np.array([-1.0]), 0.0))
    out = bisect_edges(f, S, rng_at(7, "negdict"))
    assert out.certificate.coordinate == 0
    assert verify_certificate(f, out.certificate)


def test_weight_sign_positive_rate():
    spec = LTFSpec(np.array([1.0, 0.1]), 0.0)
    for t in range(100):
        f = OracleHandle.for_spec(spec)
        out = bisect_edges(f, S, rng_at(t, "pos"))
        assert out.certificate is None  # sign errors never happen
        assert (out.coords == 0).all()


def test_weight_sign_zero_influence_always_fails():
    spec = LTFSpec(np.array([1.0, 0.0]), 0.0)
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        out = bisect_edges(f, S, rng_at(t, "zero"))
        assert 1 not in out.coords


def test_weight_sign_consistency_across_seeds():
    spec = LTFSpec(np.array([3.0, -2.0, 1.0, 1.0, -1.0]), 0.5)
    seen = {i: set() for i in range(5)}
    for t in range(30):
        f = OracleHandle.for_spec(spec)
        out = bisect_edges(f, S, rng_at(t, "consist"))
        for j in ended(out):
            seen[int(out.coords[j])].add(edge_values(spec, out, j))
    for i, orientations in seen.items():
        assert len(orientations) <= 1  # unate: orientations never mix
    assert seen[0] == {(-1, 1)} and seen[1] == {(1, -1)}


def test_weight_sign_respects_restriction_and_counts_queries():
    spec = LTFSpec(np.array([2.0, -5.0, 1.0]), 0.5)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(3, {0: -1})
    out = bisect_edges(restrict(f, rho), S, rng_at(9, "restr"))
    assert out.certificate.coordinate == 1
    assert f.query_count == 2 * S + out.queried.sum()
    base = out.certificate.base_point
    assert base[0] == -1  # consistent with rho
    assert verify_certificate(f, out.certificate)


# ---------------------------------------------------------------------------
# edge tester


def test_edge_tester_one_sided_on_monotone():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        w = np.round(np.abs(rng.standard_normal(n)) * 8) + 1.0
        f = OracleHandle.for_spec(LTFSpec(w, float(rng.integers(-8, 8)) + 0.5))
        v = edge_tester(f, 0.2, 0.1, rng_at(trial, "mono-edge"))
        assert v.is_monotone and v.diagnostic == "edge:pass"


def test_edge_tester_negated_dictator_detection_rate():
    spec = LTFSpec(np.array([-1.0]), 0.0)
    hits = 0
    for t in range(100):
        f = OracleHandle.for_spec(spec)
        v = edge_tester(f, 0.2, 0.1, rng_at(t, "neg-edge"))
        if not v.is_monotone:
            assert verify_certificate(f, v.certificate)
            hits += 1
    assert hits >= 90


def test_edge_tester_on_restricted_view():
    # pinning x0=+1 in sign(4 x0 + x1 - x2 - 4) leaves sign(x1 - x2), which
    # has anti-monotone edges in direction 2
    spec = LTFSpec(np.array([4.0, 1.0, -1.0]), 4.0)
    root = OracleHandle.for_spec(spec)
    from monotest.oracle import restrict
    view = restrict(root, Restriction.fixing(3, {0: 1}))
    v = edge_tester(view, 0.3, 0.05, rng_at(13, "view-edge"))
    assert not v.is_monotone
    assert v.certificate.coordinate == 2
    assert v.certificate.base_point[0] == 1
    assert verify_certificate(root, v.certificate)


@pytest.mark.parametrize("eps", [0.02, 0.005])
def test_edge_tester_rejection_costs_one_first_batch(eps):
    # every edge of sign(-x_0) on one variable is violated, so the first
    # batch of EDGE_FIRST_BATCH edges holds the witness and the budget
    # (116 or 461 edges) is never reached
    for t in range(5):
        f = OracleHandle.for_spec(LTFSpec(np.array([-1.0]), 0.0))
        v = edge_tester(f, eps, 0.1, rng_at(t, "first-batch"))
        assert v.diagnostic == "edge:anti-monotone-edge"
        assert f.query_count == 2 * subroutines.EDGE_FIRST_BATCH == 128
        assert verify_certificate(f, v.certificate)


def test_edge_tester_rejects_at_a_doubling_batch_end():
    # on 16 variables only direction-0 edges of sign(-x_0) are violated, so
    # some runs pass a batch without a witness; each stops where a batch of
    # 64, 128, 256, ... edges ends
    first = subroutines.EDGE_FIRST_BATCH
    ends = {2 * first * (2 ** b - 1) for b in range(1, 6)}
    spec = LTFSpec(np.array([-1.0] + [0.0] * 15), 0.0)
    counts = set()
    for t in range(40):
        f = OracleHandle.for_spec(spec)
        v = edge_tester(f, 0.02, 0.1, rng_at(t, "doubling"))
        assert v.diagnostic == "edge:anti-monotone-edge"
        counts.add(f.query_count)
    assert counts <= ends and len(counts) > 1


def edge_budget(m, eps, delta):
    """Edges the edge tester samples on m free variables."""
    return math.ceil(m * math.log(1.0 / delta) / eps)


@pytest.mark.parametrize("m, eps, delta", [
    (16, 0.1, 0.1), (64, 0.05, 0.1), (33, 0.25, 0.05), (300, 0.02, 0.1)])
def test_edge_tester_monotone_pass_charges_its_budget(m, eps, delta):
    f = OracleHandle.for_spec(LTFSpec(np.ones(m), 0.5))
    v = edge_tester(f, eps, delta, rng_at(m, "budget"))
    assert v.is_monotone and v.diagnostic == "edge:pass"
    assert f.query_count == 2 * edge_budget(m, eps, delta)


# eps -> queries on f itself and on the view with coordinate 0 fixed
MAIN_EDGE_QUERIES = {0.1: (1474, 2856), 0.02: (7370, 7140)}


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_main_procedure_sizes_the_edge_test_from_eps_or_the_margin(eps):
    # the edge test gets the run's eps on f itself and min(eps, EDGE_EPS/4)
    # on a view with a fixed coordinate, so never fewer edges than the
    # eps/m bound asks
    n = 32
    spec = LTFSpec(np.ones(n), 0.5)
    cases = ((Restriction.all_stars(n), n, eps),
             (Restriction.fixing(n, {0: 1}), n - 1, min(eps, EDGE_EPS / 4)))
    pins = MAIN_EDGE_QUERIES[eps]
    for (rho, m, edge_eps), pinned in zip(cases, pins):
        f = OracleHandle.for_spec(spec)
        v = main_procedure(f, rho, eps, rng_at(17, "main-edge"))
        assert v.diagnostic == "edge:pass"
        assert f.query_count == pinned == \
            2 * edge_budget(m, edge_eps, EDGE_DELTA)
