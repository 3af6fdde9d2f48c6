import math

import numpy as np
import pytest

from monotest import subroutines
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    restrict,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import EDGE_DELTA, EDGE_EPS
from monotest.spectral import squares_sample_count
from monotest.subroutines import (
    FAIL,
    NEGATIVE,
    POSITIVE,
    check_weight_positive,
    edge_tester,
    find_hi_influence_vars,
)
from monotest.tester import main_procedure
from monotest.truth import exact_degree1


def planted_heavy(n, heavy=8.0, sign=1.0):
    """One dominant coordinate, the rest unit weights."""
    w = np.ones(n)
    w[0] = sign * heavy
    return LTFSpec(w, 0.0)


def rng_at(seed, *path):
    return SplitRng(seed, path)


# ---------------------------------------------------------------------------
# find_hi_influence_vars


def test_influence_search_lone_dictator():
    spec = LTFSpec(np.array([1.0] + [0.0] * 7), 0.0)
    f = OracleHandle.for_spec(spec)
    out = find_hi_influence_vars(f, 0.5, 0.1, rng_at(1, "dict"))
    assert not out.failed
    assert list(out.variables) == [0]
    assert out.estimator_calls <= out.call_cap


def test_influence_search_majority51_empty():
    # every coefficient ~0.112 < tau/2 = 0.25
    f = OracleHandle.for_spec(LTFSpec(np.ones(51), 0.0))
    out = find_hi_influence_vars(f, 0.5, 0.1, rng_at(2, "maj51"))
    assert not out.failed and out.variables.size == 0


def test_influence_search_planted_gap_n17():
    spec = planted_heavy(17)
    degree1 = exact_degree1(spec)
    assert abs(degree1[0]) >= 0.3
    assert np.max(np.abs(degree1[1:])) < 0.15
    f = OracleHandle.for_spec(spec)
    out = find_hi_influence_vars(f, 0.3, 0.05, rng_at(3, "plant17"))
    assert list(out.variables) == [0]
    assert out.estimator_calls <= out.call_cap == math.ceil(
        8 * math.log2(17) / 0.3 ** 2)


def test_influence_search_respects_restriction():
    # under rho fixing the heavy coordinate, nothing clears the threshold
    spec = planted_heavy(17)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(17, {0: 1})
    out = find_hi_influence_vars(restrict(f, rho), 0.5, 0.05,
                                 rng_at(4, "fixed"))
    assert out.variables.size == 0


def test_influence_search_returns_sorted_ambient_labels():
    # an OR of coordinates 3 and 12 (|fhat| = 1/2 each) under a view that
    # fixes two irrelevant coordinates, so positions and labels differ
    w = np.zeros(16)
    w[[3, 12]] = 1.0
    f = OracleHandle.for_spec(LTFSpec(w, -1.0))
    view = restrict(f, Restriction.fixing(16, {0: 1, 5: -1}))
    out = find_hi_influence_vars(view, 0.5, 0.1, rng_at(17, "pair"))
    assert list(out.variables) == [3, 12]


def test_influence_search_cap_trips_on_broken_estimator(monkeypatch):
    # force every estimate high so no block is ever pruned
    def always_heavy(view, m, rng):
        return np.ones(view.domain_size)

    monkeypatch.setattr(subroutines, "degree1_square_terms", always_heavy)
    f = OracleHandle.for_spec(LTFSpec(np.ones(64), 0.5))
    # with nothing ever pruned the search needs 2*63 calls, above the cap
    out = find_hi_influence_vars(f, 0.7, 0.1, rng_at(5, "trip"))
    assert out.failed
    assert out.estimator_calls == out.call_cap  # completed calls only


@pytest.mark.parametrize("n,pos,calls", [
    # the left-hand path to coordinate 0 halves floor(log2 n) times
    pytest.param(17, 0, 8, id="17"),
    pytest.param(64, 0, 12, id="64"),
    pytest.param(4096, 0, 24, id="4096"),
    # the right-hand half gets the extra coordinate of an odd block, so the
    # path to coordinate n - 1 is the deepest: ceil(log2 n) halvings
    pytest.param(17, 16, 10, id="17-last"),
    pytest.param(20, 19, 10, id="20-last"),
])
def test_influence_search_scores_blocks_from_one_batch(n, pos, calls):
    # every block is scored from one batch sized for the widest block,
    # ceil(n/2) coordinates, whatever the number of blocks scored
    tau, delta, floor = 0.5, 0.1, 1e-2
    f = OracleHandle.for_spec(LTFSpec(np.eye(1, n, pos)[0], 0.0))
    out = find_hi_influence_vars(f, tau, delta, rng_at(16, "batch", n),
                                 min_call_delta=floor)
    call_delta = max(tau ** 2 * delta / (8 * math.log2(n)), floor)
    m = squares_sample_count(tau ** 2 / 10, call_delta, (n + 1) // 2)
    assert list(out.variables) == [pos]
    assert out.estimator_calls == calls
    assert out.queries_used == f.query_count == m


def test_influence_search_single_variable_returned_unconditionally():
    # a single free variable is never split, hence never estimated: the
    # procedure returns it as-is and the weight-sign check downstream is the
    # guard against it being uninfluential
    f = OracleHandle.for_spec(LTFSpec(np.array([1.0, 1.0]), 0.0))
    rho = Restriction.fixing(2, {1: 1})
    out = find_hi_influence_vars(restrict(f, rho), 0.5, 0.1,
                                 rng_at(15, "single"))
    assert list(out.variables) == [0]
    assert out.estimator_calls == 0


def test_influence_search_empty_domain():
    f = OracleHandle.for_spec(LTFSpec(np.ones(4), 0.5))
    rho = Restriction(np.ones(4, dtype=np.int8))
    out = find_hi_influence_vars(restrict(f, rho), 0.5, 0.1,
                                 rng_at(6, "empty"))
    assert not out.failed and out.variables.size == 0 and out.queries_used == 0


# ---------------------------------------------------------------------------
# check_weight_positive


def test_weight_sign_negated_dictator():
    f = OracleHandle.for_spec(LTFSpec(np.array([-1.0]), 0.0))
    out = check_weight_positive(f, 0, 0.5, 0.1, rng_at(7, "negdict"))
    assert out.decision == NEGATIVE
    assert verify_certificate(f, out.certificate)


def test_weight_sign_positive_rate():
    spec = LTFSpec(np.array([1.0, 0.1]), 0.0)
    hits = 0
    for t in range(100):
        f = OracleHandle.for_spec(spec)
        out = check_weight_positive(f, 0, 0.5, 0.05, rng_at(t, "pos"))
        hits += out.decision == POSITIVE
        assert out.decision != NEGATIVE  # sign errors never happen
    assert hits >= 95


def test_weight_sign_zero_influence_always_fails():
    spec = LTFSpec(np.array([1.0, 0.0]), 0.0)
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        out = check_weight_positive(f, 1, 0.5, 0.1, rng_at(t, "zero"))
        assert out.decision == FAIL


def test_weight_sign_consistency_across_seeds():
    spec = LTFSpec(np.array([3.0, -2.0, 1.0, 1.0, -1.0]), 0.5)
    seen = {i: set() for i in range(5)}
    for t in range(30):
        for i in range(5):
            f = OracleHandle.for_spec(spec)
            out = check_weight_positive(f, i, 0.3, 0.1,
                                        rng_at(t, "consist", i))
            if out.decision != FAIL:
                seen[i].add(out.decision)
    for i, decisions in seen.items():
        assert len(decisions) <= 1  # unate: orientations never mix


def test_weight_sign_respects_restriction_and_counts_queries():
    spec = LTFSpec(np.array([2.0, -5.0, 1.0]), 0.5)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(3, {0: -1})
    out = check_weight_positive(restrict(f, rho), 1, 0.4, 0.1,
                                rng_at(9, "restr"))
    assert out.decision == NEGATIVE
    assert f.query_count == out.queries_used
    base = out.certificate.base_point
    assert base[0] == -1  # consistent with rho
    assert verify_certificate(f, out.certificate)
    with pytest.raises(ValueError):
        check_weight_positive(restrict(f, rho), 0, 0.4, 0.1,
                              rng_at(9, "bad"))


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
