import math

import numpy as np
import pytest

from monotest import subroutines
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    Verdict,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import EDGE_DELTA, EDGE_EPS, build_schedule
from monotest.spectral import squares_sample_count
from monotest.subroutines import (
    FAIL,
    NEGATIVE,
    POSITIVE,
    check_weight_positive,
    edge_tester,
    find_balanced_restriction,
    find_hi_influence_vars,
)
from monotest.tester import (
    main_procedure,
    maintain_regular_and_balanced,
)
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
    out = find_hi_influence_vars(f, Restriction.all_stars(8), 0.5, 0.1,
                                 rng_at(1, "dict"))
    assert not out.failed
    assert list(out.variables) == [0]
    assert out.estimator_calls <= out.call_cap


def test_influence_search_majority51_empty():
    # every coefficient ~0.112 < tau/2 = 0.25
    f = OracleHandle.for_spec(LTFSpec(np.ones(51), 0.0))
    out = find_hi_influence_vars(f, Restriction.all_stars(51), 0.5, 0.1,
                                 rng_at(2, "maj51"))
    assert not out.failed and out.variables.size == 0


def test_influence_search_planted_gap_n17():
    spec = planted_heavy(17)
    degree1 = exact_degree1(spec)
    assert abs(degree1[0]) >= 0.3
    assert np.max(np.abs(degree1[1:])) < 0.15
    f = OracleHandle.for_spec(spec)
    out = find_hi_influence_vars(f, Restriction.all_stars(17), 0.3, 0.05,
                                 rng_at(3, "plant17"))
    assert list(out.variables) == [0]
    assert out.estimator_calls <= out.call_cap == math.ceil(
        8 * math.log2(17) / 0.3 ** 2)


def test_influence_search_respects_restriction():
    # under rho fixing the heavy coordinate, nothing clears the threshold
    spec = planted_heavy(17)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(17, {0: 1})
    out = find_hi_influence_vars(f, rho, 0.5, 0.05, rng_at(4, "fixed"))
    assert out.variables.size == 0


def test_influence_search_cap_trips_on_broken_estimator(monkeypatch):
    # force every estimate high so no block is ever pruned
    def always_heavy(view, m, rng, n_dummy=0):
        return np.ones(view.domain_size + n_dummy)

    monkeypatch.setattr(subroutines, "degree1_square_terms", always_heavy)
    f = OracleHandle.for_spec(LTFSpec(np.ones(64), 0.5))
    # with nothing ever pruned the search needs 2*63 calls, above the cap
    out = find_hi_influence_vars(f, Restriction.all_stars(64), 0.7, 0.1,
                                 rng_at(5, "trip"))
    assert out.failed
    assert out.estimator_calls == out.call_cap  # completed calls only


@pytest.mark.parametrize("n", [17, 64, 4096])
def test_influence_search_scores_blocks_from_one_batch(n):
    # every block is scored from one batch sized for the widest block,
    # width/2 coordinates, whatever the number of blocks scored
    tau, delta, floor = 0.5, 0.1, 1e-2
    f = OracleHandle.for_spec(LTFSpec(np.eye(1, n)[0], 0.0))
    out = find_hi_influence_vars(f, Restriction.all_stars(n), tau, delta,
                                 rng_at(16, "batch", n), min_call_delta=floor)
    width = 1 << (n - 1).bit_length()
    call_delta = max(tau ** 2 * delta / (8 * math.log2(n)), floor)
    m = squares_sample_count(tau ** 2 / 10, call_delta, width // 2)
    assert list(out.variables) == [0]
    assert out.estimator_calls == 2 * math.log2(width)
    assert out.queries_used == f.query_count == m


def test_influence_search_single_variable_returned_unconditionally():
    # a single free variable is never split, hence never estimated: the
    # procedure returns it as-is and the weight-sign check downstream is the
    # guard against it being uninfluential
    f = OracleHandle.for_spec(LTFSpec(np.array([1.0, 1.0]), 0.0))
    rho = Restriction.fixing(2, {1: 1})
    out = find_hi_influence_vars(f, rho, 0.5, 0.1, rng_at(15, "single"))
    assert list(out.variables) == [0]
    assert out.estimator_calls == 0


def test_influence_search_empty_domain():
    f = OracleHandle.for_spec(LTFSpec(np.ones(4), 0.5))
    rho = Restriction(np.ones(4, dtype=np.int8))
    out = find_hi_influence_vars(f, rho, 0.5, 0.1, rng_at(6, "empty"))
    assert not out.failed and out.variables.size == 0 and out.queries_used == 0


# ---------------------------------------------------------------------------
# check_weight_positive


def test_weight_sign_negated_dictator():
    f = OracleHandle.for_spec(LTFSpec(np.array([-1.0]), 0.0))
    out = check_weight_positive(f, Restriction.all_stars(1), 0, 0.5, 0.1,
                                rng_at(7, "negdict"))
    assert out.decision == NEGATIVE
    assert verify_certificate(f, out.certificate)


def test_weight_sign_positive_rate():
    spec = LTFSpec(np.array([1.0, 0.1]), 0.0)
    hits = 0
    for t in range(100):
        f = OracleHandle.for_spec(spec)
        out = check_weight_positive(f, Restriction.all_stars(2), 0, 0.5, 0.05,
                                    rng_at(t, "pos"))
        hits += out.decision == POSITIVE
        assert out.decision != NEGATIVE  # sign errors never happen
    assert hits >= 95


def test_weight_sign_zero_influence_always_fails():
    spec = LTFSpec(np.array([1.0, 0.0]), 0.0)
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        out = check_weight_positive(f, Restriction.all_stars(2), 1, 0.5, 0.1,
                                    rng_at(t, "zero"))
        assert out.decision == FAIL


def test_weight_sign_consistency_across_seeds():
    spec = LTFSpec(np.array([3.0, -2.0, 1.0, 1.0, -1.0]), 0.5)
    seen = {i: set() for i in range(5)}
    for t in range(30):
        for i in range(5):
            f = OracleHandle.for_spec(spec)
            out = check_weight_positive(f, Restriction.all_stars(5), i,
                                        0.3, 0.1, rng_at(t, "consist", i))
            if out.decision != FAIL:
                seen[i].add(out.decision)
    for i, decisions in seen.items():
        assert len(decisions) <= 1  # unate: orientations never mix


def test_weight_sign_respects_restriction_and_counts_queries():
    spec = LTFSpec(np.array([2.0, -5.0, 1.0]), 0.5)
    f = OracleHandle.for_spec(spec)
    rho = Restriction.fixing(3, {0: -1})
    out = check_weight_positive(f, rho, 1, 0.4, 0.1, rng_at(9, "restr"))
    assert out.decision == NEGATIVE
    assert f.query_count == out.queries_used
    base = out.certificate.base_point
    assert base[0] == -1  # consistent with rho
    assert verify_certificate(f, out.certificate)
    with pytest.raises(ValueError):
        check_weight_positive(f, rho, 0, 0.4, 0.1, rng_at(9, "bad"))


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


# ---------------------------------------------------------------------------
# find_balanced_restriction


def majority_shift_mean(k, threshold):
    """Exact E[sign(sum of k fair +-1 >= threshold)] by binomial counting."""
    count = sum(math.comb(k, j) for j in range(k + 1) if 2 * j - k >= threshold)
    return 2 * count / 2 ** k - 1


def test_balance_search_accepts_balanced_extension():
    # an odd number of surviving majority variables admits perfectly balanced
    # extensions (fixing an even number leaves a probability atom at the
    # threshold, so the size of a_vars matters here)
    n = 16
    spec = LTFSpec(np.ones(n), 0.0)
    sched = build_schedule(n, 0.25)
    rng = np.random.default_rng(17)
    accepted = 0
    good = 0
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        rho_t = Restriction.all_stars(n)
        a_vars = np.sort(rng.choice(n, size=7, replace=False))
        rho_p = find_balanced_restriction(f, rho_t, a_vars, 0.25, sched,
                                          rng_at(t, "fbr"))
        if rho_p is None:
            continue
        accepted += 1
        assert rho_p.extends(rho_t)
        assert np.array_equal(rho_p.support(), a_vars)
        shift = int(rho_p.assignment[a_vars].sum())
        if abs(majority_shift_mean(n - 7, -shift)) <= 0.04:
            good += 1
    assert accepted >= 15
    assert good >= 0.95 * accepted


def test_balance_search_majority64():
    # same structure at n=64 through the byte-table evaluation path
    spec = LTFSpec(np.ones(64), 0.0)
    sched = build_schedule(64, 0.25)
    f = OracleHandle.for_spec(spec)
    a_vars = np.arange(33)
    rho_p = find_balanced_restriction(f, Restriction.all_stars(64), a_vars,
                                      0.25, sched, rng_at(3, "fbr64"))
    assert rho_p is not None
    shift = int(rho_p.assignment[a_vars].sum())
    assert abs(majority_shift_mean(31, -shift)) <= 0.04


def test_balance_search_gives_up_on_constant():
    f = OracleHandle.for_function(
        lambda pm: np.ones(pm.shape[0], dtype=np.int8), 16)
    sched = build_schedule(16, 0.5)
    rho = find_balanced_restriction(f, Restriction.all_stars(16),
                                    np.arange(8), 0.5, sched,
                                    rng_at(23, "const"))
    assert rho is None


# ---------------------------------------------------------------------------
# maintain_regular_and_balanced (defined in tester; no tester path calls it)


def test_maintain_rejects_planted_negative():
    spec = planted_heavy(33, heavy=8.0, sign=-1.0)
    sched = build_schedule(33, 0.1)
    hits = 0
    for t in range(30):
        f = OracleHandle.for_spec(spec)
        out = maintain_regular_and_balanced(f, Restriction.all_stars(33),
                                            0.1, sched, rng_at(t, "mrb"))
        if isinstance(out, Verdict) and not out.is_monotone:
            assert verify_certificate(f, out.certificate)
            hits += 1
    assert hits >= 24  # contract asks >= 80%


def test_maintain_monotone_never_rejects_and_eta_support():
    spec = LTFSpec(np.ones(32), 0.5)
    sched = build_schedule(32, 0.1)
    for t in range(10):
        f = OracleHandle.for_spec(spec)
        out = maintain_regular_and_balanced(f, Restriction.all_stars(32),
                                            0.1, sched, rng_at(t, "mrb-mono"))
        if isinstance(out, Verdict):
            assert out.is_monotone
        else:
            assert isinstance(out, Restriction)
            # support is exactly the discovered high-influence set (possibly
            # empty), inside the free coordinates
            assert set(out.support()) <= set(range(32))


def test_maintain_heavy_positive_fixes_it():
    # the heavy positive coordinate must be discovered, certified positive,
    # and end up in the support of the returned extension
    spec = planted_heavy(33, heavy=8.0, sign=1.0)
    sched = build_schedule(33, 0.1)
    fixed = 0
    for t in range(10):
        f = OracleHandle.for_spec(spec)
        out = maintain_regular_and_balanced(f, Restriction.all_stars(33),
                                            0.1, sched, rng_at(t, "mrb-pos"))
        if isinstance(out, Restriction) and 0 in set(out.support()):
            fixed += 1
    assert fixed >= 8
