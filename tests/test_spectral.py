import math
from itertools import combinations

import numpy as np
import pytest

from monotest.generators import grid_spec
from monotest.oracle import LTFSpec, OracleHandle, truth_table
from monotest.rng import generator_for
from monotest.truth import exact_degree1, exact_mean
from monotest.spectral import (
    InfeasibleBudgetError,
    estimate_mean,
    _fwht,
    exact_influences,
    exact_spectrum,
)


def majority_spec(k):
    return LTFSpec(np.ones(k), 0.0)


def majority_degree1(k):
    # degree-1 coefficient of majority on k (odd) variables
    return math.comb(k - 1, (k - 1) // 2) / 2 ** (k - 1)


# ---------------------------------------------------------------------------
# exact spectrum


def brute_force_coefficient(table, n, s):
    total = 0.0
    for mask in range(1 << n):
        x = [1 if (mask >> i) & 1 else -1 for i in range(n)]
        chi = 1
        for i in s:
            chi *= x[i]
        total += table[mask] * chi
    return total / (1 << n)


def test_spectrum_matches_brute_force():
    rng = generator_for(1, "bf-spec")
    for _ in range(5):
        n = int(rng.integers(1, 6))
        spec = grid_spec(rng, n)
        table = truth_table(spec)
        sp = exact_spectrum(spec)
        for size in range(n + 1):
            for s in combinations(range(n), size):
                assert sp.coefficient(s) == pytest.approx(
                    brute_force_coefficient(table, n, s), abs=1e-12)


def test_fwht_matches_hadamard_matrix():
    rng = generator_for(2, "fwht")
    hadamard = np.ones((1, 1))
    for k in range(9):
        v = rng.integers(-3, 4, size=1 << k).astype(np.float64)
        assert np.array_equal(_fwht(v), hadamard @ v)
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])


def test_spectrum_dictator():
    sp = exact_spectrum(LTFSpec(np.array([1.0]), 0.0))
    assert sp.degree1[0] == pytest.approx(1.0)
    assert sp.mean == pytest.approx(0.0)


def test_spectrum_majority3():
    sp = exact_spectrum(majority_spec(3))
    assert np.allclose(sp.degree1, 0.5)
    # Parseval forces the top coefficient: 3*(1/4) + c^2 = 1, c = -1/2
    assert sp.coefficient((0, 1, 2)) == pytest.approx(-0.5)
    assert sp.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_parseval_random_ltfs():
    rng = generator_for(2, "parseval")
    for _ in range(20):
        n = int(rng.integers(1, 11))
        sp = exact_spectrum(grid_spec(rng, n))
        assert abs(sp.total_mass() - 1.0) <= 1e-9


def test_degree1_equals_influence():
    rng = generator_for(3, "inf")
    for _ in range(20):
        n = int(rng.integers(1, 13))
        spec = grid_spec(rng, n)
        sp = exact_spectrum(spec)
        inf = exact_influences(spec)
        assert np.allclose(np.abs(sp.degree1), inf, atol=1e-12)


def test_exact_spectrum_rejects_n_above_16():
    with pytest.raises(ValueError):
        exact_spectrum(majority_spec(17))


def test_degree1_slice_large_n_matches_formula():
    # majority on 17 variables: exact_spectrum stops at n=16, so the degree-1
    # reference is truth.exact_degree1 (the x_i = +1 and x_i = -1 slices)
    spec = majority_spec(17)
    assert np.allclose(exact_degree1(spec), majority_degree1(17), atol=1e-12)
    assert exact_mean(spec) == pytest.approx(0.0, abs=1e-12)


def test_degree1_slice_agrees_with_full_path():
    spec = LTFSpec(np.concatenate([[8.0], np.ones(15)]), 0.5)
    full = exact_spectrum(spec)
    assert np.allclose(exact_degree1(spec), full.degree1, atol=1e-12)
    assert exact_mean(spec) == pytest.approx(full.mean, abs=1e-12)


# ---------------------------------------------------------------------------
# estimate_mean


def test_mean_constant_function():
    f = OracleHandle.for_function(lambda pm: np.ones(pm.shape[0], dtype=np.int8), 6)
    est = estimate_mean(f, 0.3, 0.1, generator_for(4, "m1"))
    assert est.value == 1.0
    assert est.queries_used == f.query_count


def test_mean_dictator_hit_rate():
    spec = LTFSpec(np.array([1.0] + [0.0] * 5), 0.0)
    f = OracleHandle.for_spec(spec)
    hits = 0
    for t in range(200):
        est = estimate_mean(f, 0.1, 0.05, generator_for(t, "mean-dict"))
        hits += abs(est.value) <= 0.1
    assert hits >= 190  # nominal rate 1 - delta = 0.95


def test_mean_majority3():
    f = OracleHandle.for_spec(majority_spec(3))
    est = estimate_mean(f, 0.1, 0.05, generator_for(9, "maj3"))
    assert abs(est.value) <= 0.1


def test_mean_query_count_formula():
    f = OracleHandle.for_spec(majority_spec(3))
    before = f.query_count
    est = estimate_mean(f, 0.2, 0.1, generator_for(10, "qc"))
    assert est.queries_used == f.query_count - before
    assert est.queries_used == math.ceil(2 * math.log(2 / 0.1) / 0.2 ** 2)


# the bounded (sequential) mean check: (bound, eps, delta) settings
MEAN_DECISIONS = [(0.5, 0.1, 0.1), (0.3, 0.05, 0.05)]


def mean_cap(eps, delta):
    return math.ceil(2 * math.log(4 / delta) / eps ** 2)


def near_bound_specs(bound, eps):
    """Halfspaces on 12 variables whose exact means lie just inside
    bound - eps and just outside bound + eps, each with both signs:
    returns [(spec, exact mean, |mean| <= bound - eps)]."""
    w = np.arange(1.0, 13.0)
    means = {t + 0.5: exact_mean(LTFSpec(w, t + 0.5)) for t in range(-79, 79)}
    inside = max((m, t) for t, m in means.items() if 0 <= m <= bound - eps)
    outside = min((m, t) for t, m in means.items() if m > bound + eps)
    out = []
    for (m, t), is_inside in ((inside, True), (outside, False)):
        for sign in (1, -1):
            spec = LTFSpec(w, sign * t)
            assert exact_mean(spec) == sign * m
            out.append((spec, sign * m, is_inside))
    return out


@pytest.mark.parametrize("bound,eps,delta", MEAN_DECISIONS)
def test_mean_decision_wrong_side_rate(bound, eps, delta):
    streams = 200
    for idx, (spec, mean, inside) in enumerate(near_bound_specs(bound, eps)):
        assert bound - eps - 0.05 < abs(mean) < bound + eps + 0.05
        f = OracleHandle.for_spec(spec)
        wrong = 0
        for t in range(streams):
            before = f.query_count
            est = estimate_mean(f, eps, delta, generator_for(t, "md", idx),
                                bound=bound)
            assert est.queries_used == f.query_count - before
            assert est.queries_used <= mean_cap(eps, delta)
            wrong += (abs(est.value) <= bound) != inside
        assert wrong / streams <= delta, (mean, wrong)


def test_mean_decision_balanced_majority_stops_at_first_look():
    # the initialization-phase check at eps = 0.1: accuracy eps/6, bound
    # 1 - 7eps/6; a mean-zero input is proven inside after 64 samples
    f = OracleHandle.for_spec(majority_spec(15))
    for t in range(5):
        est = estimate_mean(f, 0.1 / 6, 5e-4, generator_for(t, "maj-look"),
                            bound=1 - 0.7 / 6)
        assert est.queries_used == 64
        assert abs(est.value) <= 1 - 0.7 / 6
    assert f.query_count == 5 * 64


@pytest.mark.parametrize("bound,eps,delta", MEAN_DECISIONS)
def test_mean_decision_early_stops_pick_the_proven_side(bound, eps, delta):
    cap = mean_cap(eps, delta)
    looks = [64 << j for j in range(20) if 64 << j < cap]
    log_term = 2 * math.log(4 * len(looks) / delta)
    rng = generator_for(5, "md-side")
    early = 0
    for idx in range(40):
        spec = LTFSpec(np.arange(1.0, 13.0), float(rng.integers(-40, 40)) + 0.5)
        f = OracleHandle.for_spec(spec)
        for t in range(10):
            est = estimate_mean(f, eps, delta, generator_for(t, "side", idx),
                                bound=bound)
            if est.queries_used == cap:
                continue
            early += 1
            assert est.queries_used in looks
            radius = math.sqrt(log_term / est.queries_used)
            assert est.target_accuracy == pytest.approx(radius, rel=1e-12)
            assert radius > eps
            proved_inside = abs(est.value) + radius <= bound + eps
            proved_outside = abs(est.value) - radius > bound - eps
            assert proved_inside != proved_outside
            assert (abs(est.value) <= bound) == proved_inside
    assert early >= 300


def test_mean_decision_at_the_cap_is_the_fixed_count_estimate():
    # mean 0.5 sits on the bound, so some streams never resolve early; those
    # return the mean of the first cap samples, which is the fixed-count
    # estimate at delta / 2 from the same stream
    bound, eps, delta = 0.5, 0.1, 0.1
    f = OracleHandle.for_spec(LTFSpec(np.ones(2), -0.5))
    capped = 0
    for t in range(40):
        est = estimate_mean(f, eps, delta, generator_for(t, "cap"),
                            bound=bound)
        if est.queries_used < mean_cap(eps, delta):
            continue
        capped += 1
        fixed = estimate_mean(f, eps, delta / 2, generator_for(t, "cap"))
        assert fixed.queries_used == est.queries_used
        assert (est.value, est.target_accuracy) == (fixed.value, eps)
    assert capped >= 5


def test_infeasible_budget_raises():
    # 2 ln(2/delta) / eps^2 is about 2.9e15 queries, above 2^40; raised
    # before a single query is charged
    f = OracleHandle.for_spec(majority_spec(3))
    with pytest.raises(InfeasibleBudgetError):
        estimate_mean(f, 1e-7, 1e-6, generator_for(11, "infeasible"))
    assert f.query_count == 0
