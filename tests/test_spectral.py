import math
from itertools import combinations

import numpy as np
import pytest

from monotest import bits
from monotest.generators import grid_spec
from monotest.oracle import (
    LTFEvaluator,
    LTFSpec,
    OracleHandle,
    Restriction,
    restrict,
    truth_table,
)
from monotest.rng import generator_for
from monotest.spectral import (
    InfeasibleBudgetError,
    NOT_REGULAR,
    REGULAR,
    check_fourier_regular,
    degree1_square_terms,
    estimate_mean,
    estimate_sum_of_squares,
    squares_sample_count,
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


def test_degree1_slice_large_n_matches_formula():
    # majority on 17 variables goes through the chunked slice path
    sp = exact_spectrum(majority_spec(17))
    assert sp.full is None
    assert np.allclose(sp.degree1, majority_degree1(17), atol=1e-12)
    assert sp.mean == pytest.approx(0.0, abs=1e-12)


def test_degree1_slice_agrees_with_full_path():
    spec = LTFSpec(np.concatenate([[8.0], np.ones(15)]), 0.5)
    full = exact_spectrum(spec)
    import monotest.spectral as spectral_mod
    old = spectral_mod.SPECTRUM_FULL_MAX_N
    spectral_mod.SPECTRUM_FULL_MAX_N = 10  # force the slice path
    try:
        sliced = exact_spectrum(spec)
    finally:
        spectral_mod.SPECTRUM_FULL_MAX_N = old
    assert np.allclose(sliced.degree1, full.degree1, atol=1e-12)
    assert sliced.mean == pytest.approx(full.mean, abs=1e-12)


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


# ---------------------------------------------------------------------------
# estimate_sum_of_squares


def test_squares_dictator():
    spec = LTFSpec(np.array([1.0] + [0.0] * 7), 0.0)
    f = OracleHandle.for_spec(spec)
    est = estimate_sum_of_squares(f, [0], 0.1, 0.05, generator_for(5, "sq1"))
    assert abs(est.value - 1.0) <= 0.1
    est0 = estimate_sum_of_squares(f, range(1, 8), 0.1, 0.05,
                                   generator_for(5, "sq0"))
    assert abs(est0.value) <= 0.1


def test_squares_majority5_pair():
    f = OracleHandle.for_spec(majority_spec(5))
    truth = 2 * (6 / 16) ** 2  # 0.28125
    est = estimate_sum_of_squares(f, [0, 1], 0.1, 0.05, generator_for(6, "sq5"))
    assert abs(est.value - truth) <= 0.1


def test_squares_calibration_against_spectrum():
    rng = generator_for(7, "calib")
    for trial in range(10):
        n = int(rng.integers(4, 13))
        spec = grid_spec(rng, n)
        t_set = sorted(rng.choice(n, size=max(1, n // 2), replace=False))
        truth = exact_spectrum(spec).degree1_mass(t_set)
        f = OracleHandle.for_spec(spec)
        est = estimate_sum_of_squares(f, t_set, 0.1, 0.05,
                                      generator_for(trial, "calib-run"))
        assert abs(est.value - truth) <= 0.1


def test_squares_query_accounting_and_cap():
    f = OracleHandle.for_spec(majority_spec(9))
    before = f.query_count
    est = estimate_sum_of_squares(f, range(9), 0.15, 0.1,
                                  generator_for(8, "cap"))
    assert est.queries_used == f.query_count - before
    cap = math.ceil(16 * math.log(2 / 0.1) / 0.15 ** 4)
    assert est.queries_used <= cap


def test_squares_dummy_columns_are_irrelevant():
    f = OracleHandle.for_spec(majority_spec(5))
    est = estimate_sum_of_squares(f, [5, 6, 7], 0.1, 0.05,
                                  generator_for(9, "dummy"), n_dummy=3)
    assert abs(est.value) <= 0.1


def test_squares_on_restricted_view():
    # fixing the heavy coordinate leaves a majority over the rest
    spec = LTFSpec(np.array([10.0, 1.0, 1.0, 1.0]), 0.5)
    f = OracleHandle.for_spec(spec)
    view = restrict(f, Restriction.fixing(4, {0: -1}))
    truth = exact_spectrum(LTFSpec(np.ones(3), 10.5)).degree1_mass()
    est = estimate_sum_of_squares(view, [0, 1, 2], 0.1, 0.05,
                                  generator_for(10, "view"))
    assert abs(est.value - truth) <= 0.1


def test_squares_is_sum_of_per_coordinate_terms():
    # the terms come from one draw of the stream: ambient points, then the
    # dummy columns; checked against dense signed sums of that draw
    n, n_dummy, eta, delta = 11, 5, 0.2, 0.1
    spec = grid_spec(generator_for(16, "terms-spec"), n)
    f = OracleHandle.for_spec(spec)
    t_set = [0, 3, 4, 10, 12, 15]
    m = squares_sample_count(eta, delta, len(t_set))
    terms = degree1_square_terms(f, m, generator_for(16, "terms"), n_dummy)
    gen = generator_for(16, "terms")
    x = bits.random_packed(gen, m, n)
    d = bits.random_packed(gen, m, n_dummy)
    v = LTFEvaluator(spec)(x).astype(np.float64)
    s1 = np.concatenate([bits.unpack(x, n).T @ v,
                         bits.unpack(d, n_dummy).T @ v])
    assert np.array_equal(terms, (s1 * s1 - m) / (m * (m - 1.0)))
    est = estimate_sum_of_squares(f, t_set, eta, delta,
                                  generator_for(16, "terms"), n_dummy=n_dummy)
    assert est.queries_used == m
    assert est.value == float(terms[t_set].sum())


def test_infeasible_budget_raises():
    f = OracleHandle.for_spec(majority_spec(5))
    with pytest.raises(InfeasibleBudgetError):
        estimate_sum_of_squares(f, [0], 1e-6, 1e-6, generator_for(0, "x"))


# ---------------------------------------------------------------------------
# check_fourier_regular


def test_regularity_dictator_not_regular():
    spec = LTFSpec(np.array([1.0] + [0.0] * 7), 0.0)
    f = OracleHandle.for_spec(spec)
    out = check_fourier_regular(f, [0], 0.5, 0.05, generator_for(11, "reg1"))
    assert out.decision == NOT_REGULAR


def test_regularity_irrelevant_coordinates_regular():
    spec = LTFSpec(np.array([1.0] + [0.0] * 7), 0.0)
    f = OracleHandle.for_spec(spec)
    out = check_fourier_regular(f, range(1, 8), 0.5, 0.05,
                                generator_for(12, "reg0"))
    assert out.decision == REGULAR


def test_regularity_majority51():
    # every coefficient is ~0.112 <= tau^2/4 = 0.16, so "regular" is forced
    coef = majority_degree1(51)
    assert coef <= 0.8 ** 2 / 4
    f = OracleHandle.for_spec(majority_spec(51))
    out = check_fourier_regular(f, None, 0.8, 0.05, generator_for(13, "reg51"))
    assert out.decision == REGULAR
    assert f.query_count == out.queries_used


def test_regularity_trivial_threshold_short_circuits():
    f = OracleHandle.for_spec(majority_spec(5))
    out = check_fourier_regular(f, None, 1.5, 0.05, generator_for(14, "triv"))
    assert out.decision == REGULAR and out.queries_used == 0
    assert f.query_count == 0


def test_regularity_calibration_both_sides():
    rng = generator_for(15, "reg-calib")
    tau = 0.5
    for trial in range(10):
        n = int(rng.integers(5, 13))
        spec = grid_spec(rng, n)
        sp = exact_spectrum(spec)
        f = OracleHandle.for_spec(spec)
        out = check_fourier_regular(f, None, tau, 0.05,
                                    generator_for(trial, "reg-run"))
        top = sp.max_abs_degree1()
        if top >= tau:
            assert out.decision == NOT_REGULAR
        elif top <= tau * tau / 4:
            assert out.decision == REGULAR
        # in the gap either answer is allowed
