import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from monotest.generators import _certify, grid_spec
from monotest.oracle import LTFSpec, truth_table
from monotest.rng import generator_for
from monotest.truth import (
    DP_MAX_SUM,
    WeightProfile,
    degree1_dp,
    check_restriction_preserves_distance,
    dist_ltf_to_monotone_dp,
    dist_ltf_to_monotone_exact,
    dist_ltf_to_monotone_mc,
    dist_to_monotone_matching,
    dp_radius,
    drop_negative_weights,
    exact_degree1,
    exact_mean,
    ltf_mean_dp,
    min_boundary_gap,
    subset_sum_pmf,
)


def spec_of(w, theta=0.0):
    return LTFSpec(np.asarray(w, dtype=np.float64), theta)


def random_grid_spec(rng, n, scale=8):
    """Integer-grid weights with a half-integer threshold: no boundary points."""
    w = np.round(rng.standard_normal(n) * scale)
    w[w == 0] = 1.0
    theta = float(rng.integers(-2 * scale, 2 * scale)) + 0.5
    return LTFSpec(w, theta)


# ---------------------------------------------------------------------------
# drop_negative_weights


def test_drop_negative_basic():
    g = drop_negative_weights(spec_of([1.0, -1.0]))
    assert np.array_equal(g.weights, [1.0, 0.0]) and g.theta == 0.0
    g2 = drop_negative_weights(spec_of([2.0, 3.0], 1.0))
    assert np.array_equal(g2.weights, [2.0, 3.0])


def test_drop_all_negative_gives_constant():
    g = drop_negative_weights(spec_of([-1.0, -2.0]))
    assert np.all(truth_table(g) == 1)  # sign(0 - 0) = +1 on every point


# ---------------------------------------------------------------------------
# matching oracle


def test_matching_monotone_is_zero():
    assert dist_to_monotone_matching(truth_table(spec_of([1, 2, 1]))).value == 0.0


def test_matching_negated_dictator_half():
    rep = dist_to_monotone_matching(truth_table(spec_of([-1.0])))
    assert (rep.numerator, rep.denominator) == (1, 2)


def brute_force_dist_to_monotone(table):
    """Minimum disagreement with any monotone function, by enumeration."""
    n = table.size.bit_length() - 1
    size = 1 << n
    best = size
    comparable = [(x, y) for y in range(size) for x in range(size)
                  if x != y and (x & y) == x]
    for cand in range(1 << size):
        g = np.array([1 if (cand >> i) & 1 else -1 for i in range(size)])
        if any(g[x] > g[y] for x, y in comparable):
            continue
        best = min(best, int(np.count_nonzero(g != table)))
    return best


def test_matching_equals_brute_force_n3():
    # negated-coordinate majority of 3, checked against enumeration of all
    # monotone functions on 3 variables
    spec = spec_of([-1.0, 1.0, 1.0])
    table = truth_table(spec)
    assert dist_to_monotone_matching(table).numerator == \
        brute_force_dist_to_monotone(table)


def test_matching_equals_brute_force_random_tables():
    rng = generator_for(99, "bf")
    for _ in range(8):
        table = (rng.integers(0, 2, size=8).astype(np.int8) * 2 - 1)
        assert dist_to_monotone_matching(table).numerator == \
            brute_force_dist_to_monotone(table)


# ---------------------------------------------------------------------------
# exact weight-based oracle and the cross-oracle identity


def test_exact_monotone_zero():
    assert dist_ltf_to_monotone_exact(spec_of([1, 1, 1])).value == 0.0


def test_exact_equals_matching_small():
    spec = spec_of([1.0, 1.0, -1.0])
    a = dist_ltf_to_monotone_exact(spec)
    b = dist_to_monotone_matching(truth_table(spec))
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator)


def test_cross_oracle_sweep_random():
    rng = generator_for(7, "sweep")
    for _ in range(60):
        n = int(rng.integers(2, 11))
        spec = random_grid_spec(rng, n)
        a = dist_ltf_to_monotone_exact(spec)
        b = dist_to_monotone_matching(truth_table(spec))
        assert a.numerator == b.numerator != None  # noqa: E711
        assert a.value <= 0.5


def test_distance_never_exceeds_half():
    rng = generator_for(8, "half")
    for _ in range(40):
        n = int(rng.integers(1, 12))
        spec = random_grid_spec(rng, n)
        assert dist_ltf_to_monotone_exact(spec).value <= 0.5


# ---------------------------------------------------------------------------
# Monte-Carlo distance


def test_mc_distance_close_to_exact():
    spec = spec_of([1.0, 1.0, -1.0])
    exact = dist_ltf_to_monotone_exact(spec).value
    rng = generator_for(21, "mc")
    rep = dist_ltf_to_monotone_mc(spec, 100_000, 0.01, rng)
    assert abs(rep.value - exact) <= rep.radius


def test_mc_distance_monotone_near_zero():
    rng = generator_for(22, "mc0")
    rep = dist_ltf_to_monotone_mc(spec_of([1, 2, 3, 4]), 50_000, 0.05, rng)
    assert rep.value <= rep.radius


def test_mc_distance_within_radius_frequency():
    # nominal confidence 1-delta; the empirical miss rate over seeded runs
    # must stay within twice the nominal failure budget
    spec = spec_of([3.0, 1.0, -2.0, 1.0, -1.0, 2.0], 0.5)
    exact = dist_ltf_to_monotone_exact(spec).value
    delta, runs = 0.2, 50
    misses = 0
    for s in range(runs):
        rep = dist_ltf_to_monotone_mc(spec, 2_000, delta,
                                      generator_for(s, "mc-freq"))
        misses += abs(rep.value - exact) > rep.radius
    assert misses <= 2 * delta * runs


def test_mc_distance_seed_stability():
    spec = spec_of(np.concatenate([np.ones(100), [-50.0]]), 0.5)
    vals = []
    for s in range(5):
        rep = dist_ltf_to_monotone_mc(spec, 50_000, 0.05, generator_for(s, "mcs"))
        vals.append(rep.value)
    radius = math.sqrt(math.log(2 / 0.05) / (2 * 50_000))
    assert max(vals) - min(vals) <= 4 * radius


# ---------------------------------------------------------------------------
# subset-sum DP distance and mean


def test_subset_sum_pmf_counts_subsets():
    # subsets of {0, 1, 2, 2}: sums 0, 1, 2, 3, 4, 5 in 2, 2, 4, 4, 2, 2 ways
    p = subset_sum_pmf(np.array([2.0, 0.0, 1.0, 2.0]))
    assert np.array_equal(p * 16, [2, 2, 4, 4, 2, 2])


def _dp_specs():
    """48 grid specs, n = 1 .. 20: zero weights on every third, and an
    integer theta on every other, where boundary points can occur."""
    gen = generator_for(23, "dp-grid")
    for t in range(48):
        n = 1 + t % 20
        spec = grid_spec(gen, n)
        w = spec.weights.copy()
        if t % 3 == 0:
            w[gen.choice(n, size=max(1, n // 4), replace=False)] = 0.0
        theta = spec.theta - 0.5 if t % 2 else spec.theta
        yield LTFSpec(w, theta)


def test_dp_equals_exact_oracles_on_grid_specs():
    zeros = ties = 0
    for spec in _dp_specs():
        exact = dist_ltf_to_monotone_exact(spec)
        dp = dist_ltf_to_monotone_dp(spec)
        # below n = 54 no DP step rounds: equal as rationals over 2^n
        assert dp.method == "drop-negative-dp"
        assert dp.value == exact.value
        assert dp.value * 2 ** spec.n == exact.numerator
        assert dp.radius == dp_radius(spec.n, int(np.abs(spec.weights).sum()))
        assert ltf_mean_dp(spec) == exact_mean(spec)
        zeros += bool(np.any(spec.weights == 0))
        ties += min_boundary_gap(spec) == 0.0
    assert zeros >= 10 and ties >= 5


def test_dp_counts_boundary_ties_as_plus():
    # w.x = x1 + x2 - x3 equals theta = 1 at masks 0b001, 0b010 and 0b111;
    # sign(0) = +1 puts them on the +1 side, so f = +1 on masks 1, 2, 3, 7
    # and the distance is 2/8.  Counted on the -1 side (theta = 1.5), f is
    # +1 on mask 3 alone and the distance is 1/8.
    spec = spec_of([1.0, 1.0, -1.0], 1.0)
    table = truth_table(spec)
    assert np.array_equal(np.flatnonzero(table > 0), [1, 2, 3, 7])
    assert dist_ltf_to_monotone_dp(spec).value * 8 == 2
    assert dist_to_monotone_matching(table).numerator == 2
    assert ltf_mean_dp(spec) == exact_mean(spec) == 0.0
    strict = spec_of([1.0, 1.0, -1.0], 1.5)
    assert dist_ltf_to_monotone_dp(strict).value * 8 == 1
    assert ltf_mean_dp(strict) == -0.75


def test_degree1_dp_equals_enumeration_on_grid_specs():
    # below n = 54 the leave-one-out DP means are exact, so the DP branch
    # equals enumeration as floats, zero weights and repeated values
    # included; above n = 21 exact_degree1 takes the DP branch
    gen = generator_for(26, "degree1-dp")
    for n in (2, 3, 7, 12, 16, 21):
        for _ in range(3):
            spec = grid_spec(gen, n)
            w = spec.weights.copy()
            w[gen.choice(n, size=n // 3, replace=False)] = 0.0
            for s in (spec, LTFSpec(w, spec.theta - 0.5)):
                assert np.array_equal(degree1_dp(s), exact_degree1(s))
    big = LTFSpec(np.r_[[-8.0, 3.0], np.ones(30)], 0.5)
    assert np.array_equal(exact_degree1(big), degree1_dp(big))
    assert exact_degree1(big)[0] < 0 < exact_degree1(big)[1]


@pytest.mark.parametrize("n", [1024, 4096])
def test_dp_within_mc_radius_at_large_n(n):
    gen = generator_for(24, "dp-mc", n)
    w = np.round(np.abs(gen.standard_normal(n)) * 16) + 1
    w[gen.permutation(n)[: n // 4]] *= -1.0
    spec = LTFSpec(w, 0.5)
    dp = dist_ltf_to_monotone_dp(spec)
    mc = dist_ltf_to_monotone_mc(spec, 20_000, 0.01, generator_for(25, n))
    assert 0.05 < dp.value < 0.45 and dp.radius < 1e-10
    assert abs(dp.value - mc.value) <= mc.radius + dp.radius


def test_certify_is_exact_or_raises():
    # above n = 20 the DP is the only certifier: integer weights take it,
    # and float weights or sum |w_i| above DP_MAX_SUM raise, naming the bound
    w = np.r_[-np.ones(4), np.ones(20)]
    assert _certify(LTFSpec(w, 0.5)).method == "drop-negative-dp"
    with pytest.raises(ValueError, match="DP_MAX_SUM"):
        _certify(LTFSpec(w + 0.25, 0.5))
    big = w * (DP_MAX_SUM // 20)
    assert np.abs(big).sum() > DP_MAX_SUM
    with pytest.raises(ValueError, match="DP_MAX_SUM"):
        _certify(LTFSpec(big, 0.5))


# ---------------------------------------------------------------------------
# weight profile and mean


def test_weight_profile_fields():
    p = WeightProfile.from_weights(np.array([-1.0, 1.0, 1.0, 1.0]))
    assert p.pos == 3.0 and p.neg == 1.0
    assert p.neg_fraction == 0.25
    assert p.regularity == pytest.approx(0.5)


def test_profile_zero_weights_count_positive():
    p = WeightProfile.from_weights(np.array([0.0, -2.0]))
    assert p.pos == 0.0 and p.neg == 4.0 and p.neg_fraction == 1.0


def test_exact_mean_matches_table():
    rng = generator_for(17, "mean")
    for _ in range(20):
        n = int(rng.integers(1, 10))
        spec = random_grid_spec(rng, n)
        assert exact_mean(spec) == pytest.approx(truth_table(spec).mean())


def test_min_boundary_gap_half_integer_theta():
    rng = generator_for(18, "gap")
    for _ in range(10):
        spec = random_grid_spec(rng, 8)
        assert min_boundary_gap(spec) >= 0.5


def _exact_gap(spec):
    w = [Fraction(wi) for wi in spec.weights]
    return float(min(abs(sum(wi * x for wi, x in zip(w, xs))
                         - Fraction(spec.theta))
                     for xs in product((-1, 1), repeat=spec.n)))


def test_exact_helpers_on_float_cancellation():
    # w_1 + w_2 cancel exactly, but plain float subset sums add the unit
    # weights to 1e16 first and lose them
    spec = spec_of([-1.0, 1e16, -1e16, 1.0], -0.5)
    assert exact_mean(spec) == 0.25 == truth_table(spec).mean()
    dist = dist_ltf_to_monotone_exact(spec)
    assert dist.value == 0.25
    assert dist.numerator == dist_to_monotone_matching(
        truth_table(spec)).numerator
    # a boundary point: x = (+, s, s, +) gives w.x = theta = 2 exactly
    tie = spec_of([1.0, 1e16, -1e16, 1.0], 2.0)
    assert min_boundary_gap(tie) == 0.0
    assert min_boundary_gap(spec) == _exact_gap(spec) == 0.5


def test_exact_helpers_match_exact_table_on_rounding_weights():
    rng = generator_for(19, "float-truth")
    for _ in range(30):
        n = int(rng.integers(3, 9))
        w = rng.integers(-1024, 1025, size=n) / 1024.0
        w[rng.choice(n, size=2, replace=False)] *= 2.0 ** 45
        # theta = w.x0 at a random point: an exact tie when representable
        x0 = rng.integers(0, 2, size=n) * 2 - 1
        theta = float(sum(Fraction(wi) * int(xi) for wi, xi in zip(w, x0)))
        spec = LTFSpec(w, theta)
        table = truth_table(spec)
        assert exact_mean(spec) == table.mean()
        assert (dist_ltf_to_monotone_exact(spec).numerator
                == dist_to_monotone_matching(table).numerator)
        # near-threshold gaps are correctly rounded, the rest float sums
        gap, exact = min_boundary_gap(spec), _exact_gap(spec)
        assert (gap == 0.0) == (exact == 0.0)
        assert gap == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# structural checks


def test_restriction_average_single_var():
    chk = check_restriction_preserves_distance(spec_of([1, 1, -1]), [0])
    assert chk.status == "pass"


def test_restriction_average_empty_set():
    chk = check_restriction_preserves_distance(spec_of([1, -2, 3], 0.5), [])
    assert chk.status == "pass"


def test_restriction_average_random_sweep():
    rng = generator_for(31, "restrict-avg")
    for _ in range(30):
        n = int(rng.integers(2, 10))
        spec = random_grid_spec(rng, n)
        nonneg = np.flatnonzero(spec.weights >= 0)
        if nonneg.size == 0:
            continue
        take = min(nonneg.size, int(rng.integers(1, 5)))
        s_vars = rng.choice(nonneg, size=take, replace=False)
        assert check_restriction_preserves_distance(spec, s_vars).status == "pass"


def test_restriction_rejects_negative_vars():
    with pytest.raises(ValueError):
        check_restriction_preserves_distance(spec_of([-1, 1]), [0])

