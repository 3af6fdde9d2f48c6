import math
import warnings

import numpy as np
import pytest

from monotest.generators import InstanceFamily, generate
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    Verdict,
    restrict,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import BISECT_SAMPLES, DELTA, build_schedule
from monotest.subroutines import bisect_edges, edge_tester
from monotest.tester import (
    high_variables,
    main_procedure,
    mono_test_ltf,
    regularize_and_balance,
    staged_test_ltf,
)


def rng_at(seed, *path):
    return SplitRng(seed, path)


def monotone_spec(rng, n):
    w = np.round(np.abs(rng.standard_normal(n)) * 16) + 1.0
    theta = float(rng.integers(-16, 16)) + 0.5
    return LTFSpec(w, theta)


def planted_negative(n, heavy=8.0):
    w = np.ones(n)
    w[0] = -heavy
    return LTFSpec(w, 0.0)


# ---------------------------------------------------------------------------
# regularize_and_balance


def test_rb_monotone_never_rejects():
    rng = np.random.default_rng(41)
    for t in range(25):
        n = int(rng.integers(4, 128))
        spec = monotone_spec(rng, n)
        f = OracleHandle.for_spec(spec)
        sched = build_schedule(n, 0.1)
        out = regularize_and_balance(f, 0.1, sched, rng_at(t, "rb-mono"))
        if isinstance(out, Verdict):
            assert out.is_monotone


def test_rb_detects_planted_negative():
    spec = planted_negative(33)
    sched = build_schedule(33, 0.1)
    hits = 0
    for t in range(30):
        f = OracleHandle.for_spec(spec)
        out = regularize_and_balance(f, 0.1, sched, rng_at(t, "rb-neg"))
        if isinstance(out, Verdict) and not out.is_monotone:
            assert out.diagnostic == "rb:negative-weight"
            assert verify_certificate(f, out.certificate)
            hits += 1
    assert hits >= 24  # contract asks >= 80%


def test_rb_returns_restriction_on_balanced_regular_input():
    spec = LTFSpec(np.ones(64), 0.5)
    sched = build_schedule(64, 0.1)
    f = OracleHandle.for_spec(spec)
    out = regularize_and_balance(f, 0.1, sched, rng_at(7, "rb-pass"))
    assert isinstance(out, Restriction)
    # no coefficient is high here (each is about 0.1), but 30 samples over
    # 64 coordinates end twice on a few: those are fixed, and nothing else
    high = high_variables(OracleHandle.for_spec(spec),
                          rng_at(7, "rb-pass").child("influence"))
    assert list(out.support()) == list(high)
    assert 0 < high.size <= 16


def test_rb_gives_up_on_constant():
    f = OracleHandle.for_function(
        lambda pm: np.ones(pm.shape[0], dtype=np.int8), 32)
    sched = build_schedule(32, 0.2)
    out = regularize_and_balance(f, 0.2, sched, rng_at(8, "rb-const"))
    assert isinstance(out, Verdict) and out.is_monotone
    assert out.diagnostic == "rb:round-exhaustion"


def test_rb_gives_up_after_one_round_without_high_variables():
    # mean 0.923 > 1 - 7eps/6: no variable is high, so the one round the
    # step runs re-tests f itself and gives up
    n, eps = 16, 0.1
    spec = LTFSpec(np.ones(n), -6.5)
    f = OracleHandle.for_spec(spec)
    verdict = staged_test_ltf(f, eps, build_schedule(n, eps), SplitRng(3))
    assert verdict.is_monotone
    assert verdict.diagnostic == "rb:round-exhaustion"
    assert f.query_count == 8265

    g = OracleHandle.for_spec(spec)
    stream = SplitRng(3).child("rb").child("influence")
    assert high_variables(g, stream).size == 0
    mean_cap = math.ceil(2 * math.log(4 / (DELTA / 2)) / (eps / 6) ** 2)
    assert f.query_count <= g.query_count + mean_cap


# ---------------------------------------------------------------------------
# main_procedure: the final edge test


def test_main_skips_to_edge_when_already_small():
    # no restriction fixes a coordinate: one edge call on f itself
    spec = LTFSpec(np.ones(32), 0.5)
    f = OracleHandle.for_spec(spec)
    verdict = main_procedure(f, Restriction.all_stars(32), 0.1,
                             rng_at(5, "skip"))
    assert verdict.is_monotone and verdict.diagnostic == "edge:pass"
    assert f.query_count == 2 * math.ceil(32 * math.log(10) / 0.1)


def test_main_detects_negated_function_via_edge_phase():
    spec = LTFSpec(np.array([-1.0] * 8), 0.5)  # anti-monotone everywhere
    f = OracleHandle.for_spec(spec)
    verdict = main_procedure(f, Restriction.all_stars(8), 0.2,
                             rng_at(6, "edge-neg"))
    assert not verdict.is_monotone
    assert verify_certificate(f, verdict.certificate)


# ---------------------------------------------------------------------------
# mono_test_ltf end to end


def test_full_tester_monotone_sweep():
    rng = np.random.default_rng(42)
    for t in range(20):
        n = int(rng.integers(4, 200))
        spec = monotone_spec(rng, n)
        f = OracleHandle.for_spec(spec)
        sched = build_schedule(n, 0.1)
        verdict = mono_test_ltf(f, 0.1, sched, rng_at(t, "full-mono"))
        assert verdict.is_monotone, (n, verdict.diagnostic)


def test_full_tester_detects_planted_negative():
    spec = planted_negative(65)
    sched = build_schedule(65, 0.1)
    hits = 0
    for t in range(20):
        f = OracleHandle.for_spec(spec)
        verdict = mono_test_ltf(f, 0.1, sched, rng_at(t, "full-neg"))
        if not verdict.is_monotone:
            assert verify_certificate(f, verdict.certificate)
            hits += 1
    assert hits >= 16


def phase1_queries(spec, sched, rng):
    """The queries staged_test_ltf spends in Phase 1 under rng: the same
    regularize_and_balance stream, run on a fresh handle."""
    g = OracleHandle.for_spec(spec)
    regularize_and_balance(g, sched.eps, sched, rng.child("rb"))
    return g.query_count


def test_full_tester_query_accounting():
    n, eps = 48, 0.1
    spec = LTFSpec(np.ones(n), 0.5)
    sched = build_schedule(n, eps)
    f = OracleHandle.for_spec(spec)
    staged_test_ltf(f, eps, sched, rng_at(9, "accounting"))
    rb = phase1_queries(spec, sched, rng_at(9, "accounting"))
    assert 0 < rb < f.query_count

    # the default path is the edge tester alone, on f itself
    f = OracleHandle.for_spec(spec)
    v = mono_test_ltf(f, eps, sched, rng_at(9, "accounting"))
    assert v.diagnostic == "edge:pass"
    assert f.query_count == 2 * math.ceil(n * math.log(10) / eps)


def test_full_tester_deterministic_given_seed():
    spec = planted_negative(40)
    sched = build_schedule(40, 0.1)
    runs = []
    for _ in range(2):
        f = OracleHandle.for_spec(spec)
        v = mono_test_ltf(f, 0.1, sched, rng_at(77, "det"))
        runs.append((v.outcome, v.diagnostic,
                     None if v.certificate is None else v.certificate.to_dict(),
                     f.query_count))
    assert runs[0] == runs[1]


def test_full_tester_runs_with_the_clamped_eps():
    # eps above 1/2 is clamped by the schedule, and the tester must run with
    # the clamped value: with eps=0.9 the mean bound 1 - 7 eps/6 is below 0,
    # so every round would give up, and eps=6 is outside the mean check's
    # (0, 1)
    spec = generate(InstanceFamily("signed-majority", 16, {"k": 8}),
                    SplitRng(1, ("g",))).spec

    def run(eps, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clamp warning
            sched = build_schedule(16, eps)
        f = OracleHandle.for_spec(spec)
        v = mono_test_ltf(f, eps, sched, SplitRng(seed))
        return v.outcome, v.diagnostic, f.query_count

    for seed in range(3):
        at_half = run(0.5, seed)
        assert at_half[0] == "non-monotone"
        assert run(0.9, seed) == at_half
        assert run(6.0, seed) == at_half
    with pytest.raises(ValueError, match="does not match"):
        mono_test_ltf(OracleHandle.for_spec(spec), 0.1,
                      build_schedule(16, 0.2), SplitRng(0))


# ---------------------------------------------------------------------------
# pinned outcomes of the phase step, the bisection and the edge tester


def heavy_second(n, weight):
    w = np.ones(n)
    w[1] = weight
    return LTFSpec(w, 0.0)


def outcome(out, f):
    """(outcome, diagnostic, queries, certificate) of a verdict, or
    ("restriction", its string, queries) of a returned restriction."""
    if isinstance(out, Restriction):
        return ("restriction", str(out), f.query_count)
    cert = None if out.certificate is None else out.certificate.to_dict()
    return (out.outcome, out.diagnostic, f.query_count, cert)


def test_phase_step_outcomes_pinned():
    # Exact results for fixed seeds: a changed stream key, draw order,
    # parameter or diagnostic moves at least one of them.
    n = 33
    base = Restriction.fixing(n, {31: -1, 32: 1})
    sched = build_schedule(n, 0.1)
    neg, pos = heavy_second(n, -8.0), heavy_second(n, 8.0)

    f = OracleHandle.for_spec(neg)
    out = regularize_and_balance(f, 0.1, sched, rng_at(0, "rb"))
    assert outcome(out, f) == (
        "non-monotone", "rb:negative-weight", 163,
        {"point": "+--+-++----+-+++-++-+-----+--+++-", "coordinate": 1})
    f = OracleHandle.for_spec(pos)
    out = regularize_and_balance(f, 0.1, sched, rng_at(0, "rb"))
    assert outcome(out, f) == (
        "restriction", "*-**********************-********", 24776)
    const = OracleHandle.for_function(
        lambda pm: np.ones(pm.shape[0], dtype=np.int8), 32)
    out = regularize_and_balance(const, 0.3, build_schedule(32, 0.3),
                                 rng_at(0, "c"))
    assert outcome(out, const) == (
        "monotone", "rb:round-exhaustion", 316, None)

    f = OracleHandle.for_spec(neg)
    probe = bisect_edges(restrict(f, base), BISECT_SAMPLES, rng_at(0, "sg"))
    assert f.query_count == 2 * BISECT_SAMPLES + probe.queried.sum() == 146
    assert probe.certificate.to_dict() == {
        "point": "--+++++-+-++--++-+-+--++-++-+-+-+", "coordinate": 1}

    f = OracleHandle.for_spec(neg)
    out = edge_tester(restrict(f, base), 0.05, 0.1, rng_at(0, "e"))
    assert outcome(out, f) == (
        "non-monotone", "edge:anti-monotone-edge", 128,
        {"point": "---+-+-+++++++-+-+-++-++--+-+-+-+", "coordinate": 1})


def test_staged_tester_outcomes_pinned():
    # staged_test_ltf end to end at the shipped schedule: Phase 1 fixes the
    # heavy positive coordinate and one more that ends two samples, so the
    # edge test runs on the 31 free variables at distance
    # min(0.1, EDGE_EPS/4) = 0.05 (2 ceil(31 ln10 / 0.05) = 2,856 queries);
    # with the heavy weight negated a bisection sample ends on an
    # anti-monotone edge in Phase 1 and no edge test runs
    n, eps = 33, 0.1
    sched = build_schedule(n, eps)
    f = OracleHandle.for_spec(heavy_second(n, 8.0))
    out = staged_test_ltf(f, eps, sched, rng_at(0, "stf"))
    assert outcome(out, f) == ("monotone", "edge:pass", 19457, None)
    rb = phase1_queries(heavy_second(n, 8.0), sched, rng_at(0, "stf"))
    assert (rb, f.query_count - rb) == (16601, 2856)

    f = OracleHandle.for_spec(heavy_second(n, -8.0))
    out = staged_test_ltf(f, eps, sched, rng_at(0, "stf"))
    assert outcome(out, f) == (
        "non-monotone", "rb:negative-weight", 174,
        {"point": "+-+---++++++-++++--+-+-+-+++-----", "coordinate": 1})
    rb = phase1_queries(heavy_second(n, -8.0), sched, rng_at(0, "stf"))
    assert (rb, f.query_count - rb) == (174, 0)
    assert verify_certificate(OracleHandle.for_spec(heavy_second(n, -8.0)),
                              out.certificate)
