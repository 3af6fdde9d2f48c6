import dataclasses

import numpy as np

from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    Verdict,
    restrict,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import build_schedule
from monotest.subroutines import check_weight_positive, edge_tester
from monotest.tester import (
    QueryLedger,
    main_procedure,
    maintain_regular_and_balanced,
    mono_test_ltf,
    regularize_and_balance,
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
    # no high-influence variables here, so the restriction is empty
    assert out.num_stars == 64


def test_rb_gives_up_on_constant():
    f = OracleHandle.for_function(
        lambda pm: np.ones(pm.shape[0], dtype=np.int8), 32)
    sched = build_schedule(32, 0.2)
    out = regularize_and_balance(f, 0.2, sched, rng_at(8, "rb-const"))
    assert isinstance(out, Verdict) and out.is_monotone
    assert out.diagnostic == "rb:round-exhaustion"


# ---------------------------------------------------------------------------
# main_procedure stage machinery


def staged_schedule(n, eps, floor):
    """Practical schedule with the star floor forced up so stages run."""
    sched = build_schedule(n, eps)
    return dataclasses.replace(sched, star_floor=float(floor))


def test_main_stages_run_and_track_invariants():
    spec = LTFSpec(np.ones(17), 0.0)
    sched = staged_schedule(17, 0.25, floor=8)
    for t in range(5):
        f = OracleHandle.for_spec(spec)
        ledger = QueryLedger()
        verdict = main_procedure(f, Restriction.all_stars(17), 0.25, sched,
                                 rng_at(t, "stages"), ledger)
        assert verdict.is_monotone
        for stage in ledger.stages:
            assert stage.stars_after <= stage.stars_before - stage.a_vars.size
        if verdict.diagnostic in ("edge:pass", "edge:empty-domain"):
            assert ledger.queries_edge > 0
            assert ledger.stages, "reaching the edge phase means stages ran"
            assert ledger.stages[-1].stars_after < 8


def test_main_skips_to_edge_when_already_small():
    # practical floor is 1/tau^2 = 1e6, far above n: no stages, one edge call
    spec = LTFSpec(np.ones(32), 0.5)
    sched = build_schedule(32, 0.1)
    f = OracleHandle.for_spec(spec)
    ledger = QueryLedger()
    verdict = main_procedure(f, Restriction.all_stars(32), 0.1, sched,
                             rng_at(5, "skip"), ledger)
    assert verdict.is_monotone and verdict.diagnostic == "edge:pass"
    assert not ledger.stages
    assert ledger.queries_edge == f.query_count


def test_main_detects_negated_function_via_edge_phase():
    spec = LTFSpec(np.array([-1.0] * 8), 0.5)  # anti-monotone everywhere
    sched = build_schedule(8, 0.2)
    f = OracleHandle.for_spec(spec)
    verdict = main_procedure(f, Restriction.all_stars(8), 0.2, sched,
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


def test_full_tester_ledger_accounting():
    spec = LTFSpec(np.ones(48), 0.5)
    sched = build_schedule(48, 0.1)
    f = OracleHandle.for_spec(spec)
    ledger = QueryLedger()
    mono_test_ltf(f, 0.1, sched, rng_at(9, "ledger"), ledger)
    assert ledger.total == f.query_count
    assert ledger.queries_rb > 0
    assert ledger.queries_edge > 0


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


# ---------------------------------------------------------------------------
# pinned outcomes of the phase step, the sign probe and the edge tester


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


def stage_trace(ledger):
    return [(s.t, s.stars_before, s.a_vars.tolist(), s.fixed_high.tolist(),
             s.stars_after) for s in ledger.stages]


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
        "non-monotone", "rb:negative-weight", 50976,
        {"point": "+--+++-----++-+++-+-+-+-++----+--", "coordinate": 1})
    f = OracleHandle.for_spec(pos)
    out = regularize_and_balance(f, 0.1, sched, rng_at(0, "rb"))
    assert outcome(out, f) == (
        "restriction", "*-*******************************", 170412)
    const = OracleHandle.for_function(
        lambda pm: np.ones(pm.shape[0], dtype=np.int8), 32)
    out = regularize_and_balance(const, 0.3, build_schedule(32, 0.3),
                                 rng_at(0, "c"))
    assert outcome(out, const) == (
        "monotone", "rb:round-exhaustion", 97316, None)

    f = OracleHandle.for_spec(neg)
    out = maintain_regular_and_balanced(f, base, 0.1, sched, rng_at(0, "m"))
    assert outcome(out, f) == (
        "non-monotone", "maintain:negative-weight", 50976,
        {"point": "--++--+--+++-+++-+++-+-+++-++---+", "coordinate": 1})
    f = OracleHandle.for_spec(pos)
    out = maintain_regular_and_balanced(f, base, 0.1, sched, rng_at(0, "m"))
    assert outcome(out, f) == (
        "restriction", "*-*******************************", 170412)

    f = OracleHandle.for_spec(neg)
    probe = check_weight_positive(f, base, 1, 0.1, 0.1, rng_at(0, "sg"))
    assert (probe.decision, probe.queries_used, f.query_count) == (
        "negative", 94, 94)
    assert probe.certificate.to_dict() == {
        "point": "+-+-------+---+------+-+-++++-+-+", "coordinate": 1}

    f = OracleHandle.for_spec(neg)
    out = edge_tester(restrict(f, base), 0.2, 0.1, rng_at(0, "e"))
    assert outcome(out, f) == (
        "non-monotone", "edge:anti-monotone-edge", 2856,
        {"point": "---+-+---+-++++-+--+++++-++-++--+", "coordinate": 1})

    staged = staged_schedule(17, 0.25, floor=8)
    f = OracleHandle.for_spec(LTFSpec(np.ones(17), 0.0))
    ledger = QueryLedger()
    out = main_procedure(f, Restriction.all_stars(17), 0.25, staged,
                         rng_at(1, "st"), ledger)
    assert outcome(out, f) == ("monotone", "edge:pass", 213084, None)
    assert ledger.queries_edge == 646
    assert stage_trace(ledger) == [
        (0, 17, [1, 2, 3, 4, 5, 8, 9, 10, 14, 16], [], 7)]
    f = OracleHandle.for_spec(LTFSpec(np.ones(17), 0.0))
    ledger = QueryLedger()
    out = mono_test_ltf(f, 0.25, staged, rng_at(4, "stf"), ledger)
    assert outcome(out, f) == ("monotone", "edge:pass", 425522, None)
    assert (ledger.queries_rb, ledger.queries_main,
            ledger.queries_edge) == (60419, 364457, 646)
    assert stage_trace(ledger) == [
        (0, 17, [0, 3, 4, 5, 7, 9, 10, 11, 14, 16], [], 7)]
