import json
import math

import numpy as np
import pytest

from monotest import bits
from monotest.generators import (
    ADVERSARIAL,
    HEAVY_COORDINATE,
    MAX_WEIGHT,
    MONOTONE_RANDOM,
    PLANTED_NEGATIVE_MASS,
    SIGNED_MAJORITY,
    InstanceFamily,
    generate,
)
from monotest import harness
from monotest.harness import (
    CSV_COLUMNS,
    SuiteConfig,
    records_csv_deterministic_view,
    records_to_csv,
    run_suite,
    summarize,
    wilson_interval,
)
from monotest.oracle import (
    AntiMonotoneEdgeCertificate,
    LTFEvaluator,
    LTFSpec,
    eval_ltf,
)
from monotest.rng import SplitRng
from monotest.tester import mono_test_ltf
from monotest.truth import (
    WeightProfile,
    dist_ltf_to_monotone_exact,
    dp_radius,
)


def rng_at(seed, *path):
    return SplitRng(seed, path)


# ---------------------------------------------------------------------------
# generators


def test_monotone_random_distance_zero():
    inst = generate(InstanceFamily(MONOTONE_RANDOM, 300), rng_at(1, "g"))
    assert inst.known_monotone
    assert inst.distance.value == 0.0
    assert np.all(inst.spec.weights >= 1.0)


def test_signed_majority_exact_distance():
    inst = generate(InstanceFamily(SIGNED_MAJORITY, 9, {"k": 1}), rng_at(2, "g"))
    assert inst.distance.method == "drop-negative-exact"
    expect = dist_ltf_to_monotone_exact(inst.spec)
    assert inst.distance.numerator == expect.numerator
    assert inst.distance.value > 0.1


def test_planted_negative_mass_hits_target():
    fam = InstanceFamily(PLANTED_NEGATIVE_MASS, 4096, {"lambda_target": 0.25})
    inst = generate(fam, rng_at(3, "g"))
    frac = WeightProfile.from_weights(inst.spec.weights).neg_fraction
    assert 0.225 <= frac <= 0.275


@pytest.mark.parametrize("kind,params", [
    (SIGNED_MAJORITY, {"k": 2048}),
    (PLANTED_NEGATIVE_MASS, {"lambda_target": 0.25}),
    (HEAVY_COORDINATE, {"heavy": MAX_WEIGHT}),
    (ADVERSARIAL, {}),
], ids=["signed-majority", "planted", "heavy-coordinate", "adversarial"])
def test_far_families_certify_by_dp_at_n4096(kind, params):
    # n = 4096 is the largest far n that a suite, the digest or perfbench
    # draws; every far family's integer weights there are certified by the
    # subset-sum DP, within its proven rounding radius
    inst = generate(InstanceFamily(kind, 4096, params), rng_at(3, "g"))
    w_sum = int(np.abs(inst.spec.weights).sum())
    assert inst.distance.method == "drop-negative-dp"
    assert inst.distance.radius == dp_radius(4096, w_sum) < 1e-10


def test_heavy_coordinate_has_one_negative():
    inst = generate(InstanceFamily(HEAVY_COORDINATE, 33, {"heavy": 8.0}),
                    rng_at(4, "g"))
    w = inst.spec.weights
    assert np.count_nonzero(w < 0) == 1
    assert np.min(w) == -8.0


@pytest.mark.parametrize("n", [16, 64])
def test_heavy_coordinate_rejects_a_non_integer_heavy_weight(n):
    # every family emits integer weights: a fractional heavy weight is
    # refused when the family is built, at every n
    with pytest.raises(ValueError, match="integer heavy"):
        InstanceFamily(HEAVY_COORDINATE, n, {"heavy": 8.5})
    InstanceFamily(HEAVY_COORDINATE, n, {"heavy": 8.0})


def test_adversarial_is_biased_and_mixed_sign():
    inst = generate(InstanceFamily(ADVERSARIAL, 18), rng_at(5, "g"))
    assert np.any(inst.spec.weights < 0)
    assert inst.spec.theta > 0


def test_generation_deterministic():
    fam = InstanceFamily(PLANTED_NEGATIVE_MASS, 64, {"lambda_target": 0.2})
    a = generate(fam, rng_at(9, "g"))
    b = generate(fam, rng_at(9, "g"))
    assert np.array_equal(a.spec.weights, b.spec.weights)
    assert a.spec.theta == b.spec.theta


def test_instance_file_roundtrip(tmp_path):
    inst = generate(InstanceFamily(MONOTONE_RANDOM, 12), rng_at(6, "g"))
    path = tmp_path / "inst.json"
    inst.spec.dump(path)
    loaded = LTFSpec.load(path)
    assert np.array_equal(loaded.weights, inst.spec.weights)
    assert loaded.theta == inst.spec.theta
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "weights", "theta"}


# ---------------------------------------------------------------------------
# suites


# the edge test's full budget at n=25, eps=0.05: 2 ceil(n ln10 / (2 eps))
EDGE_PASS_QUERIES = 2 * math.ceil(25 * math.log(10) / 0.1)


def small_suite(seed=11, count=6):
    fam = InstanceFamily(SIGNED_MAJORITY, 25, {"k": 6})
    return SuiteConfig(family=fam, count=count, eps=0.05, master_seed=seed)


def test_suite_detects_and_verifies():
    records, summary = run_suite(small_suite())
    assert summary["trials"] == 6
    assert not summary["hard_invariant_violation"]
    assert summary["detection_rate"] >= 0.5
    for rec in records:
        if rec.verdict == "non-monotone":
            assert rec.certificate_ok is True
        # a pass spends the edge test's whole budget, a rejection no more
        assert 0 < rec.queries_total <= EDGE_PASS_QUERIES
        if rec.verdict == "monotone":
            assert rec.queries_total == EDGE_PASS_QUERIES


def test_suite_records_query_cap_errors():
    # monotone, so no trial can reject before the edge test's 1,152 queries
    # run into the cap
    config = SuiteConfig(family=InstanceFamily(MONOTONE_RANDOM, 25),
                         count=3, eps=0.05, master_seed=11, query_cap=1000)
    records, summary = run_suite(config)
    assert summary["trials"] == 3 and summary["errors"] == 3
    assert summary["rejections"] == 0
    # capped trials are not counted as missed detections or as query counts
    assert summary["detection_rate"] == 0.0
    assert summary["detection_rate_wilson95"] == [0.0, 1.0]
    assert summary["queries_mean"] == 0.0 and summary["queries_p50"] == 0
    assert not summary["hard_invariant_violation"]
    for rec in records:
        assert (rec.verdict, rec.diagnostic) == ("error", "error:query-budget")
        assert rec.certificate is None and rec.certificate_ok is None
        assert rec.queries_total <= 1000
    assert "error:query-budget" in records_to_csv(records)
    done, clean = run_suite(small_suite(count=2))
    assert clean["errors"] == 0
    mixed = summarize(records + done)
    assert mixed["trials"] == 5 and mixed["errors"] == 3
    assert mixed["detection_rate"] == clean["detection_rate"]
    assert mixed["detection_rate_wilson95"] == clean["detection_rate_wilson95"]
    for key in ("queries_mean", "queries_p50", "queries_p90"):
        assert mixed[key] == clean[key]


def test_suite_records_tester_exceptions(monkeypatch):
    # the tester spends 5 queries and raises on trial 2 only; the suite goes
    # on, and every other record is the one a clean run gives
    clean, clean_summary = run_suite(small_suite())
    calls = []

    def flaky(f, eps, sched, rng):
        calls.append(None)
        if len(calls) == 3:
            f.query_packed(np.zeros((5, bits.nbytes(f.ambient_n)), np.uint8))
            raise FloatingPointError("injected")
        return mono_test_ltf(f, eps, sched, rng)
    monkeypatch.setattr(harness, "mono_test_ltf", flaky)
    records, summary = run_suite(small_suite())
    assert len(calls) == len(records) == 6
    bad = records[2]
    assert (bad.verdict, bad.diagnostic) == ("error",
                                             "error:FloatingPointError")
    assert bad.certificate is None and bad.certificate_ok is None
    assert bad.queries_total == 5
    assert (bad.distance, bad.known_monotone) == (clean[2].distance,
                                                  clean[2].known_monotone)
    for rec, ref in zip(records, clean):
        if rec.trial != 2:
            assert {**rec.__dict__, "wall_ms": 0} == {**ref.__dict__,
                                                      "wall_ms": 0}
    assert summary["trials"] == 6 and summary["errors"] == 1
    rest = summarize([r for r in clean if r.trial != 2])
    for key in ("rejections", "detection_rate", "detection_rate_wilson95",
                "false_alarms", "certificates_checked",
                "certificate_failures", "queries_mean", "queries_p50",
                "queries_p90", "hard_invariant_violation"):
        assert summary[key] == rest[key]
    assert clean_summary["errors"] == 0
    lines = records_to_csv(records).splitlines()
    assert lines[0].split(",") == CSV_COLUMNS and len(CSV_COLUMNS) == 10
    assert lines[3].split(",")[CSV_COLUMNS.index("diagnostic")] == (
        "error:FloatingPointError")
    assert all(len(line.split(",")) == 10 for line in lines)


def test_certificates_are_checked_without_the_evaluator(monkeypatch):
    # an evaluator fault that negates f wherever x_0 = +1 makes a monotone
    # instance look anti-monotone in direction 0; a re-check through the
    # same evaluator confirms the false witness, the halfspace itself must
    # not
    evaluate = LTFEvaluator.__call__

    def faulty(self, packed):
        out = evaluate(self, packed).copy()
        out[(packed[:, 0] & 1) == 1] *= -1
        return out
    monkeypatch.setattr(LTFEvaluator, "__call__", faulty)
    config = SuiteConfig(family=InstanceFamily(MONOTONE_RANDOM, 16),
                         count=1, eps=0.1, master_seed=1)
    rec = harness.run_trial(config, 0)
    assert rec.known_monotone
    assert (rec.verdict, rec.certificate_ok) == ("non-monotone", False)
    assert summarize([rec])["hard_invariant_violation"]
    spec = generate(config.family, rng_at(1, "trial", 0).child("gen")).spec
    cert = AntiMonotoneEdgeCertificate.from_dict(rec.certificate)
    assert [eval_ltf(spec, end) for end in cert.endpoints()] == [-1, 1]


def test_suite_monotone_no_false_alarms():
    fam = InstanceFamily(MONOTONE_RANDOM, 40)
    config = SuiteConfig(family=fam, count=8, eps=0.1, master_seed=3)
    records, summary = run_suite(config)
    assert summary["rejections"] == 0
    assert summary["false_alarms"] == []


def test_suite_csv_deterministic_modulo_walltime():
    a_records, _ = run_suite(small_suite())
    b_records, _ = run_suite(small_suite())
    a = records_csv_deterministic_view(records_to_csv(a_records))
    b = records_csv_deterministic_view(records_to_csv(b_records))
    assert a == b
    header = records_to_csv(a_records).splitlines()[0]
    assert header == ("family,n,epsilon,seed,verdict,diagnostic,"
                      "queries_total,wall_ms,distance,distance_method")


def test_wilson_interval_sane():
    lo, hi = wilson_interval(45, 50)
    assert 0.78 <= lo <= 0.9 <= hi <= 0.97
    assert wilson_interval(0, 0) == (0.0, 1.0)
