"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints a
single pass/fail line (visible with pytest -s / -rA).  Statistical thresholds
are asserted; wall-clock targets are printed alongside for inspection.

Certificate bookkeeping: every suite and every directly-produced rejection
in this module records whether its certificate re-verified; the final
soundness test requires a 100% pass rate over everything accumulated here in
addition to its own dedicated detection suites.  A directly-produced
certificate is checked twice, with two queries through the evaluator and
against the halfspace itself (oracle.certificate_holds), and the two checks
must agree, so that no evaluator fault can confirm its own false witness.
"""

import math
import time

import numpy as np

from monotest.generators import (
    ADVERSARIAL,
    HEAVY_COORDINATE,
    InstanceFamily,
    MONOTONE_RANDOM,
    PLANTED_NEGATIVE_MASS,
    SIGNED_MAJORITY,
    generate,
    grid_spec,
)
from monotest.harness import SuiteConfig, run_suite
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    certificate_holds,
    truth_table,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.schedule import INFLUENCE_TAU, build_schedule
from monotest.subroutines import edge_tester
from monotest.tester import high_variables, staged_test_ltf
from monotest.truth import (
    WeightProfile,
    check_restriction_preserves_distance,
    dist_ltf_to_monotone_dp,
    dist_ltf_to_monotone_exact,
    dist_to_monotone_matching,
    exact_degree1,
)

# margin taken off each certified distance in the planted and near-threshold
# gates: the radius the Monte-Carlo certifier once had, kept so that the
# gates' certified sets stay as they were fixed; the DP's own radius is
# below 1e-10 at these n
MARGIN = 0.005

# accumulated across the module; the soundness test audits these at the end
SUITE_RECORDS = []
# (criterion-name, verify_certificate's bool, certificate_holds's bool)
DIRECT_CERT_CHECKS = []


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def check_certificate(name, f, spec, cert):
    """Re-verify a directly-produced certificate on the handle f and on
    spec itself, record both results, and return the handle's."""
    ok_cert = verify_certificate(f, cert)
    DIRECT_CERT_CHECKS.append((name, ok_cert, certificate_holds(spec, cert)))
    return ok_cert


def run_and_track(config):
    records, summary = run_suite(config)
    SUITE_RECORDS.extend(records)
    return records, summary


def rng_at(seed, *path):
    return SplitRng(seed, path)


# ---------------------------------------------------------------------------
# 1. one-sidedness: monotone inputs are never rejected


def test_one_sidedness_on_monotone_halfspaces():
    t0 = time.perf_counter()
    rejected = []
    total = 0
    for n in (8, 64, 512, 4096):
        config = SuiteConfig(family=InstanceFamily(MONOTONE_RANDOM, n),
                             count=125, eps=0.1, master_seed=1000 + n)
        records, summary = run_and_track(config)
        total += len(records)
        rejected += [(n, r.trial) for r in records
                     if r.verdict == "non-monotone"]
    elapsed = time.perf_counter() - t0
    ok = total == 500 and not rejected
    report("one-sidedness", ok,
           f"{total - len(rejected)}/{total} monotone verdicts on monotone "
           f"instances (target <10min, took {elapsed / 60:.1f}min)")
    assert ok, f"false alarms on monotone instances: {rejected}"


# ---------------------------------------------------------------------------
# 3. the two exact distance oracles agree as rationals


def test_drop_negative_equals_matching_distance():
    t0 = time.perf_counter()
    gen = np.random.default_rng(np.random.Philox(31))
    mismatches = []
    for trial in range(200):
        n = int(gen.integers(2, 11))
        spec = grid_spec(gen, n)
        a = dist_ltf_to_monotone_exact(spec)
        b = dist_to_monotone_matching(truth_table(spec))
        if (a.numerator, a.denominator) != (b.numerator, b.denominator):
            mismatches.append(("random", trial))
    grid_count = 0
    for n in range(1, 5):
        for widx in range(5 ** n):
            w = np.empty(n)
            rest = widx
            for i in range(n):
                w[i] = rest % 5 - 2
                rest //= 5
            for theta in range(-2, 3):
                spec = LTFSpec(w, float(theta))
                grid_count += 1
                a = dist_ltf_to_monotone_exact(spec)
                b = dist_to_monotone_matching(truth_table(spec))
                if a.numerator != b.numerator:
                    mismatches.append(("grid", w.tolist(), theta))
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report("distance-oracle-equality", ok,
           f"200 random + {grid_count} grid instances, exact rational "
           f"agreement (target <2min, took {elapsed:.0f}s)")
    assert ok, mismatches[:5]


# ---------------------------------------------------------------------------
# 4. restriction averaging preserves distance exactly


def test_restriction_average_preserves_distance():
    t0 = time.perf_counter()
    gen = np.random.default_rng(np.random.Philox(41))
    failures = []
    done = 0
    while done < 100:
        n = int(gen.integers(2, 11))
        spec = grid_spec(gen, n)
        nonneg = np.flatnonzero(spec.weights >= 0)
        if nonneg.size == 0:
            continue
        take = int(gen.integers(1, min(nonneg.size, 6) + 1))
        s_vars = gen.choice(nonneg, size=take, replace=False)
        chk = check_restriction_preserves_distance(spec, s_vars)
        if chk.status != "pass":
            failures.append((spec.weights.tolist(), spec.theta,
                             sorted(int(i) for i in s_vars)))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = not failures
    report("restriction-average-identity", ok,
           f"100/100 exact rational identities over all sub-restrictions "
           f"(target <2min, took {elapsed:.0f}s)")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# 5. far + weight-regular implies significant negative mass


def test_negative_mass_bound_sweep():
    # near-uniform weights at large n are regular enough for the hypothesis
    # once the distance (DP-certified lower bound) is large, which
    # mostly-negative instances provide; at n <= 20, where the distance is
    # exact, regularity >= 1/sqrt(20) exceeds eps/16 for every eps <= 1/2
    informative = 0
    for t in range(10):
        g2 = np.random.default_rng(np.random.Philox(52 + t))
        n_big = 4096
        w = np.round(g2.uniform(16, 32, size=n_big))
        w[g2.permutation(n_big)[: int(0.9 * n_big)]] *= -1.0
        spec = LTFSpec(w, 0.5)
        profile = WeightProfile.from_weights(w)
        rep = dist_ltf_to_monotone_dp(spec)
        eps = rep.value - rep.radius  # certified lower bound on the distance
        if eps <= 0 or profile.regularity > eps / 16.0:
            continue
        informative += 1
        bound = eps * eps / (16.0 * math.log(8.0 / eps))
        assert profile.neg_fraction >= bound
    ok = informative >= 5
    report("negative-mass-lower-bound", ok,
           f"{informative}/10 non-vacuous DP-certified checks at n=4096, "
           f"all clean")
    assert ok


# ---------------------------------------------------------------------------
# 7. Phase 1's influence search on heavy coordinates: the gate behind
#    schedule.BISECT_SAMPLES and BISECT_HITS


def heavy_second(n, heavy):
    w = np.ones(n)
    w[1] = heavy
    return LTFSpec(w, 0.0)


def test_influence_search_contract():
    # the high set must hold every coordinate with exact |fhat| >=
    # INFLUENCE_TAU (truth.exact_degree1) in at least 99 of 100 trials per
    # cell; seeds fixed before the first run.  Phase 1's search must also
    # cost under 500 queries p50 at n = 4,096, on heavy-coordinate and on
    # monotone-random.
    t0 = time.perf_counter()
    cells = [("heavy-8 n=33", lambda t: heavy_second(33, 8.0))]
    for n, heavy in ((64, 8.0), (64, 16.0), (1024, 64.0), (4096, 128.0)):
        family = InstanceFamily(HEAVY_COORDINATE, n,
                                {"heavy": heavy, "sign": 1.0})
        cells.append((f"heavy-coordinate n={n} heavy={heavy:g}",
                      lambda t, fam=family, n=n: generate(
                          fam, rng_at(7000 + n, "gen", t)).spec))
    rows = []
    failing = []
    for idx, (name, make) in enumerate(cells):
        recovered = 0
        queries = []
        for trial in range(100):
            spec = make(trial)
            required = np.flatnonzero(
                np.abs(exact_degree1(spec)) >= INFLUENCE_TAU)
            assert required.size == 1
            f = OracleHandle.for_spec(spec)
            high = high_variables(f, rng_at(7100 + idx, "t", trial))
            queries.append(f.query_count)
            recovered += set(required) <= set(high)
        rows.append(f"{name}: {recovered}/100, queries p50 "
                    f"{np.median(queries):.0f}")
        if recovered < 99:
            failing.append(name)
    heavy_p50 = np.median(queries)  # the last cell, n = 4,096
    family = InstanceFamily(MONOTONE_RANDOM, 4096)
    mono_queries = []
    for trial in range(20):
        f = OracleHandle.for_spec(
            generate(family, rng_at(7200, "gen", trial)).spec)
        high_variables(f, rng_at(7201, "t", trial))
        mono_queries.append(f.query_count)
    mono_p50 = np.median(mono_queries)
    elapsed = time.perf_counter() - t0
    ok = not failing and heavy_p50 < 500 and mono_p50 < 500
    report("influence-search-contract", ok,
           "; ".join(rows) + f" (threshold 99/100); monotone-random "
           f"n=4096 queries p50 {mono_p50:.0f} (threshold 500); "
           f"{elapsed:.0f}s")
    assert ok, (failing, heavy_p50, mono_p50)


# ---------------------------------------------------------------------------
# 8. Phase 1 rejects negated heavy coordinates, with certificates


def binomial_flip_probability(rest, heavy):
    """Exact influence of a +-heavy coordinate against `rest` unit weights."""
    lo = int(math.ceil(-heavy))
    hi = int(math.ceil(heavy))  # s in [-heavy, heavy) flips the sign
    total = sum(math.comb(rest, k) for k in range(rest + 1)
                if lo <= 2 * k - rest < hi)
    return total / 2 ** rest


def test_weight_sign_probe_contract():
    negatives = 0
    trials = 0
    sign_errors = 0
    for n, heavy in ((17, 8.0), (33, 8.0)):
        spec = LTFSpec(np.concatenate([[-heavy], np.ones(n - 1)]), 0.0)
        assert binomial_flip_probability(n - 1, heavy) >= 0.5
        for trial in range(50):
            trials += 1
            f = OracleHandle.for_spec(spec)
            out = high_variables(f, rng_at(800 + n, "t", trial))
            if isinstance(out, np.ndarray):
                continue
            if out.certificate.coordinate != 0:
                sign_errors += 1
            negatives += check_certificate("weight-sign", f, spec,
                                           out.certificate)
    ok = negatives >= 90 and sign_errors == 0
    report("weight-sign-probe", ok,
           f"{negatives}/{trials} Phase-1 rejections with valid certificates "
           f"(threshold 90), {sign_errors} on a positive weight "
           f"(tolerance 0)")
    assert ok


# ---------------------------------------------------------------------------
# 8b. the staged tester: one-sided, and Phase 1's certificates hold


def test_staged_tester_one_sided_with_valid_phase1_certificates():
    t0 = time.perf_counter()
    false_alarms = []
    for kind, params in ((MONOTONE_RANDOM, {}),
                         (HEAVY_COORDINATE, {"heavy": 16.0, "sign": 1.0})):
        for n in (64, 1024, 4096):
            family = InstanceFamily(kind, n, params)
            for trial in range(4):
                spec = generate(family, rng_at(8100 + n, kind, trial)).spec
                f = OracleHandle.for_spec(spec)
                verdict = staged_test_ltf(f, 0.1, build_schedule(n, 0.1),
                                          rng_at(8200 + n, kind, trial))
                if not verdict.is_monotone:
                    false_alarms.append((kind, n, trial))
    rejections = []
    for kind, params in ((PLANTED_NEGATIVE_MASS, {}), (ADVERSARIAL, {}),
                         (HEAVY_COORDINATE, {"heavy": 16.0, "sign": -1.0})):
        for n in (64, 1024, 4096):
            family = InstanceFamily(kind, n, params)
            for trial in range(20):
                spec = generate(family, rng_at(8300 + n, kind, trial)).spec
                f = OracleHandle.for_spec(spec)
                out = high_variables(f, rng_at(8400 + n, kind, trial))
                if isinstance(out, np.ndarray):
                    continue
                rejections.append((kind, n))
                check_certificate("phase-1", f, spec, out.certificate)
    elapsed = time.perf_counter() - t0
    ok = not false_alarms and rejections
    report("staged-one-sided", ok,
           f"{len(false_alarms)} rejections of 24 monotone instances; "
           f"{len(rejections)}/180 Phase-1 rejections of far instances at "
           f"n = 64, 1024, 4096, certificates audited at the end; "
           f"{elapsed:.0f}s")
    assert ok, false_alarms


# ---------------------------------------------------------------------------
# 9. edge tester detection on a negated-input majority


def test_edge_tester_detection_majority9():
    w = np.ones(9)
    w[0] = -1.0
    spec = LTFSpec(w, 0.0)
    dist = dist_ltf_to_monotone_exact(spec)
    eps = dist.value / 2.0
    detections = 0
    for trial in range(100):
        f = OracleHandle.for_spec(spec)
        verdict = edge_tester(f, eps, 0.1, rng_at(900, "t", trial))
        if not verdict.is_monotone:
            detections += check_certificate("edge-tester", f, spec,
                                            verdict.certificate)
    ok = detections >= 85
    report("edge-tester-detection", ok,
           f"{detections}/100 rejections at eps=dist/2={eps:.4f} "
           f"(threshold 85)")
    assert ok


# ---------------------------------------------------------------------------
# 10. end-to-end detection on planted negative mass


def test_end_to_end_detection_planted():
    t0 = time.perf_counter()
    config = SuiteConfig(
        family=InstanceFamily(PLANTED_NEGATIVE_MASS, 1024,
                              {"lambda_target": 0.25}),
        count=50, eps=0.05, master_seed=10_000)
    records, summary = run_and_track(config)
    # each instance must carry a certified distance, less MARGIN, of at
    # least eps
    weak = [r.trial for r in records
            if r.distance - MARGIN < 0.05]
    rate = summary["detection_rate"]
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.8 and not weak and not summary["hard_invariant_violation"]
    report("end-to-end-detection", ok,
           f"detection rate {rate:.2f} on 50 planted instances at n=1024 "
           f"(threshold 0.8), mean queries {summary['queries_mean']:.0f}, "
           f"p90 {summary['queries_p90']}, wall {elapsed / 60:.1f}min "
           f"(target <30min)")
    assert ok, summary


# ---------------------------------------------------------------------------
# 10b. detection near the eps threshold, against certified distances


def near_threshold_gate(n, eps, ks, seed_base):
    """Run 20 signed-majority instances at n for each k and require that at
    least 80% of the instances whose certified distance (the DP value, less
    MARGIN) reaches eps are rejected, and that at least 10 of those sit
    within 0.01 of eps.  Signed-majority coefficients stay below
    INFLUENCE_TAU at these n, so the edge tester does the detecting."""
    t0 = time.perf_counter()
    rows = []
    certified = []
    for k in ks:
        config = SuiteConfig(
            family=InstanceFamily(SIGNED_MAJORITY, n, {"k": k}),
            count=20, eps=eps, master_seed=seed_base + k)
        records, summary = run_and_track(config)
        far = [r for r in records if r.distance - MARGIN >= eps]
        hits = sum(r.verdict == "non-monotone" for r in far)
        certified += far
        rows.append(f"k={k} dist~{np.mean([r.distance for r in records]):.3f}"
                    f" {summary['rejections']}/{len(records)} rejected,"
                    f" {hits}/{len(far)} certified-far detected")
    near = [r for r in certified
            if r.distance - MARGIN < eps + 0.01]
    hits = sum(r.verdict == "non-monotone" for r in certified)
    rate = hits / len(certified) if certified else 0.0
    elapsed = time.perf_counter() - t0
    ok = len(near) >= 10 and rate >= 0.8
    report(f"near-threshold-detection eps={eps}", ok,
           f"{hits}/{len(certified)} certified-far instances detected at "
           f"n={n} (threshold 0.8), {len(near)} within 0.01 of eps; "
           + "; ".join(rows) + f"; {elapsed:.0f}s")
    assert ok, rows


def test_near_threshold_detection_signed_majority():
    # n=256: k negated inputs put the exact distance at 0.0468 (k=6, below
    # eps), 0.0547 (k=8, below eps once less the 0.005 margin), then 0.0616,
    # 0.0679 and 0.0790
    near_threshold_gate(256, 0.05, (6, 8, 10, 12, 16), 11_000)


def test_near_threshold_detection_eps_01():
    # n=256: exact 0.0978 (k=24, just below eps), 0.1061 (k=28, at eps), then
    # 0.1139, 0.1282 and 0.1415; the edge test runs with the halved eps=0.1
    # budget
    near_threshold_gate(256, 0.1, (24, 28, 32, 40, 48), 12_000)


def test_near_threshold_detection_eps_002():
    # n=512: exact 0.0176 (k=2, just below eps), 0.0265 (k=3 and 4, at eps),
    # then 0.0331 and 0.0386; the edge test samples more edges than the
    # eps-independent budget it replaced
    near_threshold_gate(512, 0.02, (2, 3, 4, 6, 8), 13_000)


# ---------------------------------------------------------------------------
# 11. determinism: identical reruns produce identical records


def test_suite_rerun_reproducibility():
    from monotest.harness import records_csv_deterministic_view, records_to_csv
    fam = InstanceFamily(PLANTED_NEGATIVE_MASS, 256, {"lambda_target": 0.2})

    def one():
        cfg = SuiteConfig(family=fam, count=10, eps=0.05, master_seed=77)
        records, _ = run_suite(cfg)
        return records_to_csv(records)

    a = records_csv_deterministic_view(one())
    b = records_csv_deterministic_view(one())
    # wall_ms is measured time and is the only column allowed to differ
    ok = a == b
    report("suite-determinism", ok,
           "byte-identical CSV across reruns "
           "(wall_ms column excluded as measured time)")
    assert ok


# ---------------------------------------------------------------------------
# 2. certificate soundness, audited over everything this module produced
#    (defined last so it also sees every suite above)


def test_certificate_soundness_everywhere():
    detection_families = [
        InstanceFamily(SIGNED_MAJORITY, 25, {"k": 6}),
        InstanceFamily(HEAVY_COORDINATE, 64, {"heavy": 8.0, "sign": -1.0}),
        InstanceFamily(PLANTED_NEGATIVE_MASS, 512, {"lambda_target": 0.3}),
        InstanceFamily(ADVERSARIAL, 128, {}),
    ]
    for idx, fam in enumerate(detection_families):
        config = SuiteConfig(family=fam, count=10, eps=0.05,
                             master_seed=20_000 + idx)
        run_and_track(config)
    suite_rejections = [r for r in SUITE_RECORDS
                        if r.verdict == "non-monotone"]
    suite_bad = [r.trial for r in suite_rejections if not r.certificate_ok]
    direct_bad = [name for name, ok_box, ok_spec in DIRECT_CERT_CHECKS
                  if not (ok_box and ok_spec)]
    disagree = [name for name, ok_box, ok_spec in DIRECT_CERT_CHECKS
                if ok_box != ok_spec]
    checked = len(suite_rejections) + len(DIRECT_CERT_CHECKS)
    ok = checked > 0 and not suite_bad and not direct_bad and not disagree
    report("certificate-soundness", ok,
           f"{checked} certificates re-verified against the halfspace, "
           f"{len(DIRECT_CERT_CHECKS)} of them also with 2 fresh queries, "
           f"{len(suite_bad) + len(direct_bad)} failures and "
           f"{len(disagree)} disagreements (tolerance 0)")
    assert ok, (suite_bad, direct_bad, disagree)
