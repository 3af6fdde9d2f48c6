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
    grid_spec,
)
from monotest.harness import SuiteConfig, run_suite
from monotest.oracle import (
    LTFSpec,
    OracleHandle,
    Restriction,
    certificate_holds,
    truth_table,
    verify_certificate,
)
from monotest.rng import SplitRng
from monotest.spectral import estimate_sum_of_squares, exact_spectrum
from monotest.subroutines import (
    NEGATIVE,
    check_weight_positive,
    edge_tester,
    find_hi_influence_vars,
)
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
# 6. degree-1 mass estimator calibration against exact spectra


def test_degree1_estimator_calibration():
    eta, delta = 0.1, 0.1
    worst = 0.0
    bad_instances = []
    for inst in range(20):
        gen = np.random.default_rng(np.random.Philox(600 + inst))
        spec = grid_spec(gen, 12)
        t_set = (list(range(12)) if inst % 4 == 0 else
                 sorted(int(i) for i in gen.choice(12, size=6, replace=False)))
        truth = exact_spectrum(spec).degree1_mass(t_set)
        f = OracleHandle.for_spec(spec)
        failures = 0
        for trial in range(200):
            est = estimate_sum_of_squares(
                f, t_set, eta, delta,
                rng_at(6000 + inst, "trial", trial).generator)
            failures += abs(est.value - truth) > eta
        freq = failures / 200.0
        worst = max(worst, freq)
        if freq > 0.15:
            bad_instances.append((inst, freq))
    ok = not bad_instances
    report("degree1-estimator-calibration", ok,
           f"20 instances x 200 trials at eta=0.1 delta=0.1; worst empirical "
           f"failure frequency {worst:.3f} (tolerance 0.15)")
    assert ok, bad_instances


# ---------------------------------------------------------------------------
# 7. influence-search contract on planted gaps


def planted_gap_spec(n, heavy_pos, heavy=8.0):
    w = np.ones(n)
    w[heavy_pos] = heavy
    return LTFSpec(w, 0.0)


def test_influence_search_contract():
    t0 = time.perf_counter()
    tau, delta = 0.3, 0.05
    correct = 0
    trials = 0
    for n, heavy_pos in ((16, 5), (17, 11)):
        spec = planted_gap_spec(n, heavy_pos)
        degree1 = exact_degree1(spec)
        gap_hi = abs(degree1[heavy_pos])
        gap_lo = max(abs(degree1[i]) for i in range(n) if i != heavy_pos)
        assert gap_hi >= tau and gap_lo < 0.15, "planted gap not certified"
        for trial in range(50):
            trials += 1
            f = OracleHandle.for_spec(spec)
            out = find_hi_influence_vars(
                f, Restriction.all_stars(n), tau, delta,
                rng_at(700 + n, "trial", trial))
            assert not out.failed
            assert out.estimator_calls <= out.call_cap, \
                "estimator-call cap exceeded"
            if list(out.variables) == [heavy_pos]:
                correct += 1
    elapsed = time.perf_counter() - t0
    ok = correct >= 90
    report("influence-search-contract", ok,
           f"{correct}/{trials} exact recoveries of the planted heavy "
           f"coordinate (threshold 90), call cap never exceeded, "
           f"{elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. weight-sign probe on negated heavy coordinates


def binomial_flip_probability(rest, heavy):
    """Exact influence of a +-heavy coordinate against `rest` unit weights."""
    lo = int(math.ceil(-heavy))
    hi = int(math.ceil(heavy))  # s in [-heavy, heavy) flips the sign
    total = sum(math.comb(rest, k) for k in range(rest + 1)
                if lo <= 2 * k - rest < hi)
    return total / 2 ** rest


def test_weight_sign_probe_contract():
    delta = 0.05
    negatives = 0
    trials = 0
    sign_errors = 0
    for n, heavy in ((17, 8.0), (33, 8.0)):
        spec = LTFSpec(np.concatenate([[-heavy], np.ones(n - 1)]), 0.0)
        tau = binomial_flip_probability(n - 1, heavy)
        assert tau >= 0.5
        for trial in range(50):
            trials += 1
            f = OracleHandle.for_spec(spec)
            out = check_weight_positive(f, Restriction.all_stars(n), 0, tau,
                                        delta, rng_at(800 + n, "t", trial))
            if out.decision == "positive":
                sign_errors += 1
            if out.decision == NEGATIVE:
                negatives += check_certificate("weight-sign", f, spec,
                                               out.certificate)
    ok = negatives >= 90 and sign_errors == 0
    report("weight-sign-probe", ok,
           f"{negatives}/{trials} negative verdicts with valid certificates "
           f"(threshold 90), {sign_errors} sign errors (tolerance 0)")
    assert ok


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
