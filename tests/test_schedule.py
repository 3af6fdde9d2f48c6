import json
import math
import warnings

import numpy as np
import pytest

from monotest.schedule import (
    DELTA,
    EDGE_DELTA,
    EDGE_EPS,
    ESTIMATOR_DELTA,
    INFLUENCE_TAU,
    build_schedule,
)


def test_lambda_formula_eps_01():
    # independent recomputation of eps^2 / (36 ln(12/eps)) at eps = 0.1
    sched = build_schedule(1024, 0.1)
    expected = 0.1 ** 2 / (36.0 * math.log(12.0 / 0.1))
    assert sched.lam == pytest.approx(expected, rel=1e-12)
    assert sched.lam == pytest.approx(5.8023e-5, rel=1e-4)


def test_tau_formula_n1024():
    # lam eps / log2(n)^2 is ~5.8e-8 here, so the floor wins
    sched = build_schedule(1024, 0.1)
    assert sched.lam * 0.1 / 100.0 == pytest.approx(5.8023e-8, rel=1e-4)
    assert sched.tau == 1e-3
    assert sched.star_floor == pytest.approx(1e6)


def test_tau_formula_n2():
    # at n = 2 the formula is lam eps, above the floor near eps = 1/2
    sched = build_schedule(2, 0.5)
    assert sched.tau == pytest.approx(sched.lam * 0.5, rel=1e-12)
    assert sched.tau > 1e-3
    assert sched.star_floor == pytest.approx(1.0 / sched.tau ** 2)


# (n, eps) -> (lam, tau, star_floor, rb_rounds, stage_cap, fbr_rounds,
# m_rounds), as the schedule with floored paper formulas computed them
GOLDEN = {
    (4096, 0.1): (5.8021568015563654e-05, 1e-3, 1e6, 20, 48, 256, 256),
    (1024, 0.05): (1.2670866556941235e-05, 1e-3, 1e6, 40, 40, 256, 256),
    (512, 0.1): (5.8021568015563654e-05, 1e-3, 1e6, 20, 36, 256, 256),
    (16, 0.05): (1.2670866556941235e-05, 1e-3, 1e6, 40, 16, 256, 256),
    (2, 0.5): (0.0021851248641953113, 0.0010925624320976557,
               837736.5688685868, 4, 4, 16, 43),
    (64, 0.9): (0.0021851248641953113, 1e-3, 1e6, 4, 24, 96, 256),
}


@pytest.mark.parametrize("n, eps", sorted(GOLDEN))
def test_golden_values(n, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp, see test_eps_clamp_warns
        sched = build_schedule(n, eps)
    got = (sched.lam, sched.tau, sched.star_floor, sched.rb_rounds,
           sched.stage_cap, sched.fbr_rounds, sched.m_rounds)
    assert got == pytest.approx(GOLDEN[(n, eps)], rel=1e-12)
    assert sched.eps == min(eps, 0.5)
    # the values every phase step and the edge test read as constants
    assert (INFLUENCE_TAU, DELTA, ESTIMATOR_DELTA, EDGE_EPS, EDGE_DELTA) == (
        0.5, 1e-3, 1e-2, 0.2, 0.1)


def test_paper_formulas_stay_beyond_their_constants():
    # each paper formula, with C = 2, against the constant that replaces it,
    # for every n in 2 .. 2^20 and 60 values of eps in [1e-4, 1/2]
    c = 2.0
    log2n = np.log2(np.arange(2, 2 ** 20 + 1, dtype=np.float64))
    for eps in np.geomspace(1e-4, 0.5, 60):
        eps = float(eps)
        lam = eps ** 2 / (36.0 * math.log(12.0 / eps))
        tau = lam * eps / log2n ** 2
        rb_tau_p = tau ** 2 * eps ** 3 / c
        m_tau_p = (tau * eps / c) ** 2 * math.sqrt(lam)
        assert rb_tau_p.max() < INFLUENCE_TAU
        assert m_tau_p.max() < INFLUENCE_TAU
        assert (rb_tau_p ** 2 / c).max() < DELTA
        assert (m_tau_p ** 2 / (c * log2n)).max() < DELTA
        assert (eps ** 3 / (200.0 * c * log2n ** 2)).max() < DELTA
        assert (INFLUENCE_TAU ** 2 * DELTA / (8.0 * log2n)).max() \
            < ESTIMATOR_DELTA
        assert eps ** 3 / (c * math.log(1.0 / eps)) < EDGE_EPS
        # regularity thresholds above 1 pass every function, so the phase
        # steps run no regularity check
        assert math.sqrt(12.0 * INFLUENCE_TAU / eps) > 1.0
        assert math.sqrt(c * INFLUENCE_TAU / math.sqrt(lam)) > 1.0


def test_eps_clamp_warns():
    with pytest.warns(UserWarning):
        sched = build_schedule(64, 0.9)
    assert sched.eps == 0.5
    assert sched.eps_requested == 0.9


def test_input_validation():
    with pytest.raises(ValueError):
        build_schedule(1, 0.1)
    with pytest.raises(ValueError):
        build_schedule(64, 0.0)


def test_derived_relations():
    sched = build_schedule(256, 0.2)
    assert sched.rb_rounds == math.ceil(2.0 / 0.2)
    assert sched.stage_cap == 4 * 8
    assert sched.star_floor == pytest.approx(1.0 / sched.tau ** 2)
    assert sched.fbr_rounds == min(math.ceil(2.0 * 8 / 0.2 ** 3), 256)
    assert sched.m_rounds == min(
        math.ceil(2.0 * 8 / math.sqrt(sched.lam)), 256)


def test_round_caps_apply():
    sched = build_schedule(4096, 0.05)
    assert sched.fbr_rounds == 256
    assert sched.m_rounds == 256
    small = build_schedule(2, 0.5)
    assert small.fbr_rounds == math.ceil(2.0 * 1 / 0.5 ** 3)
    assert small.m_rounds == math.ceil(2.0 * 1 / math.sqrt(small.lam))


def test_schedule_serializable():
    d = build_schedule(128, 0.1).to_dict()
    assert d["n"] == 128
    assert d["edge_eps"] == EDGE_EPS
    assert "profile" not in d
    json.dumps(d)  # must be plain data


def test_schedule_deterministic():
    a = build_schedule(512, 0.17)
    b = build_schedule(512, 0.17)
    assert a == b
