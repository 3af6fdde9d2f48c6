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


def lam(eps):
    """The paper's lambda, eps^2 / (36 ln(12/eps)), recomputed here."""
    return eps ** 2 / (36.0 * math.log(12.0 / eps))


def test_lambda_formula_eps_01():
    # lam enters the schedule only through m_rounds; at n=2 and eps=0.3
    # the round count is below the cap, so it shows lam itself
    assert lam(0.1) == pytest.approx(5.8023e-5, rel=1e-4)
    assert lam(0.3) == pytest.approx(6.7771e-4, rel=1e-4)
    assert build_schedule(2, 0.3).m_rounds == \
        math.ceil(2.0 / math.sqrt(lam(0.3))) == 77


# (n, eps) -> (rb_rounds, fbr_rounds, m_rounds), as the schedule with
# floored paper formulas computed them
GOLDEN = {
    (4096, 0.1): (20, 256, 256),
    (1024, 0.05): (40, 256, 256),
    (512, 0.1): (20, 256, 256),
    (16, 0.05): (40, 256, 256),
    (2, 0.5): (4, 16, 43),
    (64, 0.9): (4, 96, 256),
}


@pytest.mark.parametrize("n, eps", sorted(GOLDEN))
def test_golden_values(n, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp, see test_eps_clamp_warns
        sched = build_schedule(n, eps)
    assert (sched.rb_rounds, sched.fbr_rounds, sched.m_rounds) == \
        GOLDEN[(n, eps)]
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
        lam_eps = lam(eps)
        tau = lam_eps * eps / log2n ** 2
        rb_tau_p = tau ** 2 * eps ** 3 / c
        m_tau_p = (tau * eps / c) ** 2 * math.sqrt(lam_eps)
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
        assert math.sqrt(c * INFLUENCE_TAU / math.sqrt(lam_eps)) > 1.0


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
    assert sched.fbr_rounds == min(math.ceil(2.0 * 8 / 0.2 ** 3), 256)
    assert sched.m_rounds == min(math.ceil(2.0 * 8 / math.sqrt(lam(0.2))),
                                 256)


def test_round_caps_apply():
    sched = build_schedule(4096, 0.05)
    assert sched.fbr_rounds == 256
    assert sched.m_rounds == 256
    small = build_schedule(2, 0.5)
    assert small.fbr_rounds == math.ceil(2.0 * 1 / 0.5 ** 3)
    assert small.m_rounds == math.ceil(2.0 * 1 / math.sqrt(lam(0.5)))


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
