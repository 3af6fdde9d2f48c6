import json
import math
import warnings

import numpy as np
import pytest

from monotest.schedule import (
    BISECT_HITS,
    BISECT_SAMPLES,
    DELTA,
    EDGE_DELTA,
    EDGE_EPS,
    INFLUENCE_TAU,
    build_schedule,
)


def lam(eps):
    """The paper's lambda, eps^2 / (36 ln(12/eps)), recomputed here."""
    return eps ** 2 / (36.0 * math.log(12.0 / eps))


# (n, eps) -> rb_rounds, as the schedule with floored paper formulas
# computed it
GOLDEN = {
    (4096, 0.1): 20,
    (1024, 0.05): 40,
    (512, 0.1): 20,
    (16, 0.05): 40,
    (2, 0.5): 4,
    (64, 0.9): 4,
}


@pytest.mark.parametrize("n, eps", sorted(GOLDEN))
def test_golden_values(n, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp, see test_eps_clamp_warns
        sched = build_schedule(n, eps)
    assert sched.rb_rounds == GOLDEN[(n, eps)]
    assert sched.eps == min(eps, 0.5)
    # the values every phase step and the edge test read as constants
    assert (INFLUENCE_TAU, DELTA, BISECT_SAMPLES, BISECT_HITS, EDGE_EPS,
            EDGE_DELTA) == (0.5, 1e-3, 30, 2, 0.2, 0.1)


def test_paper_formulas_stay_beyond_their_constants():
    # each paper formula, with C = 2, against the constant that replaces it,
    # for every n in 2 .. 2^20 and 60 values of eps in [1e-4, 1/2]
    c = 2.0
    log2n = np.log2(np.arange(2, 2 ** 20 + 1, dtype=np.float64))
    for eps in np.geomspace(1e-4, 0.5, 60):
        eps = float(eps)
        tau = lam(eps) * eps / log2n ** 2
        rb_tau_p = tau ** 2 * eps ** 3 / c
        assert rb_tau_p.max() < INFLUENCE_TAU
        assert (rb_tau_p ** 2 / c).max() < DELTA
        assert eps ** 3 / (c * math.log(1.0 / eps)) < EDGE_EPS
        # a regularity threshold above 1 passes every function, so the
        # phase step runs no regularity check
        assert math.sqrt(12.0 * INFLUENCE_TAU / eps) > 1.0


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


def test_schedule_serializable():
    d = build_schedule(128, 0.1).to_dict()
    # the exact keys `cli test` reports under "schedule"
    assert sorted(d) == ["bisect_hits", "bisect_samples", "delta",
                         "edge_delta", "edge_eps", "eps", "eps_requested",
                         "influence_tau", "n", "rb_rounds"]
    assert d["n"] == 128
    assert d["edge_eps"] == EDGE_EPS
    json.dumps(d)  # must be plain data


def test_schedule_deterministic():
    a = build_schedule(512, 0.17)
    b = build_schedule(512, 0.17)
    assert a == b
