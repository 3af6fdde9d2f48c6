"""Instance generation with certified distances.

All families emit integer weights (InstanceFamily rejects a non-integer
heavy-coordinate weight at every n) and thresholds that are half-integers
or 0, so evaluations are exact (oracle.exact_in_float) and w.x - theta is
0 (the boundary, +1) or at least 1/2 away.  MAX_WEIGHT keeps instance
draws as they were; the evaluator does not need it.  Far instances ship
with a certified distance: exact counting for n <= TABLE_MAX_N, and above
that the subset-sum DP (truth.dist_ltf_to_monotone_dp, within a proven
rounding radius), which needs integer weights with sum |w_i| <=
truth.DP_MAX_SUM and raises otherwise.  No instance is certified by
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import TABLE_MAX_N, LTFSpec
from .rng import SplitRng
from .truth import (
    DistanceReport,
    WeightProfile,
    dist_ltf_to_monotone_dp,
    dist_ltf_to_monotone_exact,
    ltf_mean_dp,
)
# uncalled here; perfbench/tracing.py rebinds this name in its set-up spans
from .truth import dist_ltf_to_monotone_mc  # noqa: F401

MAX_WEIGHT = 4095.0
WEIGHT_SCALE = 16.0
PLANTED_MAX_ABS_MEAN = 0.9  # planted draws with a larger |E f| are redrawn
# adversarial: the share of negated coordinates, and theta over ||w||_2
ADVERSARIAL_NEG_FRAC = 0.3
ADVERSARIAL_BIAS = 0.6

MONOTONE_RANDOM = "monotone-random"
SIGNED_MAJORITY = "signed-majority"
PLANTED_NEGATIVE_MASS = "planted-negative-mass"
HEAVY_COORDINATE = "heavy-coordinate"
ADVERSARIAL = "adversarial"

FAMILY_KINDS = (MONOTONE_RANDOM, SIGNED_MAJORITY, PLANTED_NEGATIVE_MASS,
                HEAVY_COORDINATE, ADVERSARIAL)


@dataclass(frozen=True)
class InstanceFamily:
    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if (self.kind == HEAVY_COORDINATE
                and not float(self.params.get("heavy", 8.0)).is_integer()):
            raise ValueError("heavy-coordinate needs an integer heavy "
                             f"weight, got {self.params['heavy']}")


@dataclass(frozen=True)
class GeneratedInstance:
    spec: LTFSpec
    kind: str
    distance: DistanceReport
    profile: WeightProfile
    attempts: int

    @property
    def known_monotone(self) -> bool:
        return bool(np.all(self.spec.weights >= 0))


def _grid_magnitudes(gen: np.random.Generator, n: int,
                     scale: float = WEIGHT_SCALE) -> np.ndarray:
    """Positive integer weights, roughly half-normal with the given scale."""
    w = np.round(np.abs(gen.standard_normal(n)) * scale) + 1.0
    return np.minimum(w, MAX_WEIGHT)


def _half_integer(x: float) -> float:
    return math.floor(x) + 0.5


def _certify(spec: LTFSpec) -> DistanceReport:
    """Exact counting for n <= TABLE_MAX_N, else the subset-sum DP, whose
    ValueError names DP_MAX_SUM where it does not apply."""
    if spec.n <= TABLE_MAX_N:
        return dist_ltf_to_monotone_exact(spec)
    return dist_ltf_to_monotone_dp(spec)


def grid_spec(gen: np.random.Generator, n: int, scale: int = 8) -> LTFSpec:
    """A random signed integer-grid halfspace for the exact-oracle checks:
    weights round(scale * N(0,1)) with zeros raised to 1, and a half-integer
    threshold drawn from [-scale, scale)."""
    w = np.round(gen.standard_normal(n) * scale)
    w[w == 0] = 1.0
    return LTFSpec(w, float(gen.integers(-scale, scale)) + 0.5)


def generate(family: InstanceFamily, rng: SplitRng) -> GeneratedInstance:
    """Draw one instance of the family, with a certified distance report."""
    maker = {
        MONOTONE_RANDOM: _make_monotone_random,
        SIGNED_MAJORITY: _make_signed_majority,
        PLANTED_NEGATIVE_MASS: _make_planted_negative_mass,
        HEAVY_COORDINATE: _make_heavy_coordinate,
        ADVERSARIAL: _make_adversarial,
    }[family.kind]
    return maker(family, rng)


def _make_monotone_random(family, rng):
    gen = rng.child("draw").generator
    n = family.n
    w = _grid_magnitudes(gen, n)
    spread = float(np.linalg.norm(w))
    theta = _half_integer(float(gen.uniform(-0.5, 0.5)) * spread)
    spec = LTFSpec(w, theta)
    dist = DistanceReport("drop-negative-exact", 0.0, 0, 1 << n)
    return GeneratedInstance(spec, family.kind, dist,
                             WeightProfile.from_weights(w), 1)


def _make_signed_majority(family, rng):
    gen = rng.child("draw").generator
    n, k = family.n, int(family.params.get("k", 1))
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    w = np.ones(n)
    flip = gen.choice(n, size=k, replace=False)
    w[flip] = -1.0
    spec = LTFSpec(w, 0.0)
    return GeneratedInstance(spec, family.kind, _certify(spec),
                             WeightProfile.from_weights(w), 1)


def _make_planted_negative_mass(family, rng):
    n = family.n
    target = float(family.params.get("lambda_target", 0.25))
    for attempt in range(64):
        gen = rng.child("draw", attempt).generator
        w = _grid_magnitudes(gen, n)
        order = gen.permutation(n)
        total = float((w * w).sum())
        acc = 0.0
        flip = []
        for i in order:
            if acc >= target * total:
                break
            flip.append(i)
            acc += float(w[i]) ** 2
        w[flip] *= -1.0
        frac = WeightProfile.from_weights(w).neg_fraction
        if not (0.9 * target <= frac <= 1.1 * target):
            continue
        spec = LTFSpec(w, 0.5)
        if abs(ltf_mean_dp(spec)) > PLANTED_MAX_ABS_MEAN:
            continue
        return GeneratedInstance(spec, family.kind, _certify(spec),
                                 WeightProfile.from_weights(w), attempt + 1)
    raise RuntimeError("could not hit the negative-mass target")


def _make_heavy_coordinate(family, rng):
    gen = rng.child("draw").generator
    n = family.n
    heavy = float(family.params.get("heavy", 8.0))
    sign = float(family.params.get("sign", -1.0))
    w = np.ones(n)
    pos = int(gen.integers(0, n))
    w[pos] = sign * min(abs(heavy), MAX_WEIGHT)
    spec = LTFSpec(w, 0.0)
    return GeneratedInstance(spec, family.kind, _certify(spec),
                             WeightProfile.from_weights(w), 1)


def _make_adversarial(family, rng):
    """Heavy-tailed weights, a sizeable negative subset, and a threshold
    pushed toward one tail so the function is noticeably biased."""
    gen = rng.child("draw").generator
    n = family.n
    w = np.minimum(np.round(np.exp(gen.normal(1.0, 1.2, size=n))) + 1.0,
                   MAX_WEIGHT)
    flip = gen.choice(n, size=max(1, int(ADVERSARIAL_NEG_FRAC * n)),
                      replace=False)
    w[flip] *= -1.0
    theta = _half_integer(ADVERSARIAL_BIAS * float(np.linalg.norm(w)))
    spec = LTFSpec(w, theta)
    return GeneratedInstance(spec, family.kind, _certify(spec),
                             WeightProfile.from_weights(w), 1)
