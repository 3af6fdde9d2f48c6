"""Span recording for the traced benchmark run, from outside the program.

Spans are taken at the layer boundaries by rebinding each public name where
its caller looks it up: `tester` binds the `subroutines` and `spectral` names
it calls, `subroutines` binds the `spectral` names, and everything samples
through `bits.random_packed` and the `SplitRng.generator` property.  The
oracle is traced through its target: the trial's handle wraps the inner
handle's `query_packed` (see `traced_target`).  Nothing in the program is
edited; `Tracer.installed` puts every binding back when it exits.

A span records its name, start, end, parent, trial, the trial handle's query
count on entry and exit, and a small per-layer payload.  Spans stay in memory
until `Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

import monotest.bits as bits_mod
import monotest.generators as generators_mod
import monotest.subroutines as subroutines_mod
import monotest.tester as tester_mod
from monotest.oracle import Restriction
from monotest.rng import SplitRng
from monotest.subroutines import NEGATIVE

TRIAL = "trial"
ORACLE = "oracle.query_packed"
SAMPLER = "bits.random_packed"
RNG = "rng.generator"
RB = "tester.regularize_and_balance"
MAIN = "tester.main_procedure"
INFLUENCE = "subroutines.find_hi_influence_vars"
SIGN = "subroutines.check_weight_positive"
EDGE = "subroutines.edge_tester"
FBR = "subroutines.find_balanced_restriction"
MAINTAIN = "subroutines.maintain_regular_and_balanced"
SOS = "spectral.estimate_sum_of_squares"
MEAN = "spectral.estimate_mean"
CFR = "spectral.check_fourier_regular"
GENERATE = "generators.generate"
TRUTH_MC = "truth.dist_ltf_to_monotone_mc"
TRUTH_EXACT = "truth.dist_ltf_to_monotone_exact"


def _edge_budget(args, kwargs, out):
    # the edge tester's own sample size: ceil(4 m ln(1/delta) / eps) edges
    f, eps, delta = args[0], args[1], args[2]
    return math.ceil(4.0 * f.domain_size * math.log(1.0 / delta) / eps)


# (module, bound name, span name, payload extractor or None).  A name is
# wrapped in every module that calls it, under one span name.
TRIAL_BINDINGS = [
    (tester_mod, "regularize_and_balance", RB,
     lambda a, k, out: isinstance(out, Restriction)),
    (tester_mod, "main_procedure", MAIN, None),
    (tester_mod, "find_hi_influence_vars", INFLUENCE,
     lambda a, k, out: out.estimator_calls),
    (subroutines_mod, "find_hi_influence_vars", INFLUENCE,
     lambda a, k, out: out.estimator_calls),
    (tester_mod, "check_weight_positive", SIGN,
     lambda a, k, out: out.decision == NEGATIVE),
    (subroutines_mod, "check_weight_positive", SIGN,
     lambda a, k, out: out.decision == NEGATIVE),
    (tester_mod, "edge_tester", EDGE, _edge_budget),
    (tester_mod, "find_balanced_restriction", FBR, None),
    (tester_mod, "maintain_regular_and_balanced", MAINTAIN, None),
    (subroutines_mod, "estimate_sum_of_squares", SOS, None),
    (tester_mod, "estimate_mean", MEAN, None),
    (subroutines_mod, "estimate_mean", MEAN, None),
    (tester_mod, "check_fourier_regular", CFR, None),
    (subroutines_mod, "check_fourier_regular", CFR, None),
    (bits_mod, "random_packed", SAMPLER, lambda a, k, out: out.shape[0]),
]

SETUP_BINDINGS = [
    (generators_mod, "generate", GENERATE, None),
    (generators_mod, "dist_ltf_to_monotone_mc", TRUTH_MC,
     lambda a, k, out: a[1]),
    (generators_mod, "dist_ltf_to_monotone_exact", TRUTH_EXACT, None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "q0", "q1",
                 "payload")

    def __init__(self, name, start, parent, trial, q0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trial = trial
        self.q0 = q0
        self.q1 = q0
        self.payload = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def queries(self) -> int:
        return self.q1 - self.q0


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trial = None
        self.handle = None

    def _queries(self) -> int:
        return self.handle.query_count if self.handle is not None else 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self.trial, self._queries())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.q1 = self._queries()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def wrap(self, name: str, fn, payload=None):
        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if payload is not None:
                sp.payload = payload(args, kwargs, out)
            return out
        return traced

    def traced_target(self, inner_query_packed):
        """Oracle target recording one span per batch; its queries are the
        batch's rows (the outer handle charges before calling its target)."""
        def target(packed):
            sp = self.open(ORACLE)
            try:
                out = inner_query_packed(packed)
            finally:
                self.close(sp)
            sp.payload = packed.shape[0]
            return out
        return target

    @contextlib.contextmanager
    def installed(self, bindings, trace_rng: bool = False):
        saved = []
        original_generator = SplitRng.generator
        try:
            for module, attr, name, payload in bindings:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, payload))
            if trace_rng:
                SplitRng.generator = property(self._traced_generator(
                    original_generator.fget))
            yield self
        finally:
            SplitRng.generator = original_generator
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _traced_generator(self, fget):
        def generator(rng):
            if rng._gen is not None:  # cached: no stream is built
                return rng._gen
            sp = self.open(RNG)
            try:
                return fget(rng)
            finally:
                self.close(sp)
        return generator

    def write(self, path) -> None:
        """One JSON list per span: name, start, end, parent, trial, queries,
        payload (times in seconds relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, round(s.start - t0, 9),
                                     round(s.end - t0, 9), s.parent, s.trial,
                                     s.queries, s.payload]))
                fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int, verifications: int) -> dict:
    """Per-layer metrics of the traced trials and the traced set-up, as
    name -> (value, unit).

    Shares are of the summed duration of the trial spans; self time is a
    span's duration minus the durations of its direct children.
    """
    spans = tracer.spans
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    by_name: dict[str, list[int]] = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(idx)

    def group(name):
        return [spans[i] for i in by_name.get(name, [])]

    def busy(name):
        return sum(s.seconds for s in group(name))

    def self_seconds(name):
        return sum(spans[i].seconds - child_seconds[i]
                   for i in by_name.get(name, []))

    def queries(name):
        return sum(s.queries for s in group(name))

    def payload_sum(name):
        return sum(s.payload for s in group(name))

    trial_seconds = busy(TRIAL)

    def per_trial(x):
        return _ratio(x, trials)

    def share(seconds):
        return _ratio(seconds, trial_seconds)

    oracle_points = payload_sum(ORACLE)
    sampler_points = payload_sum(SAMPLER)
    rb_ids = set(by_name.get(RB, []))
    rb_rounds = sum(1 for s in group(MEAN) if s.parent in rb_ids)
    rb_useful = sum(1 for s in group(RB) if s.payload)
    signs = group(SIGN)
    edge_budget_queries = 2 * payload_sum(EDGE)  # two queries per edge
    ns, ms = 1e9, 1e3
    return {
        "oracle.ns_per_point":
            (ns * _ratio(busy(ORACLE), oracle_points), "ns/point"),
        "oracle.busy_share": (share(busy(ORACLE)), "frac"),
        "oracle.verify_certificate.calls_per_trial":
            (per_trial(verifications), "calls/trial"),
        "bits.random_packed.ns_per_point":
            (ns * _ratio(busy(SAMPLER), sampler_points), "ns/point"),
        "bits.random_packed.busy_share": (share(busy(SAMPLER)), "frac"),
        "rng.streams_per_trial": (per_trial(len(group(RNG))), "streams/trial"),
        "rng.busy_share": (share(busy(RNG)), "frac"),
        "spectral.estimate_sum_of_squares.calls_per_trial":
            (per_trial(len(group(SOS))), "calls/trial"),
        "spectral.estimate_sum_of_squares.queries_per_trial":
            (per_trial(queries(SOS)), "queries/trial"),
        "spectral.estimate_sum_of_squares.self_share":
            (share(self_seconds(SOS)), "frac"),
        "spectral.estimate_mean.queries_per_trial":
            (per_trial(queries(MEAN)), "queries/trial"),
        "spectral.estimate_mean.busy_share": (share(busy(MEAN)), "frac"),
        "spectral.check_fourier_regular.queries_per_trial":
            (per_trial(queries(CFR)), "queries/trial"),
        "subroutines.find_hi_influence_vars.queries_per_trial":
            (per_trial(queries(INFLUENCE)), "queries/trial"),
        "subroutines.find_hi_influence_vars.estimator_calls_per_trial":
            (per_trial(payload_sum(INFLUENCE)), "calls/trial"),
        "subroutines.find_hi_influence_vars.busy_share":
            (share(busy(INFLUENCE)), "frac"),
        "subroutines.edge_tester.queries_per_trial":
            (per_trial(queries(EDGE)), "queries/trial"),
        "subroutines.edge_tester.busy_share": (share(busy(EDGE)), "frac"),
        "subroutines.edge_tester.self_share":
            (share(self_seconds(EDGE)), "frac"),
        "subroutines.edge_tester.budget_used_frac":
            (_ratio(queries(EDGE), edge_budget_queries), "frac"),
        "subroutines.check_weight_positive.calls_per_trial":
            (per_trial(len(signs)), "calls/trial"),
        "subroutines.check_weight_positive.negative_frac":
            (_ratio(sum(1 for s in signs if s.payload), len(signs)), "frac"),
        "subroutines.find_balanced_restriction.calls_per_trial":
            (per_trial(len(group(FBR))), "calls/trial"),
        "subroutines.maintain_regular_and_balanced.calls_per_trial":
            (per_trial(len(group(MAINTAIN))), "calls/trial"),
        "tester.regularize_and_balance.queries_per_trial":
            (per_trial(queries(RB)), "queries/trial"),
        "tester.regularize_and_balance.busy_share": (share(busy(RB)), "frac"),
        "tester.rb_rounds_per_trial": (per_trial(rb_rounds), "rounds/trial"),
        "tester.rb_useful_round_frac": (_ratio(rb_useful, rb_rounds), "frac"),
        "tester.main_procedure.queries_per_trial":
            (per_trial(queries(MAIN)), "queries/trial"),
        "generators.generate.ms_per_instance":
            (ms * _ratio(busy(GENERATE), len(group(GENERATE))),
             "ms/instance"),
        "truth.dist_ltf_to_monotone_mc.ns_per_sample":
            (ns * _ratio(busy(TRUTH_MC), payload_sum(TRUTH_MC)), "ns/sample"),
        "truth.dist_ltf_to_monotone_exact.ms_per_call":
            (ms * _ratio(busy(TRUTH_EXACT), len(group(TRUTH_EXACT))),
             "ms/call"),
    }


def query_totals_agree(tracer: Tracer, root: int, expected: int) -> bool:
    """The query deltas of the spans directly under the trial span at index
    `root` must sum to the handle's count `expected`: a query made outside
    every traced phase makes them differ."""
    phases = sum(s.queries for s in tracer.spans[root:] if s.parent == root)
    return phases == expected
