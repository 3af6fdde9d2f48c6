"""One benchmark workload, run in its own single-threaded process.

`run.py` starts this file with the BLAS/OpenMP thread variables pinned to 1
and `src` first on the path.  The process sets up the workload's instances
from `--seed`, runs its trials one after another, checks every verdict and
certificate, and prints two JSON lines: an `info` line (environment and the
counts behind every metric) and, last, the result line.

A trial is one call of `mono_test_ltf` plus the re-verification of the
certificate of a rejection; it is timed from outside.  The program receives
only the generated `LTFSpec` (behind an `OracleHandle`), the schedule and a
`SplitRng`.  With `--trace 1` every trial runs twice, untraced and then
traced with the same streams; the traced copy feeds the per-layer metrics
and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from monotest import generators
from monotest.generators import (
    ADVERSARIAL,
    MONOTONE_RANDOM,
    PLANTED_NEGATIVE_MASS,
    InstanceFamily,
)
from monotest.oracle import LTFSpec, OracleHandle, verify_certificate
from monotest.rng import SplitRng
from monotest.schedule import ParameterSchedule, build_schedule
from monotest.tester import mono_test_ltf

import tracing

SETUP_REPEATS = 3
TRACE_DIR = Path(__file__).resolve().parent / "traces"
MIN_TRIALS = 3
FLOAT_OFFSET_MAX = 1e-3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark cell.

    trial_rate is the trial rate measured when the workload was added, on one
    thread of a 2-CPU host; a run holds round(seconds * trial_rate) trials (at least
    MIN_TRIALS), so the trial list depends only on the seed and --seconds.
    pool caps the number of distinct instances (None: one per trial); trial
    i tests instance i % pool with its own tester stream.
    """

    name: str
    kind: str
    n: int
    eps: float
    trial_rate: float
    pool: int | None = None
    params: dict = field(default_factory=dict)
    float_offset: bool = False

    def trials(self, seconds: float) -> int:
        return max(MIN_TRIALS, round(seconds * self.trial_rate))


# Why these four: see BENCHMARK.json and NOTES.md.  mono-4096 runs the whole
# pipeline on the int16 evaluator; far-1024 rejects early and pays for MC
# certification in set-up; float-512 is the only float-evaluator traffic;
# small-16 is the truth-table backend with exact certification and sign-probe
# rejections, where the sampler and stream set-up are a large share.
WORKLOADS = {
    w.name: w for w in (
        Workload("mono-4096", MONOTONE_RANDOM, 4096, 0.1,
                 trial_rate=0.22),
        Workload("far-1024", PLANTED_NEGATIVE_MASS, 1024, 0.05,
                 trial_rate=1.05, pool=4, params={"lambda_target": 0.25}),
        Workload("float-512", MONOTONE_RANDOM, 512, 0.1,
                 trial_rate=0.88, float_offset=True),
        Workload("small-16", ADVERSARIAL, 16, 0.05,
                 trial_rate=41.0, pool=128),
    )
}


@dataclass
class Instance:
    spec: LTFSpec
    handle: OracleHandle  # inner handle; each trial wraps its query_packed
    known_monotone: bool
    known_far: bool


@dataclass
class Setup:
    workload: Workload
    schedule: ParameterSchedule
    instances: list
    seconds: float


@dataclass
class TrialResult:
    ms: float
    queries: int
    verdict: str
    diagnostic: str
    known_monotone: bool
    known_far: bool
    verified: bool  # a certificate was re-verified
    failure: str | None


def with_float_offsets(spec: LTFSpec, rng: SplitRng) -> LTFSpec:
    """Add a seeded offset in (0, FLOAT_OFFSET_MAX) to every weight of a
    positive-weight instance, so no weight is an integer and the evaluator
    cannot take its int16 path, while the instance stays monotone."""
    offsets = rng.generator.uniform(0.0, FLOAT_OFFSET_MAX, size=spec.n)
    weights = spec.weights + offsets
    if not (np.all(weights > 0.0) and np.all(weights != np.round(weights))):
        raise AssertionError("float workload needs positive non-integral "
                             "weights")
    return LTFSpec(weights, spec.theta)


def make_instance(wl: Workload, root: SplitRng, j: int) -> Instance:
    family = InstanceFamily(wl.kind, wl.n, wl.params)
    gen = generators.generate(family, root.child("instance", j))
    spec = gen.spec
    if wl.float_offset:
        spec = with_float_offsets(spec, root.child("offset", j))
    dist = gen.distance
    margin = dist.radius if dist.radius is not None else 0.0
    return Instance(
        spec=spec, handle=OracleHandle.for_spec(spec),
        known_monotone=bool(np.all(spec.weights >= 0.0)),
        known_far=dist.value - margin >= wl.eps)


def set_up(wl: Workload, seed: int, trials: int) -> Setup:
    """Generate and certify the instance pool, build the schedule and the
    inner handles.  Pure in (workload, seed, trials)."""
    t0 = time.perf_counter()
    root = SplitRng(seed, ("perfbench", wl.name))
    count = trials if wl.pool is None else min(wl.pool, trials)
    instances = [make_instance(wl, root, j) for j in range(count)]
    schedule = build_schedule(wl.n, wl.eps)
    return Setup(wl, schedule, instances, time.perf_counter() - t0)


def run_trial(inst: Instance, eps: float, sched: ParameterSchedule,
              rng: SplitRng, handle: OracleHandle) -> TrialResult:
    """Time one tester call plus re-verification, and judge it.

    A trial fails when it raises, when it rejects a known-monotone instance,
    or when its certificate does not re-verify on a fresh handle.
    """
    failure = None
    verdict = None
    verified = False
    t0 = time.perf_counter()
    try:
        verdict = mono_test_ltf(handle, eps, sched, rng)
        if verdict.certificate is not None:
            verified = True
            if not verify_certificate(OracleHandle.for_spec(inst.spec),
                                      verdict.certificate):
                failure = "certificate failed re-verification"
    except Exception as exc:  # a raising trial is recorded, not fatal
        failure = f"raised {type(exc).__name__}: {exc}"
    ms = 1e3 * (time.perf_counter() - t0)
    if verdict is not None and failure is None and inst.known_monotone \
            and not verdict.is_monotone:
        failure = "rejected a known-monotone instance"
    return TrialResult(
        ms=ms, queries=handle.query_count,
        verdict=verdict.outcome if verdict is not None else "error",
        diagnostic=verdict.diagnostic if verdict is not None else "",
        known_monotone=inst.known_monotone, known_far=inst.known_far,
        verified=verified, failure=failure)


def trial_inputs(setup: Setup, seed: int, i: int):
    inst = setup.instances[i % len(setup.instances)]
    rng = SplitRng(seed, ("perfbench", setup.workload.name, "trial", i))
    return inst, rng


def run_trials(setup: Setup, seed: int, trials: int) -> list:
    out = []
    for i in range(trials):
        inst, rng = trial_inputs(setup, seed, i)
        handle = OracleHandle(inst.handle.query_packed, inst.spec.n)
        out.append(run_trial(inst, setup.workload.eps, setup.schedule, rng,
                             handle))
    return out


def run_traced_trials(setup: Setup, seed: int, trials: int,
                      tracer: tracing.Tracer):
    """Each trial untraced then traced, with identical streams.  Returns
    (untraced results, traced results, failures of the trace checks)."""
    plain, traced, problems = [], [], []
    for i in range(trials):
        inst, rng = trial_inputs(setup, seed, i)
        handle = OracleHandle(inst.handle.query_packed, inst.spec.n)
        plain.append(run_trial(inst, setup.workload.eps, setup.schedule,
                               rng, handle))
        inst, rng = trial_inputs(setup, seed, i)
        handle = OracleHandle(tracer.traced_target(inst.handle.query_packed),
                              inst.spec.n)
        tracer.trial, tracer.handle = i, handle
        root = len(tracer.spans)
        with tracer.installed(tracing.TRIAL_BINDINGS, trace_rng=True):
            with tracer.span(tracing.TRIAL):
                res = run_trial(inst, setup.workload.eps, setup.schedule,
                                rng, handle)
        tracer.trial = tracer.handle = None
        traced.append(res)
        if not tracing.query_totals_agree(tracer, root, handle.query_count):
            problems.append(f"trial {i}: span queries do not sum to "
                            f"{handle.query_count}")
        if (res.verdict, res.diagnostic, res.queries) != \
                (plain[-1].verdict, plain[-1].diagnostic, plain[-1].queries):
            problems.append(f"trial {i}: tracing changed the run")
    return plain, traced, problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(results: list, setup_s: float) -> dict:
    """The gated metrics.  Costs are medians over trials: on small-16 a few
    per cent of trials exhaust the phase-1 rounds at many times the median
    cost, so sums and means over a run move with the seed (see NOTES.md)."""
    judged = [r for r in results if r.known_monotone or r.known_far]
    right = sum(1 for r in judged
                if (r.verdict == "monotone") == r.known_monotone)
    return {
        "trial_ms_p50": (statistics.median(r.ms for r in results), "ms"),
        "queries_per_trial_p50":
            (statistics.median(r.queries for r in results), "count"),
        "verdict_accuracy": (right / len(judged) if judged else 0.0, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def info_metrics(results: list) -> dict:
    """Metrics printed on the info line: the ones that exist on only some
    workloads, the mean-based ones, and failed_frac (which the result line
    carries as counts)."""
    ms = [r.ms for r in results]
    out = {
        "trials": (len(results), "count"),
        "failed_frac": (sum(1 for r in results if r.failure) / len(results),
                        "frac"),
        "trials_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "queries_per_trial": (sum(r.queries for r in results) / len(results),
                              "count"),
    }
    if len(results) >= 100:  # ten samples beyond the 90th percentile
        out["trial_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
    far = [r for r in results if r.known_far]
    if far:
        out["detect_rate"] = (sum(1 for r in far if r.verdict != "monotone")
                              / len(far), "frac")
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def diagnostics(results: list) -> dict:
    return dict(sorted(Counter(r.diagnostic for r in results).items()))


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        startup_s: float):
    """Set up SETUP_REPEATS times, run the trials, and return
    (result line, info line) as dicts.

    setup_s is startup_s (interpreter start and imports, measured once) plus
    the median set-up time.
    """
    # a traced run times every trial twice, so it holds half the trials
    trials = wl.trials(seconds / 2 if trace else seconds)
    tracer = tracing.Tracer() if trace else None
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup = None  # drop the previous pool before building the next
        if tracer is None:
            setup = set_up(wl, seed, trials)
        else:
            # only the last repeat's spans are kept
            tracer.spans.clear()
            with tracer.installed(tracing.SETUP_BINDINGS):
                setup = set_up(wl, seed, trials)
        setup_times.append(setup.seconds)
    setup_s = startup_s + statistics.median(setup_times)

    problems = []
    if trace:
        plain, results, problems = run_traced_trials(setup, seed, trials,
                                                     tracer)
        metric_values = tracing.layer_metrics(
            tracer, len(results), sum(1 for r in results if r.verified))
        metric_values["trace.overhead_frac"] = (
            statistics.median(r.ms for r in results)
            / statistics.median(r.ms for r in plain) - 1.0, "frac")
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACE_DIR / f"{wl.name}-seed{seed}.jsonl")
        timed, checked = plain, plain + results
    else:
        timed = checked = run_trials(setup, seed, trials)
        metric_values = end_to_end_metrics(timed, setup_s)

    failures = [f"trial {i}: {r.failure}" for i, r in enumerate(checked)
                if r.failure] + problems
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": sum(1 for r in checked if r.failure) + len(problems),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metric_values.items()},
    }
    info = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "setup_repeats_s": setup_times, "startup_s": startup_s,
        "instances": len(setup.instances),
        "measured_s": sum(r.ms for r in checked) / 1e3,
        "diagnostics": diagnostics(timed),
        "extra": {k: {"value": v, "unit": u}
                  for k, (v, u) in info_metrics(timed).items()},
        "failures": failures[:20],
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the launcher before it "
                         "started this process")
    args = ap.parse_args(argv)
    result, info = run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), time.monotonic() - args.t0)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
