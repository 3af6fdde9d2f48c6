"""Experiment orchestration: seeded trial suites, CSV/JSON emission, and the
hard run-level invariants (no false alarms, every certificate re-verifies).

Determinism contract: the content of every record is a pure function of
(suite config, master seed).  Trials draw from independent streams keyed by
trial index, so thread count and completion order cannot change any field.
The single exception is wall_ms, which reports measured time and is excluded
from reproducibility comparisons (see records_csv_deterministic_view).
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import InstanceFamily, generate
from .oracle import (
    OracleHandle,
    QueryBudgetExceededError,
    verify_certificate,
)
from .rng import SplitRng
from .schedule import build_schedule
from .tester import QueryLedger, mono_test_ltf

# verdict and diagnostic of a trial stopped by SuiteConfig.query_cap
ERROR = "error"
QUERY_BUDGET_DIAGNOSTIC = "error:query-budget"

CSV_COLUMNS = ["family", "n", "epsilon", "seed", "verdict", "diagnostic",
               "queries_total", "queries_rb", "queries_edge", "wall_ms",
               "distance", "distance_method"]


@dataclass(frozen=True)
class SuiteConfig:
    family: InstanceFamily
    count: int
    eps: float
    master_seed: int
    threads: int = 1
    mc_radius: float = 0.005
    query_cap: Optional[int] = None


@dataclass
class ExperimentRecord:
    trial: int
    family: str
    n: int
    epsilon: float
    seed: int
    verdict: str
    diagnostic: str
    certificate: Optional[dict]
    certificate_ok: Optional[bool]
    queries_total: int
    queries_rb: int
    queries_edge: int
    wall_ms: int
    distance: float
    distance_method: str
    known_monotone: bool

    def csv_row(self) -> list:
        return [self.family, self.n, repr(self.epsilon), self.seed,
                self.verdict, self.diagnostic, self.queries_total,
                self.queries_rb, self.queries_edge,
                self.wall_ms, repr(self.distance), self.distance_method]


def default_threads() -> int:
    env = os.environ.get("MONOTEST_THREADS")
    if env:
        return max(1, int(env))
    return min(2, os.cpu_count() or 1)


def run_trial(config: SuiteConfig, trial: int) -> ExperimentRecord:
    """Run one trial.  A trial that hits the query cap is recorded with
    verdict ERROR, its queries so far and the phase counts it finished."""
    root = SplitRng(config.master_seed, ("trial", trial))
    instance = generate(config.family, root.child("gen"),
                        mc_radius=config.mc_radius)
    sched = build_schedule(instance.spec.n, config.eps)
    handle = OracleHandle.for_spec(instance.spec, query_cap=config.query_cap)
    ledger = QueryLedger()
    t0 = time.perf_counter()
    try:
        verdict = mono_test_ltf(handle, config.eps, sched, root.child("test"),
                                ledger)
    except QueryBudgetExceededError:
        verdict = None
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    cert_dict = None
    cert_ok = None
    if verdict is not None and verdict.certificate is not None:
        cert_dict = verdict.certificate.to_dict()
        fresh = OracleHandle.for_spec(instance.spec)
        cert_ok = verify_certificate(fresh, verdict.certificate)
    return ExperimentRecord(
        trial=trial, family=instance.kind, n=instance.spec.n,
        epsilon=config.eps, seed=trial,
        verdict=ERROR if verdict is None else verdict.outcome,
        diagnostic=(QUERY_BUDGET_DIAGNOSTIC if verdict is None
                    else verdict.diagnostic),
        certificate=cert_dict,
        certificate_ok=cert_ok,
        queries_total=handle.query_count, queries_rb=ledger.queries_rb,
        queries_edge=ledger.queries_edge,
        wall_ms=wall_ms, distance=instance.distance.value,
        distance_method=instance.distance.method,
        known_monotone=instance.known_monotone)


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def summarize(records: list[ExperimentRecord]) -> dict:
    """Suite summary.  `trials` counts every record; the detection rate, its
    interval and the query statistics cover only the trials that finished,
    so a trial stopped by the query cap is counted under `errors` alone."""
    n_trials = len(records)
    done = [r for r in records if r.verdict != ERROR]
    rejections = [r for r in done if r.verdict == "non-monotone"]
    false_alarms = [r.trial for r in rejections if r.known_monotone]
    cert_checked = [r for r in rejections if r.certificate_ok is not None]
    cert_failures = [r.trial for r in cert_checked if not r.certificate_ok]
    queries = sorted(r.queries_total for r in done)
    lo, hi = wilson_interval(len(rejections), len(done))
    return {
        "trials": n_trials,
        "rejections": len(rejections),
        "detection_rate": len(rejections) / len(done) if done else 0.0,
        "detection_rate_wilson95": [lo, hi],
        "false_alarms": false_alarms,
        "certificates_checked": len(cert_checked),
        "certificate_failures": cert_failures,
        "errors": n_trials - len(done),
        "queries_mean": float(np.mean(queries)) if queries else 0.0,
        "queries_p50": int(queries[len(queries) // 2]) if queries else 0,
        "queries_p90": int(queries[(9 * len(queries)) // 10]) if queries else 0,
        "wall_ms_total": int(sum(r.wall_ms for r in records)),
        "hard_invariant_violation": bool(false_alarms or cert_failures),
    }


def run_suite(config: SuiteConfig):
    """Run all trials (work spread over a thread pool, records in trial
    order) and return (records, summary)."""
    workers = max(1, config.threads)
    if workers == 1:
        records = [run_trial(config, t) for t in range(config.count)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda t: run_trial(config, t),
                                    range(config.count)))
    return records, summarize(records)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def records_csv_deterministic_view(csv_text: str) -> str:
    """The CSV with the wall_ms column blanked.

    wall_ms holds measured time, the one field that legitimately differs
    between byte-identical reruns; every other byte must match exactly.
    """
    out_lines = []
    col = CSV_COLUMNS.index("wall_ms")
    for row in csv.reader(io.StringIO(csv_text)):
        row[col] = ""
        out_lines.append(",".join(str(c) for c in row))
    return "\n".join(out_lines) + "\n"


def write_outputs(records, summary, csv_path=None, json_path=None):
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records))
    if json_path:
        payload = {"summary": summary,
                   "records": [r.__dict__ for r in records]}
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
