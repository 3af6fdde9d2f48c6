"""Experiment orchestration: seeded trial suites, CSV/JSON emission, and the
hard run-level invariants (no false alarms, and every certificate re-verifies
on the halfspace itself, see oracle.certificate_holds).

Determinism contract: the content of every record is a pure function of
(suite config, master seed).  Trials draw from independent streams keyed by
trial index, so no field depends on the order the trials run in.
The single exception is wall_ms, which reports measured time and is excluded
from reproducibility comparisons (see records_csv_deterministic_view).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import InstanceFamily, generate
from .oracle import (
    OracleHandle,
    QueryBudgetExceededError,
    certificate_holds,
)
from .rng import SplitRng
from .schedule import build_schedule
from .tester import mono_test_ltf

# verdict of a trial the tester did not finish, and the diagnostic of one
# stopped by SuiteConfig.query_cap; any other exception is recorded as
# "error:<its type name>"
ERROR = "error"
QUERY_BUDGET_DIAGNOSTIC = "error:query-budget"

CSV_COLUMNS = ["family", "n", "epsilon", "seed", "verdict", "diagnostic",
               "queries_total", "wall_ms", "distance", "distance_method"]


@dataclass(frozen=True)
class SuiteConfig:
    family: InstanceFamily
    count: int
    eps: float
    master_seed: int
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
    wall_ms: int
    distance: float
    distance_method: str
    known_monotone: bool

    def csv_row(self) -> list:
        return [self.family, self.n, repr(self.epsilon), self.seed,
                self.verdict, self.diagnostic, self.queries_total,
                self.wall_ms, repr(self.distance), self.distance_method]


def run_trial(config: SuiteConfig, trial: int) -> ExperimentRecord:
    """Run one trial.  A trial whose tester raises is recorded with verdict
    ERROR and its queries so far, so one failing trial does not abort a
    suite: the query cap gives diagnostic QUERY_BUDGET_DIAGNOSTIC, and any
    other exception "error:<ExceptionType>"."""
    root = SplitRng(config.master_seed, ("trial", trial))
    instance = generate(config.family, root.child("gen"))
    sched = build_schedule(instance.spec.n, config.eps)
    handle = OracleHandle.for_spec(instance.spec, query_cap=config.query_cap)
    t0 = time.perf_counter()
    try:
        verdict = mono_test_ltf(handle, config.eps, sched, root.child("test"))
        diagnostic = verdict.diagnostic
    except QueryBudgetExceededError:
        verdict, diagnostic = None, QUERY_BUDGET_DIAGNOSTIC
    except Exception as exc:
        # imported here, not at the top: every run would pay its memory
        import logging
        logging.getLogger(__name__).exception("trial %d: the tester raised",
                                              trial)
        verdict, diagnostic = None, f"error:{type(exc).__name__}"
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    cert_dict = None
    cert_ok = None
    if verdict is not None and verdict.certificate is not None:
        cert_dict = verdict.certificate.to_dict()
        cert_ok = certificate_holds(instance.spec, verdict.certificate)
    return ExperimentRecord(
        trial=trial, family=instance.kind, n=instance.spec.n,
        epsilon=config.eps, seed=trial,
        verdict=ERROR if verdict is None else verdict.outcome,
        diagnostic=diagnostic,
        certificate=cert_dict,
        certificate_ok=cert_ok,
        queries_total=handle.query_count, wall_ms=wall_ms,
        distance=instance.distance.value,
        distance_method=instance.distance.method,
        known_monotone=instance.known_monotone)


def wilson_interval(successes: int, trials: int):
    z = 1.96  # a 95% interval
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
    so a trial stopped by the query cap or by an exception is counted under
    `errors` alone."""
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
    """Run all trials in trial order and return (records, summary)."""
    records = [run_trial(config, t) for t in range(config.count)]
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
