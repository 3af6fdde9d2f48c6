#!/usr/bin/env python3
"""Digest of the testers' recorded behaviour, for checking that a refactor
changes nothing.

Runs fixed harness.run_suite cells that cover every instance family
(n <= 1024, eight trials each) and prints one sha256 per cell,
then one over all cells.  Each digest covers every record field except
wall_ms, the one field that measures time: verdicts, diagnostics,
certificates, query counts and certified distances.

The suite runs the default tester only, so the same cells are then run
through staged_test_ltf, on the same instances and test streams, and get
one sha256 each (and one over all of them) over its verdict, diagnostic,
certificate and total queries.  Those cover Phase 1's bisection
rejections (rb:negative-weight) as well as its edge tests.  Run it on two
trees and compare:

    PYTHONPATH=src python scripts/digest.py

main() also returns the two totals; tests/test_digest.py pins them.
"""

import hashlib
import json
import time

from monotest.generators import InstanceFamily, generate
from monotest.harness import SuiteConfig, run_suite
from monotest.oracle import OracleHandle
from monotest.rng import SplitRng
from monotest.schedule import build_schedule
from monotest.tester import staged_test_ltf

SEED = 20240
TRIALS = 8
# (family, n, params, eps): monotone passes and edge-tester rejections, the
# default tester's only way to reject, through the byte-table evaluator at
# small (n <= 20) and large n; on the staged path also Phase-1 rejections,
# where a bisection sample ends on an anti-monotone edge, and edge tests on
# restricted views
CELLS = [
    ("monotone-random", 512, {}, 0.1),
    ("monotone-random", 1024, {}, 0.05),
    ("signed-majority", 256, {"k": 8}, 0.05),
    ("planted-negative-mass", 1024, {"lambda_target": 0.25}, 0.05),
    ("heavy-coordinate", 64, {"heavy": 8.0, "sign": -1.0}, 0.1),
    ("heavy-coordinate", 128, {"heavy": 8.0, "sign": 1.0}, 0.1),
    ("adversarial", 16, {}, 0.05),
    ("adversarial", 20, {}, 0.1),
]


def record_lines(records) -> list[str]:
    lines = []
    for rec in records:
        fields = {k: v for k, v in rec.__dict__.items() if k != "wall_ms"}
        lines.append(json.dumps(fields, sort_keys=True))
    return lines


def staged_lines(family: InstanceFamily, eps: float) -> list[str]:
    """staged_test_ltf on each trial's instance, with the stream the suite
    gives the default tester (harness.run_trial)."""
    lines = []
    for trial in range(TRIALS):
        root = SplitRng(SEED, ("trial", trial))
        spec = generate(family, root.child("gen")).spec
        f = OracleHandle.for_spec(spec)
        verdict = staged_test_ltf(f, eps, build_schedule(spec.n, eps),
                                  root.child("test"))
        cert = verdict.certificate
        lines.append(json.dumps({
            "verdict": verdict.outcome, "diagnostic": verdict.diagnostic,
            "certificate": None if cert is None else cert.to_dict(),
            "queries_total": f.query_count}, sort_keys=True))
    return lines


def print_digests(title: str, cell_lines) -> str:
    """Print one sha256 per cell and one over all cells; return the last."""
    print(title)
    total = hashlib.sha256()
    for (kind, n, _params, eps), lines in cell_lines:
        text = "\n".join(lines) + "\n"
        total.update(text.encode())
        cell = hashlib.sha256(text.encode()).hexdigest()
        print(f"{kind:<22} n={n:<5} eps={eps:<5} {cell}")
    print(f"{'all cells':<39} {total.hexdigest()}")
    return total.hexdigest()


def main() -> tuple[str, str]:
    """Print the digests; return the (mono_test_ltf, staged_test_ltf)
    totals."""
    t0 = time.perf_counter()
    default, staged = [], []
    for cell in CELLS:
        kind, n, params, eps = cell
        family = InstanceFamily(kind, n, params)
        config = SuiteConfig(family=family, count=TRIALS, eps=eps,
                             master_seed=SEED)
        records, _summary = run_suite(config)
        default.append((cell, record_lines(records)))
        staged.append((cell, staged_lines(family, eps)))
    totals = (print_digests("mono_test_ltf (suite records)", default),
              print_digests("staged_test_ltf", staged))
    print(f"({time.perf_counter() - t0:.1f} s)")
    return totals


if __name__ == "__main__":
    main()
