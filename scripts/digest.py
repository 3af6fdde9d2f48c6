#!/usr/bin/env python3
"""Digest of the tester's recorded behaviour, for checking that a refactor
changes nothing.

Runs fixed harness.run_suite cells that cover every instance family
(n <= 1024, eight trials each, one thread) and prints one sha256 per cell,
then one over all cells, in about 10 s on one core.  Each digest covers
every record field except wall_ms, the one field that measures time:
verdicts, diagnostics, certificates, per-phase query counts and certified
distances.  Run it on two trees and compare:

    PYTHONPATH=src python scripts/digest.py
"""

import hashlib
import json
import time

from monotest.generators import InstanceFamily
from monotest.harness import SuiteConfig, run_suite

SEED = 20240
TRIALS = 8
# (family, n, params, eps): monotone passes and edge-tester rejections, the
# default tester's only way to reject, through the truth-table (n <= 20) and
# the byte-table evaluators
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


def main() -> None:
    t0 = time.perf_counter()
    total = hashlib.sha256()
    for kind, n, params, eps in CELLS:
        config = SuiteConfig(family=InstanceFamily(kind, n, params),
                             count=TRIALS, eps=eps, master_seed=SEED,
                             threads=1)
        records, _summary = run_suite(config)
        text = "\n".join(record_lines(records)) + "\n"
        total.update(text.encode())
        cell = hashlib.sha256(text.encode()).hexdigest()
        print(f"{kind:<22} n={n:<5} eps={eps:<5} {cell}")
    print(f"{'all cells':<39} {total.hexdigest()}")
    print(f"({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    main()
