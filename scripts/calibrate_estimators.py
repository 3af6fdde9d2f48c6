#!/usr/bin/env python3
"""Calibration sweep for the bounded mean check against exact means.

For a few (eps, delta, bound) settings, measures on random integer-grid
halfspaces at n=12 the rate at which estimate_mean with a bound lands on
the wrong side of the bound, over the instances whose exact |mean| is at
most bound - eps or above bound + eps, and its mean queries per call next
to the fixed Hoeffding count.  Rates should sit well below the nominal
delta.

Example:
    python scripts/calibrate_estimators.py --trials 100
"""

import argparse
import json
import math

import numpy as np

from monotest.generators import grid_spec
from monotest.oracle import OracleHandle
from monotest.rng import SplitRng
from monotest.spectral import estimate_mean
from monotest.truth import exact_mean


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    gen = np.random.default_rng(np.random.Philox(args.seed))
    rows = []
    # bounded mean check: wrong side of the bound, over the instances whose
    # exact |mean| is at most bound - eps or above bound + eps
    for eps, delta, bound in [(0.05, 0.05, 0.3), (0.01, 1e-3, 0.03)]:
        wrong = 0
        decided = 0
        queries = 0
        for inst in range(args.instances):
            spec = grid_spec(gen, 12)
            mean = abs(exact_mean(spec))
            f = OracleHandle.for_spec(spec)
            for trial in range(args.trials):
                rng = SplitRng(args.seed, ("md", eps, inst, trial))
                est = estimate_mean(f, eps, delta, rng.generator, bound=bound)
                queries += est.queries_used
                if mean <= bound - eps or mean > bound + eps:
                    decided += 1
                    wrong += (abs(est.value) <= bound) != (mean <= bound)
        total = args.instances * args.trials
        rows.append({"estimator": "mean-decision", "eps": eps,
                     "delta": delta, "bound": bound,
                     "decidable_trials": decided,
                     "failure_rate": (wrong / decided) if decided else None,
                     "queries_per_call": queries // total,
                     "fixed_count": math.ceil(2 * math.log(2 / delta)
                                              / eps ** 2)})

    text = json.dumps(rows, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return rows


if __name__ == "__main__":
    main()
