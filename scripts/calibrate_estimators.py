#!/usr/bin/env python3
"""Calibration sweep for the sampling estimators against exact spectra.

For a grid of (eta, delta) settings, measures the empirical failure rate of
the degree-1 mass estimate (the degree1_square_terms of a 6-coordinate set,
summed, from squares_sample_count(eta, delta, 6) queries) on random
integer-grid halfspaces at n=12, where the exact Walsh-Hadamard spectrum is
the ground truth.  The mean-decision rows do the same for the bounded mean
check (estimate_mean with a bound) against exact means: the rate at which
it lands on the wrong side of the bound, and its mean queries per call next
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
from monotest.spectral import (
    degree1_square_terms,
    estimate_mean,
    exact_spectrum,
    squares_sample_count,
)
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
    for eta, delta in [(0.1, 0.1), (0.05, 0.05), (0.15, 0.1)]:
        failures = 0
        queries = 0
        for inst in range(args.instances):
            spec = grid_spec(gen, 12)
            t_set = sorted(int(i) for i in gen.choice(12, 6, replace=False))
            truth = exact_spectrum(spec).degree1_mass(t_set)
            f = OracleHandle.for_spec(spec)
            m = squares_sample_count(eta, delta, len(t_set))
            for trial in range(args.trials):
                rng = SplitRng(args.seed, ("sq", eta, inst, trial))
                terms = degree1_square_terms(f, m, rng.generator)
                failures += abs(terms[t_set].sum() - truth) > eta
                queries += m
        total = args.instances * args.trials
        rows.append({"estimator": "degree1-mass", "eta": eta, "delta": delta,
                     "trials": total, "failure_rate": failures / total,
                     "queries_per_call": queries // total})

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
