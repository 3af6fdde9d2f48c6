#!/usr/bin/env python3
"""Calibration sweep for the sampling estimators against exact spectra.

For a grid of (eta, delta) settings, measures the empirical failure rate of
the degree-1 mass estimate and the regularity decision on random integer-
grid halfspaces at n=12, where the exact Walsh-Hadamard spectrum is the
ground truth.  Rates should sit well below the nominal delta.

Example:
    python scripts/calibrate_estimators.py --trials 100
"""

import argparse
import json

import numpy as np

from monotest.generators import grid_spec
from monotest.oracle import OracleHandle
from monotest.rng import SplitRng
from monotest.spectral import (
    NOT_REGULAR,
    REGULAR,
    check_fourier_regular,
    estimate_sum_of_squares,
    exact_spectrum,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

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
            for trial in range(args.trials):
                rng = SplitRng(args.seed, ("sq", eta, inst, trial))
                est = estimate_sum_of_squares(f, t_set, eta, delta,
                                              rng.generator)
                failures += abs(est.value - truth) > eta
                queries += est.queries_used
        total = args.instances * args.trials
        rows.append({"estimator": "degree1-mass", "eta": eta, "delta": delta,
                     "trials": total, "failure_rate": failures / total,
                     "queries_per_call": queries // total})

    for tau, delta in [(0.5, 0.1), (0.7, 0.05)]:
        wrong = 0
        decided = 0
        for inst in range(args.instances):
            spec = grid_spec(gen, 12)
            top = exact_spectrum(spec).max_abs_degree1()
            f = OracleHandle.for_spec(spec)
            for trial in range(args.trials):
                rng = SplitRng(args.seed, ("reg", tau, inst, trial))
                out = check_fourier_regular(f, None, tau, delta,
                                            rng.generator)
                if top >= tau:
                    decided += 1
                    wrong += out.decision != NOT_REGULAR
                elif top <= tau * tau / 4:
                    decided += 1
                    wrong += out.decision != REGULAR
        rows.append({"estimator": "regularity", "tau": tau, "delta": delta,
                     "decidable_trials": decided,
                     "failure_rate": (wrong / decided) if decided else None})

    text = json.dumps(rows, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
