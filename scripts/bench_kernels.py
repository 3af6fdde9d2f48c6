#!/usr/bin/env python3
"""Kernel micro-benchmark: ns per point of the packed-batch kernels.

Times, on one batch of QUERY_CHUNK points at each n in SIZES:

* the halfspace evaluator on an integer instance (`eval.int`, the exact
  branch) and a float instance (`eval.float`, the fsum-checked branch),
  both through the byte tables,
* `eval.build`, in microseconds per call, not ns per point: building
  `LTFEvaluator` for the integer instance (BUILDS in a row per run), which
  every fresh `OracleHandle.for_spec` pays,
* the sampler `bits.random_packed`,
* the byte-histogram kernel `bits.byte_histograms` over every byte position,
  with +-1 weights,
* one edge-tester batch (`edge`, in ns per edge, not per point): the
  coordinate draw, the sampler and both endpoint evaluations of
  `subroutines.EDGE_CHUNK` edges (fewer where the batch would exceed
  `bits.CHUNK_BYTES`) on the integer instance.  From n = 2048, whose rows
  are `oracle.PAIR_MIN_BYTES` wide, the evaluator gathers only the lo ends
  of that batch, so SIZES has widths on both sides of that choice.

Each figure is the best of REPEATS runs, timed with time.perf_counter.
BLAS and OpenMP run on one thread, as in perfbench: unpinned, OpenBLAS
splits the n=4096 table product of `eval.build` over two threads, and on a
shared host that hand-off can cost 100 times the product itself.
The result is stored under --tag in BENCH_kernels.json, keeping the rows of
other tags, so one file can hold two trees measured alike:

    PYTHONPATH=src python scripts/bench_kernels.py --tag change
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

# before numpy is imported, which reads them once
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402

from monotest import bits  # noqa: E402
from monotest.oracle import (  # noqa: E402
    QUERY_CHUNK, LTFEvaluator, LTFSpec, OracleHandle)
from monotest.subroutines import EDGE_CHUNK, _query_edges  # noqa: E402


OUT = Path("BENCH_kernels.json")
SIZES = (16, 20, 512, 1024, 2048, 4096, 8192)
REPEATS = 7
BUILDS = 20  # evaluator constructions per timed eval.build run
SEED = 0


def best_ns_per_point(fn, rows, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / rows


def kernel_row(n, rows, repeats, gen):
    w = np.round(np.abs(gen.standard_normal(n)) * 20.0) + 1.0
    theta = float(np.floor(0.1 * w.sum())) + 0.5
    specs = {"int": LTFSpec(w, theta),
             "float": LTFSpec(w + gen.uniform(0.0, 1e-3, size=n), theta)}
    batch = bits.random_packed(gen, rows, n)

    def build():
        for _ in range(BUILDS):
            LTFEvaluator(specs["int"])
    out = {"eval.build": 1e-3 * best_ns_per_point(build, BUILDS, repeats)}
    for name, spec in specs.items():
        ev = LTFEvaluator(spec)
        out[f"eval.{name}"] = best_ns_per_point(
            lambda: ev(batch), rows, repeats)
    out["sampler"] = best_ns_per_point(
        lambda: bits.random_packed(gen, rows, n), rows, repeats)
    v = gen.integers(0, 2, size=rows).astype(np.float64) * 2.0 - 1.0
    positions = np.arange(batch.shape[1])
    out["byte_histograms"] = best_ns_per_point(
        lambda: bits.byte_histograms(batch, v, positions), rows, repeats)
    f = OracleHandle.for_spec(specs["int"])
    edges = bits.chunk_rows(EDGE_CHUNK, bits.nbytes(n), copies=2)

    def edge_batch():
        coords = gen.integers(0, n, size=edges)
        _query_edges(f, bits.random_packed(gen, edges, n), coords)
    out["edge"] = best_ns_per_point(edge_batch, edges, repeats)
    return {k: round(x, 1) for k, x in out.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True,
                    help="name of this measurement, e.g. parent or change")
    args = ap.parse_args()

    gen = np.random.default_rng(np.random.Philox(SEED))
    kernels = {str(n): kernel_row(n, QUERY_CHUNK, REPEATS, gen)
               for n in SIZES}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["unit"] = (f"ns/point, best of repeats, one batch of {QUERY_CHUNK} "
                   "points; eval.build in us per LTFEvaluator construction")
    doc.setdefault("rows", {})[args.tag] = {
        "environment": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, **PINNED_THREADS},
        "repeats": REPEATS,
        "kernels": kernels,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for n, row in kernels.items():
        print(f"n={n}: " + ", ".join(f"{k} {v}" for k, v in row.items()))


if __name__ == "__main__":
    main()
