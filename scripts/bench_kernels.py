#!/usr/bin/env python3
"""Kernel micro-benchmark: ns per point of the packed-batch kernels.

Times, on one batch of POINTS points at each n in SIZES:

* the halfspace evaluator on an integer instance (`eval.int`, the exact
  branch) and a float instance (`eval.float`, the fsum-checked branch),
  both through the byte tables,
* `eval.<r>rows`, in microseconds per call, not ns per point: the evaluator
  on the integer instance called on a batch of r rows, for r in CALL_ROWS.
  These are the batches of adaptive rounds and certificate checks, where
  the evaluator's fixed cost per call weighs most, and, at 4096 rows, the
  lo half of an edge batch of 4096 edges.  Every batch takes the same
  gather, `oracle.FLAT_BLOCK_BYTES` of rows per take, so from 2 to 16384
  points they show its cost per call and per row at every width,
* `eval.build`, in microseconds per call: building `LTFEvaluator` for the
  integer instance (BUILDS in a row per run), which every fresh
  `OracleHandle.for_spec` pays,
* the sampler `bits.random_packed`,
* `bisect`, in microseconds per call, not ns per point: one call of
  `subroutines.bisect_edges` with `schedule.BISECT_SAMPLES` samples,
  Phase 1's search for the high-influence variables, on the integer
  instance's weights with threshold BISECT_THETA.  The integer instance's
  own threshold is about two standard deviations of w.x out from n = 1024,
  where f(x) = f(-x) on every sample and a call would be its first batch
  alone; at BISECT_THETA, f(x) = f(-x) only where w.x = 0, so nearly every
  sample bisects down to an edge,
* one edge-tester slice (`edge`, in ns per edge, not per point): the
  coordinate draw and the `subroutines._slice_witness` call that the
  tester makes for each slice of a batch (the sampler and both endpoint
  evaluations), on the integer instance, over as many edges as the
  tester's largest slice holds: `_slice_rows(nb, 2)` edges, whose lo and
  hi ends fit in `subroutines.SLICE_BYTES` (1024 edges at n = 4096), or
  the largest batch, `subroutines.EDGE_CHUNK` edges within
  `bits.CHUNK_BYTES`, where that is smaller (n <= 512).  From n = 2048,
  whose rows are `oracle.PAIR_MIN_BYTES` wide, the evaluator gathers only
  the lo ends of a slice, so SIZES has widths on both sides of that
  choice,
* `edge.peak_mib`, in MiB: the tracemalloc peak of one
  `subroutines.edge_tester` pass on the integer instance, with eps set so
  that its budget, twice the largest batch, reaches a batch of that
  size.  It counts the arrays numpy and Python allocate during the pass,
  not the evaluator's tables, which exist before it,
* `certify`, in milliseconds per call and only at n in CERTIFY_SIZES:
  `truth.dist_ltf_to_monotone_dp` on a planted-negative-mass instance,
  which is how `generate` certifies a far instance above n = 20 (best of
  CERTIFY_REPEATS calls).  It is timed through the DP itself, whose
  signature has not changed since it was added, rather than through
  `generators._certify`, whose signature has.

Each figure is the best of REPEATS runs, timed with time.perf_counter, in
one process; one process of identical code can land in a slower speed mode
than the next on a shared host.  So each tree named on the command line is
timed in PROCESSES fresh processes, interleaved with the other trees' (the
order alternates from round to round), and every figure stored is the
best over that tree's processes.  A process imports monotest from the
tree's `src/` and runs this file's timing code, so all trees are timed
alike.  BLAS and OpenMP run on one thread, as in perfbench: unpinned,
OpenBLAS splits the n=4096 table product of `eval.build` over two threads,
and on a shared host that hand-off can cost 100 times the product itself.
Each tree's result is stored under its tag in BENCH_kernels.json, keeping
the rows of other tags.  From the root of a checkout, with a checkout of
the parent commit in ../parent:

    python scripts/bench_kernels.py parent=../parent change=.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# before numpy is imported, which reads them once
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402


OUT = Path("BENCH_kernels.json")
SIZES = (16, 20, 512, 1024, 2048, 4096, 8192, 16384)
POINTS = 16384  # rows of the batch behind the ns/point columns
CERTIFY_SIZES = (1024, 4096)  # n of the certify column
CERTIFY_REPEATS = 3
CALL_ROWS = (2, 8, 128, 256, 4096)  # batch rows of the eval.<r>rows columns
CALLS = 20  # evaluator calls per timed eval.<r>rows run
REPEATS = 7
PROCESSES = 5  # fresh processes per tree
BUILDS = 20  # evaluator constructions per timed eval.build run
BISECT_THETA = 0.5  # threshold of the bisect column's instance
SEED = 0


def best_ns_per_point(fn, rows, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / rows


def int_weights(n, gen):
    """The integer instance's weights: |N(0, 1)| scaled by 20, rounded, plus
    1."""
    return np.round(np.abs(gen.standard_normal(n)) * 20.0) + 1.0


def bisect_handle(w):
    """The bisect column's oracle: weights w, threshold BISECT_THETA."""
    from monotest.oracle import LTFSpec, OracleHandle

    return OracleHandle.for_spec(LTFSpec(w, BISECT_THETA))


def kernel_row(n, rows, repeats, gen):
    from monotest import bits
    from monotest.oracle import LTFEvaluator, LTFSpec, OracleHandle
    from monotest.rng import SplitRng
    from monotest.schedule import BISECT_SAMPLES
    from monotest.subroutines import (
        EDGE_CHUNK, _slice_rows, _slice_witness, bisect_edges)

    w = int_weights(n, gen)
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
    for r in CALL_ROWS:
        small = bits.random_packed(gen, r, n)

        def calls():
            for _ in range(CALLS):
                ev(small)
        out[f"eval.{r}rows"] = 1e-3 * best_ns_per_point(calls, CALLS, repeats)
    out["sampler"] = best_ns_per_point(
        lambda: bits.random_packed(gen, rows, n), rows, repeats)
    g = bisect_handle(w)
    out["bisect"] = 1e-3 * best_ns_per_point(
        lambda: bisect_edges(g, BISECT_SAMPLES, SplitRng(SEED)), 1, repeats)
    f = OracleHandle.for_spec(specs["int"])
    nb = bits.nbytes(n)
    batch = bits.chunk_rows(EDGE_CHUNK, nb, copies=2)
    edges = min(batch, _slice_rows(nb, 2))

    def edge_slice():
        _slice_witness(f, gen, gen.integers(0, n, size=edges))
    out["edge"] = best_ns_per_point(edge_slice, edges, repeats)
    out["edge.peak_mib"] = edge_peak_mib(
        OracleHandle.for_spec(specs["int"]), batch)
    if n in CERTIFY_SIZES:
        out["certify"] = certify_ms(n)
    return {k: round(x, 1) for k, x in out.items()}


def edge_peak_mib(f, edges):
    """tracemalloc peak, in MiB, of one edge_tester pass on f (delta = 0.1)
    whose budget, ceil(n ln(10) / (2 eps)) edges, is 2 * edges: from a
    first batch of 64 the batches double, so that budget reaches a batch of
    `edges`.  A tree whose tester takes ceil(n ln(10) / eps) edges draws
    twice that budget, in batches no larger."""
    from monotest.rng import SplitRng
    from monotest.subroutines import edge_tester

    eps = f.ambient_n * math.log(10.0) / (4 * edges)
    tracemalloc.start()
    try:
        edge_tester(f, eps, 0.1, SplitRng(SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / float(1 << 20)


def certify_ms(n):
    """ms per truth.dist_ltf_to_monotone_dp call on a planted-negative-mass
    instance."""
    from monotest.generators import (
        PLANTED_NEGATIVE_MASS, InstanceFamily, generate)
    from monotest.rng import SplitRng
    from monotest.truth import dist_ltf_to_monotone_dp

    rng = SplitRng(SEED, ("bench-kernels", "certify", n))
    spec = generate(InstanceFamily(PLANTED_NEGATIVE_MASS, n), rng).spec
    return 1e-6 * best_ns_per_point(lambda: dist_ltf_to_monotone_dp(spec), 1,
                                    CERTIFY_REPEATS)


def measure(sizes=SIZES, points=POINTS, repeats=REPEATS) -> dict:
    """Every kernel at every n in sizes, timed in this process."""
    gen = np.random.default_rng(np.random.Philox(SEED))
    return {str(n): kernel_row(n, points, repeats, gen) for n in sizes}


def measure_in_process(tree: Path) -> dict:
    """measure() in a fresh process that imports monotest from tree/src."""
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, __file__, "--child"], env=env,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TAG=DIR",
                    help="a tag and the checkout to time, e.g. change=.")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return
    trees = [t.split("=", 1) for t in args.trees]
    if not trees or any(len(t) != 2 for t in trees):
        ap.error("name at least one tree as TAG=DIR")
    runs = {tag: [] for tag, _ in trees}
    for i in range(PROCESSES):
        for tag, tree in (trees if i % 2 == 0 else trees[::-1]):
            runs[tag].append(measure_in_process(Path(tree).resolve()))
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["unit"] = ("ns/point on one batch of 16384 points; edge in ns per "
                   "edge on one edge-tester slice; eval.build and "
                   "eval.<r>rows in us per call, certify in ms per call, "
                   "edge.peak_mib in MiB; each the best of repeats in a "
                   "process, then of processes")
    for tag, results in runs.items():
        kernels = {n: {k: min(r[n][k] for r in results) for k in row}
                   for n, row in results[0].items()}
        doc.setdefault("rows", {})[tag] = {
            "environment": {"nproc": os.cpu_count(),
                            "python": platform.python_version(),
                            "numpy": np.__version__, **PINNED_THREADS},
            "repeats": REPEATS,
            "processes": PROCESSES,
            "kernels": kernels,
        }
        print(tag)
        for n, row in kernels.items():
            print(f"  n={n}: " + ", ".join(f"{k} {v}" for k, v in row.items()))
    OUT.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
