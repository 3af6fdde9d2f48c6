"""The scripts import program names that no other test reaches through
them, so a name deleted from under a script would only show when someone
runs it.  scripts/bench_kernels.py also times each tree in a process that
imports that tree's own monotest, so a missing name would break the
parent/change comparison.  A small run of each script, every kernel and the
DP certifier included, runs here."""

import importlib.util
from pathlib import Path

import numpy as np

from monotest import bits
from monotest.oracle import LTFSpec, OracleHandle
from monotest.rng import SplitRng
from monotest.schedule import BISECT_SAMPLES
from monotest.subroutines import EDGE_CHUNK, EDGE_FIRST_BATCH, bisect_edges

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_rows_run():
    bench = load_script("bench_kernels")
    n = bench.CERTIFY_SIZES[0]
    rows = bench.measure(sizes=(16, n), points=64, repeats=1)
    assert list(rows) == ["16", str(n)]
    for row in rows.values():
        assert {"eval.build", "eval.int", "eval.float", "sampler",
                "bisect", "edge", "edge.peak_mib"} <= set(row)
        assert all(f"eval.{r}rows" in row for r in bench.CALL_ROWS)
        assert all(np.isfinite(v) and v > 0 for v in row.values())
    assert "certify" in rows[str(n)]


def test_bench_kernels_bisect_column_runs_bisection_rounds():
    # a call that charged only its 2 * BISECT_SAMPLES first queries would
    # time the endpoint batch and no bisection round
    bench = load_script("bench_kernels")
    gen = np.random.default_rng(np.random.Philox(bench.SEED))
    f = bench.bisect_handle(bench.int_weights(1024, gen))
    bisect_edges(f, BISECT_SAMPLES, SplitRng(bench.SEED))
    assert f.query_count > 2 * BISECT_SAMPLES


def test_bench_kernels_edge_peak_pass_reaches_the_largest_batch():
    # the pass must draw a batch of the largest size the tester draws, or
    # its peak would miss the batch that costs the most
    bench = load_script("bench_kernels")
    n = 1024
    edges = bits.chunk_rows(EDGE_CHUNK, bits.nbytes(n), copies=2)
    f = OracleHandle.for_spec(LTFSpec(np.ones(n), 0.5))
    assert bench.edge_peak_mib(f, edges) > 0
    batches, total = EDGE_FIRST_BATCH, 0
    while batches < edges:
        total, batches = total + batches, 2 * batches
    assert f.query_count >= 2 * (total + edges)


def test_calibrate_estimators_runs(capsys):
    calibrate = load_script("calibrate_estimators")
    rows = calibrate.main(["--instances", "1", "--trials", "2"])
    assert capsys.readouterr().out.strip()
    assert [r["estimator"] for r in rows] == ["mean-decision"] * 2
    assert all(r["queries_per_call"] > 0 for r in rows)
