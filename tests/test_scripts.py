"""scripts/bench_kernels.py times each tree in a process that imports that
tree's own monotest; a program name it reads that the tree lacks would
break the parent/change comparison, so a small run of every kernel, the
DP certifier's included, runs here."""

import importlib.util
from pathlib import Path

import numpy as np

BENCH_KERNELS = (Path(__file__).resolve().parents[1] / "scripts"
                 / "bench_kernels.py")


def test_bench_kernels_rows_run():
    spec = importlib.util.spec_from_file_location("bench_kernels",
                                                  BENCH_KERNELS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    n = bench.CERTIFY_SIZES[0]
    rows = bench.measure(sizes=(16, n), points=64, repeats=1)
    assert list(rows) == ["16", str(n)]
    for row in rows.values():
        assert {"eval.build", "eval.int", "eval.float", "sampler",
                "byte_histograms", "edge"} <= set(row)
        assert all(f"eval.{r}rows" in row for r in bench.CALL_ROWS)
        assert all(np.isfinite(v) and v > 0 for v in row.values())
    assert "certify" in rows[str(n)]
