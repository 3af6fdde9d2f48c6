"""The scripts import program names that no other test reaches through
them, so a name deleted from under a script would only show when someone
runs it.  scripts/bench_kernels.py also times each tree in a process that
imports that tree's own monotest, so a missing name would break the
parent/change comparison.  A small run of each script, every kernel and the
DP certifier included, runs here."""

import importlib.util
from pathlib import Path

import numpy as np

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
                "bisect", "edge"} <= set(row)
        assert all(f"eval.{r}rows" in row for r in bench.CALL_ROWS)
        assert all(np.isfinite(v) and v > 0 for v in row.values())
    assert "certify" in rows[str(n)]


def test_calibrate_estimators_runs(capsys):
    calibrate = load_script("calibrate_estimators")
    rows = calibrate.main(["--instances", "1", "--trials", "2"])
    assert capsys.readouterr().out.strip()
    assert [r["estimator"] for r in rows] == ["mean-decision"] * 2
    assert all(r["queries_per_call"] > 0 for r in rows)
