"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from monotest.oracle import LTFSpec, OracleHandle  # noqa: E402
from monotest.schedule import build_schedule  # noqa: E402

import workload  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = launch("--workload", "small-16", "--seed", "3", "--seconds",
                  "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == declared
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert {"failed_frac", "trials", "trials_per_s", "queries_per_trial",
            "detect_rate"} <= set(info["extra"])
    assert info["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_workload_names_match_the_declaration():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_same_seed_same_queries_other_seed_other_inputs():
    wl = WORKLOADS["small-16"]
    first, _ = workload.run(wl, 5, 0.3, False, 0.0)
    again, _ = workload.run(wl, 5, 0.3, False, 0.0)
    for name in ("queries_per_trial_p50", "verdict_accuracy"):
        assert first["metrics"][name] == again["metrics"][name]
    a = workload.set_up(wl, 5, 4).instances
    b = workload.set_up(wl, 5, 4).instances
    c = workload.set_up(wl, 6, 4).instances
    assert all(np.array_equal(x.spec.weights, y.spec.weights)
               for x, y in zip(a, b))
    assert not all(np.array_equal(x.spec.weights, y.spec.weights)
                   for x, y in zip(a, c))


def test_float_workload_stays_off_the_integer_path():
    for inst in workload.set_up(WORKLOADS["float-512"], 9, 3).instances:
        w = inst.spec.weights
        assert np.all(w > 0) and np.all(w != np.round(w))
        assert inst.known_monotone


def test_lying_oracle_is_counted_failed():
    spec = LTFSpec(np.arange(1.0, 17.0), 0.5)
    truthful = OracleHandle.for_spec(spec)
    liar = OracleHandle(lambda packed: -truthful.query_packed(packed), 16)
    inst = workload.Instance(spec=spec, handle=liar, known_monotone=True,
                             known_far=False)
    setup = workload.Setup(WORKLOADS["small-16"], build_schedule(16, 0.05),
                           [inst], 0.0)
    results = workload.run_trials(setup, 1, 4)
    assert all(r.failure for r in results)
    assert workload.info_metrics(results)["failed_frac"][0] == 1.0


def test_stripped_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = launch("--workload", "small-16", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
