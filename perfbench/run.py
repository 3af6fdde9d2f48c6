#!/usr/bin/env python3
r"""monotest benchmark: one workload per call, in a pinned child process.

    python3 perfbench/run.py --workload mono-4096 --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  The tester is imported from `src/` of that
checkout (there is nothing to build).  The workload runs in a child process
whose BLAS/OpenMP thread variables are set to 1, so every trial runs on one
thread.  The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer ones
(spans are also written to `perfbench/traces/`).  The line before it holds
the environment and the metrics that exist only on some workloads.  The exit
code is 0 only when every trial passed its checks.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env(base: dict) -> dict:
    env = dict(base)
    env.update(PINNED_THREADS)
    # the checkout's own sources and the benchmark's modules, nothing else
    env["PYTHONPATH"] = f"{SRC}:{HERE}"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "monotest" / "__init__.py").is_file():
        print(f"perfbench: no monotest sources under {SRC}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=child_env(os.environ), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 and '"correct"' not in out:
        print(f"perfbench: workload exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
