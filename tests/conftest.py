"""Test-session set-up: BLAS and OpenMP run on one thread.

OpenBLAS reads its thread variables once, when numpy is first imported, and
pytest imports this file before any test module.  Unpinned, the n=4096
table product of LTFEvaluator sometimes costs 8 ms instead of 0.1 ms on a
shared host, as scripts/bench_kernels.py and perfbench also find.
"""

import os

os.environ.update({name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
