"""Test-session setup: one BLAS thread, as the benchmark runs.

OpenBLAS reads its thread count when numpy is first imported, which is
after this file loads, so the pins take effect for the whole session;
a value already set in the environment is kept.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
