"""The test session's own setup (see conftest.py)."""

import os

import numpy as np


def test_blas_runs_one_thread():
    # numpy is imported after conftest.py pins the BLAS pool, so a product
    # large enough to be threaded still runs in the process's only thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1", var
    a = np.ones((400, 400))
    assert (a @ a)[0, 0] == 400.0
    with open("/proc/self/status") as status:
        threads = next(line for line in status if line.startswith("Threads:"))
    assert int(threads.split()[1]) == 1
