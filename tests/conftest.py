"""Test-session setup: one BLAS thread, as the benchmark runs, and one
deterministic Hypothesis profile.

OpenBLAS reads its thread count when numpy is first imported, which is
after this file loads, so the pins take effect for the whole session;
a value already set in the environment is kept.

Every property test draws the same examples on every run: the profile
derives Hypothesis' seed from each test function and keeps no example
database, so a tier-1 run repeats.
"""

import os

from hypothesis import settings

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
