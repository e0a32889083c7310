"""Time one set-up in a fresh interpreter: import cuthho, build and verify cases.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken.  ``run.py`` runs it several times and reports
the median as ``setup_s``: users pay this on every CLI call.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports cuthho)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - t0)
