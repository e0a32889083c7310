"""Self-test of the benchmark's checks: each must fail on a wrong input.

    python3 perfbench/selftest.py

Runs from the root of a checkout in under a minute and exits 1 if a
check accepts an output it should refuse, or refuses a right one.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def expect(label: str, problems: list[str], want_failure: bool) -> bool:
    ok = bool(problems) == want_failure
    verdict = "PASS" if ok else "FAIL"
    seen = "; ".join(problems) if problems else "no problem found"
    print(f"{verdict}: {label}: {seen}")
    return ok


def one_round(wl, inputs):
    rnd = workloads.run_round(wl.solves(inputs))
    return rnd, wl.finish(rnd.records)


def main() -> int:
    results = []

    # sinsin with f scaled by 2: the discrete solution tends to 2u, not u
    sinsin = dataclasses.replace(workloads.WORKLOADS["sinsin-k1"], levels=(0, 1))
    case = sinsin.setup(0)
    wrong = dataclasses.replace(case, f=lambda i, pts: 2.0 * case.f(i, pts))
    _, records = one_round(sinsin, wrong)
    results.append(expect("sinsin, f scaled by 2: rate check", sinsin.check(wrong, records), True))

    # jump-mixed without its value jump g_D
    jump = workloads.WORKLOADS["jump-mixed-k3-r10"]
    case = jump.setup(0)
    wrong = dataclasses.replace(case, g_D=None)
    _, records = one_round(jump, wrong)
    results.append(expect("jump-mixed, g_D dropped: rate check", jump.check(wrong, records), True))

    # conditioning: the genuine outputs pass, perturbed ones do not
    cond = workloads.WORKLOADS["square-cond-k3"]
    exponents = [2, 9]
    rnd, records = one_round(cond, exponents)
    results.append(expect("square sweep, genuine: cond checks", cond.check(exponents, records), False))
    off = [dataclasses.replace(records[0], cond=records[0].cond * (1.0 + 1e-5)), records[1]]
    results.append(expect("square sweep, cond off by 1e-5: eigenvalue check",
                          cond.check(exponents, off), True))
    spread = [records[0], dataclasses.replace(records[1], cond=records[0].cond * 20.0)]
    results.append(expect("square sweep, cond x20 at one point: spread check",
                          cond.check(exponents, spread), True))

    # rounds that differ in the last bit of one value
    other = dataclasses.replace(rnd, records=[
        dataclasses.replace(records[0], cond=float(records[0].cond * (1.0 + 2.0**-52))),
        records[1],
    ])
    problems, _ = workloads.check_rounds(cond, exponents, [rnd, other])
    results.append(expect("rounds differing in one ulp: determinism check", problems, True))

    print(f"{sum(results)} of {len(results)} self-tests pass")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
