"""Benchmark of cuthho: closed-loop rounds of solves through the public API.

    python3 perfbench/run.py --workload sinsin-k1 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  The workload's rounds run one after the other, one solve at a
time: as many whole rounds as come nearest to ``--seconds``, and at least
two.  Each round is the same sequence of solves.  After the rounds the outputs are checked
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
solve twice, untraced and then traced layer by layer (``layertrace``),
and reports the per-layer metrics and the tracing overhead.

See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_THREADS = "1"  # pinned: the last digits of cond depend on the thread count
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
MIN_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    """Hash of the program and benchmark sources, to key recorded outputs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("cuthho").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def record_outputs(name: str, seed: int, csv: str) -> list[str]:
    """Store the round's CSV values; compare with an earlier run of the same code."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-blas{BLAS_THREADS}-{source_digest()}.csv"
    if path.exists() and path.read_text() != csv:
        return [f"CSV values differ from the earlier run recorded in {path.name}"]
    path.write_text(csv)
    print(f"csv: {path.relative_to(ROOT)}")
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuthho" / "__init__.py").is_file():
        print(f"error: no cuthho package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import cuthho
    import workloads

    if not Path(cuthho.__file__).resolve().is_relative_to(SRC):
        print(f"error: cuthho imported from {cuthho.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = wl.setup(args.seed)
    solves = wl.solves(inputs)
    if args.trace:
        return traced_run(wl, args, inputs, solves)

    setup_s = setup_seconds(wl.name, args.seed)
    rounds = [workloads.run_round(solves)]
    while len(rounds) < round_count(args.seconds, rounds[0].wall_s, MIN_ROUNDS):
        rounds.append(workloads.run_round(solves))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for j, rnd in enumerate(rounds):
        print(f"round {j}: {rnd.wall_s:.3f} s, solves "
              + " ".join(f"{t:.3f}" for t in rnd.solve_s))

    problems = check_rounds(wl, args.seed, inputs, rounds)
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "max_solve_s": (statistics.median(max(r.solve_s) for r in rounds), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return report(rounds, problems, metrics)


def traced_run(wl, args, inputs, solves) -> int:
    import layertrace
    import workloads

    untraced, traced, round_tracers, setup_tracers = [], [], [], []

    def pair() -> float:
        """A traced set-up, then a round with each solve untraced and traced.

        Running the two copies of each solve back to back puts both on
        the same moment of a shared machine, so their difference is the
        tracing overhead rather than the machine's drift.
        """
        t0 = time.perf_counter()
        with layertrace.Tracer() as tracer:
            wl.setup(args.seed)
        setup_tracers.append(tracer)
        tracer, plain, trace = layertrace.Tracer(), [], []
        for solve in solves:
            plain.append(workloads.run_round([solve]))
            with tracer:
                trace.append(workloads.run_round([solve]))
        untraced.append(workloads.joined(plain))
        traced.append(workloads.joined(trace))
        round_tracers.append(tracer)
        return time.perf_counter() - t0

    pairs = round_count(args.seconds, pair(), 1)
    while len(traced) < pairs:
        pair()

    problems = check_rounds(wl, args.seed, inputs, untraced + traced)
    metrics = layertrace.layer_metrics(round_tracers, setup_tracers)
    plain = statistics.median(r.wall_s for r in untraced)
    overhead = statistics.median(r.wall_s for r in traced) - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    return report(untraced + traced, problems, metrics)


def round_count(seconds: float, first_s: float, least: int) -> int:
    """Whole rounds nearest to ``seconds``, from the first round's length.

    A fixed count per run, rather than "until the time is up", keeps a
    run on a slow moment of a shared machine from making fewer rounds.
    """
    return max(least, round(seconds / first_s))


def check_rounds(wl, seed: int, inputs, rounds) -> list[str]:
    """The workload's output checks, then the CSV values against earlier runs."""
    import workloads

    problems, csv = workloads.check_rounds(wl, inputs, rounds)
    return problems + record_outputs(wl.name, seed, csv)


def report(rounds, problems, metrics) -> int:
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
