"""The benchmark's workloads: inputs from a seed, one round of solves, checks.

Every workload calls cuthho through its public functions only, and
through module attributes (``study.solve_single``, not a name imported
from it), so that the tracer's wrappers are the ones called.

A round is the workload's whole sequence of solves, run one at a time.
Its checks test properties the method must have, never stored values.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cuthho import assembly, cases, geometry, levelset, mesh, study
from cuthho.errors import CutHHOError

CENTER_SHIFT = 0.01  # |dx|, |dy| of the circle centre, at most
RADIUS_SHIFT = 0.005  # |dR| of the circle radius, at most
SQUARE_EXPONENTS = tuple(range(2, 10))  # criterion 7: delta = 0.5e-p


@dataclass
class Round:
    records: list  # study.RunRecord, one per solve that succeeded
    solve_s: list[float]
    attempted: int
    failed: int
    wall_s: float


def csv_text(records: list) -> str:
    """The records in the package's CSV schema, with the wall time zeroed.

    Every other column must repeat bit for bit for identical inputs.
    """
    return study.records_to_csv([dataclasses.replace(r, wall_time_s=0.0) for r in records])


def run_round(solves: list[Callable[[], list]]) -> Round:
    """Run the solves in order, each to its end before the next starts."""
    records, times, failed = [], [], 0
    t0 = time.perf_counter()
    for solve in solves:
        ts = time.perf_counter()
        try:
            records.extend(solve())
        except CutHHOError as exc:
            failed += 1
            print(f"solve failed: {exc}")
        times.append(time.perf_counter() - ts)
    return Round(records, times, len(solves), failed, time.perf_counter() - t0)


def joined(rounds: list[Round]) -> Round:
    """Rounds run one after another, as one round."""
    return Round([rec for r in rounds for rec in r.records],
                 [t for r in rounds for t in r.solve_s],
                 sum(r.attempted for r in rounds), sum(r.failed for r in rounds),
                 sum(r.wall_s for r in rounds))


def check_rounds(wl, inputs, rounds: list[Round]) -> tuple[list[str], str]:
    """Problems found in the rounds' outputs, and the first round's CSV.

    Every round must give the same CSV values bit for bit, and the first
    must pass the workload's own checks.
    """
    records = [wl.finish(r.records) for r in rounds]
    csvs = [csv_text(rec) for rec in records]
    problems = [f"round {j} CSV values differ from round 0"
                for j, text in enumerate(csvs) if text != csvs[0]]
    return problems + wl.check(inputs, records[0]), csvs[0]


# ----------------------------------------------------------------------
# convergence workloads
# ----------------------------------------------------------------------

def shifted_circle(seed: int) -> levelset.Circle:
    """The registered circle for seed 0, else one shifted by the seed."""
    if seed == 0:
        return levelset.Circle(cases.CENTER, cases.RADIUS)
    rng = np.random.default_rng(seed)
    dx, dy = rng.uniform(-CENTER_SHIFT, CENTER_SHIFT, size=2)
    dr = rng.uniform(-RADIUS_SHIFT, RADIUS_SHIFT)
    return levelset.Circle((cases.CENTER[0] + float(dx), cases.CENTER[1] + float(dy)),
                           cases.RADIUS + float(dr))


@dataclass(frozen=True)
class Convergence:
    """Energy errors of one case over mesh levels at one degree."""

    name: str
    why: str
    case: str
    k: int
    levels: tuple[int, ...]
    r: int
    theta: float
    min_rate: float  # on the finest pair of levels
    monotone: bool  # energy errors must strictly decrease

    def setup(self, seed: int) -> cases.Case:
        """Build and verify the seed's case."""
        ls = shifted_circle(seed)
        if not levelset.interface_clear_of_boundary(ls):
            raise CutHHOError(f"seed {seed}: interface touches the boundary")
        case = dataclasses.replace(cases.make_case(self.case), levelset=ls)
        cases.verify_case(case)
        return case

    def solves(self, case: cases.Case) -> list[Callable[[], list]]:
        def level_solve(level):
            def run():
                rec, _, _ = study.solve_single(case, self.k, level, r=self.r,
                                               theta=self.theta, check_case=False)
                return [rec]
            return run
        return [level_solve(level) for level in self.levels]

    def finish(self, records: list) -> list:
        """Fill the rate column as ``convergence_study`` does."""
        out = []
        for rec in records:
            if out and out[-1].energy_error and rec.energy_error:
                rec = dataclasses.replace(
                    rec, rate=float(np.log2(out[-1].energy_error / rec.energy_error)))
            out.append(rec)
        return out

    def check(self, case: cases.Case, records: list) -> list[str]:
        if len(records) != len(self.levels):
            return []  # a failed solve is counted as failed, not checked
        errors = [rec.energy_error for rec in records]
        if not all(e is not None and math.isfinite(e) and e > 0 for e in errors):
            return [f"energy errors not finite and positive: {errors}"]
        problems = []
        if self.monotone and not all(b < a for a, b in zip(errors, errors[1:])):
            problems.append(f"energy errors do not strictly decrease: {errors}")
        rate = records[-1].rate
        if not rate >= self.min_rate:
            problems.append(f"finest-pair rate {rate:.4f} < {self.min_rate}")
        return problems


# ----------------------------------------------------------------------
# conditioning workload
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Conditioning:
    """Condition numbers along the square-front sweep of criterion 7."""

    name: str
    why: str
    k: int
    level: int
    r: int
    theta: float
    points: int  # sweep points per round
    max_spread: float  # cond max/min over the sweep
    eig_rtol: float

    def setup(self, seed: int) -> list[int]:
        """The seed's sweep exponents: the two ends for seed 0."""
        if seed == 0:
            return [SQUARE_EXPONENTS[0], SQUARE_EXPONENTS[-1]]
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(SQUARE_EXPONENTS), size=self.points, replace=False)
        return sorted(SQUARE_EXPONENTS[j] for j in picked)

    def solves(self, exponents: list[int]) -> list[Callable[[], list]]:
        def point(p):
            def run():
                return study.conditioning_study("square", [p], [self.k], level=self.level,
                                                theta=self.theta, r=self.r)
            return run
        return [point(p) for p in exponents]

    def finish(self, records: list) -> list:
        return records

    def check(self, exponents: list[int], records: list) -> list[str]:
        if len(records) != len(exponents):
            return []  # a failed solve is counted as failed, not checked
        conds = [rec.cond for rec in records]
        if not all(c is not None and math.isfinite(c) and c >= 1.0 for c in conds):
            return [f"condition numbers not finite and >= 1: {conds}"]
        problems = []
        if max(conds) / min(conds) > self.max_spread:
            problems.append(f"cond max/min {max(conds) / min(conds):.3f} > {self.max_spread}")
        # cross-check the first point against eigenvalues of System.reduced()
        p = exponents[0]
        lam = reduced_eigenvalues(p, self.k, self.level, self.theta, self.r)
        if not lam[0] > 0.0:
            problems.append(f"square p={p}: lambda_min {lam[0]:.3e} is not positive")
        else:
            ratio = float(lam[-1] / lam[0])
            if abs(conds[0] - ratio) > self.eig_rtol * ratio:
                problems.append(f"square p={p}: cond {conds[0]!r} but "
                                f"lambda_max/lambda_min {ratio!r}")
        return problems


def reduced_eigenvalues(p: int, k: int, level: int, theta: float, r: int) -> np.ndarray:
    """Eigenvalues of the Dirichlet-reduced matrix of one sweep point.

    Built with the same level set and parameters as ``conditioning_study``.
    """
    ls = levelset.Square(delta=0.5 * 10.0 ** (-float(p)))
    cm = geometry.build_cut_mesh(mesh.build_mesh(level), ls, theta=theta, r=r)
    system = assembly.assemble(cm, k, kappa=(1.0, 1.0), eta=20.0)
    a_red, _ = system.reduced()
    return np.linalg.eigvalsh(a_red.toarray())


WORKLOADS = {
    w.name: w
    for w in (
        Convergence(
            name="sinsin-k1",
            why="uncut cells dominate: sinsin, k=1, levels 0..2, r=8",
            case="sinsin", k=1, levels=(0, 1, 2), r=8, theta=0.3,
            min_rate=1.8, monotone=True),
        Convergence(
            name="jump-mixed-k3-r10",
            why="cut-cell quadrature dominates: jump-mixed, k=3, levels 0..1, r=10",
            case="jump-mixed", k=3, levels=(0, 1), r=10, theta=0.3,
            min_rate=3.8, monotone=False),
        Conditioning(
            name="square-cond-k3",
            why="dense conditioning dominates: square-front sweep, k=3, level 0",
            k=3, level=0, r=8, theta=0.3, points=2, max_spread=10.0, eig_rtol=1e-6),
    )
}
