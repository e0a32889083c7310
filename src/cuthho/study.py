"""Experiment orchestration: single solves, sweeps, and CSV reports.

The CSV schema is the single output contract:

    case,k,level,r,theta,eta,kappa2,ndofs,energy_error,rate,cond,wall_time_s

with empty fields where a column does not apply.  Rows are emitted in a
stable sorted order and all numeric fields except the wall time are
deterministic for identical inputs.
Every entry point passes its inputs to ``assembly.check_inputs`` before
it builds any geometry.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import assembly
from .cases import Case, make_case, verify_case
from .errors import ConfigError, CutHHOError, GeometryError, NumericalError
from .geometry import build_cut_mesh
from .levelset import Circle, Square
from .mesh import build_mesh

CSV_COLUMNS = (
    "case", "k", "level", "r", "theta", "eta", "kappa2",
    "ndofs", "energy_error", "rate", "cond", "wall_time_s",
)


@dataclass(frozen=True)
class RunRecord:
    case: str
    k: int
    level: int
    r: int
    theta: float
    eta: float
    kappa2: float
    ndofs: int
    energy_error: float | None = None
    rate: float | None = None
    cond: float | None = None
    wall_time_s: float = 0.0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: list[RunRecord]) -> str:
    """The records as CSV text in the fixed schema, header first."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(getattr(rec, c)) for c in CSV_COLUMNS) for rec in records]
    return "".join(line + "\n" for line in lines)


def write_csv(records: list[RunRecord], path: str) -> None:
    """Write ``records_to_csv(records)`` to a file."""
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))


def solve_single(case: Case, k: int, level: int, r: int | None = None,
                 theta: float = 0.3, eta: float = 20.0,
                 want_cond: bool = False, check_case: bool = True):
    """Run one solve after ``check_inputs``; returns (record, system, solution)."""
    r_eff = case.default_r if r is None else r
    assembly.check_inputs(ks=[k], levels=[level], r=r_eff, eta=eta, thetas=[theta],
                          kappa2=case.kappa[1])
    if check_case:
        verify_case(case)
    t0 = time.perf_counter()
    mesh = build_mesh(level)
    cm = build_cut_mesh(mesh, case.levelset, theta=theta, r=r_eff)
    return _solve_on(cm, case, k, level, r_eff, theta, eta, want_cond, t0)


def _solve_on(cm, case: Case, k: int, level: int, r: int, theta: float,
              eta: float, want_cond: bool, t0: float):
    """``solve_single`` on a built cut mesh; the wall time counts from t0."""
    system = assembly.assemble(cm, k, kappa=case.kappa, eta=eta, case=case)
    x = assembly.solve(system)
    err = assembly.energy_error(system, x, case)
    cond = assembly.condition_number(system) if want_cond else None
    wall = time.perf_counter() - t0
    ndofs = int(system.free.sum())
    rec = RunRecord(case.name, k, level, r, theta, eta, case.kappa[1],
                    ndofs, err, None, cond, wall)
    return rec, system, x


def convergence_study(case_name: str, ks, levels, r: int | None = None,
                      theta: float = 0.3, eta: float = 20.0,
                      kappa2: float | None = None) -> list[RunRecord]:
    """Energy errors over mesh levels with observed rates per degree.

    The cut mesh does not depend on k, so it is built once per level and
    shared by every k still being solved there; its build time is charged
    to the first such k's ``wall_time_s``.  A k whose solve fails at a
    level keeps the rows solved before it and is not solved further.
    Records come sorted by k, then level.  Repeated levels are solved
    once, and the rate between two solved levels is per halving of h:
    log2(e_a / e_b) / (b - a).  All inputs pass ``check_inputs`` (kappa2
    in ``make_case``) before the first level is built.
    """
    case = make_case(case_name, kappa2=kappa2)
    ks = sorted(set(ks))
    r_eff = case.default_r if r is None else r
    assembly.check_inputs(ks=ks, levels=levels, r=r_eff, eta=eta, thetas=[theta])
    verify_case(case)
    rows: dict[int, list[RunRecord]] = {k: [] for k in ks}
    active = list(ks)
    for level in sorted(set(levels)):
        t0 = time.perf_counter()
        try:
            cm = build_cut_mesh(build_mesh(level), case.levelset, theta=theta, r=r_eff)
        except GeometryError as exc:
            failed = {k: exc for k in active}
        else:
            failed = {}
            for k in active:
                try:
                    rec, _, _ = _solve_on(cm, case, k, level, r_eff, theta, eta,
                                          False, t0)
                except (GeometryError, NumericalError) as exc:
                    failed[k] = exc
                    continue
                finally:
                    t0 = time.perf_counter()
                prev = rows[k][-1] if rows[k] else None
                if prev and prev.energy_error and rec.energy_error:
                    rate = np.log2(prev.energy_error / rec.energy_error) / (level - prev.level)
                    rec = replace(rec, rate=float(rate))
                rows[k].append(rec)
        for k, exc in failed.items():
            # partial reports: keep the rows solved so far for this k
            print(f"warning: {case.name} k={k} level={level} r={r_eff} theta={theta} "
                  f"failed: {exc}", file=sys.stderr)
            active.remove(k)
    return [rec for k in ks for rec in rows[k]]


def conditioning_study(interface: str, sweep, ks, level: int = 0,
                       theta: float = 0.3, r: int = 8, eta: float = 20.0,
                       kappa2: float = 1.0) -> list[RunRecord]:
    """Condition number of the reduced stiffness matrix along a sweep.

    ``interface='circle'`` interprets sweep values as integers i with
    radius 1/3 + i/32; ``interface='square'`` as exponents p with position
    delta = 0.5e-p.  Assembly uses zero data, only the matrix matters.
    Each input and sweep value passes ``check_inputs`` first: i in -10..5
    and p >= 1 keep the interface inside the unit square.  A repeated
    sweep value or k is solved once; sweep points keep their first-seen
    order, and each point's records come sorted by k.

    The cut mesh does not depend on k, so it is built once per sweep
    point; its build time is charged to the first k's ``wall_time_s``.
    A ``CutHHOError`` at a point is raised again as its own type, its
    message led by the point's name, level, r and theta, and by k if one
    degree's assembly or conditioning failed.
    """
    if interface not in ("circle", "square"):
        raise ConfigError("interface must be 'circle' or 'square'")
    sweep = list(dict.fromkeys(sweep))
    circles = [(f"circle[i={val}]", Circle((0.5, 0.5), 1.0 / 3.0 + float(val) / 32.0))
               for val in sweep] if interface == "circle" else []
    assembly.check_inputs(ks=ks, levels=[level], r=r, eta=eta, thetas=[theta], kappa2=kappa2,
                          circles=circles, squares=sweep if interface == "square" else ())
    points = circles or [(f"square[p={val}]", Square(delta=0.5 * 10.0 ** (-float(val))))
                         for val in sweep]
    records = []
    mesh = build_mesh(level)
    for name, ls in points:
        t0, k = time.perf_counter(), None
        try:
            cm = build_cut_mesh(mesh, ls, theta=theta, r=r)
            for k in sorted(set(ks)):
                system = assembly.assemble(cm, k, kappa=(1.0, kappa2), eta=eta)
                cond = assembly.condition_number(system)
                records.append(RunRecord(name, k, level, r, theta, eta, kappa2,
                                         int(system.free.sum()), None, None, cond,
                                         time.perf_counter() - t0))
                t0 = time.perf_counter()
        except CutHHOError as exc:
            at = f"{name} level={level} r={r} theta={theta}" + ("" if k is None else f" k={k}")
            raise type(exc)(f"{at}: {exc}") from exc
    return records


def theta_study(case_name: str, thetas, k: int, levels, r: int | None = None,
                eta: float = 20.0, kappa2: float | None = None) -> list[RunRecord]:
    """Convergence sweeps over the ill-cut flagging parameter; every input
    passes ``check_inputs`` before the first sweep builds any geometry.  A
    repeated theta is swept once, in first-seen order."""
    thetas = list(dict.fromkeys(float(theta) for theta in thetas))
    assembly.check_inputs(ks=[k], levels=levels, r=r, eta=eta, thetas=thetas,
                          kappa2=kappa2)
    records = []
    for theta in thetas:
        records.extend(
            convergence_study(case_name, [k], levels, r=r, theta=theta,
                              eta=eta, kappa2=kappa2)
        )
    return records
