"""Per-layer tracing of cuthho from outside the package.

A ``Tracer`` used as a context manager replaces the public functions and
methods of each layer with wrappers that time every call and count the
work it did, and puts the originals back on exit.  Nothing inside
``src/cuthho`` knows about it: with no tracer installed the package runs
its own, unwrapped code.

Spans nest: a span's self time is its duration minus the time of the
spans called from inside it.  Spans are aggregated per name as they
close (calls, total time, self time) instead of being stored one by one.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from cuthho import assembly, cases, geometry, levelset, local, study

GEOMETRY_FUNCTIONS = (
    "build_cut_mesh", "classify_faces", "build_polyline",
    "project_onto_interface", "triangulate_polygon", "build_pairing",
)
STIFFNESS = ("stiffness_ok", "stiffness_ko")
STABILIZATION = ("stab_circ", "stab_gamma", "stab_pairing")
LOAD = ("load_volume", "load_interface", "lifting_coefficients")
MIB = 1024.0 * 1024.0


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0  # self time


def _level_set_classes():
    todo, out = [levelset.LevelSet], []
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in out if "value" in vars(cls)]


class Tracer:
    """Wraps each layer's public entry points while the context is open."""

    def __init__(self):
        self.spans: defaultdict[str, Span] = defaultdict(Span)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.schurs: list = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._serial = weakref.WeakKeyDictionary()  # LocalOperators -> int
        self._serials = itertools.count()
        self._tables = weakref.WeakValueDictionary()  # sub-cell -> tables
        self._subcells: set[tuple[int, int, int]] = set()

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name in GEOMETRY_FUNCTIONS:
            self._patch_function(geometry, name, f"geometry.{name}")
        self._patch_function(assembly, "assemble", "assembly.assemble",
                             self._on_assemble)
        self._patch_function(assembly, "condense", "assembly.condense",
                             self._on_condense)
        self._patch_function(assembly, "energy_error", "assembly.energy_error")
        self._patch_function(assembly, "condition_number",
                             "assembly.condition_number")
        self._patch_function(cases, "verify_case", "cases.verify_case")
        self._patch_function(study, "solve_single", "study.solve_single")
        self._patch_function(study, "conditioning_study",
                             "study.conditioning_study")
        self._patch_method(assembly.CondensedSystem, "solve",
                           "assembly.schur_solve")
        for cls in _level_set_classes():
            self._patch_method(cls, "value", "levelset.value", self._on_value)
        ops = local.LocalOperators
        self._patch_method(ops, "volume_tables", "local.volume_tables",
                           self._on_tables)
        for name in STIFFNESS + STABILIZATION + LOAD:
            self._patch_method(ops, name, f"local.{name}")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module, name: str, span: str, hook=None) -> None:
        """Rebind every cuthho module's reference to ``module.name``."""
        original = getattr(module, name)
        wrapped = self._wrap(span, original, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cuthho" or modname.startswith("cuthho.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, name: str, span: str, hook=None) -> None:
        original = vars(cls)[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self._wrap(span, original, hook))

    def _wrap(self, span: str, fn, hook):
        stack = self._stack
        record = self.spans[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                record.calls += 1
                record.total += dt
                record.own += dt - inner
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- counters -------------------------------------------------------

    def _on_value(self, args, out) -> None:
        self.counts["levelset.points_evaluated"] += len(out)

    def _on_tables(self, args, out) -> None:
        ops, cid, i = args[0], int(args[1]), int(args[2])
        serial = self._serial.get(ops)
        if serial is None:
            serial = self._serial[ops] = next(self._serials)
        key = (serial, cid, i)
        self._subcells.add(key)
        if self._tables.get(key) is out:
            return  # served from the cache
        self._tables[key] = out
        self.counts["local.volume_tables_builds"] += 1
        self.counts["local.volume_points"] += len(out.pts)
        self.counts["local.volume_table_bytes"] += sum(
            v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray)
        )

    def _on_assemble(self, args, out) -> None:
        self.counts["assembly.matrix_nnz"] += out.A.nnz

    def _on_condense(self, args, out) -> None:
        self.counts["assembly.schur_nnz"] += out.schur.nnz
        self.schurs.append(out.schur)

    # -- results --------------------------------------------------------

    def lu_fill(self) -> int:
        """nnz(L) + nnz(U) of a default ``splu`` of every Schur matrix seen.

        Call it after the tracer is closed, so the factorizations are not
        part of any span.
        """
        total = 0
        for schur in self.schurs:
            if schur.shape[0]:
                lu = spla.splu(schur.tocsc())
                total += lu.L.nnz + lu.U.nnz
        return total

    def distinct_subcells(self) -> int:
        return len(self._subcells)

    def total(self, *names: str) -> float:
        return sum(self.spans[n].total for n in names if n in self.spans)

    def own(self, *names: str) -> float:
        return sum(self.spans[n].own for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)


def layer_metrics(round_tracers: list[Tracer], setup_tracers: list[Tracer]) -> dict:
    """Per-round averages of the per-layer metrics, ``name -> (value, unit)``.

    ``round_tracers`` each traced one round of solves, ``setup_tracers``
    one build and verification of the workload's cases.
    """
    n = len(round_tracers)

    def mean(get) -> float:
        return sum(get(t) for t in round_tracers) / n

    builds = mean(lambda t: t.counts["local.volume_tables_builds"])
    subcells = mean(lambda t: t.distinct_subcells())
    ops = ["local." + m for m in STIFFNESS + STABILIZATION + LOAD]
    return {
        "geometry.build_cut_mesh_s": (mean(lambda t: t.total("geometry.build_cut_mesh")), "s"),
        "geometry.classify_faces_s": (mean(lambda t: t.total("geometry.classify_faces")), "s"),
        "geometry.build_polyline_s": (mean(lambda t: t.total("geometry.build_polyline")), "s"),
        "geometry.triangulate_polygon_s": (mean(lambda t: t.total("geometry.triangulate_polygon")), "s"),
        "geometry.build_pairing_s": (mean(lambda t: t.total("geometry.build_pairing")), "s"),
        "geometry.project_onto_interface_calls": (
            mean(lambda t: t.calls("geometry.project_onto_interface")), "count"),
        "levelset.value_s": (mean(lambda t: t.total("levelset.value")), "s"),
        "levelset.value_calls": (mean(lambda t: t.calls("levelset.value")), "count"),
        "levelset.points_evaluated": (
            mean(lambda t: t.counts["levelset.points_evaluated"]), "count"),
        "local.volume_tables_s": (mean(lambda t: t.total("local.volume_tables")), "s"),
        "local.volume_tables_builds": (builds, "count"),
        "local.volume_points": (mean(lambda t: t.counts["local.volume_points"]), "count"),
        "local.volume_table_mib": (
            mean(lambda t: t.counts["local.volume_table_bytes"]) / MIB, "MiB"),
        "local.table_builds_per_subcell": (builds / subcells if subcells else 0.0, "ratio"),
        "local.stiffness_s": (mean(lambda t: t.own(*("local." + m for m in STIFFNESS))), "s"),
        "local.stab_s": (mean(lambda t: t.own(*("local." + m for m in STABILIZATION))), "s"),
        "local.load_s": (mean(lambda t: t.own(*("local." + m for m in LOAD))), "s"),
        "local.operator_calls": (mean(lambda t: t.calls(*ops)), "count"),
        "assembly.assemble_self_s": (mean(lambda t: t.own("assembly.assemble")), "s"),
        "assembly.matrix_nnz": (mean(lambda t: t.counts["assembly.matrix_nnz"]), "count"),
        "assembly.condense_s": (mean(lambda t: t.total("assembly.condense")), "s"),
        "assembly.schur_nnz": (mean(lambda t: t.counts["assembly.schur_nnz"]), "count"),
        "assembly.schur_solve_s": (mean(lambda t: t.total("assembly.schur_solve")), "s"),
        "assembly.lu_fill": (mean(lambda t: t.lu_fill()), "count"),
        "assembly.energy_error_s": (mean(lambda t: t.total("assembly.energy_error")), "s"),
        "assembly.condition_number_s": (
            mean(lambda t: t.total("assembly.condition_number")), "s"),
        "cases.verify_case_s": (
            sum(t.total("cases.verify_case") for t in setup_tracers) / len(setup_tracers), "s"),
        "study.self_s": (
            mean(lambda t: t.own("study.solve_single", "study.conditioning_study")), "s"),
    }
