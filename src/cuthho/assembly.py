"""Global dof layout, sparse assembly, condensation, and linear solves.

Cell dofs come first (cell id, then side), face dofs follow, so the
assembled matrix exhibits the cell/face block decomposition directly.
Dirichlet face dofs on the domain boundary are eliminated by row/column
deletion with the boundary data moved to the right-hand side; static
condensation eliminates the cell dofs of every pairing group (connected
component of the pairing graph) through one dense factorization each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve as dense_solve

from .basis import expand_in_basis, poly_eval, space_dimension
from .errors import ConfigError, NumericalError
from .geometry import CutMesh
from .local import Key, LocalOperators, ScaledCholesky


@dataclass
class DofLayout:
    blocks: dict[Key, tuple[int, int]]
    keys: list[Key]
    n_cell_dofs: int
    n_total: int
    dirichlet: np.ndarray  # boolean mask over all dofs

    @classmethod
    def build(cls, cm: CutMesh, k: int) -> "DofLayout":
        nc = space_dimension(k + 1)
        nf = k + 1
        blocks: dict[Key, tuple[int, int]] = {}
        keys: list[Key] = []
        off = 0
        for c in cm.cells:
            for i in c.sides():
                key = ("c", c.cid, i)
                blocks[key] = (off, nc)
                keys.append(key)
                off += nc
        n_cell = off
        for fc in cm.faces:
            for i in fc.sides():
                key = ("f", fc.fid, i)
                blocks[key] = (off, nf)
                keys.append(key)
                off += nf
        dirichlet = np.zeros(off, dtype=bool)
        for fc in cm.faces:
            if cm.mesh.is_boundary_face(fc.fid):
                for i in fc.sides():
                    o, s = blocks[("f", fc.fid, i)]
                    dirichlet[o : o + s] = True
        return cls(blocks, keys, n_cell, off, dirichlet)

    def indices(self, key: Key) -> np.ndarray:
        off, size = self.blocks[key]
        return np.arange(off, off + size)

    def stencil_indices(self, stencil) -> np.ndarray:
        return np.concatenate([self.indices(k) for k in stencil.keys])


@dataclass
class System:
    cm: CutMesh
    k: int
    kappa: tuple[float, float]
    eta: float
    layout: DofLayout
    A: sp.csr_matrix
    b: np.ndarray
    dirichlet_values: np.ndarray
    ops: LocalOperators = field(repr=False)

    @property
    def free(self) -> np.ndarray:
        return ~self.layout.dirichlet

    @property
    def n_dofs(self) -> int:
        return self.layout.n_total

    def reduced(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Dirichlet-eliminated matrix and right-hand side."""
        free = self.free
        bmod = self.b - self.A @ self.dirichlet_values
        return self.A[free][:, free].tocsr(), bmod[free]


def assemble(cm: CutMesh, k: int, kappa: tuple[float, float] = (1.0, 1.0),
             eta: float = 20.0, case=None) -> System:
    """Assemble the stiffness matrix and load vector on a cut mesh.

    ``case`` supplies the data closures (f, g_D, g_N, boundary trace);
    with ``case=None`` the load is zero, which is all the conditioning
    studies need.

    One pass over the sub-cells does all of each sub-cell's work while its
    volume tables are current: stiffness and lifting, the extension
    penalty of each donor, the face penalty and the volume load, and, once
    per cut cell, the interface penalty and load.  So each sub-cell's
    tables are built once here; ``energy_error`` rebuilds them once.  Each
    kind of term keeps its own triplet list, and the loads are added to
    ``b`` after the liftings, each cell's volume load before its interface
    load, so every sum runs in the same order as term-by-term passes would
    take.
    """
    if not kappa[0] <= kappa[1]:
        raise ConfigError("kappa1 <= kappa2 is required; relabel the sides")
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    terms: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {
        name: [] for name in ("ok", "ko", "circ", "gamma", "pairing")
    }
    b = np.zeros(layout.n_total)
    loads: list[tuple[np.ndarray, np.ndarray]] = []

    def scatter(term: str, a: np.ndarray, stencil) -> np.ndarray:
        idx = layout.stencil_indices(stencil)
        terms[term].append((idx, a))
        return idx

    kap = {1: kappa[0], 2: kappa[1]}
    g_d = getattr(case, "g_D", None) if case is not None else None
    g_n = getattr(case, "g_N", None) if case is not None else None

    for cid, i in cm.sides():
        cell_idx = layout.indices(("c", cid, i))
        if cm.is_ko(cid, i):
            scatter("ko", *ops.stiffness_ko(cid, i, kap[i]))
        else:
            a, _, bmat, st = ops.stiffness_ok(cid, i, kap[i])
            idx = scatter("ok", a, st)
            donors = cm.pairing.donors(cid, i)
            if i == 1 and g_d is not None and (cm.cells[cid].is_cut or donors):
                lcoef = ops.lifting_coefficients(cid, g_d)
                b[idx] -= kappa[0] * (bmat.T @ lcoef)
            for donor in donors:
                scatter("pairing", *ops.stab_pairing(cid, i, donor, kap[i], eta))
        scatter("circ", *ops.stab_circ(cid, i, kap[i]))
        if case is not None:
            loads.append((cell_idx, ops.load_volume(cid, i, case.f)))
        if i == 2 and cm.cells[cid].is_cut:  # after both volume loads
            scatter("gamma", *ops.stab_gamma(cid, kappa[0]))
            if case is not None and (g_d is not None or g_n is not None):
                r1, r2 = ops.load_interface(cid, kappa[0], g_d, g_n)
                loads.append((layout.indices(("c", cid, 1)), r1))
                loads.append((cell_idx, r2))
    for idx, r in loads:
        b[idx] += r

    blocks = [blk for term in terms.values() for blk in term]
    a_mat = sp.coo_matrix(
        (np.concatenate([a.ravel() for _, a in blocks]),
         (np.concatenate([np.repeat(idx, len(idx)) for idx, _ in blocks]),
          np.concatenate([np.tile(idx, len(idx)) for idx, _ in blocks]))),
        shape=(layout.n_total, layout.n_total),
    ).tocsr()

    g = np.zeros(layout.n_total)
    if case is not None:
        for fc in cm.faces:
            if not cm.mesh.is_boundary_face(fc.fid):
                continue
            for i in fc.sides():
                g[layout.indices(("f", fc.fid, i))] = _project_on_face(
                    ops, fc, i, functools.partial(case.u, i))
    return System(cm, k, kappa, eta, layout, a_mat, b, g, ops)


def _project_on_face(ops: LocalOperators, fc, i: int, fn) -> np.ndarray:
    """L2-projection of ``fn(pts)`` onto the polynomials of face side (fc, i)."""
    pts, w = ops.face_quadrature(fc.segments[i])
    chi = ops.face_basis(fc.fid, i).eval(pts)
    gram = chi.T @ (w[:, None] * chi)
    return dense_solve(gram, chi.T @ (w * fn(pts)), assume_a="pos")


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def _lu_solve(a: sp.csr_matrix, b: np.ndarray, what: str) -> np.ndarray:
    """Sparse LU solve with two steps of iterative refinement.

    Raises NumericalError when the relative residual exceeds 1e-10.
    """
    lu = spla.splu(a.tocsc())
    x = lu.solve(b)
    for _ in range(2):  # iterative refinement keeps residuals near roundoff
        x += lu.solve(b - a @ x)
    nb = np.linalg.norm(b)
    res = 0.0 if nb == 0.0 else float(np.linalg.norm(a @ x - b) / nb)
    if not np.isfinite(res) or res > 1e-10:
        raise NumericalError(f"solver breakdown: {what} residual {res:.3e}")
    return x


def solve_full(system: System) -> np.ndarray:
    """Direct sparse solve of the Dirichlet-reduced system."""
    a_red, b_red = system.reduced()
    x = system.dirichlet_values.copy()
    if a_red.shape[0] == 0:
        return x
    if np.linalg.norm(b_red) == 0.0:
        x[system.free] = 0.0
        return x
    x[system.free] = _lu_solve(a_red, b_red, "relative")
    return x


def pairing_groups(cm: CutMesh) -> list[list[int]]:
    """Connected components of the pairing graph, singletons included."""
    parent = list(range(cm.mesh.n_cells))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s, t in cm.pairing.partner.items():
        ra, rb = find(s), find(t)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for cid in range(cm.mesh.n_cells):
        groups.setdefault(find(cid), []).append(cid)
    return [sorted(g) for _, g in sorted(groups.items())]


@dataclass
class CondensedSystem:
    system: System
    schur: sp.csr_matrix
    rhs: np.ndarray
    face_free: np.ndarray  # global indices of free face dofs
    group_data: list[tuple[np.ndarray, object, np.ndarray, sp.csr_matrix]]

    def solve(self) -> np.ndarray:
        sysm = self.system
        x = sysm.dirichlet_values.copy()
        xf = _lu_solve(self.schur, self.rhs, "condensed") if len(self.rhs) else np.zeros(0)
        x[self.face_free] = xf
        for idx_c, fac, bc, w in self.group_data:
            x[idx_c] = fac.solve(bc - w @ xf)
        return x


def condense(system: System) -> CondensedSystem:
    """Eliminate cell dofs groupwise, leaving a face-only Schur system."""
    layout = system.layout
    ncell = layout.n_cell_dofs
    bmod = system.b - system.A @ system.dirichlet_values
    free_face = np.where(~layout.dirichlet[ncell:])[0] + ncell
    a_cf = system.A[:ncell][:, free_face].tocsr()
    a_cc = system.A[:ncell][:, :ncell].tocsr()
    a_ff = system.A[free_face][:, free_face].tocsr()
    b_f = bmod[free_face].copy()

    srows: list[np.ndarray] = []
    scols: list[np.ndarray] = []
    svals: list[np.ndarray] = []
    group_data = []
    for group in pairing_groups(system.cm):
        idx_c = np.concatenate(
            [layout.indices(("c", cid, i))
             for cid in group for i in system.cm.cells[cid].sides()]
        )
        acc = a_cc[idx_c][:, idx_c].toarray()
        try:
            fac = ScaledCholesky(acc, f"cell block in group {group}")
        except (np.linalg.LinAlgError, NumericalError) as exc:
            raise NumericalError(f"singular cell block in group {group}") from exc
        w = a_cf[idx_c]
        active = np.unique(w.indices) if w.nnz else np.zeros(0, dtype=int)
        bc = bmod[idx_c]
        y = fac.solve(bc)
        if len(active):
            wd = w[:, active].toarray()
            xw = fac.solve(wd)
            local = wd.T @ xw
            srows.append(np.repeat(active, len(active)))
            scols.append(np.tile(active, len(active)))
            svals.append(local.ravel())
            b_f[active] -= wd.T @ y
        group_data.append((idx_c, fac, bc, w))

    nf = len(free_face)
    if srows:
        correction = sp.coo_matrix(
            (np.concatenate(svals), (np.concatenate(srows), np.concatenate(scols))),
            shape=(nf, nf),
        ).tocsr()
    else:
        correction = sp.csr_matrix((nf, nf))
    schur = (a_ff - correction).tocsr()
    return CondensedSystem(system, schur, b_f, free_face, group_data)


def solve(system: System, condensed: bool = True) -> np.ndarray:
    if condensed:
        return condense(system).solve()
    return solve_full(system)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def condition_number(system: System, cap: int = 20000) -> float:
    """Euclidean condition number of the Dirichlet-reduced stiffness matrix."""
    a_red, _ = system.reduced()
    n = a_red.shape[0]
    if n > cap:
        raise NumericalError("matrix too large for dense conditioning")
    svals = np.linalg.svd(a_red.toarray(), compute_uv=False)
    return float(svals[0] / svals[-1])


def energy_error(system: System, x: np.ndarray, case) -> float:
    """Energy norm of the gradient error against the exact per-side solution."""
    total = 0.0
    ops = system.ops
    kap = {1: system.kappa[0], 2: system.kappa[1]}
    for cid, i in system.cm.sides():
        t = ops.volume_tables(cid, i)
        coef = x[system.layout.indices(("c", cid, i))]
        gh = np.tensordot(t.dek1, coef, axes=([1], [0]))
        diff = gh - case.grad_u(i, t.pts)
        total += kap[i] * float(np.sum(t.w * np.sum(diff * diff, axis=1)))
    return float(np.sqrt(total))


def interpolate_polynomial(cm: CutMesh, k: int, poly: dict) -> np.ndarray:
    """Dof vector interpolating a globally polynomial function.

    Cell components are exact re-expansions (the failing sides of ill-cut
    cells inherit their partner's polynomial, which for a global
    polynomial is the same re-expansion); face components are the
    L2-projections of the trace.
    """
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    x = np.zeros(layout.n_total)
    for cid, i in cm.sides():
        x[layout.indices(("c", cid, i))] = expand_in_basis(poly, ops.cell_basis(cid, i))
    for fc in cm.faces:
        for i in fc.sides():
            x[layout.indices(("f", fc.fid, i))] = _project_on_face(
                ops, fc, i, functools.partial(poly_eval, poly))
    return x
