"""Global dof layout, sparse assembly, condensation, and linear solves.

Cell dofs come first (cell id, then side), face dofs follow, so the
assembled matrix exhibits the cell/face block decomposition directly.
Dirichlet face dofs on the domain boundary are eliminated by row/column
deletion with the boundary data moved to the right-hand side.  The cell
block is block diagonal, one block per pairing group (connected component
of the pairing graph), and static condensation eliminates every group
through one block-diagonal inverse Cholesky factor of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .basis import expand_in_basis, poly_eval, space_dimension
from .errors import ConfigError, NumericalError
from .geometry import CutMesh
from .local import Key, LocalOperators, inverse_cholesky


@dataclass
class DofLayout:
    """Global dof numbering.

    ``cell_offset[cid, i]`` and ``face_offset[fid, i]`` hold the first dof
    of the side-i block of a cell or face, or -1 where that side is
    absent; column 0 is unused, so sides index the columns directly.
    """

    cell_offset: np.ndarray  # (n_cells, 3)
    face_offset: np.ndarray  # (n_faces, 3)
    nc: int  # dofs per cell block
    nf: int  # dofs per face block
    n_cell_dofs: int
    n_total: int
    dirichlet: np.ndarray  # boolean mask over all dofs

    @classmethod
    def build(cls, cm: CutMesh, k: int) -> "DofLayout":
        nc = space_dimension(k + 1)
        nf = k + 1
        cell_offset = np.full((len(cm.cells), 3), -1)
        face_offset = np.full((len(cm.faces), 3), -1)
        off = 0
        for c in cm.cells:
            for i in c.sides():
                cell_offset[c.cid, i] = off
                off += nc
        n_cell = off
        for fc in cm.faces:
            for i in fc.sides():
                face_offset[fc.fid, i] = off
                off += nf
        dirichlet = np.zeros(off, dtype=bool)
        for fc in cm.faces:
            if cm.mesh.is_boundary_face(fc.fid):
                for i in fc.sides():
                    o = face_offset[fc.fid, i]
                    dirichlet[o : o + nf] = True
        return cls(cell_offset, face_offset, nc, nf, n_cell, off, dirichlet)

    def indices(self, key: Key) -> np.ndarray:
        kind, ident, i = key
        if kind == "c":
            off, size = self.cell_offset[ident, i], self.nc
        else:
            off, size = self.face_offset[ident, i], self.nf
        if off < 0:
            raise KeyError(key)
        return np.arange(off, off + size)

    def stencil_indices(self, stencil) -> np.ndarray:
        return np.concatenate([self.indices(k) for k in stencil.keys])


@dataclass
class PlainCells:
    """Plain sub-cells as one reference element, for assembly and the energy error.

    A plain sub-cell (``CutMesh.is_plain``) is an uncut square without
    donors.  Its basis is centred at the cell centre and scaled by h/2, so
    its stiffness, face penalty, load matrix and gradient table are the
    same on every plain sub-cell up to translation and round-off.  They
    are built once, on the first plain sub-cell with kappa = 1, through
    the same LocalOperators calls as any other sub-cell, and each plain
    sub-cell uses them scaled by the kappa of its side.  The local
    stencil is the cell block, then the left, right, bottom and top face
    blocks.  Condensation does not use it: a plain sub-cell is a pairing
    group of its own there, eliminated like any other group.
    """

    cids: np.ndarray  # (n,)
    sides: np.ndarray  # (n,)
    kappa: np.ndarray  # (n,) kappa of each sub-cell's side
    cell_dofs: np.ndarray  # (n, nc)
    face_dofs: np.ndarray  # (n, 4 nf)
    a: np.ndarray  # stiffness + face penalty at kappa = 1, (nc + 4 nf) square
    centers: np.ndarray  # (n, 2)
    offsets: np.ndarray  # (npts, 2) quadrature points less the cell centre
    w: np.ndarray  # (npts,)
    ek1: np.ndarray  # (npts, nc)
    dek1: np.ndarray  # (npts, nc, 2)

    @classmethod
    def build(cls, ops: LocalOperators, layout: DofLayout,
              kappa: tuple[float, float]) -> "PlainCells | None":
        cm = ops.cm
        found = [(cid, i) for cid, i in cm.sides() if cm.is_plain(cid, i)]
        if not found:
            return None
        cids, sides = (np.array(v) for v in zip(*found))
        cid0, i0 = found[0]
        a, _, _, st = ops.stiffness_ok(cid0, i0, 1.0)
        s, st_s = ops.stab_circ(cid0, i0, 1.0)
        faces = np.stack(cm.mesh.cell_faces(cids), axis=1)  # (n, 4)
        assert st.keys == st_s.keys == [("c", cid0, i0)] + [
            ("f", int(f), i0) for f in faces[0]]
        t = ops.volume_tables(cid0, i0)
        centers = np.array([cm.cells[c].barycenter[i] for c, i in found])
        nc, nf = layout.nc, layout.nf
        return cls(
            cids, sides, np.where(sides == 1, kappa[0], kappa[1]),
            layout.cell_offset[cids, sides][:, None] + np.arange(nc),
            (layout.face_offset[faces, sides[:, None]][:, :, None]
             + np.arange(nf)).reshape(len(cids), 4 * nf),
            a + s, centers, t.pts - centers[0], t.w, t.ek1, t.dek1)

    @property
    def nc(self) -> int:
        return self.ek1.shape[1]

    def by_side(self):
        """(i, selection, stacked quadrature points) for each side present."""
        for i in (1, 2):
            sel = np.flatnonzero(self.sides == i)
            if len(sel):
                pts = self.centers[sel][:, None, :] + self.offsets[None]
                yield i, sel, pts.reshape(-1, 2)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO rows, columns and values of all plain sub-cells' blocks."""
        dofs = np.hstack([self.cell_dofs, self.face_dofs])
        width = dofs.shape[1]
        return (np.repeat(dofs, width, axis=1).ravel(),
                np.tile(dofs, (1, width)).ravel(),
                (self.kappa[:, None] * self.a.ravel()[None, :]).ravel())

    def loads(self, f) -> np.ndarray:
        """Volume loads (w f, ek1) of every plain sub-cell, (n, nc)."""
        out = np.empty((len(self.cids), self.nc))
        for i, sel, pts in self.by_side():
            out[sel] = (f(i, pts).reshape(len(sel), -1) * self.w) @ self.ek1
        return out

    def energy_squared(self, x: np.ndarray, grad_u) -> float:
        """Sum over plain sub-cells of kappa_i |grad u_h - grad u|^2."""
        total = 0.0
        for i, sel, pts in self.by_side():
            gh = np.einsum("pcd,nc->npd", self.dek1, x[self.cell_dofs[sel]])
            diff = gh - grad_u(i, pts).reshape(gh.shape)
            total += float(self.kappa[sel] @ (np.sum(diff * diff, axis=2) @ self.w))
        return total


def _plain_mask(cm: CutMesh, plain: PlainCells | None) -> np.ndarray:
    """Whether each cell is plain; a plain cell has one sub-cell."""
    mask = np.zeros(len(cm.cells), dtype=bool)
    if plain is not None:
        mask[plain.cids] = True
    return mask


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
    plain: PlainCells | None = field(repr=False)  # None: no plain sub-cell

    @property
    def free(self) -> np.ndarray:
        return ~self.layout.dirichlet

    def reduced(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Dirichlet-eliminated matrix and right-hand side."""
        free = self.free
        bmod = self.b - self.A @ self.dirichlet_values
        return self.A[free][:, free].tocsr(), bmod[free]


def check_degree(k: int) -> None:
    """Reject a polynomial degree outside 0..3 with a ``ConfigError``.

    Callers that build a cut mesh call it first, so a bad degree costs
    no geometry.
    """
    if not 0 <= k <= 3:
        raise ConfigError("polynomial degree k must be in 0..3")


def check_options(r: int, eta: float) -> None:
    """Reject r < 0 and an eta that is not positive and finite with a
    ``ConfigError``.

    ``r`` is the interface subdivision exponent (2^r chords per cut cell)
    and ``eta`` the weight of the extension penalty; with eta <= 0 the
    cell blocks of paired cells are singular.  Callers that build a cut
    mesh call it first, next to ``check_degree``.
    """
    if not r >= 0:
        raise ConfigError(f"interface subdivision exponent r must be >= 0, got {r}")
    if not (np.isfinite(eta) and eta > 0.0):
        raise ConfigError(f"extension weight eta must be positive and finite, got {eta}")


def assemble(cm: CutMesh, k: int, kappa: tuple[float, float] = (1.0, 1.0),
             eta: float = 20.0, case=None) -> System:
    """Assemble the stiffness matrix and load vector on a cut mesh.

    ``case`` supplies the data closures (f, g_D, g_N, boundary trace);
    with ``case=None`` the load is zero, which is all the conditioning
    studies need.

    Plain sub-cells (uncut, without donors) take the reference path: one
    scaled copy of the reference stiffness and face penalty per sub-cell,
    scattered in one block, and volume loads from one evaluation of ``f``
    per side on their stacked quadrature points (see ``PlainCells``).

    Every other sub-cell (cut, failing or receiving donors) takes the
    per-cell path.  One pass over them does all of each sub-cell's work
    while its volume tables are current: stiffness and lifting, the
    extension penalty of each donor, the face penalty and the volume
    load, and, once per cut cell, the interface penalty and load.  So
    each sub-cell's tables are built once.  Each kind of term keeps its
    own triplet list, and the loads are added to ``b`` after the
    liftings, each cell's volume load before its interface load.

    The two paths meet in ``A`` and ``b``: ``condense`` and ``solve_full``
    do not tell plain sub-cells from the others.
    """
    check_degree(k)
    if not kappa[0] <= kappa[1]:
        raise ConfigError("kappa1 <= kappa2 is required; relabel the sides")
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    plain = PlainCells.build(ops, layout, kappa)
    is_plain = _plain_mask(cm, plain)
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
        if is_plain[cid]:
            continue
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
    rows = [np.repeat(idx, len(idx)) for idx, _ in blocks]
    cols = [np.tile(idx, len(idx)) for idx, _ in blocks]
    vals = [a.ravel() for _, a in blocks]
    if plain is not None:
        for out, part in zip((rows, cols, vals), plain.triplets()):
            out.append(part)
        if case is not None:
            b[plain.cell_dofs] += plain.loads(case.f)
    a_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
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
    return System(cm, k, kappa, eta, layout, a_mat, b, g, ops, plain)


def _project_on_face(ops: LocalOperators, fc, i: int, fn) -> np.ndarray:
    """L2-projection of ``fn(pts)`` onto the polynomials of face side (fc, i):
    the face basis has Gram matrix h I, so its moments over h."""
    pts, w = ops.face_quadrature(fc.segments[i])
    chi = ops.face_basis(fc.fid, i).eval(pts)
    return chi.T @ (w * fn(pts)) / ops.cm.mesh.h


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def _lu_factor(a: sp.csr_matrix) -> spla.SuperLU:
    """Sparse LU factorization; an exactly singular matrix raises NumericalError."""
    try:
        return spla.splu(a.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"singular matrix (n={a.shape[0]}): {exc}") from exc


def _lu_solve(a: sp.csr_matrix, b: np.ndarray, what: str) -> np.ndarray:
    """Sparse LU solve with two steps of iterative refinement, which keep
    residuals near roundoff.

    Raises NumericalError when the relative residual exceeds 1e-10.
    """
    lu = _lu_factor(a)
    x = lu.solve(b)
    for _ in range(2):
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
    """Connected components of the pairing graph, singletons included.

    Each group is sorted, and the groups are in order of their first cell.
    """
    n = cm.mesh.n_cells
    edges = np.array(list(cm.pairing.partner.items()), dtype=int).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    label = connected_components(graph, directed=False)[1]  # numbered by first cell
    order = np.argsort(label, kind="stable")
    return [g.tolist() for g in np.split(order, np.cumsum(np.bincount(label))[:-1])]


@dataclass
class CondensedSystem:
    """Face-only Schur system, with X, Y = X^T A_cf and z = X^T b_c of ``condense``."""

    system: System
    schur: sp.csr_matrix
    rhs: np.ndarray
    face_free: np.ndarray  # global indices of free face dofs
    x: sp.csr_matrix
    y: sp.csr_matrix
    z: np.ndarray

    def solve(self) -> np.ndarray:
        """Schur solve, then x_c = X (z - Y x_f) for all cells at once."""
        x = self.system.dirichlet_values.copy()
        xf = _lu_solve(self.schur, self.rhs, "condensed") if len(self.rhs) else np.zeros(0)
        x[self.face_free] = xf
        x[: len(self.z)] = self.x @ (self.z - self.y @ xf)
        return x


def _inverse_cell_factor(system: System, a_cc: sp.csr_matrix) -> sp.csr_matrix:
    """Block-diagonal X with X^T A_cc X = I, one block per pairing group.

    The blocks of all groups of one size are read from A_cc at once and
    factored as one stack by ``local.inverse_cholesky``: with D the
    diagonal and U^T U the Cholesky factorization of the Jacobi-scaled
    block, the group's block of X is D^-1/2 U^-1, upper triangular.
    """
    groups = pairing_groups(system.cm)
    first = [system.layout.cell_offset[g, 1:] for g in groups]
    first = [f[f >= 0] for f in first]  # first dof of each sub-cell, by cell then side
    rows, cols, vals = [], [], []
    for q in sorted({len(f) for f in first}):
        sel = [j for j, f in enumerate(first) if len(f) == q]
        dofs = (np.array([first[j] for j in sel])[:, :, None]
                + np.arange(system.layout.nc)).reshape(len(sel), -1)
        s = dofs.shape[1]
        blocks = np.asarray(a_cc[np.repeat(dofs, s, axis=1).ravel(),
                                 np.tile(dofs, s).ravel()]).reshape(-1, s, s)
        x = inverse_cholesky(blocks, lambda j: f"cell block in group {groups[sel[j]]}")
        r, c = np.triu_indices(s)
        rows.append(dofs[:, r].ravel())
        cols.append(dofs[:, c].ravel())
        vals.append(x[:, r, c].ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=a_cc.shape).tocsr()


def condense(system: System) -> CondensedSystem:
    """Eliminate the cell dofs, leaving a face-only Schur system.

    A_cc is block diagonal, one block per pairing group (a plain sub-cell
    is a group of its own), so its inverse Cholesky factor X is block
    diagonal too.  With Y = X^T A_cf the elimination is the same few
    sparse products for every group: S = A_ff - Y^T Y and
    rhs = b_f - Y^T X^T b_c.
    """
    layout = system.layout
    ncell = layout.n_cell_dofs
    bmod = system.b - system.A @ system.dirichlet_values
    free_face = np.where(~layout.dirichlet[ncell:])[0] + ncell
    a_c = system.A[:ncell]
    x = _inverse_cell_factor(system, a_c[:, :ncell])
    y = x.T @ a_c[:, free_face]
    z = x.T @ bmod[:ncell]
    schur = (system.A[free_face][:, free_face] - y.T @ y).tocsr()
    return CondensedSystem(system, schur, bmod[free_face] - y.T @ z, free_face, x, y, z)


def solve(system: System, condensed: bool = True) -> np.ndarray:
    if condensed:
        return condense(system).solve()
    return solve_full(system)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def condition_number(system: System) -> float:
    """Euclidean condition number of the Dirichlet-reduced stiffness matrix.

    The matrix A is SPD, so this is lambda_max / lambda_min, from two
    sparse Lanczos runs (ARPACK ``eigsh``).  lambda_max comes from A.
    lambda_min is 1 / mu, mu the eigenvalue of A^-1 of largest magnitude:
    shift-invert at 0, with A^-1 applied through one sparse LU
    factorization.  Both runs start from the all-ones
    vector, so equal inputs give bit-identical results.  A singular
    matrix, a non-positive mu (A is not positive definite) or a Lanczos
    run that does not converge raises NumericalError.
    """
    a, _ = system.reduced()
    n = a.shape[0]
    lu = _lu_factor(a)
    inverse = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float)
    v0 = np.ones(n)
    try:
        mu = spla.eigsh(inverse, k=1, which="LM", v0=v0, tol=0,
                        return_eigenvectors=False)[0]
        if not (np.isfinite(mu) and mu > 0.0):
            raise NumericalError(f"reduced matrix (n={n}) is not positive definite: "
                                 f"eigenvalue of largest magnitude of its inverse {mu!r}")
        lam_max = spla.eigsh(a, k=1, which="LA", v0=v0, tol=0,
                             return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos did not converge on the reduced matrix "
                             f"(n={n}): {exc}") from exc
    return float(lam_max * mu)


def energy_error(system: System, x: np.ndarray, case) -> float:
    """Energy norm of the gradient error against the exact per-side solution.

    Plain sub-cells are summed together on the reference element, with
    one evaluation of ``grad_u`` per side.  Every other sub-cell is summed
    on its own quadrature with the gradients of its cell basis; its
    volume tables are not rebuilt.
    """
    total = 0.0
    ops = system.ops
    plain = system.plain
    kap = {1: system.kappa[0], 2: system.kappa[1]}
    is_plain = _plain_mask(system.cm, plain)
    if plain is not None:
        total += plain.energy_squared(x, case.grad_u)
    for cid, i in system.cm.sides():
        if is_plain[cid]:
            continue
        pts, w = ops.volume_quadrature(cid, i)
        dek1 = ops.cell_basis(cid, i).grad(pts)
        coef = x[system.layout.indices(("c", cid, i))]
        gh = np.tensordot(dek1, coef, axes=([1], [0]))
        diff = gh - case.grad_u(i, pts)
        total += kap[i] * float(np.sum(w * np.sum(diff * diff, axis=1)))
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
