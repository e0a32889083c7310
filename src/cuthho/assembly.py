"""Global dof layout, sparse assembly, condensation, and linear solves.

Cell dofs come first (cell id, then side), face dofs follow, so the
assembled matrix exhibits the cell/face block decomposition directly.
Dirichlet face dofs on the domain boundary are eliminated by row/column
deletion with the boundary data moved to the right-hand side.  The cell
block is block diagonal, one block per pairing group (connected component
of the pairing graph), and static condensation eliminates every group
through one block-diagonal inverse Cholesky factor of it.

This module decides no local question itself: which sub-cells are plain
is the cut mesh's mask ``CutMesh.plain``, every local matrix and table
comes from ``LocalOperators``, and so do the face projections of the
Dirichlet values and of the interpolant (``face_projections``), which
are only written at their dofs through ``DofLayout`` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .basis import expand_in_basis, poly_eval, space_dimension
from .errors import ConfigError, NumericalError
from .geometry import CutMesh
from .levelset import interface_clear_of_boundary
from .local import Key, LocalOperators, inverse_cholesky
from .mesh import MAX_LEVEL


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
        cell_offset = np.full((cm.mesh.n_cells, 3), -1)
        face_offset = np.full((cm.mesh.n_faces, 3), -1)
        cid, ci = np.array(cm.sides()).T  # by cell, then side
        cell_offset[cid, ci] = nc * np.arange(len(cid))
        n_cell = nc * len(cid)
        fid, fi = np.nonzero(cm.faces.sides)  # by face, then side
        face_offset[fid, fi] = n_cell + nf * np.arange(len(fid))
        dirichlet = np.concatenate([np.zeros(n_cell, dtype=bool),
                                    np.repeat(cm.mesh.boundary_faces[fid], nf)])
        return cls(cell_offset, face_offset, nc, nf, n_cell, len(dirichlet), dirichlet)

    def face_dofs(self, fids, sides) -> np.ndarray:
        """Dofs of the side-i blocks of faces, (..., nf) for broadcast ids
        and sides."""
        return self.face_offset[fids, sides][..., None] + np.arange(self.nf)

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

    A plain sub-cell (``CutMesh.plain``) is an uncut square without
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
        cids = np.flatnonzero(cm.plain)
        if not len(cids):
            return None
        sides = cm.cells.side[cids]
        cid0, i0 = int(cids[0]), int(sides[0])
        a, _, _, st = ops.stiffness_ok(cid0, i0, 1.0)
        s, st_s = ops.stab_circ(cid0, i0, 1.0)
        faces = cm.mesh.cell_face_table[cids]  # (n, 4)
        assert st.keys == st_s.keys == [("c", cid0, i0)] + [
            ("f", int(f), i0) for f in faces[0]]
        t = ops.volume_tables(cid0, i0)
        centers = cm.cells.barycenter[cids, sides]
        nc, nf = layout.nc, layout.nf
        return cls(
            cids, sides, np.where(sides == 1, kappa[0], kappa[1]),
            layout.cell_offset[cids, sides][:, None] + np.arange(nc),
            layout.face_dofs(faces, sides[:, None]).reshape(len(cids), 4 * nf),
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

    def write_triplets(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Write the COO rows, columns and values of all plain sub-cells'
        blocks, each block row by row, into three arrays of n ``a.size``."""
        dofs = np.hstack([self.cell_dofs, self.face_dofs])
        n, width = dofs.shape
        rows.reshape(n, width, width)[:] = dofs[:, :, None]
        cols.reshape(n, width, width)[:] = dofs[:, None, :]
        np.multiply(self.kappa[:, None], self.a.ravel(), out=vals.reshape(n, width * width))

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


def check_inputs(*, ks=(), levels=(), r: int | None = None, eta: float | None = None,
                 thetas=(), kappa2: float | None = None, circles=(), squares=()) -> None:
    """The one statement of valid input: raise a ``ConfigError`` unless each
    degree k is an integer in 0..3, each level an integer in 0..MAX_LEVEL,
    r an integer >= 0, eta positive and finite (eta <= 0 makes paired
    cells' blocks singular), each theta finite and >= 0, kappa2 finite and
    >= kappa1 = 1, each (name, Circle) of positive radius with side 1
    inside the unit square, and each square sweep exponent p an integer
    >= 1, so its front 0.75 + 0.5 10^-p is too.

    Each entry point passes all of its inputs in one call before it builds
    any geometry; an input that is not passed is not checked.
    """
    integer = (int, np.integer)
    for k in ks:
        if not isinstance(k, integer):
            raise ConfigError(f"polynomial degree k must be an integer, got {k!r}")
        if not 0 <= k <= 3:
            raise ConfigError(f"polynomial degree k must be in 0..3, got {k}")
    for level in levels:
        if not isinstance(level, integer):
            raise ConfigError(f"mesh level must be an integer, got {level!r}")
        if not 0 <= level <= MAX_LEVEL:
            raise ConfigError(f"mesh level must be in 0..{MAX_LEVEL}, got {level}")
    if r is not None and not isinstance(r, integer):
        raise ConfigError(f"interface subdivision exponent r must be an integer, got {r!r}")
    if r is not None and not r >= 0:
        raise ConfigError(f"interface subdivision exponent r must be >= 0, got {r}")
    if eta is not None and not (np.isfinite(eta) and eta > 0.0):
        raise ConfigError(f"extension weight eta must be positive and finite, got {eta}")
    for theta in thetas:
        if not (np.isfinite(theta) and theta >= 0.0):
            raise ConfigError(f"flagging parameter theta must be finite and >= 0, got {theta}")
    if kappa2 is not None and not (np.isfinite(kappa2) and kappa2 >= 1.0):
        raise ConfigError(f"kappa2 must be finite and >= kappa1 = 1, got {kappa2}")
    for name, circle in circles:
        if not (circle.radius > 0.0 and interface_clear_of_boundary(circle)):
            raise ConfigError(f"{name}: the circle of radius {circle.radius:.3f} "
                              "must lie inside the unit square")
    for p in squares:
        if not (isinstance(p, integer) and p >= 1):
            raise ConfigError(f"square[p={p}]: the exponent p must be an integer >= 1")


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
    per-cell path.  One pass over them sums each sub-cell's stiffness,
    the extension penalty of each donor, the face penalty and, on side 1
    of a cut cell, the interface penalty into one matrix on its
    reconstruction stencil, and writes that block once.  The same pass
    does each sub-cell's lifting and volume load and, once per cut cell,
    the interface load.  The loads are added to ``b`` after the
    liftings, each cell's volume loads before its interface load.

    The blocks are written, row by row, into one preallocated set of COO
    triplets, sized by the stencils' widths: rows and columns as int32
    (int64 only past 2^31 dofs) and float64 values.  The triplets are
    ordered by sub-cell, then the plain sub-cells' blocks.  That order
    fixes the order in which the CSR conversion sums duplicates, and so
    ``A`` bit for bit.

    The two paths meet in ``A`` and ``b``: ``condense`` and ``solve_full``
    do not tell plain sub-cells from the others.
    """
    check_inputs(ks=[k])
    if not kappa[0] <= kappa[1]:
        raise ConfigError("kappa1 <= kappa2 is required; relabel the sides")
    ops = LocalOperators(cm, k, case)
    layout = DofLayout.build(cm, k)
    plain = PlainCells.build(ops, layout, kappa)
    stencils = {(cid, i): ops.reconstruction_stencil(cid, i)
                for cid, i in cm.sides() if not cm.plain[cid]}
    n = sum(st.width**2 for st in stencils.values())
    n_plain = 0 if plain is None else len(plain.cids) * plain.a.size
    index = np.int32 if layout.n_total <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(n + n_plain, dtype=index)
    cols = np.empty(n + n_plain, dtype=index)
    vals = np.empty(n + n_plain)
    b = np.zeros(layout.n_total)
    loads: list[tuple[np.ndarray, np.ndarray]] = []
    kap = {1: kappa[0], 2: kappa[1]}
    g_d, g_n = getattr(case, "g_D", None), getattr(case, "g_N", None)

    hi = 0
    for (cid, i), st in stencils.items():
        idx = layout.stencil_indices(st)
        if cm.is_ko(cid, i):
            a = ops.stiffness_ko(cid, i, kap[i])[0]
        else:
            a, _, bmat, _ = ops.stiffness_ok(cid, i, kap[i])
            if g_d is not None and ops.interface_arcs(cid, i):
                b[idx] -= kappa[0] * (bmat.T @ ops.lifting_coefficients(cid))
            for donor in cm.pairing.donors(cid, i):
                a += ops.stab_pairing(cid, i, donor, kap[i], eta)[0]
        a += ops.stab_circ(cid, i, kap[i])[0]
        if i == 1 and cm.is_cut(cid):
            a += ops.stab_gamma(cid, kappa[0])[0]
        lo, hi = hi, hi + len(idx) ** 2
        rows[lo:hi].reshape(len(idx), -1)[:] = idx[:, None]
        cols[lo:hi].reshape(len(idx), -1)[:] = idx
        vals[lo:hi] = a.ravel()
        cell_idx = layout.indices(("c", cid, i))
        if case is not None:
            loads.append((cell_idx, ops.load_volume(cid, i)))
        if i == 2 and cm.is_cut(cid) and (g_d is not None or g_n is not None):
            r1, r2 = ops.load_interface(cid, kappa[0])  # after both volume loads
            loads += [(layout.indices(("c", cid, 1)), r1), (cell_idx, r2)]
    for idx, r in loads:
        b[idx] += r
    assert hi == n, "triplet count does not match the blocks written"

    if plain is not None:
        plain.write_triplets(rows[n:], cols[n:], vals[n:])
        if case is not None:
            b[plain.cell_dofs] += plain.loads(case.f)
    a_mat = sp.coo_matrix((vals, (rows, cols)), shape=(layout.n_total, layout.n_total)).tocsr()

    g = np.zeros(layout.n_total)
    if case is not None:
        fid, i, p = ops.face_projections(cm.mesh.boundary_faces, case.u)
        g[layout.face_dofs(fid, i)] = p
    return System(cm, k, kappa, eta, layout, a_mat, b, g, ops, plain)


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def _lu_factor(a: sp.csr_matrix) -> spla.SuperLU:
    """Sparse LU factorization; an exactly singular matrix raises NumericalError.

    Every matrix factored here (the Schur and the Dirichlet-reduced
    matrices) is SPD, so its pattern is symmetric and it needs no pivoting
    for stability.  The columns are therefore ordered by minimum degree on
    the pattern of A^T + A, which for a symmetric pattern is that of A;
    this fills about half as much as SuperLU's default COLAMD, which orders
    for A^T A.  SuperLU's other options keep their defaults.
    """
    try:
        return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
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


def solve(system: System) -> np.ndarray:
    """Solve by static condensation (``solve_full`` is the reference)."""
    return condense(system).solve()


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
    on its own quadrature with the basis gradients of its volume tables,
    which ``assemble`` built and the operators keep.
    """
    total = 0.0
    ops = system.ops
    plain = system.plain
    kap = {1: system.kappa[0], 2: system.kappa[1]}
    if plain is not None:
        total += plain.energy_squared(x, case.grad_u)
    for cid, i in system.cm.sides():
        if system.cm.plain[cid]:
            continue
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
    fid, i, p = ops.face_projections(np.full(cm.mesh.n_faces, True),
                                     lambda i, pts: poly_eval(poly, pts))
    x[layout.face_dofs(fid, i)] = p
    return x
