"""Per-cell discrete operators on a cut mesh.

For every sub-cell (T, i) that is uncut, well-cut, or the good side of an
ill-cut cell, the gradient G lives in the vector polynomials of degree k
on T^i and is defined against test polynomials q by

    (G, q) = (grad u_Ti, q)_Ti + (u_dTi - u_Ti, q.n_T)_dTi
             - [i == 1] (u_T1 - u_T2, q.n_G)_TG
             + sum over paired ill-cut cells S of
               (u_dSi - u_Si, q+.n_S)_dSi - [i == 1] (u_S1 - u_S2, q+.n_G)_SG

where q+ is the same polynomial evaluated on the neighbor (no
re-expansion).  On the failing side of an ill-cut cell the reconstruction
degenerates to the plain broken gradient of the cell polynomial.

Every sub-cell has one basis, ``cell_basis``: degree k+1, orthonormal
in the mean-value inner product of T^i (on a failing side, of the region
merged with its partner).  G is expanded in its first dim P_k functions,
whose mass matrix is |T^i| I, so G = B / |T^i| needs no solve.  Each
sub-face has the Legendre basis of ``FaceBasis``, whose Gram matrix is
h I, so the face projections need no solve either.  Scaled this way,
cond(A) no longer grows as a cut shrinks; the stiffness B^T M^-1 B, the
lifting and the discrete solution do not depend on the basis.

What is kept and what is rebuilt: LocalOperators holds the volume tables
of one sub-cell, the last one asked for.  They are its quadrature and
basis values; asking for another sub-cell rebuilds them, bit for bit the
same each time.  The cell bases are not rebuilt: the first one asked for
builds the transforms of all of them (every sub-cell that is not plain,
and the first plain one, which all plain ones share) in one stack, and
they are kept for the lifetime of the operators.
``assemble`` calls these operators only for the sub-cells that are not
plain (see ``CutMesh.is_plain``) and once for the reference element that
stands for all plain ones.  It does all of a sub-cell's work while its
tables are current, so it builds them once; ``energy_error`` needs only
the quadrature and the gradients of the cell basis, and takes those
without the tables.  Cell bases and the interface quadrature of each cut
cell are kept for the lifetime of the operators: donors' receivers read
them.  So is the volume rule of each cut sub-cell: its fan rule (a
collapsed product rule on each triangle, 25 nodes each at k=3, so ~26k
points at r=10) is compressed once to at most dim P_{2k+3} positive
nodes with the same moments to degree 2k+3, and only the compressed
rule is kept, so the tables, every operator and ``energy_error`` read
the same few nodes.  Every operator
integrand has degree at most 2k+2, so the compression changes the
operators by round-off only.

Dof blocks are addressed by keys ('c', cid, side) and ('f', fid, side);
all operators are returned together with their ordered key stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .basis import CellBasis, FaceBasis, OrthonormalBasis, space_dimension
from .errors import NumericalError
from .geometry import UNCUT, CutMesh
from .quadrature import (
    box_rule,
    compress_rule,
    gauss_1d,
    map_to_triangles,
    points_for_degree,
    segment_rule,
    triangle_rule,
)

Key = tuple[str, int, int]

_MASS_COND_LIMIT = 1e14


def jacobi_scaled(m: np.ndarray, name) -> tuple[np.ndarray, np.ndarray]:
    """Square roots d of the diagonals of a stack of SPD matrices (n, s, s),
    and the matrices scaled by them, D^-1/2 m D^-1/2.

    The guard raises NumericalError("singular " + name(j)) for the first
    matrix j whose diagonal is not positive and finite, or whose scaled
    matrix is not positive definite to a condition number of 1e14.  It
    applies to the scaled matrix, so it flags genuine degeneracy rather
    than scale.
    """
    diag = np.diagonal(m, axis1=1, axis2=2)
    bad = np.any((diag <= 0.0) | ~np.isfinite(diag), axis=1)
    if not bad.any():
        d = np.sqrt(diag)
        ms = m / (d[:, :, None] * d[:, None, :])
        ev = np.linalg.eigvalsh(ms)
        bad = (ev[:, 0] <= 0.0) | (ev[:, -1] > _MASS_COND_LIMIT * ev[:, 0])
    if bad.any():
        raise NumericalError(f"singular {name(np.argmax(bad))}")
    return d, ms


def inverse_cholesky(m: np.ndarray, name) -> np.ndarray:
    """Upper-triangular X with X^T m X = I for each of a stack of SPD
    matrices (n, s, s).

    With D the diagonal of a matrix and U^T U the Cholesky factorization
    of D^-1/2 m D^-1/2, X = D^-1/2 U^-1.  The stack is scaled and guarded
    by ``jacobi_scaled``, which names a singular matrix j by ``name(j)``,
    and factored in one call.
    """
    d, ms = jacobi_scaled(m, name)
    try:
        u = np.linalg.cholesky(ms).swapaxes(1, 2)  # ms = u^T u
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"singular matrix of size {m.shape[1]}") from exc
    eye = np.broadcast_to(np.eye(m.shape[1]), u.shape)
    return solve_triangular(u, eye, lower=False) / d[:, :, None]


def orthonormal_basis(e: np.ndarray, w: np.ndarray, names) -> np.ndarray:
    """Upper-triangular transforms T_j making each basis of a stack
    orthonormal in the mean-value inner product of its region.

    ``e`` (n, p, s) holds the values of each region's basis at its
    quadrature points and ``w`` (n, p) their weights; a region with fewer
    points is padded with zero weights.  The inverse Cholesky factors of
    the stacked masses are applied twice: the second pass removes what
    round-off in the first left of the bases' conditioning.  A singular
    mass raises NumericalError naming "mass matrix: " + names[j].
    """
    mw = w / w.sum(axis=1, keepdims=True)
    transform = np.eye(e.shape[2])
    for _ in range(2):
        mass = e.swapaxes(1, 2) @ (mw[:, :, None] * e)
        x = inverse_cholesky(mass, lambda j: f"mass matrix: {names[j]}")
        transform = transform @ x
        e = e @ x
    return transform


@dataclass
class VolumeTables:
    """Volume quadrature of one sub-cell with its basis evaluations."""

    cid: int
    i: int
    pts: np.ndarray
    w: np.ndarray
    ek1: np.ndarray  # cell basis values, (npts, nc); the first ng span P_k
    dek1: np.ndarray  # cell basis gradients, (npts, nc, 2)


@dataclass
class Stencil:
    """Ordered dof blocks with their local column ranges."""

    keys: list[Key]
    offsets: dict[Key, int]
    width: int

    @classmethod
    def build(cls, keys_sizes) -> "Stencil":
        keys: list[Key] = []
        offsets: dict[Key, int] = {}
        width = 0
        for key, size in keys_sizes:
            if key in offsets:
                continue
            offsets[key] = width
            keys.append(key)
            width += size
        return cls(keys, offsets, width)

    def cols(self, key: Key, size: int) -> slice:
        off = self.offsets[key]
        return slice(off, off + size)


class LocalOperators:
    def __init__(self, cutmesh: CutMesh, k: int):
        self.cm = cutmesh
        self.k = k
        self.nc = space_dimension(k + 1)  # cell polynomial block
        self.ng = space_dimension(k)  # scalar reconstruction space
        self.nf = k + 1  # face polynomial block
        degree = 2 * k + 3
        self._tri_ref = triangle_rule(degree)
        self._gauss_n = points_for_degree(degree)
        self._gauss = gauss_1d(self._gauss_n)
        self._cell_bases: dict[tuple[int, int], OrthonormalBasis] = {}
        self._transforms: dict[tuple[int, int], np.ndarray] | None = None
        self._cut_rules: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._tables: VolumeTables | None = None  # the current sub-cell's
        self._iface: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- geometry-backed ingredients ---------------------------------

    def cell_basis(self, cid: int, i: int) -> OrthonormalBasis:
        """Degree k+1 basis of the cell unknowns of sub-cell (cid, i).

        Its ``_monomials`` made orthonormal in the mean-value inner product
        of T^i, or on a failing side of the region merged with its
        partner, where its polynomial is used (a sliver alone can make the
        mass matrix singular).  Its first dim P_k functions, ``lower(k)``,
        are the basis of the gradient reconstruction space.

        The first call builds the transforms of all sub-cells as one stack
        by ``orthonormal_basis``: one for each sub-cell that is not plain,
        and one for the first plain sub-cell, which all plain ones share,
        being translates of one another.
        """
        if self._transforms is None:
            cm = self.cm
            sides = cm.sides()
            is_plain = [cm.is_plain(*key) for key in sides]
            plain = [key for key, p in zip(sides, is_plain) if p]
            keys = [key for key, p in zip(sides, is_plain) if not p] + plain[:1]
            rules = []
            for c, side in keys:
                pts, w = self.volume_quadrature(c, side)
                if cm.is_ko(c, side):
                    tp, tw = self.volume_quadrature(cm.partner_of(c), side)
                    pts, w = np.vstack([pts, tp]), np.concatenate([w, tw])
                rules.append((pts, w))
            e = np.zeros((len(keys), max(len(w) for _, w in rules), self.nc))
            w = np.zeros(e.shape[:2])
            for j, (key, (pts, wj)) in enumerate(zip(keys, rules)):
                e[j, :len(wj)] = self._monomials(*key).eval(pts)
                w[j, :len(wj)] = wj
            self._transforms = dict(zip(keys, orthonormal_basis(
                e, w, [f"sub-cell ({c}, {side})" for c, side in keys])))
            for key in plain[1:]:
                self._transforms[key] = self._transforms[plain[0]]
        basis = self._cell_bases.get((cid, i))
        if basis is None:
            basis = self._cell_bases[cid, i] = OrthonormalBasis(
                self._monomials(cid, i), self._transforms[cid, i])
        return basis

    def _monomials(self, cid: int, i: int) -> CellBasis:
        """Monomials of degree k+1 centered at the barycenter of (cid, i)
        and scaled by half the cell diameter; on the failing side of an
        ill-cut cell, of the region merged with its partner."""
        cm = self.cm
        c = cm.cells[cid]
        scale = 0.5 * cm.mesh.h
        if cm.is_ko(cid, i):
            t = cm.partner_of(cid)
            ct = cm.cells[t]
            a_s, a_t = c.area[i], ct.area[i]
            center = (a_s * c.barycenter[i] + a_t * ct.barycenter[i]) / (a_s + a_t)
            bs = cm.mesh.cell_box(cid)
            bt = cm.mesh.cell_box(t)
            dx = max(bs[2], bt[2]) - min(bs[0], bt[0])
            dy = max(bs[3], bt[3]) - min(bs[1], bt[1])
            scale = 0.5 * float(np.hypot(dx, dy))
        else:
            center = c.barycenter[i]
        return CellBasis(self.k + 1, (float(center[0]), float(center[1])), scale)

    def face_basis(self, fid: int, side: int) -> FaceBasis:
        seg = self.cm.faces[fid].segments[side]
        return FaceBasis(self.k, tuple(seg[0]), tuple(seg[1]), self.cm.mesh.h)

    def volume_tables(self, cid: int, i: int) -> VolumeTables:
        """Quadrature of sub-cell (cid, i) with its cell basis values and
        gradients.  Only the last sub-cell's tables are kept."""
        t = self._tables
        if t is not None and t.cid == cid and t.i == i:
            return t
        self._tables = None  # let the previous sub-cell's tables go first
        pts, w = self.volume_quadrature(cid, i)
        basis = self.cell_basis(cid, i)
        self._tables = VolumeTables(cid, i, pts, w, basis.eval(pts), basis.grad(pts))
        return self._tables

    def volume_quadrature(self, cid: int, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of the volume quadrature of sub-cell (cid, i).

        An uncut sub-cell has the tensor Gauss rule of its square.  A cut
        sub-cell has its fan rule, the collapsed product rule on each of
        its triangles, compressed once by ``compress_rule`` to at most
        dim P_{2k+3} positive nodes with the same moments to degree
        2k+3; the compressed rule is kept, the fan rule is not.
        """
        c = self.cm.cells[cid]
        if c.kind == UNCUT:
            return box_rule(*self.cm.mesh.cell_box(cid), self._gauss_n)
        rule = self._cut_rules.get((cid, i))
        if rule is None:
            rule = self._cut_rules[cid, i] = compress_rule(
                *map_to_triangles(c.tris[i], *self._tri_ref), 2 * self.k + 3,
                f"sub-cell ({cid}, {i})")
        return rule

    def interface_quadrature(self, cid: int):
        """Points, weights, and pointwise unit normals on the cell's polyline."""
        hit = self._iface.get(cid)
        if hit is None:
            poly = self.cm.cells[cid].polyline
            t, gw = self._gauss
            p0, p1 = poly[:-1], poly[1:]
            mid = 0.5 * (p0 + p1)
            half = 0.5 * (p1 - p0)
            pts = (mid[:, None, :] + t[None, :, None] * half[:, None, :]).reshape(-1, 2)
            lengths = np.linalg.norm(p1 - p0, axis=1)
            w = (0.5 * lengths[:, None] * gw[None, :]).ravel()
            hit = self._iface[cid] = (pts, w, self.cm.levelset.normals(pts))
        return hit

    def face_quadrature(self, seg: np.ndarray):
        return segment_rule(seg[0], seg[1], self._gauss_n)

    # -- gradient reconstruction --------------------------------------

    def reconstruction_stencil(self, cid: int, i: int) -> Stencil:
        cm = self.cm
        ks = [(("c", cid, i), self.nc)]
        for fid, _, _ in cm.subfaces(cid, i):
            ks.append((("f", fid, i), self.nf))
        if cm.cells[cid].is_cut and i == 1:
            ks.append((("c", cid, 2), self.nc))
        for s in cm.pairing.donors(cid, i):
            ks.append((("c", s, i), self.nc))
            for fid, _, _ in cm.subfaces(s, i):
                ks.append((("f", fid, i), self.nf))
            if i == 1:
                ks.append((("c", s, 2), self.nc))
        return Stencil.build(ks)

    def gradient_rhs(self, cid: int, i: int) -> tuple[np.ndarray, Stencil]:
        """Moment matrix B with (B v)_a = (G(v), q_a) for the stencil dofs.

        Rows 0..ng-1 test against (phi_m, 0), rows ng.. against (0, phi_m).
        """
        cm = self.cm
        ng, nc, nf = self.ng, self.nc, self.nf
        st = self.reconstruction_stencil(cid, i)
        t = self.volume_tables(cid, i)
        basis_k = self.cell_basis(cid, i).lower(self.k)
        b = np.zeros((2 * ng, st.width))

        # (grad u_Ti, q)
        ccols = st.cols(("c", cid, i), nc)
        ek = t.ek1[:, :ng]
        b[0:ng, ccols] += ek.T @ (t.w[:, None] * t.dek1[:, :, 0])
        b[ng:, ccols] += ek.T @ (t.w[:, None] * t.dek1[:, :, 1])

        # (u_dTi - u_Ti, q.n_T)_dTi and donor faces with extended q
        for owner in [cid, *cm.pairing.donors(cid, i)]:
            obasis = self.cell_basis(owner, i)
            ocols = st.cols(("c", owner, i), nc)
            for fid, seg, nrm in cm.subfaces(owner, i):
                fpts, fw = self.face_quadrature(seg)
                phif = basis_k.eval(fpts)  # q (extended when owner != cid)
                chi = self.face_basis(fid, i).eval(fpts)
                psi = obasis.eval(fpts)
                fcols = st.cols(("f", fid, i), nf)
                for comp, rows in ((0, slice(0, ng)), (1, slice(ng, 2 * ng))):
                    wn = fw * nrm[comp]
                    b[rows, fcols] += phif.T @ (wn[:, None] * chi)
                    b[rows, ocols] -= phif.T @ (wn[:, None] * psi)
            # jump across the interface, only tested on side 1
            if i == 1 and cm.cells[owner].is_cut:
                ipts, iw, inrm = self.interface_quadrature(owner)
                phii = basis_k.eval(ipts)
                psi1 = self.cell_basis(owner, 1).eval(ipts)
                psi2 = self.cell_basis(owner, 2).eval(ipts)
                c2cols = st.cols(("c", owner, 2), nc)
                for comp, rows in ((0, slice(0, ng)), (1, slice(ng, 2 * ng))):
                    wn = iw * inrm[:, comp]
                    b[rows, st.cols(("c", owner, 1), nc)] -= phii.T @ (wn[:, None] * psi1)
                    b[rows, c2cols] += phii.T @ (wn[:, None] * psi2)
        return b, st

    def gradient_reconstruction(self, cid: int, i: int):
        """Reconstruction matrix Ghat (coefficients of G per stencil dof).

        The mass matrix of the orthonormal basis is |T^i| I, so Ghat is B
        divided by |T^i|, the sum of the sub-cell's quadrature weights.
        """
        b, st = self.gradient_rhs(cid, i)
        return b / self.volume_tables(cid, i).w.sum(), b, st

    def gradient_plain(self, cid: int, i: int):
        """Broken gradient on the failing side of an ill-cut cell, in the
        first dim P_k functions of its cell basis."""
        basis = self.cell_basis(cid, i)
        tk = basis.transform[: self.ng, : self.ng]
        d = np.vstack([solve_triangular(tk, dm @ basis.transform)
                       for dm in basis.mono.derivative_matrices()])
        st = Stencil.build([(("c", cid, i), self.nc)])
        return d, st

    def stiffness_ok(self, cid: int, i: int, kappa_i: float):
        """kappa_i (G, G)_Ti over the stencil, plus B and Ghat for reuse."""
        ghat, b, st = self.gradient_reconstruction(cid, i)
        a = kappa_i * (b[0 : self.ng].T @ ghat[0 : self.ng] + b[self.ng :].T @ ghat[self.ng :])
        return 0.5 * (a + a.T), ghat, b, st

    def stiffness_ko(self, cid: int, i: int, kappa_i: float):
        """kappa_i (grad v_Ti, grad v_Ti)_Ti on the failing side of an ill-cut cell."""
        t = self.volume_tables(cid, i)
        gx, gy = t.dek1[:, :, 0], t.dek1[:, :, 1]
        a = kappa_i * (gx.T @ (t.w[:, None] * gx) + gy.T @ (t.w[:, None] * gy))
        return 0.5 * (a + a.T), Stencil.build([(("c", cid, i), self.nc)])

    # -- stabilizations ------------------------------------------------

    def stab_circ(self, cid: int, i: int, kappa_i: float):
        """Lehrenfeld-Schoberl penalty kappa/h |Pi_F(v_T) - v_F|^2 on dTi.

        The face basis has Gram matrix h I, so Pi_F is its moments over h
        and the penalty is kappa times the squared coefficient residual.
        """
        cm = self.cm
        nc, nf = self.nc, self.nf
        basis = self.cell_basis(cid, i)
        ks = [(("c", cid, i), nc)]
        faces = cm.subfaces(cid, i)
        ks += [(("f", fid, i), nf) for fid, _, _ in faces]
        st = Stencil.build(ks)
        a = np.zeros((st.width, st.width))
        for fid, seg, _ in faces:
            fpts, fw = self.face_quadrature(seg)
            chi = self.face_basis(fid, i).eval(fpts)
            rmat = np.zeros((nf, st.width))
            proj = chi.T @ (fw[:, None] * basis.eval(fpts)) / cm.mesh.h
            rmat[:, st.cols(("c", cid, i), nc)] = proj
            rmat[:, st.cols(("f", fid, i), nf)] -= np.eye(nf)
            a += rmat.T @ rmat
        a *= kappa_i
        return 0.5 * (a + a.T), st

    def stab_gamma(self, cid: int, kappa1: float):
        """Interface jump penalty kappa1/h |v_T1 - v_T2|^2 on TG."""
        nc = self.nc
        st = Stencil.build([(("c", cid, 1), nc), (("c", cid, 2), nc)])
        pts, w, _ = self.interface_quadrature(cid)
        jmp = np.hstack([self.cell_basis(cid, 1).eval(pts),
                         -self.cell_basis(cid, 2).eval(pts)])
        a = (kappa1 / self.cm.mesh.h) * (jmp.T @ (w[:, None] * jmp))
        return 0.5 * (a + a.T), st

    def stab_pairing(self, cid: int, i: int, donor: int, kappa_i: float, eta: float):
        """Extension penalty eta kappa/h^2 |v_Si - v_Ti+|^2 over T^i."""
        nc = self.nc
        st = Stencil.build([(("c", donor, i), nc), (("c", cid, i), nc)])
        t = self.volume_tables(cid, i)
        diff = np.hstack([self.cell_basis(donor, i).eval(t.pts), -t.ek1])
        a = (eta * kappa_i / self.cm.mesh.h**2) * (diff.T @ (t.w[:, None] * diff))
        return 0.5 * (a + a.T), st

    # -- data-dependent pieces ----------------------------------------

    def lifting_coefficients(self, cid: int, g_d) -> np.ndarray:
        """Coefficients of the lifting of interface data into P^k(T^1)^2."""
        cm = self.cm
        basis_k = self.cell_basis(cid, 1).lower(self.k)
        lm = np.zeros(2 * self.ng)
        for owner in [cid, *cm.pairing.donors(cid, 1)]:
            if not cm.cells[owner].is_cut:
                continue
            pts, w, nrm = self.interface_quadrature(owner)
            g = g_d(pts)
            phi = basis_k.eval(pts)
            lm[0 : self.ng] += phi.T @ (w * g * nrm[:, 0])
            lm[self.ng :] += phi.T @ (w * g * nrm[:, 1])
        return lm / self.volume_tables(cid, 1).w.sum()

    def load_volume(self, cid: int, i: int, f) -> np.ndarray:
        t = self.volume_tables(cid, i)
        return t.ek1.T @ (t.w * f(i, t.pts))

    def load_interface(self, cid: int, kappa1: float, g_d, g_n):
        """Interface data terms (g_N, w_T2) + kappa1/h (g_D, [w_T]) on TG."""
        pts, w, nrm = self.interface_quadrature(cid)
        psi1 = self.cell_basis(cid, 1).eval(pts)
        psi2 = self.cell_basis(cid, 2).eval(pts)
        r1 = np.zeros(self.nc)
        r2 = np.zeros(self.nc)
        if g_n is not None:
            r2 += psi2.T @ (w * g_n(pts, nrm))
        if g_d is not None:
            gd = g_d(pts)
            scal = kappa1 / self.cm.mesh.h
            r1 += scal * (psi1.T @ (w * gd))
            r2 -= scal * (psi2.T @ (w * gd))
        return r1, r2
