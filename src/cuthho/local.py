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
sub-face has Legendre polynomials of its arc length, scaled so that
their Gram matrix is h I, so the face projections need no solve either;
``face_rule`` gives their values at the sub-face's Gauss points from one
reference table.  Scaled this way, cond(A) no longer grows as a cut
shrinks; the stiffness B^T M^-1 B, the lifting and the discrete
solution do not depend on the basis.

Everything built here is kept for the lifetime of the operators, once
per sub-cell or cut cell: the cell bases, whose transforms the first
call builds for all sub-cells in one stack (every sub-cell that is not
plain, and the first plain one, which all plain ones share); the
compressed volume rule of each cut sub-cell (``volume_quadrature``);
each sub-cell's volume tables, its quadrature with the values and
gradients of its cell basis, which the operators and ``energy_error``
read; and each cut cell's interface tables, the few products over its
arc that the interface terms read, whose rule is not kept.  The load
and lifting terms take their data from the case the operators are
built with.  ``assemble`` calls these operators only for the sub-cells
that are not plain (see ``CutMesh.is_plain``) and once for the
reference element that stands for all plain ones.

Dof blocks are addressed by keys ('c', cid, side) and ('f', fid, side).
Every operator of a sub-cell (T, i) is returned on its reconstruction
stencil (``reconstruction_stencil``: its cell block, its sub-faces and,
on a receiving side, its donors' blocks), zero outside its own columns;
the interface penalty of a cut cell is on side 1's stencil, which holds
both of its cell blocks.  So ``assemble`` sums a sub-cell's terms into
one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.linalg import solve_triangular

from .basis import CellBasis, OrthonormalBasis, space_dimension
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

    pts: np.ndarray
    w: np.ndarray
    ek1: np.ndarray  # cell basis values, (npts, nc); the first ng span P_k
    dek1: np.ndarray  # cell basis gradients, (npts, nc, 2)


@dataclass
class InterfaceTables:
    """Products over a cut cell's interface arc (weights W, normal n); see interface_tables."""

    jump: np.ndarray  # J^T W J, J = [psi1 | -psi2], (2 nc, 2 nc)
    flux: np.ndarray  # q^T W n_d [psi1 | psi2], d = x then y, (2 ng, 2 nc)
    lift: np.ndarray  # q^T W g_D n_d, d = x then y, (2 ng,); zero without g_D
    loads: np.ndarray  # psi1^T W g_D, psi2^T W g_D, psi2^T W g_N, (3, nc); ditto


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
    def __init__(self, cutmesh: CutMesh, k: int, case=None):
        self.cm = cutmesh
        self.k = k
        self.case = case
        self.nc = space_dimension(k + 1)  # cell polynomial block
        self.ng = space_dimension(k)  # scalar reconstruction space
        self.nf = k + 1  # face polynomial block
        degree = 2 * k + 3
        self._tri_ref = triangle_rule(degree)
        self._gauss_n = points_for_degree(degree)
        self._gauss = gauss_1d(self._gauss_n)
        # sqrt(2j+1) P_j at the Gauss parameters, j = 0..k: Gram 2 I
        self._face_ref = legvander(self._gauss[0], k) * np.sqrt(2 * np.arange(k + 1) + 1)
        self._cell_bases: dict[tuple[int, int], OrthonormalBasis] = {}
        self._transforms: dict[tuple[int, int], np.ndarray] | None = None
        self._cut_rules: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._tables: dict[tuple[int, int], VolumeTables] = {}
        self._iface_tables: dict[int, InterfaceTables] = {}

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

    def volume_tables(self, cid: int, i: int) -> VolumeTables:
        """Quadrature of sub-cell (cid, i) with its cell basis values and
        gradients, built on the first call and kept."""
        t = self._tables.get((cid, i))
        if t is None:
            pts, w = self.volume_quadrature(cid, i)
            basis = self.cell_basis(cid, i)
            t = self._tables[cid, i] = VolumeTables(pts, w, basis.eval(pts), basis.grad(pts))
        return t

    def volume_quadrature(self, cid: int, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of the volume quadrature of sub-cell (cid, i).

        An uncut sub-cell has the tensor Gauss rule of its square.  A cut
        sub-cell has its fan rule, the collapsed product rule on each of
        its triangles (~26k nodes at k=3, r=10), compressed once by
        ``compress_rule`` to at most dim P_{2k+3} positive nodes with the
        same moments to degree 2k+3; the compressed rule is kept, the fan
        rule is not.  Operator integrands have degree at most 2k+2.
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
        poly = self.cm.cells[cid].polyline
        t, gw = self._gauss
        p0, p1 = poly[:-1], poly[1:]
        mid = 0.5 * (p0 + p1)
        half = 0.5 * (p1 - p0)
        pts = (mid[:, None, :] + t[None, :, None] * half[:, None, :]).reshape(-1, 2)
        lengths = np.linalg.norm(p1 - p0, axis=1)
        w = (0.5 * lengths[:, None] * gw[None, :]).ravel()
        return pts, w, self.cm.levelset.normals(pts)

    def interface_tables(self, cid: int) -> InterfaceTables:
        """Integrals over cut cell cid's interface arc, built on the first
        call and kept.  psi1, psi2 and q (the first dim P_k functions of
        psi1, or on a side-1 donor its receiver's ``lower(k)``) are
        evaluated once on the interface rule, which is not kept."""
        t = self._iface_tables.get(cid)
        if t is None:
            pts, w, nrm = self.interface_quadrature(cid)
            psi1 = self.cell_basis(cid, 1).eval(pts)
            psi2 = self.cell_basis(cid, 2).eval(pts)
            q = (self.cell_basis(self.cm.partner_of(cid), 1).lower(self.k).eval(pts)
                 if self.cm.is_ko(cid, 1) else psi1[:, :self.ng])
            g_d, g_n = getattr(self.case, "g_D", None), getattr(self.case, "g_N", None)
            gd = g_d(pts) if g_d is not None else np.zeros(len(w))
            gn = g_n(pts, nrm) if g_n is not None else np.zeros(len(w))
            wn = [(w * nrm[:, d])[:, None] for d in (0, 1)]
            jmp = np.hstack([psi1, -psi2])
            t = self._iface_tables[cid] = InterfaceTables(
                jmp.T @ (w[:, None] * jmp),
                np.vstack([np.hstack([q.T @ (x * psi1), q.T @ (x * psi2)]) for x in wn]),
                np.concatenate([q.T @ (w * gd * nrm[:, d]) for d in (0, 1)]),
                np.stack([psi1.T @ (w * gd), psi2.T @ (w * gd), psi2.T @ (w * gn)]))
        return t

    def face_rule(self, seg: np.ndarray):
        """Gauss points and weights of sub-face ``seg`` and the values there
        of its basis, Legendre polynomials of the arc length scaled so that
        their Gram matrix is h I: the reference table times sqrt(h / |F|),
        |F| the sum of the weights.  A zero-length segment has no points."""
        pts, w = segment_rule(seg[0], seg[1], self._gauss_n)
        if not len(w):
            return pts, w, np.zeros((0, self.nf))
        return pts, w, self._face_ref * np.sqrt(self.cm.mesh.h / w.sum())

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
                fpts, fw, chi = self.face_rule(seg)
                psi = obasis.eval(fpts)
                # q, extended when owner != cid; else the leading block of psi
                phif = psi[:, :ng] if owner == cid else basis_k.eval(fpts)
                fcols = st.cols(("f", fid, i), nf)
                for comp, rows in ((0, slice(0, ng)), (1, slice(ng, 2 * ng))):
                    wn = fw * nrm[comp]
                    b[rows, fcols] += phif.T @ (wn[:, None] * chi)
                    b[rows, ocols] -= phif.T @ (wn[:, None] * psi)
            # jump across the interface, only tested on side 1
            if i == 1 and cm.cells[owner].is_cut:
                flux = self.interface_tables(owner).flux
                b[:, st.cols(("c", owner, 1), nc)] -= flux[:, :nc]
                b[:, st.cols(("c", owner, 2), nc)] += flux[:, nc:]
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
        return d, Stencil.build([(("c", cid, i), self.nc)])

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
        st = self.reconstruction_stencil(cid, i)
        cols = st.cols(("c", cid, i), self.nc)
        out = np.zeros((st.width, st.width))
        out[cols, cols] = 0.5 * (a + a.T)
        return out, st

    # -- stabilizations ------------------------------------------------

    def stab_circ(self, cid: int, i: int, kappa_i: float):
        """Lehrenfeld-Schoberl penalty kappa/h |Pi_F(v_T) - v_F|^2 on dTi.

        The face basis has Gram matrix h I, so Pi_F is its moments over h
        and the penalty is kappa times the squared coefficient residual.
        """
        cm = self.cm
        nc, nf = self.nc, self.nf
        basis = self.cell_basis(cid, i)
        st = self.reconstruction_stencil(cid, i)
        a = np.zeros((st.width, st.width))
        for fid, seg, _ in cm.subfaces(cid, i):
            fpts, fw, chi = self.face_rule(seg)
            rmat = np.zeros((nf, st.width))
            proj = chi.T @ (fw[:, None] * basis.eval(fpts)) / cm.mesh.h
            rmat[:, st.cols(("c", cid, i), nc)] = proj
            rmat[:, st.cols(("f", fid, i), nf)] -= np.eye(nf)
            a += rmat.T @ rmat
        a *= kappa_i
        return 0.5 * (a + a.T), st

    def stab_gamma(self, cid: int, kappa1: float):
        """Interface jump penalty kappa1/h |v_T1 - v_T2|^2 on TG."""
        a = (kappa1 / self.cm.mesh.h) * self.interface_tables(cid).jump
        st = self.reconstruction_stencil(cid, 1)
        cols = np.r_[st.cols(("c", cid, 1), self.nc), st.cols(("c", cid, 2), self.nc)]
        out = np.zeros((st.width, st.width))
        out[np.ix_(cols, cols)] = 0.5 * (a + a.T)
        return out, st

    def stab_pairing(self, cid: int, i: int, donor: int, kappa_i: float, eta: float):
        """Extension penalty eta kappa/h^2 |v_Si - v_Ti+|^2 over T^i."""
        t = self.volume_tables(cid, i)
        diff = np.hstack([self.cell_basis(donor, i).eval(t.pts), -t.ek1])
        a = (eta * kappa_i / self.cm.mesh.h**2) * (diff.T @ (t.w[:, None] * diff))
        st = self.reconstruction_stencil(cid, i)
        cols = np.r_[st.cols(("c", donor, i), self.nc), st.cols(("c", cid, i), self.nc)]
        out = np.zeros((st.width, st.width))
        out[np.ix_(cols, cols)] = 0.5 * (a + a.T)
        return out, st

    # -- data-dependent pieces ----------------------------------------

    def lifting_coefficients(self, cid: int) -> np.ndarray:
        """Coefficients of the lifting of the case's g_D, if any, into P^k(T^1)^2."""
        lm = np.zeros(2 * self.ng)
        for owner in [cid, *self.cm.pairing.donors(cid, 1)]:
            if self.cm.cells[owner].is_cut:
                lm += self.interface_tables(owner).lift
        return lm / self.volume_tables(cid, 1).w.sum()

    def load_volume(self, cid: int, i: int) -> np.ndarray:
        t = self.volume_tables(cid, i)
        return t.ek1.T @ (t.w * self.case.f(i, t.pts))

    def load_interface(self, cid: int, kappa1: float):
        """Interface data terms (g_N, w_T2) + kappa1/h (g_D, [w_T]) on TG."""
        loads = self.interface_tables(cid).loads
        scal = kappa1 / self.cm.mesh.h
        return scal * loads[0], loads[2] - scal * loads[1]
