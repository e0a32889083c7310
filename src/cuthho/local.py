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
reference table, and ``face_projections`` projects data on a set of
faces (the Dirichlet values and the interpolant).  Nothing outside this
module scales by h or evaluates a face rule.  Scaled this way, cond(A)
no longer grows as a cut shrinks; the stiffness B^T M^-1 B, the lifting
and the discrete solution do not depend on the basis.

Everything built here is kept for the lifetime of the operators.  Each
sub-cell has one record, a ``SubCell``: its cell basis, its volume
tables (its quadrature with the values and gradients of its cell basis,
which the operators and ``energy_error`` read), its face tables (the
projection and flux products of its sub-faces, and on a receiving side
of its donors' sub-faces, which ``gradient_rhs`` and ``stab_circ``
read), its reconstruction stencil, the cells whose interface arcs
enter its reconstruction (``interface_arcs``) and, on side 1 of a cut
cell, the cell's interface tables (the few products over its arc that
the interface terms read).  Every table is built in one of two stacks,
entered only through ``volume_tables`` (see ``_build``): the first call
builds every sub-cell that is not plain and the first plain one; the
first call for any other plain sub-cell builds all of those, which share
the first plain one's transform.  A sub-cell the cut mesh does not have
is a ``KeyError`` before anything is built.  Which sub-cells are plain is the cut
mesh's mask ``CutMesh.plain``.  No volume fan rule, face rule or
interface rule is kept.  The load and lifting terms take their data
from the case the operators are built with.  ``assemble`` calls these
operators only for the sub-cells that are not plain and once for the
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

from .basis import (
    CellBasis,
    OrthonormalBasis,
    monomial_gradients,
    monomial_values,
    space_dimension,
    transform_gradients,
)
from .errors import NumericalError
from .geometry import CutMesh
from .quadrature import (
    box_rule,
    compress_rule,
    gauss_1d,
    map_to_triangles,
    points_for_degree,
    segment_rules,
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
    # LU of an upper-triangular u pivots nothing and eliminates nothing, so
    # inv ends in the triangular solve that solve_triangular makes, bit for
    # bit, without scipy's Python loop over the stack
    return np.linalg.inv(u) / d[:, :, None]


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


def _padded(rules) -> tuple[np.ndarray, np.ndarray]:
    """A stack of rules (points, weights) as points (n, p, 2) and weights
    (n, p), each padded to the longest with zero weights at the origin."""
    pts = np.zeros((len(rules), max(len(w) for _, w in rules), 2))
    w = np.zeros(pts.shape[:2])
    for j, (pj, wj) in enumerate(rules):
        pts[j, :len(wj)] = pj
        w[j, :len(wj)] = wj
    return pts, w


def _scaled(monos: list[CellBasis], pts: np.ndarray) -> np.ndarray:
    """A stack of points (n, p, 2), each scaled as ``monos[j].scaled``."""
    centers = np.array([m.center for m in monos])
    return (pts - centers[:, None]) / np.array([m.scale for m in monos])[:, None, None]


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
class FaceTables:
    """Products over the sub-faces of one sub-cell, then over those of each
    of its donors (weights W, outward normal n); see face_tables."""

    owners: list[int]  # cell of each sub-face: the sub-cell's own, then its donors'
    fids: list[int]
    proj: np.ndarray  # P = chi^T W psi / h on the own sub-faces, (n_own, nf, nc)
    flux: np.ndarray  # q^T W n_d [chi | psi], d = x then y, (n, 2 ng, nf + nc)


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


@dataclass
class SubCell:
    """Everything kept of one sub-cell; see LocalOperators._build."""

    basis: OrthonormalBasis
    tables: VolumeTables
    faces: FaceTables
    stencil: Stencil
    arcs: list[int]  # cells whose interface arc enters the reconstruction
    interface: InterfaceTables | None = None  # on side 1 of a cut cell


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
        # sqrt(2j+1) P_j at the Gauss parameters, j = 0..k: Gram 2 I
        self._face_ref = (legvander(gauss_1d(self._gauss_n)[0], k)
                          * np.sqrt(2 * np.arange(k + 1) + 1))
        self._subcells: dict[tuple[int, int], SubCell] = {}

    # -- the kept records of the sub-cells ----------------------------

    def _record(self, cid: int, i: int) -> SubCell:
        """The record of sub-cell (cid, i); a missing one is built through
        ``volume_tables``, so the build is timed as the volume tables'."""
        rec = self._subcells.get((cid, i))
        if rec is None:
            self.volume_tables(cid, i)
            rec = self._subcells[cid, i]
        return rec

    def volume_tables(self, cid: int, i: int) -> VolumeTables:
        """Quadrature of sub-cell (cid, i) with its cell basis values and
        gradients; the gradients have the bits of ``OrthonormalBasis.grad``.

        The first call builds the records of every sub-cell that is not
        plain (``CutMesh.plain``) and of the first plain one as one stack;
        the first call for any other plain sub-cell builds all of those as a
        second stack, with the first plain one's transform, plain sub-cells
        being translates of one another.  A sub-cell the cut mesh does not
        have raises a ``KeyError`` naming it before anything is built.
        """
        rec = self._subcells.get((cid, i))
        if rec is None:
            cm = self.cm
            if np.isnan(cm.cells.area[cid, i]):
                raise KeyError(f"sub-cell ({cid}, {i}) is not in the cut mesh")
            cids = np.flatnonzero(cm.plain)
            plain = list(zip(cids.tolist(), cm.cells.side[cids].tolist()))
            if not self._subcells:
                self._build([key for key in cm.sides() if not cm.plain[key[0]]] + plain[:1])
            if (cid, i) not in self._subcells:
                self._build(plain[1:], self._subcells[plain[0]].basis.transform)
            rec = self._subcells[cid, i]
        return rec.tables

    def cell_basis(self, cid: int, i: int) -> OrthonormalBasis:
        """Degree k+1 basis of the cell unknowns of sub-cell (cid, i).

        Its ``_monomials`` made orthonormal in the mean-value inner product
        of T^i, or on a failing side of the region merged with its
        partner, where its polynomial is used (a sliver alone can make the
        mass matrix singular).  Its first dim P_k functions, ``lower(k)``,
        are the basis of the gradient reconstruction space.
        """
        return self._record(cid, i).basis

    def face_tables(self, cid: int, i: int) -> FaceTables:
        """Face products of sub-cell (cid, i).

        For each sub-face of (cid, i), with psi its cell basis, q = psi's
        first dim P_k functions and chi the face basis: the projection
        P = chi^T W psi / h and the flux products q^T W n_d [chi | psi].
        On a receiving side the same flux products follow for each donor's
        sub-faces, with psi the donor's basis and q the receiver's
        ``lower(k)`` at the donor's face points.
        """
        return self._record(cid, i).faces

    def reconstruction_stencil(self, cid: int, i: int) -> Stencil:
        """Dof blocks of sub-cell (cid, i): its cell block, its sub-faces,
        on side 1 of a cut cell its side-2 cell block, then for each donor
        the same."""
        return self._record(cid, i).stencil

    def interface_arcs(self, cid: int, i: int) -> list[int]:
        """Cells whose interface arc enters the reconstruction of sub-cell
        (cid, i), cid first, then its donors: on side 1, each of them that
        is cut; none on side 2."""
        return self._record(cid, i).arcs

    def volume_quadrature(self, cid: int, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of the volume quadrature of sub-cell (cid, i).

        An uncut sub-cell has the tensor Gauss rule of its square.  A cut
        sub-cell has its fan rule, the collapsed product rule on each of
        its triangles (~26k nodes at k=3, r=10), compressed once by
        ``compress_rule`` to at most dim P_{2k+3} positive nodes with the
        same moments to degree 2k+3; the compressed rule is kept, the fan
        rule is not.  Operator integrands have degree at most 2k+2.
        """
        t = self.volume_tables(cid, i)
        return t.pts, t.w

    def _build(self, keys, transform=None) -> None:
        """Build and keep the records of the sub-cells ``keys`` as one stack.

        1. Each sub-cell's volume rule (see ``volume_quadrature``).  A
           failing side's merged region has its own rule followed by its
           partner's, which is in the same stack.
        2. One ``monomial_values`` call on the merged rules, padded to the
           longest: ``orthonormal_basis`` makes the transforms of it, unless
           all take ``transform``.  Its rows on the own rules times the
           transforms are the basis values, padded to the longest own rule.
        3. The basis gradients on the own rules.
        4. One walk over the sub-faces, and on a receiving side its donors',
           that lists each stencil's blocks and the face stack: one stacked
           face rule and basis evaluation, then the face products by batched
           matmul.
        5. Each cut cell's interface tables, one cell at a time, kept on its
           side-1 record; the bases they evaluate are all in this stack.
        """
        cm, k, ng = self.cm, self.k, self.ng
        rules = {}
        for cid, i in keys:
            tris = cm.cells.tris.get((cid, i))  # None on an uncut cell
            rules[cid, i] = (box_rule(*cm.mesh.cell_box(cid), self._gauss_n) if tris is None
                             else compress_rule(*map_to_triangles(tris, *self._tri_ref),
                                                2 * k + 3, f"sub-cell ({cid}, {i})"))
        merged = []
        for cid, i in keys:
            pts, w = rules[cid, i]
            if cm.is_ko(cid, i):
                tp, tw = rules[cm.partner_of(cid), i]
                pts, w = np.vstack([pts, tp]), np.concatenate([w, tw])
            merged.append((pts, w))
        pts, w = _padded(merged)
        monos = [self._monomials(*key) for key in keys]
        xi = _scaled(monos, pts)
        e = monomial_values(xi, k + 1)
        if transform is None:
            transforms = orthonormal_basis(e, w, [f"sub-cell ({c}, {s})" for c, s in keys])
        else:
            transforms = np.broadcast_to(transform, (len(keys), *transform.shape))
        own = max(len(rules[key][1]) for key in keys)
        ek1 = e[:, :own] @ transforms
        del e  # no merged stack is kept: each is freed after its last use
        scales = np.array([m.scale for m in monos])[:, None, None, None]
        dek1 = transform_gradients(monomial_gradients(xi[:, :own], k + 1, scales), transforms)
        del merged, pts, w, xi

        index = {key: j for j, key in enumerate(keys)}
        faces, ranges, stencils, arcs = [], [], [], []
        receivers = {}  # donor sub-face -> its receiver
        for j, (cid, i) in enumerate(keys):
            lo, blocks, arcs_j = len(faces), [], []
            for owner in [cid, *cm.pairing.donors(cid, i)]:
                blocks.append((("c", owner, i), self.nc))
                for fid, seg, nrm in cm.subfaces(owner, i):
                    if owner != cid:
                        receivers[len(faces)] = j
                    blocks.append((("f", fid, i), self.nf))
                    faces.append((owner, fid, seg, nrm, index[owner, i]))
                if i == 1 and cm.is_cut(owner):
                    arcs_j.append(owner)
                    blocks.append((("c", owner, 2), self.nc))
                own = len(faces) if owner == cid else own
            ranges.append((lo, own, len(faces)))
            stencils.append(Stencil.build(blocks))
            arcs.append(arcs_j)
        owners, fids, segs, nrms, bases = map(list, zip(*faces))
        fpts, fw, chi = self._face_rules(np.reshape(segs, (-1, 2, 2)))

        def values(stack, at, n):
            """The first n functions of the bases ``stack`` at their points."""
            mono = monomial_values(_scaled([monos[s] for s in stack], at), k + 1)
            return mono[:, :, :n] @ transforms[stack][:, :n, :n]

        psi = values(bases, fpts, self.nc)
        q = psi[:, :, :ng]
        if receivers:  # on a donor's sub-face q is the receiver's lower(k)
            q = q.copy()
            sel = list(receivers)
            q[sel] = values(list(receivers.values()), fpts[sel], ng)
        chipsi = np.concatenate([chi, psi], axis=2)
        wn = fw[:, :, None] * np.reshape(nrms, (-1, 1, 2))
        flux = np.concatenate([q.swapaxes(1, 2) @ (wn[:, :, d, None] * chipsi)
                               for d in (0, 1)], axis=1)
        proj = chi.swapaxes(1, 2) @ (fw[:, :, None] * psi) / cm.mesh.h
        for j, key in enumerate(keys):
            lo, own, hi = ranges[j]
            n = len(rules[key][1])
            self._subcells[key] = SubCell(
                OrthonormalBasis(monos[j], transforms[j]),
                VolumeTables(*rules[key], ek1[j, :n], dek1[j, :n]),
                FaceTables(owners[lo:hi], fids[lo:hi], proj[lo:own], flux[lo:hi]),
                stencils[j], arcs[j])
        for cid, i in keys:
            if i == 1 and cm.is_cut(cid):
                self._subcells[cid, 1].interface = self._interface_tables(cid)

    def _monomials(self, cid: int, i: int) -> CellBasis:
        """Monomials of degree k+1 centered at the barycenter of (cid, i)
        and scaled by half the cell diameter; on the failing side of an
        ill-cut cell, of the region merged with its partner."""
        cm = self.cm
        area, barycenter = cm.cells.area, cm.cells.barycenter
        scale = 0.5 * cm.mesh.h
        if cm.is_ko(cid, i):
            t = cm.partner_of(cid)
            a_s, a_t = area[cid, i], area[t, i]
            center = (a_s * barycenter[cid, i] + a_t * barycenter[t, i]) / (a_s + a_t)
            bs = cm.mesh.cell_box(cid)
            bt = cm.mesh.cell_box(t)
            dx = max(bs[2], bt[2]) - min(bs[0], bt[0])
            dy = max(bs[3], bt[3]) - min(bs[1], bt[1])
            scale = 0.5 * float(np.hypot(dx, dy))
        else:
            center = barycenter[cid, i]
        return CellBasis(self.k + 1, (float(center[0]), float(center[1])), scale)

    # -- geometry-backed ingredients ---------------------------------

    def interface_quadrature(self, cid: int):
        """Points, weights, and pointwise unit normals on the cell's polyline."""
        poly = self.cm.cells.polyline[cid]
        pts, w = segment_rules(np.stack([poly[:-1], poly[1:]], axis=1), self._gauss_n)
        pts = pts.reshape(-1, 2)
        return pts, w.ravel(), self.cm.levelset.normals(pts)

    def interface_tables(self, cid: int) -> InterfaceTables:
        """Integrals over cut cell cid's interface arc, kept on its side-1
        record."""
        return self._record(cid, 1).interface

    def _interface_tables(self, cid: int) -> InterfaceTables:
        """Build ``interface_tables(cid)``.  psi1, psi2 and q (the first
        dim P_k functions of psi1, or on a side-1 donor its receiver's
        ``lower(k)``) are evaluated once on the interface rule, which is
        not kept."""
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
        return InterfaceTables(
            jmp.T @ (w[:, None] * jmp),
            np.vstack([np.hstack([q.T @ (x * psi1), q.T @ (x * psi2)]) for x in wn]),
            np.concatenate([q.T @ (w * gd * nrm[:, d]) for d in (0, 1)]),
            np.stack([psi1.T @ (w * gd), psi2.T @ (w * gd), psi2.T @ (w * gn)]))

    def face_rule(self, seg: np.ndarray):
        """Gauss points and weights of sub-face ``seg`` and the values there
        of its basis, Legendre polynomials of the arc length scaled so that
        their Gram matrix is h I: the reference table times sqrt(h / |F|),
        |F| the sum of the weights.  A zero-length segment has no points."""
        pts, w, chi = (v[0] for v in self._face_rules(np.asarray(seg, dtype=float)[None]))
        return (pts, w, chi) if w.any() else (pts[:0], w[:0], chi[:0])

    def face_projections(self, faces: np.ndarray,
                         fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L2-projections of ``fn(i, pts)`` onto the polynomials of each side
        i of the faces in the mask ``faces``: the face ids and sides, by face
        then side, and the coefficients, (n, nf).

        The face basis has Gram matrix h I, so a projection is its moments
        over h.  All face sides take one stacked face rule, and ``fn`` is
        called once per side i.
        """
        fid, side = np.nonzero(self.cm.faces.sides & faces[:, None])
        pts, w, chi = self._face_rules(self.cm.faces.segments[fid, side])
        values = np.zeros(w.shape)
        for i in (1, 2):
            sel = side == i
            if sel.any():
                values[sel] = fn(i, pts[sel].reshape(-1, 2)).reshape(-1, w.shape[1])
        proj = (chi.swapaxes(1, 2) @ (w * values)[:, :, None])[:, :, 0] / self.cm.mesh.h
        return fid, side, proj

    def _face_rules(self, segs: np.ndarray):
        """``face_rule`` of a stack of sub-faces ``segs`` (n, 2, 2): points
        (n, p, 2), weights (n, p) and face basis values (n, p, nf).  A
        zero-length segment has zero weights and face basis values."""
        pts, w = segment_rules(segs, self._gauss_n)
        size = w.sum(axis=1)
        scale = np.sqrt(self.cm.mesh.h / np.where(size > 0.0, size, np.inf))
        return pts, w, self._face_ref * scale[:, None, None]

    # -- gradient reconstruction --------------------------------------

    def gradient_rhs(self, cid: int, i: int) -> tuple[np.ndarray, Stencil]:
        """Moment matrix B with (B v)_a = (G(v), q_a) for the stencil dofs.

        Rows 0..ng-1 test against (phi_m, 0), rows ng.. against (0, phi_m).
        """
        ng, nc, nf = self.ng, self.nc, self.nf
        st = self.reconstruction_stencil(cid, i)
        t = self.volume_tables(cid, i)
        b = np.zeros((2 * ng, st.width))

        # (grad u_Ti, q)
        ccols = st.cols(("c", cid, i), nc)
        ek = t.ek1[:, :ng]
        b[0:ng, ccols] += ek.T @ (t.w[:, None] * t.dek1[:, :, 0])
        b[ng:, ccols] += ek.T @ (t.w[:, None] * t.dek1[:, :, 1])

        # (u_dTi - u_Ti, q.n_T)_dTi and donor faces with extended q
        ft = self.face_tables(cid, i)
        for owner, fid, flux in zip(ft.owners, ft.fids, ft.flux):
            b[:, st.cols(("f", fid, i), nf)] += flux[:, :nf]
            b[:, st.cols(("c", owner, i), nc)] -= flux[:, nf:]
        # jump across the interface, only tested on side 1
        for owner in self.interface_arcs(cid, i):
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
        and the penalty is kappa times the squared coefficient residual
        [P, -I] of each sub-face, P its projection from ``face_tables``:
        P^T P on the cell block, -P^T and -P between the cell and the face,
        and I on the face block.
        """
        nc, nf = self.nc, self.nf
        ft = self.face_tables(cid, i)
        st = self.reconstruction_stencil(cid, i)
        a = np.zeros((st.width, st.width))
        cell = st.cols(("c", cid, i), nc)
        for fid, proj in zip(ft.fids, ft.proj):
            face = st.cols(("f", fid, i), nf)
            a[cell, cell] += proj.T @ proj
            a[cell, face] -= proj.T
            a[face, cell] -= proj
            a[face, face] += np.eye(nf)
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
        for owner in self.interface_arcs(cid, 1):
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
