"""Cut geometry on a Cartesian background mesh.

Builds, for a given level set, the complete cut description the solver
needs as two tables and a pairing map.  ``FaceCuts`` holds every face's
cut: whether the interface crosses the face, where, and the part of the
face on each side, made by array operations over all faces.  ``CellCuts``
holds every cell's cut: its kind (uncut, well-cut or ill-cut), its
containing or failing side, and each sub-cell's area, barycenter and
inscribed-radius estimate rho, with the interface polyline (2**r chords
obtained by recursive midpoint projection onto the zero set) and the
sub-cell triangulations used for quadrature of every cut cell.  Its uncut
rows are filled by array operations, its cut rows one cell at a time,
and rho drives the well-cut / ill-cut classification.  The pairing map
assigns every ill-cut cell a neighbor with a usable sub-cell on the
failing side.

The polyline refinement is batched over cells: ``build_cut_mesh`` walks
the boundary of every cut cell first, then refines the polylines of all
of them together, one projection per refinement level, and then
triangulates and classifies the cells in cell order.  A cell's polyline
is bit for bit the one it would get alone, and the error reported is
that of the first faulty cell in cell order.

Each background face is assumed to be crossed at most once and each cut
cell to contain a single interface arc with two boundary crossings;
anything else raises :class:`GeometryError` instead of silently
mis-triangulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, PairingError
from .levelset import LevelSet
from .mesh import CartesianMesh
from .quadrature import triangle_areas

UNCUT = "uncut"
WELL_CUT = "well"
ILL_CUT = "ill"

SNAP_REL = 1e-12  # endpoint snap, relative to the cell size
GRID_M = 8  # per-cell sample grid for classification
_BISECT_ITERS = 48
_SCAN_STEPS = 16  # projection scan: 2 * _SCAN_STEPS + 1 samples per point


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------

def _bisect(a: np.ndarray, b: np.ndarray, fa: np.ndarray, value) -> np.ndarray:
    """Midpoints of the brackets [a, b], one a row, after _BISECT_ITERS
    halvings; ``fa`` holds the level-set values at ``a``, and ``value``
    maps a stack of rows to theirs."""
    for _ in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        fm = value(m)
        move_a = fa * fm > 0
        a = np.where(move_a[:, None], m, a)
        fa = np.where(move_a, fm, fa)
        b = np.where(move_a[:, None], b, m)
    return 0.5 * (a + b)


def bisect_segments(p0: np.ndarray, p1: np.ndarray, levelset: LevelSet) -> np.ndarray:
    """Vectorized bisection roots on segments with a sign change."""
    a = np.atleast_2d(p0).astype(float)
    return _bisect(a, np.atleast_2d(p1).astype(float), levelset.value(a), levelset.value)


def _nearest_brackets(points, dirs, levelset: LevelSet, spans):
    """Each point's sign-change bracket [ta, tb] nearest the origin, fa
    the level-set value at ta, and whether it has one (see
    ``project_onto_interface``)."""
    steps = np.linspace(-1.0, 1.0, 2 * _SCAN_STEPS + 1)
    ta, tb, fa = np.zeros((3, len(points)))
    has_root = np.zeros(len(points), dtype=bool)
    rows, p, d, s = np.arange(len(points)), points, dirs, spans  # the open points
    t = s * steps[_SCAN_STEPS]
    ends = [(t, levelset.value(p + t[:, None] * d))] * 2  # outermost samples, below and above
    for j in range(2 * _SCAN_STEPS):
        if not len(rows):
            break
        side = j % 2  # 0: the next sample below the origin, 1: above
        t0, f0 = ends[side]
        t1 = s * steps[_SCAN_STEPS + (j // 2 + 1) * (2 * side - 1)]
        f1 = levelset.value(p + t1[:, None] * d)
        cross = np.signbit(f0) != np.signbit(f1)
        lo, hi, f_lo = (t0, t1, f0) if side else (t1, t0, f1)
        hit = rows[cross]
        has_root[hit] = True
        ta[hit], tb[hit], fa[hit] = lo[cross], hi[cross], f_lo[cross]
        ends[side] = (t1, f1)
        if cross.any():
            keep = ~cross
            rows, p, d, s = rows[keep], p[keep], d[keep], s[keep]
            ends = [(t[keep], f[keep]) for t, f in ends]
    return ta, tb, fa, has_root


def project_onto_interface(points: np.ndarray, dirs: np.ndarray,
                           levelset: LevelSet, spans: np.ndarray) -> np.ndarray:
    """Move each point to the zero set along its direction.

    Of the brackets between 2 * _SCAN_STEPS + 1 samples on [-span, span]
    per point, takes the sign-change bracket nearest the origin, the one
    below the origin of two at equal distance, then bisects.  The scan
    goes outward from the origin, one sample below and then one above per
    step, and a point leaves it at its first sign change: a point with a
    crossing within span/16 costs the origin and one or two neighbours,
    and only the points still open see farther samples.  Each level-set
    call evaluates one sample of the open points, so the scan's memory
    grows with the number of points only.  Points without a nearby
    crossing are returned unchanged (they are already on a chord and only
    lose geometric, not algebraic, accuracy).
    """
    points = np.atleast_2d(points).astype(float)
    ta, tb, fa, has_root = _nearest_brackets(points, dirs, levelset, spans)
    t = _bisect(ta[:, None], tb[:, None], fa, lambda t: levelset.value(points + t * dirs))
    return points + np.where(has_root[:, None], t, 0.0) * dirs


def build_polyline(a, b, levelset: LevelSet, r: int) -> np.ndarray:
    """Polylines with 2**r chords along the interface, one per endpoint row.

    ``a`` and ``b`` hold m endpoint pairs, shape (m, 2); the result has
    shape (m, 2**r + 1, 2) and row j runs from a[j] to b[j].  The
    refinement is batched over the rows: each level projects the current
    chord midpoints of all rows onto the zero set along the level-set
    gradient in one ``project_onto_interface`` call.  Every point's
    arithmetic is elementwise, so a row does not depend on the others.
    """
    pts = np.stack([np.asarray(a, float), np.asarray(b, float)], axis=1)
    m = len(pts)
    for _ in range(r):
        mids = (0.5 * (pts[:, :-1] + pts[:, 1:])).reshape(-1, 2)
        spans = np.linalg.norm(pts[:, 1:] - pts[:, :-1], axis=2).ravel()
        grad = levelset.gradient(mids)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        dirs = np.divide(grad, np.maximum(norms, 1e-300))
        proj = project_onto_interface(mids, dirs, levelset, spans)
        finer = np.empty((m, 2 * pts.shape[1] - 1, 2))
        finer[:, 0::2] = pts
        finer[:, 1::2] = proj.reshape(m, pts.shape[1] - 1, 2)
        pts = finer
    return pts


# ----------------------------------------------------------------------
# polygon triangulation
# ----------------------------------------------------------------------

def _shoelace(poly: np.ndarray) -> float:
    # center first; the raw formula loses ~n*eps of absolute accuracy
    x = poly[:, 0] - poly[:, 0].mean()
    y = poly[:, 1] - poly[:, 1].mean()
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _fan_triangles(poly: np.ndarray, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nxt = np.roll(poly, -1, axis=0)
    e1 = poly - anchor
    e2 = nxt - anchor
    signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    tris = np.stack([np.broadcast_to(anchor, poly.shape), poly, nxt], axis=1)
    return tris, signed


def _ear_clip(poly: np.ndarray, eps_area: float) -> np.ndarray:
    ids = list(range(len(poly)))
    tris: list[np.ndarray] = []
    while len(ids) > 3:
        clipped = False
        n = len(ids)
        for j in range(n):
            ia, ib, ic = ids[j - 1], ids[j], ids[(j + 1) % n]
            a, b, c = poly[ia], poly[ib], poly[ic]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if area2 < -2.0 * eps_area:
                continue  # reflex corner
            if area2 <= 2.0 * eps_area:
                ids.pop(j)  # collinear vertex, nothing to emit
                clipped = True
                break
            others = [k for k in ids if k not in (ia, ib, ic)]
            if others and _any_strictly_inside(a, b, c, poly[others], eps_area):
                continue
            tris.append(np.stack([a, b, c]))
            ids.pop(j)
            clipped = True
            break
        if not clipped:
            raise GeometryError("degenerate triangle: ear clipping failed")
    a, b, c = poly[ids[0]], poly[ids[1]], poly[ids[2]]
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if area2 > 2.0 * eps_area:
        tris.append(np.stack([a, b, c]))
    return np.array(tris) if tris else np.zeros((0, 3, 2))


def _any_strictly_inside(a, b, c, pts: np.ndarray, eps_area: float) -> bool:
    def side(p, q, x):
        return (q[0] - p[0]) * (x[:, 1] - p[1]) - (q[1] - p[1]) * (x[:, 0] - p[0])

    s1 = side(a, b, pts)
    s2 = side(b, c, pts)
    s3 = side(c, a, pts)
    tol = 2.0 * eps_area
    return bool(np.any((s1 > tol) & (s2 > tol) & (s3 > tol)))


def triangulate_polygon(poly: np.ndarray, cell_area: float,
                        extra_anchors: tuple = ()) -> np.ndarray:
    """Partition a simple CCW polygon into positively oriented triangles.

    Fans from an interior anchor when the polygon is star-shaped with
    respect to it: first the vertex centroid, then any caller-provided
    anchors (a point on the interface arc rescues the sub-cells that are
    weakly concave along the arc).  Genuinely non-star-shaped polygons
    (corner cells of square-like interfaces) fall back to ear clipping.
    Triangles below 1e-14 of the cell area are dropped.
    """
    eps_area = 1e-14 * cell_area
    if _shoelace(poly) < 0:
        poly = poly[::-1]
    target = _shoelace(poly)
    for anchor in (poly.mean(axis=0), *extra_anchors):
        tris, signed = _fan_triangles(poly, anchor)
        if np.all(signed >= -eps_area) and abs(signed.sum() - target) <= 1e-12 * cell_area:
            return tris[signed > eps_area]
    tris = _ear_clip(poly, eps_area)
    total = triangle_areas(tris).sum() if len(tris) else 0.0
    if abs(total - target) > 1e-11 * cell_area:
        raise GeometryError("degenerate triangle: sub-cell area mismatch")
    return tris


# ----------------------------------------------------------------------
# faces
# ----------------------------------------------------------------------

class FaceCuts(NamedTuple):
    """Every face's cut, one row a face.  The side axis has column 0 unused,
    so sides index it directly; an absent part is NaN."""

    crossed: np.ndarray  # (n_faces,) bool, the interface crosses the face
    point: np.ndarray  # (n_faces, 2), the crossing point
    sides: np.ndarray  # (n_faces, 3) bool, the face has a part on side i
    segments: np.ndarray  # (n_faces, 3, 2, 2), the endpoints of the part on side i


def _snapped_signs(values: np.ndarray, dist_est: np.ndarray, tol: float) -> np.ndarray:
    sign = np.where(values > 0, 1, -1)
    sign[dist_est <= tol] = 0
    return sign


def _face_label(mesh: CartesianMesh, fid: int) -> str:
    """'face <fid> (cells a, b)', naming the cells adjacent to the face."""
    cells = ", ".join(str(c) for c in mesh.face_cells(fid) if c >= 0)
    return f"face {fid} (cell{'s' if ',' in cells else ''} {cells})"


def classify_faces(mesh: CartesianMesh, levelset: LevelSet,
                   vertex_sign: np.ndarray) -> FaceCuts:
    nf = mesh.n_faces
    verts = mesh.vertices
    ends = verts.points[verts.faces]
    p0, p1 = ends[:, 0], ends[:, 1]
    s0, s1 = vertex_sign[verts.faces].T

    # guard against several crossings of one face.  A snapped endpoint
    # (sign 0) lies on the interface: it takes its inner neighbour's sign,
    # so it makes no flip, and any flip besides it is a second crossing.
    tpar = np.linspace(0.0, 1.0, 17)[1:-1]
    probe = p0[:, None, :] + tpar[None, :, None] * (p1 - p0)[:, None, :]
    inner = np.signbit(levelset.value(probe.reshape(-1, 2)).reshape(nf, -1))
    e0 = np.where(s0 == 0, inner[:, 0], s0 < 0)
    e1 = np.where(s1 == 0, inner[:, -1], s1 < 0)
    full = np.concatenate([e0[:, None], inner, e1[:, None]], axis=1)
    flips = np.count_nonzero(full[:, 1:] != full[:, :-1], axis=1)

    crossed = s0 * s1 < 0
    multi = np.flatnonzero((flips > 1) | ((flips > 0) & ((s0 == 0) | (s1 == 0))))
    if len(multi):
        raise GeometryError(
            f"{_face_label(mesh, int(multi[0]))}: disconnected cut: face crossed more than once"
        )

    point = np.full((nf, 2), np.nan)
    if np.any(crossed):
        point[crossed] = bisect_segments(p0[crossed], p1[crossed], levelset)

    # an uncrossed face lies on the side of its unsnapped ends, or of its
    # middle when both ends are snapped
    mids = 0.5 * (p0 + p1)
    vmid = levelset.value(mids)
    on_interface = levelset.distance_estimate(mids) <= SNAP_REL * mesh.cell_size
    ssum = s0 + s1
    flat = np.flatnonzero(~crossed & (ssum == 0) & on_interface)
    if len(flat):
        raise GeometryError(f"{_face_label(mesh, int(flat[0]))}: face lies on the interface")
    side = np.where(ssum != 0, np.where(ssum < 0, 1, 2), np.where(vmid < 0, 1, 2))

    # a crossed face has a part on each side, from each end to the crossing
    segments = np.full((nf, 3, 2, 2), np.nan)
    u, c = np.flatnonzero(~crossed), np.flatnonzero(crossed)
    segments[u, side[u]] = ends[u]
    segments[c, np.where(s0[c] < 0, 1, 2)] = np.stack([p0[c], point[c]], axis=1)
    segments[c, np.where(s1[c] < 0, 1, 2)] = np.stack([point[c], p1[c]], axis=1)
    return FaceCuts(crossed, point, ~np.isnan(segments[..., 0, 0]), segments)


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellCuts:
    """Every cell's cut, one row a cell.  The side axis has column 0 unused,
    so sides index it directly; an absent sub-cell is NaN."""

    kind: np.ndarray  # (n_cells,) UNCUT, WELL_CUT or ILL_CUT
    side: np.ndarray  # (n_cells,) containing side (uncut), failing side iota (ill-cut), else 0
    area: np.ndarray  # (n_cells, 3), the area of sub-cell i
    barycenter: np.ndarray  # (n_cells, 3, 2)
    rho: np.ndarray  # (n_cells, 3), the inradius estimate of sub-cell i
    polyline: dict[int, np.ndarray]  # cut cell -> its interface polyline, in cell order
    tris: dict[tuple[int, int], np.ndarray]  # (cut cell, i) -> the triangles of sub-cell i


def _incenters(tris: np.ndarray) -> np.ndarray:
    a = np.linalg.norm(tris[:, 2] - tris[:, 1], axis=1)
    b = np.linalg.norm(tris[:, 0] - tris[:, 2], axis=1)
    c = np.linalg.norm(tris[:, 1] - tris[:, 0], axis=1)
    w = a + b + c
    return (
        a[:, None] * tris[:, 0] + b[:, None] * tris[:, 1] + c[:, None] * tris[:, 2]
    ) / w[:, None]


def _rho_estimate(levelset: LevelSet, box, tris: np.ndarray,
                  grid_pts: np.ndarray) -> float:
    """Largest sampled radius of a ball inside the sub-cell.

    Samples sub-triangulation vertices, triangle incenters, and the
    classification grid points on this side; the radius at a sample is the
    smaller of the distance to the cell boundary and the first-order
    distance to the interface.
    """
    x0, y0, x1, y1 = box
    samples = [tris.reshape(-1, 2), _incenters(tris)]
    if len(grid_pts):
        samples.append(grid_pts)
    pts = np.vstack(samples)
    d_box = np.minimum.reduce(
        [pts[:, 0] - x0, x1 - pts[:, 0], pts[:, 1] - y0, y1 - pts[:, 1]]
    )
    d_gamma = levelset.distance_estimate(pts)
    return float(np.max(np.minimum(np.maximum(d_box, 0.0), d_gamma)))


class _Walk(NamedTuple):
    """A cut cell's boundary walk: crossings a, b and the corners between."""

    a: np.ndarray
    b: np.ndarray
    side1: int  # side of chain1, the corners met walking CCW from a to b
    chain1: np.ndarray
    side2: int  # side of chain2, the corners met walking CCW from b to a
    chain2: np.ndarray


_CCW_EDGES = [2, 1, 3, 0]  # the cell_faces columns of bottom, right, top, left


def _chain_side(signs: np.ndarray) -> int:
    signs = signs[signs != 0]
    if not len(signs) or (signs != signs[0]).any():
        raise GeometryError("disconnected cut: ambiguous sub-cell")
    return 1 if signs[0] < 0 else 2


def _walk_cut_cell(mesh: CartesianMesh, cid: int, faces: FaceCuts,
                   corner_sign: np.ndarray) -> _Walk:
    edges = mesh.cell_face_table[cid, _CCW_EDGES]  # edge j runs from corner j to j+1
    crossed = np.flatnonzero(faces.crossed[edges])
    if len(crossed) != 2:
        raise GeometryError("disconnected cut: expected two boundary crossings")
    j1, j2 = crossed
    chain1, chain2 = np.arange(j1 + 1, j2 + 1), np.arange(j2 + 1, j1 + 5) % 4
    side1, side2 = _chain_side(corner_sign[chain1]), _chain_side(corner_sign[chain2])
    if side1 == side2:
        raise GeometryError("disconnected cut: both chains on one side")
    corners = mesh.vertices.points[mesh.vertices.cells[cid]]
    return _Walk(faces.point[edges[j1]], faces.point[edges[j2]],
                 side1, corners[chain1], side2, corners[chain2])


def _classify_cut_cell(cells: CellCuts, mesh: CartesianMesh, levelset: LevelSet,
                       cid: int, walk: _Walk, theta: float,
                       grid_pts: np.ndarray, grid_neg: np.ndarray) -> None:
    """Fill row cid of ``cells``, a cut cell's: its sub-cells' triangles,
    areas, barycenters and rho, and the side that fails, if one does."""
    cell_area = mesh.cell_size**2
    a, b = walk.a, walk.b
    interior = cells.polyline[cid][1:-1]
    polys = {
        # chain1 runs a -> b, close it with the polyline walked b -> a
        walk.side1: np.vstack([a[None, :], walk.chain1, b[None, :], interior[::-1]]),
        walk.side2: np.vstack([b[None, :], walk.chain2, a[None, :], interior]),
    }

    box = mesh.cell_box(cid)
    chain_anchors = {
        # chain corners rescue the sub-cells that are concave along the arc
        walk.side1: tuple(walk.chain1),
        walk.side2: tuple(walk.chain2),
    }
    for i in (1, 2):
        tris = triangulate_polygon(polys[i], cell_area,
                                   extra_anchors=chain_anchors[i])
        if len(tris) == 0:
            raise GeometryError("degenerate triangle: empty sub-cell")
        areas = triangle_areas(tris)
        area = float(areas.sum())
        cells.tris[cid, i] = tris
        cells.area[cid, i] = area
        cells.barycenter[cid, i] = (tris.mean(axis=1) * areas[:, None]).sum(axis=0) / area
        gpts = grid_pts[grid_neg] if i == 1 else grid_pts[~grid_neg]
        cells.rho[cid, i] = _rho_estimate(levelset, box, tris, gpts)

    tau = theta * 0.5 * mesh.cell_size  # theta times the cell inradius
    bad = [i for i in (1, 2) if cells.rho[cid, i] < tau]
    if len(bad) == 2:
        raise GeometryError("both sides ill-cut: mesh too coarse for this theta")
    if len(bad) == 1:
        cells.kind[cid] = ILL_CUT
        cells.side[cid] = bad[0]


def build_cut_mesh(mesh: CartesianMesh, levelset: LevelSet, theta: float = 0.3,
                   r: int = 8) -> "CutMesh":
    s = mesh.cell_size
    n = mesh.n_cells
    verts = mesh.vertices

    # one vertex table keeps face and cell sign decisions consistent
    vertex_sign = _snapped_signs(
        levelset.value(verts.points), levelset.distance_estimate(verts.points), SNAP_REL * s
    )
    corner_sign = vertex_sign[verts.cells]

    faces = classify_faces(mesh, levelset, vertex_sign)
    cut = faces.crossed[mesh.cell_face_table].any(axis=1)

    # interior sample grid of every cell in one sweep, from its lower-left corner
    offs = (np.arange(GRID_M) + 0.5) / GRID_M * s
    grid = np.stack(np.meshgrid(offs, offs), axis=-1).reshape(-1, 2)
    gpts = verts.points[verts.cells[:, 0]][:, None] + grid  # (ncells, grid*grid, 2)
    gneg = levelset.value(gpts.reshape(-1, 2)).reshape(n, -1) < 0

    # an uncrossed cell lies on one side, unless an interface loop is inside it
    has_neg = gneg.any(axis=1) | (corner_sign < 0).any(axis=1)
    has_pos = (~gneg).any(axis=1) | (corner_sign > 0).any(axis=1)
    loops = np.flatnonzero(~cut & has_neg & has_pos)
    first_loop = loops[0] if len(loops) else n

    # walk every cut cell first, keeping its error for the pass in cell order
    walks: dict[int, _Walk | GeometryError] = {}
    for cid in np.flatnonzero(cut).tolist():
        try:
            walks[cid] = _walk_cut_cell(mesh, cid, faces, corner_sign[cid])
        except GeometryError as exc:
            walks[cid] = exc
    arcs = [cid for cid, w in walks.items() if isinstance(w, _Walk)]
    ends = np.array([(walks[cid].a, walks[cid].b) for cid in arcs]).reshape(-1, 2, 2)
    polylines = dict(zip(arcs, build_polyline(ends[:, 0], ends[:, 1], levelset, r)))

    # the uncut rows by array operations: a whole square on its side
    side = np.where(cut, 0, np.where(has_neg, 1, 2))
    cells = CellCuts(np.where(cut, WELL_CUT, UNCUT), side, np.full((n, 3), np.nan),
                     np.full((n, 3, 2), np.nan), np.full((n, 3), np.nan), polylines, {})
    u = np.flatnonzero(~cut)
    ixy = np.stack(mesh.cell_index(u), axis=1)
    cells.area[u, side[u]] = s * s
    cells.barycenter[u, side[u]] = 0.5 * (ixy * s + (ixy + 1) * s)  # cell_center's bits
    cells.rho[u, side[u]] = 0.5 * s

    # then the cut rows in cell order, up to the first loop
    for cid in np.flatnonzero(cut[:first_loop]).tolist():
        try:
            walk = walks[cid]
            if isinstance(walk, GeometryError):
                raise walk
            _classify_cut_cell(cells, mesh, levelset, cid, walk, theta, gpts[cid], gneg[cid])
        except GeometryError as exc:
            raise GeometryError(f"cell {cid}: {exc}") from exc
    if len(loops):
        raise GeometryError(
            f"cell {first_loop}: disconnected cut: interface loop inside an uncrossed cell")

    pairing = build_pairing(mesh, cells)
    return CutMesh(mesh, levelset, theta, r, cells, faces, pairing)


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PairingMap:
    partner: dict[int, int]
    inverse: dict[int, tuple[tuple[int, int], ...]]  # T -> ((side, S), ...)

    def donors(self, cid: int, i: int) -> list[int]:
        """Ill-cut cells whose side-i polynomials extend from cell cid."""
        return [S for side, S in self.inverse.get(cid, ()) if side == i]

    def __len__(self) -> int:
        return len(self.partner)


def _admissible(cells: CellCuts, T: int, i: int) -> bool:
    if cells.kind[T] == UNCUT:
        return bool(cells.side[T] == i)
    return bool(cells.kind[T] == WELL_CUT or cells.side[T] != i)


def build_pairing(mesh: CartesianMesh, cells: CellCuts) -> PairingMap:
    """Assign every ill-cut cell a partner with a good sub-cell on its bad side.

    Candidates live in the first neighborhood layer; preference order is
    uncut-in-the-right-side, then well-cut, then ill-cut on the opposite
    side, with ties broken by the larger borrowed sub-cell area and then
    the smaller cell id.  Cells failing on side 2 first receive the
    reciprocal partner of the step pairing them from side 1, which keeps
    mutual pairs together.
    """
    ill1, ill2 = (np.flatnonzero((cells.kind == ILL_CUT) & (cells.side == i)).tolist()
                  for i in (1, 2))
    partner: dict[int, int] = {}

    def choose(S: int, i: int) -> int:
        rank = {UNCUT: 0, WELL_CUT: 1, ILL_CUT: 2}
        cands = [
            int(T) for T in mesh.neighborhood(S, 1)
            if T != S and _admissible(cells, int(T), i)
        ]
        if not cands:
            raise PairingError(f"pairing failed for cell {S}")
        return min(cands, key=lambda T: (rank[cells.kind[T]], -cells.area[T, i], T))

    for S in ill1:
        partner[S] = choose(S, 1)
    for T in ill2:
        donors = sorted(S for S in ill1 if partner[S] == T)
        if donors:
            partner[T] = donors[0]
    for T in ill2:
        if T not in partner:
            partner[T] = choose(T, 2)

    inverse: dict[int, list[tuple[int, int]]] = {}
    for S, T in sorted(partner.items()):
        i = int(cells.side[S])
        assert _admissible(cells, T, i)
        inverse.setdefault(T, []).append((i, S))
    return PairingMap(partner, {T: tuple(v) for T, v in inverse.items()})


# ----------------------------------------------------------------------
# assembled view
# ----------------------------------------------------------------------

@dataclass
class CutMesh:
    mesh: CartesianMesh
    levelset: LevelSet
    theta: float
    r: int
    cells: CellCuts
    faces: FaceCuts
    pairing: PairingMap
    plain: np.ndarray = field(init=False, repr=False)  # per cell; see is_plain

    def __post_init__(self):
        # a cut cell takes side 0, which no face has; an uncut cell's donors
        # are on its side, so it is plain unless it receives any
        cids = np.arange(self.mesh.n_cells)
        side = np.where(self.cells.kind == UNCUT, self.cells.side, 0)
        self.plain = (self.faces.sides[self.mesh.cell_face_table, side[:, None]].all(axis=1)
                      & ~np.isin(cids, list(self.pairing.inverse)))

    def sides(self) -> list[tuple[int, int]]:
        """All sub-cells (cid, i), the discretization support, by cell and
        then side."""
        cids, sides = np.nonzero(~np.isnan(self.cells.area))
        return list(zip(cids.tolist(), sides.tolist()))

    def ok_sides(self) -> list[tuple[int, int]]:
        return [(cid, i) for cid, i in self.sides() if not self.is_ko(cid, i)]

    def ko_sides(self) -> list[tuple[int, int]]:
        return [(cid, i) for cid, i in self.sides() if self.is_ko(cid, i)]

    def is_cut(self, cid: int) -> bool:
        return bool(self.cells.kind[cid] != UNCUT)

    def is_ko(self, cid: int, i: int) -> bool:
        return bool(self.cells.kind[cid] == ILL_CUT and self.cells.side[cid] == i)

    def is_plain(self, cid: int, i: int) -> bool:
        """Whether (cid, i) is a plain sub-cell: a translated reference square.

        That is an uncut cell without donors whose four faces all lie on
        its side, so its stencil is the cell and its four whole faces.  The
        mask ``plain`` holds this for every cell, made once with the cut
        mesh; a plain cell has one sub-cell.
        """
        return bool(self.plain[cid] and i == self.cells.side[cid])

    def cut_cells(self) -> list[int]:
        return np.flatnonzero(self.cells.kind != UNCUT).tolist()

    def subfaces(self, cid: int, i: int):
        """Sub-faces of cell cid on side i as (fid, endpoints, outward normal)."""
        return [(fid, self.faces.segments[fid, i], self.mesh.outward_normal(cid, fid))
                for fid in self.mesh.cell_faces(cid) if self.faces.sides[fid, i]]

    def partner_of(self, cid: int) -> int | None:
        return self.pairing.partner.get(cid)
