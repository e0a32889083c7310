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
rows are filled by array operations, and rho drives the well-cut /
ill-cut classification.  The pairing map assigns every ill-cut cell a
neighbor with a usable sub-cell on the failing side.

The cut rows are built in stacked passes over all cut cells:
``build_cut_mesh`` walks the boundary of every cut cell, refines the
polylines of all of them together, one projection per refinement level,
fans the sub-cell polygons in stacks of one length, and measures areas,
barycenters and rho in stacks of one triangle count.  Only the polygons
that no anchor fans are ear-clipped one at a time.  A cell's row is bit
for bit the one it would get alone, and each cell keeps its first error
in stage order (walk, side 1, side 2, rho); the error reported is that
of the first faulty cell in cell order.

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


def triangulate_polygon(polys: np.ndarray, anchors: np.ndarray, cell_area: float):
    """Partition a stack of simple polygons of one length, (m, n, 2) and
    either orientation, into positively oriented triangles.

    Fans each polygon from the first anchor it is star-shaped with respect
    to: first its vertex centroid, then its row of ``anchors`` (m, a, 2) in
    order (chain corners rescue the sub-cells that are concave along the
    arc).  Each anchor is tried on the polygons still open only.  Genuinely
    non-star-shaped polygons (corner cells of square-like interfaces) fall
    back to ear clipping, one at a time.  Triangles below 1e-14 of the cell
    area are dropped.

    Returns the triangles grouped by count, as pairs of polygon rows and
    their triangles (rows, K, 3, 2), and a dict row -> error message for
    the polygons that leave no triangle or that ear clipping fails on.
    """
    eps = 1e-14 * cell_area
    polys = np.array(polys, dtype=float)
    x, y = (polys[..., j] - polys[:, :1, j] for j in (0, 1))  # the raw formula loses ~n*eps
    target = 0.5 * ((x * np.roll(y, -1, axis=1)).sum(axis=1)
                    - (y * np.roll(x, -1, axis=1)).sum(axis=1))
    polys[target < 0] = polys[target < 0, ::-1]
    target = np.abs(target)
    nxt = np.roll(polys, -1, axis=1)
    (x, y), (xn, yn) = np.moveaxis(polys, 2, 0).copy(), np.moveaxis(nxt, 2, 0).copy()
    # each polygon's mean(axis=0), summed over the vertices in order
    centroid = np.ascontiguousarray(polys.swapaxes(0, 1)).sum(axis=0) / polys.shape[1]
    groups, errors = [], {}
    rows = np.arange(len(polys))  # the polygons still open
    for anchor in (centroid, *anchors.swapaxes(0, 1)):
        ax, ay = anchor[rows, 0, None], anchor[rows, 1, None]
        signed = 0.5 * ((x[rows] - ax) * (yn[rows] - ay) - (y[rows] - ay) * (xn[rows] - ax))
        fans = ((signed >= -eps).all(axis=1)
                & (np.abs(signed.sum(axis=1) - target[rows]) <= 1e-12 * cell_area))
        keep = signed[fans] > eps
        count = keep.sum(axis=1)
        for k in np.unique(count).tolist():
            g, kg = rows[fans][count == k], keep[count == k]
            tris = np.empty((len(g), k, 3, 2))
            tris[:, :, 0] = anchor[g, None]
            tris[:, :, 1] = polys[g][kg].reshape(len(g), k, 2)
            tris[:, :, 2] = nxt[g][kg].reshape(len(g), k, 2)
            groups.append((g, tris))
        rows = rows[~fans]
    for row in rows.tolist():
        try:
            tris = _ear_clip(polys[row], eps)
        except GeometryError as exc:
            errors[row] = str(exc)
            continue
        if abs(triangle_areas(tris).sum() - target[row]) > 1e-11 * cell_area:
            errors[row] = "degenerate triangle: sub-cell area mismatch"
        else:
            groups.append((np.array([row]), tris[None]))
    for rows, tris in groups:
        if not tris.shape[1]:
            errors.update(dict.fromkeys(rows.tolist(), "degenerate triangle: empty sub-cell"))
    return [(rows, tris) for rows, tris in groups if tris.shape[1]], errors


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


def _largest_ball(levelset: LevelSet, x: np.ndarray, y: np.ndarray, box, use) -> np.ndarray:
    """For each column of the points (x, y), shape (p, m), all inside the
    column's cell box (x0, y0, x1, y1), the largest sampled radius of a ball
    inside the cell: the smaller of the distance to the box and the
    first-order distance to the interface, at the points ``use`` selects."""
    x0, y0, x1, y1 = box
    radii = np.minimum(np.minimum(x - x0, x1 - x), np.minimum(y - y0, y1 - y))
    use = np.broadcast_to(use, x.shape)
    radii[use] = np.minimum(np.maximum(radii[use], 0.0),
                            levelset.distance_estimate(np.stack([x[use], y[use]], axis=1)))
    radii[~use] = -np.inf
    return radii.max(axis=0)


def _measure_sub_cells(cells: CellCuts, mesh: CartesianMesh, levelset: LevelSet,
                       cids: np.ndarray, sides: np.ndarray, tris: np.ndarray,
                       gpts: np.ndarray, gneg: np.ndarray) -> None:
    """Write the area, barycenter and rho of sub-cells (cids, sides) from
    their triangles, a stack of one count (m, K, 3, 2).

    The work runs on coordinate arrays (K, m), one column a sub-cell, so
    the barycenter's sum over the triangles goes in order, as the sum of
    one sub-cell's (K, 2) rows does; the area's sum runs over each
    sub-cell's contiguous row, as a 1-d sum does.  Norms of 2-vectors and
    means of 3 vertices are spelled out, with the bits of np.linalg.norm
    and mean.
    rho is the largest ball over the triangle vertices, their incenters and
    the classification grid points on the sub-cell's side.  That is a
    maximum of a pointwise function, so each vertex a fan repeats (its
    anchor, the arc points two triangles share) is sampled once.
    """
    (x0, y0), (x1, y1), (x2, y2) = np.ascontiguousarray(tris.transpose(2, 3, 1, 0))
    areas = 0.5 * np.abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))  # triangle_areas
    area = np.ascontiguousarray(areas.T).sum(axis=1)  # one sub-cell's sum, pairwise
    cells.area[cids, sides] = area
    centroids = np.stack([(x0 + x1 + x2) / 3, (y0 + y1 + y2) / 3], axis=-1)
    cells.barycenter[cids, sides] = (centroids * areas[..., None]).sum(axis=0) / area[:, None]

    la, lb, lc = (np.sqrt(dx * dx + dy * dy) for dx, dy in
                  ((x2 - x1, y2 - y1), (x0 - x2, y0 - y2), (x1 - x0, y1 - y0)))
    w = la + lb + lc
    ix, iy = mesh.cell_index(cids)
    s = mesh.cell_size
    box = (ix * s, iy * s, (ix + 1) * s, (iy + 1) * s)
    new0 = np.ones(x0.shape, dtype=bool)
    new0[1:] = (x0[1:] != x0[:-1]) | (y0[1:] != y0[:-1])
    new2 = (x2 != np.roll(x1, -1, axis=0)) | (y2 != np.roll(y1, -1, axis=0))
    grid = gpts[cids].transpose(2, 1, 0)
    samples = [
        (x0, y0, new0), (x1, y1, True), (x2, y2, new2),
        ((la * x0 + lb * x1 + lc * x2) / w, (la * y0 + lb * y1 + lc * y2) / w, True),
        (grid[0], grid[1], (gneg[cids] == (sides == 1)[:, None]).T),
    ]
    cells.rho[cids, sides] = np.maximum.reduce(
        [_largest_ball(levelset, x, y, box, use) for x, y, use in samples])


_CCW_EDGES = [2, 1, 3, 0]  # the cell_faces columns of bottom, right, top, left


def _walk_cut_cells(mesh: CartesianMesh, cids: np.ndarray, faces: FaceCuts,
                    corner_sign: np.ndarray):
    """Walk the boundary of each cut cell CCW; edge j runs from corner j to j+1.

    Returns the crossings a and b (n, 2, 2) on the crossed edges j1 < j2,
    the side of each chain of corners between them (2, n): chain 1, the
    corners j1+1 .. j2 met from a to b, and chain 2, those met from b back
    to a; and each cell's first walk error, or ''.
    """
    edges = mesh.cell_face_table[cids][:, _CCW_EDGES]
    crossed = faces.crossed[edges]
    j1, j2 = crossed.argmax(axis=1), 3 - crossed[:, ::-1].argmax(axis=1)
    chain1 = (j1[:, None] < np.arange(4)) & (np.arange(4) <= j2[:, None])
    sign = corner_sign[cids]
    neg, pos = ([((sign * s > 0) & chain).any(axis=1) for chain in (chain1, ~chain1)]
                for s in (-1, 1))
    error = np.select(
        [crossed.sum(axis=1) != 2, neg[0] == pos[0], neg[1] == pos[1], neg[0] == neg[1]],
        ["disconnected cut: expected two boundary crossings",
         "disconnected cut: ambiguous sub-cell", "disconnected cut: ambiguous sub-cell",
         "disconnected cut: both chains on one side"], "")
    rows = np.arange(len(cids))
    ends = faces.point[np.stack([edges[rows, j1], edges[rows, j2]], axis=1)]
    return ends, j1, j2, np.where(neg, 1, 2), error


def _sub_cell_polygons(corners, ends, j1, j2, chain_side, lines):
    """Both sub-cell polygons of every cell with an arc, stacked by length.

    Chain 1 runs a -> b and closes with the polyline walked b -> a, chain 2
    runs b -> a and closes with it walked a -> b.  Yields each stack's
    cells (indices into the arcs), sides, polygons and chain corners.
    """
    a, b, inner = ends[:, 0], ends[:, 1], lines[:, 1:-1]
    chains = [(a, b, j1, j2 - j1, inner[:, ::-1], chain_side[0]),
              (b, a, j2, 4 - (j2 - j1), inner, chain_side[1])]
    for c in (1, 2, 3):
        parts = []
        for start, end, j, length, arc, side in chains:
            k = np.flatnonzero(length == c)
            corner = corners[k[:, None], (j[k, None] + 1 + np.arange(c)) % 4]
            poly = np.concatenate([start[k, None], corner, end[k, None], arc[k]], axis=1)
            parts.append((k, side[k], poly, corner))
        yield tuple(np.concatenate(part) for part in zip(*parts))


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

    # walk every cut cell, then refine the polylines of the walked ones together
    cids = np.flatnonzero(cut)
    ends, j1, j2, chain_side, walk_error = _walk_cut_cells(mesh, cids, faces, corner_sign)
    # each cell's first error, in stage order: walk, side 1, side 2, rho
    errors = {cid: e for cid, e in zip(cids.tolist(), walk_error.tolist()) if e}
    walked = walk_error == ""
    arcs = cids[walked]
    lines = build_polyline(ends[walked, 0], ends[walked, 1], levelset, r)

    # the uncut rows by array operations: a whole square on its side
    side = np.where(cut, 0, np.where(has_neg, 1, 2))
    cells = CellCuts(np.where(cut, WELL_CUT, UNCUT), side, np.full((n, 3), np.nan),
                     np.full((n, 3, 2), np.nan), np.full((n, 3), np.nan),
                     dict(zip(arcs.tolist(), lines)), {})
    u = np.flatnonzero(~cut)
    ixy = np.stack(mesh.cell_index(u), axis=1)
    cells.area[u, side[u]] = s * s
    cells.barycenter[u, side[u]] = 0.5 * (ixy * s + (ixy + 1) * s)  # cell_center's bits
    cells.rho[u, side[u]] = 0.5 * s

    # the cut rows: triangulated in stacks of one polygon length, measured
    # in stacks of one triangle count
    tris, failed = {}, {}  # (cid, side) -> triangles, or error
    polygons = _sub_cell_polygons(verts.points[verts.cells[arcs]], ends[walked], j1[walked],
                                  j2[walked], chain_side[:, walked], lines)
    for k, sides, polys, anchors in polygons:
        groups, errs = triangulate_polygon(polys, anchors, s * s)
        failed.update({(int(arcs[k[row]]), int(sides[row])): e for row, e in errs.items()})
        for rows, t in groups:
            _measure_sub_cells(cells, mesh, levelset, arcs[k[rows]], sides[rows], t, gpts, gneg)
            tris.update(zip(zip(arcs[k[rows]].tolist(), sides[rows].tolist()), t))
    cells.tris.update(sorted(tris.items()))

    for (cid, _), e in sorted(failed.items(), key=lambda row: row[0][1]):
        errors.setdefault(cid, e)
    bad = cells.rho[arcs, 1:] < theta * 0.5 * s  # theta times the cell inradius
    for cid in arcs[bad.all(axis=1)].tolist():
        errors.setdefault(cid, "both sides ill-cut: mesh too coarse for this theta")
    first = min(errors, default=n)
    if first < first_loop:
        raise GeometryError(f"cell {first}: {errors[first]}")
    if len(loops):
        raise GeometryError(
            f"cell {first_loop}: disconnected cut: interface loop inside an uncrossed cell")
    cells.kind[arcs] = np.where(bad.any(axis=1), ILL_CUT, WELL_CUT)
    cells.side[arcs] = np.where(bad[:, 0], 1, np.where(bad[:, 1], 2, 0))

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
