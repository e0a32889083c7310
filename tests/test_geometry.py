import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuthho import geometry
from cuthho.errors import GeometryError, PairingError
from cuthho.geometry import (
    ILL_CUT,
    UNCUT,
    WELL_CUT,
    CellCuts,
    build_cut_mesh,
    build_pairing,
    bisect_segments,
    build_polyline,
    project_onto_interface,
)
from cuthho.basis import monomial_exponents, space_dimension
from cuthho.cases import make_case
from cuthho.levelset import Circle, Flower, LevelSet, Line, Square
from cuthho.local import LocalOperators
from cuthho.mesh import build_mesh
from cuthho.study import solve_single
from cuthho.quadrature import map_to_triangles, triangle_areas, triangle_rule

CIRCLE = Circle((0.5, 0.5), 1.0 / 3.0)


# -- edge intersection -------------------------------------------------

def edge_root(p0, p1, levelset):
    return bisect_segments(np.array([p0]), np.array([p1]), levelset)[0]


def test_bisect_segments_line():
    p = edge_root((0.4, 0.0), (0.6, 0.0), Line((0.5, 0.0)))
    assert np.allclose(p, [0.5, 0.0], atol=1e-13)


def test_bisect_segments_circle():
    p = edge_root((0.8, 0.5), (0.9, 0.5), CIRCLE)
    assert p[0] == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-13)


def test_bisect_segments_flower_root_residual():
    fl = Flower()
    p = edge_root((0.75, 0.5), (0.85, 0.5), fl)
    assert abs(fl.value(p[None, :])[0]) <= 1e-13


# -- polyline ----------------------------------------------------------

def test_polyline_straight_interface_collinear():
    line = Line((0.37, 0.0))
    pts = build_polyline([(0.37, 0.0)], [(0.37, 0.1)], line, r=5)
    assert pts.shape == (1, 2**5 + 1, 2)
    assert np.max(np.abs(pts[0, :, 0] - 0.37)) <= 1e-13


def test_polyline_r0_is_chord():
    pts = build_polyline([(0.0, 0.0)], [(1.0, 1.0)], Line((0.5, 0.0)), r=0)
    assert pts.shape == (1, 2, 2)


def test_polyline_points_on_interface():
    a = edge_root((0.8, 0.5), (0.9, 0.5), CIRCLE)
    b = edge_root((0.8, 0.6), (0.8, 0.7), CIRCLE)
    pts = build_polyline(a[None, :], b[None, :], CIRCLE, r=6)[0]
    h = np.sqrt(2) * 0.1
    assert np.max(np.abs(CIRCLE.value(pts))) <= 1e-12 * h


def test_polyline_arclength_second_order():
    # total polyline length converges to the circle perimeter at O(4^-r)
    errors = []
    for r in (3, 4, 5):
        m = build_mesh(0)
        cm = build_cut_mesh(m, CIRCLE, theta=0.0, r=r)
        total = 0.0
        for line in cm.cells.polyline.values():
            total += np.sum(np.linalg.norm(np.diff(line, axis=0), axis=1))
        errors.append(abs(total - 2 * np.pi / 3.0))
    assert errors[1] > 0 and errors[2] > 0
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_polyline_refinement_batched_over_cells(monkeypatch):
    # one projection per refinement level for the whole mesh, not per cell
    calls = []

    def counting_project(points, *args, **kwargs):
        calls.append(len(points))
        return project_onto_interface(points, *args, **kwargs)

    monkeypatch.setattr(geometry, "project_onto_interface", counting_project)
    m = build_mesh(2)
    whole = build_cut_mesh(m, Circle(), r=8)
    n_cut = len(whole.cut_cells())
    assert calls == [n_cut * 2**j for j in range(8)]

    # so the projection's scan must not hold all 2 * 16 + 1 samples of
    # every point at once: its memory grows only with the number of points
    n = 20000
    th = np.linspace(0.0, 2.0 * np.pi, n + 1)
    ring = np.column_stack([0.5 + np.cos(th) / 3.0, 0.5 + np.sin(th) / 3.0])
    mids = 0.5 * (ring[1:] + ring[:-1])
    spans = np.linalg.norm(ring[1:] - ring[:-1], axis=1)
    dirs = CIRCLE.normals(mids)
    tracemalloc.start()
    try:
        proj = project_onto_interface(mids, dirs, CIRCLE, spans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * n
    assert np.max(CIRCLE.distance_estimate(proj)) <= 1e-15


def _full_scan_projection(points, dirs, levelset, spans):
    # every point takes all 2 * 16 + 1 samples; of the sign-change brackets
    # the one nearest the origin wins, the first of equal distances
    points = np.atleast_2d(points).astype(float)
    steps = np.linspace(-1.0, 1.0, 33)
    nearest = np.full(len(points), np.inf)
    ta, tb, fa = np.zeros((3, len(points)))
    t0 = spans * steps[0]
    f0 = levelset.value(points + t0[:, None] * dirs)
    for step in steps[1:]:
        t1 = spans * step
        f1 = levelset.value(points + t1[:, None] * dirs)
        dist = np.abs(0.5 * (t1 + t0))
        better = (np.signbit(f0) != np.signbit(f1)) & (dist < nearest)
        nearest[better] = dist[better]
        ta[better], tb[better], fa[better] = t0[better], t1[better], f0[better]
        t0, f0 = t1, f1
    t = geometry._bisect(ta[:, None], tb[:, None], fa,
                         lambda t: levelset.value(points + t * dirs))
    return points + np.where(np.isfinite(nearest)[:, None], t, 0.0) * dirs


class _CountingLevelSet(LevelSet):
    def __init__(self, inner):
        self.inner, self.points = inner, 0

    def value(self, pts):
        self.points += len(np.atleast_2d(pts))
        return self.inner.value(pts)

    def gradient(self, pts):
        return self.inner.gradient(pts)


@pytest.mark.parametrize("case,levelset,level,r", [
    *[("sinsin", None, level, 8) for level in range(4)],
    ("jump-mixed", None, 0, 10), ("jump-mixed", None, 1, 10),
    (None, Square(delta=0.5e-5), 0, 8), (None, Square(delta=0.5e-5), 1, 8),
    (None, Square(delta=0.5e-9), 0, 8), (None, Flower(amplitude=0.02), 1, 8)])
def test_outward_projection_scan_matches_the_full_scan(monkeypatch, case, levelset, level, r):
    # the scan goes outward from the origin and stops at a point's first
    # sign change, yet every polyline is bit for bit the full scan's
    if case is not None:
        levelset = make_case(case).levelset
    cm = build_cut_mesh(build_mesh(level), levelset, theta=0.3, r=r)
    lines = np.array([cm.cells.polyline[cid] for cid in cm.cut_cells()])
    monkeypatch.setattr(geometry, "project_onto_interface", _full_scan_projection)
    assert np.array_equal(build_polyline(lines[:, 0], lines[:, -1], levelset, r), lines)


def test_outward_projection_scan_evaluates_fewer_points():
    # sinsin at level 2, r=8: the full scan passed 2,230,740 points to the
    # level set in build_polyline, 33 samples and 48 halvings a point
    cm = build_cut_mesh(build_mesh(2), make_case("sinsin").levelset, theta=0.3, r=8)
    lines = np.array([cm.cells.polyline[cid] for cid in cm.cut_cells()])
    counting = _CountingLevelSet(make_case("sinsin").levelset)
    assert np.array_equal(build_polyline(lines[:, 0], lines[:, -1], counting, 8), lines)
    assert counting.points <= 0.65 * 2_230_740


@st.composite
def _interfaces(draw):
    family = draw(st.sampled_from(["circle", "line", "flower", "square"]))
    if family == "circle":
        return Circle((draw(st.floats(0.45, 0.55)), draw(st.floats(0.45, 0.55))),
                      draw(st.floats(0.17, 0.42)))
    if family == "line":
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        offset = draw(st.floats(-0.45, 0.45))
        normal = (np.cos(angle), np.sin(angle))
        return Line((0.5 + offset * normal[0], 0.5 + offset * normal[1]), normal)
    if family == "flower":
        return Flower(amplitude=draw(st.floats(0.0, 0.03)))
    return Square(delta=0.5 * 10.0 ** -draw(st.integers(2, 9)))


@pytest.mark.parametrize("levelset,level", [
    (CIRCLE, 0), (CIRCLE, 1), (CIRCLE, 2), (Square(delta=0.5e-5), 1),
    (Flower(amplitude=0.02), 1)])
def test_face_table_tiles_every_face(levelset, level):
    # every face's cut in one table: an uncrossed face is one part, its
    # endpoints bit for bit; a crossed face is two parts that meet at the
    # crossing, each on the side of its end vertex, and tile the face
    m = build_mesh(level)
    faces = build_cut_mesh(m, levelset, theta=0.3, r=4).faces
    ends = m.vertices.points[m.vertices.faces]
    assert np.array_equal(faces.sides, ~np.isnan(faces.segments[..., 0, 0]))
    assert not faces.sides[:, 0].any()
    assert np.array_equal(faces.sides.sum(axis=1), np.where(faces.crossed, 2, 1))
    assert faces.crossed.any() and not faces.crossed.all()
    for fid in np.flatnonzero(~faces.crossed):
        (i,) = np.flatnonzero(faces.sides[fid])
        assert faces.segments[fid, i].tobytes() == ends[fid].tobytes()
        assert np.isnan(faces.point[fid]).all()
    for fid in np.flatnonzero(faces.crossed):
        x = faces.point[fid]
        for j, end in enumerate(ends[fid]):
            seg = faces.segments[fid, 1 if levelset.value(end[None])[0] < 0 else 2]
            assert seg[j].tobytes() == end.tobytes() and seg[1 - j].tobytes() == x.tobytes()
        parts = faces.segments[fid, 1:]
        length = np.linalg.norm(ends[fid, 1] - ends[fid, 0])
        total = np.linalg.norm(parts[:, 1] - parts[:, 0], axis=1).sum()
        assert abs(total - length) <= 1e-15 * length


@settings(max_examples=30, deadline=None)
@given(levelset=_interfaces(), level=st.integers(0, 2), r=st.sampled_from([4, 8]))
def test_batched_polylines_match_one_row_refinement(levelset, level, r):
    m = build_mesh(level)
    s = m.cell_size
    try:
        cm = build_cut_mesh(m, levelset, r=r)
    except GeometryError as exc:
        assert re.match(r"(cell \d+: |face \d+ \()", str(exc)), str(exc)
        return
    for cid in cm.cut_cells():
        area = cm.cells.area[cid]
        line = cm.cells.polyline[cid]
        alone = build_polyline(line[:1], line[-1:], levelset, r)
        assert alone.shape == (1, 2**r + 1, 2)
        assert np.array_equal(alone[0], line)
        assert np.max(levelset.distance_estimate(line)) <= 1e-12 * s
        assert abs(area[1] + area[2] - s * s) <= 1e-12 * s * s


@settings(max_examples=30, deadline=None)
@given(levelset=_interfaces(), level=st.integers(0, 1), k=st.integers(0, 3),
       r=st.sampled_from([4, 8, 10]))
@example(levelset=Square(delta=0.5e-7), level=1, k=3, r=10)  # cuts of width 5e-8
@example(levelset=Square(delta=0.5e-9), level=0, k=0, r=4)
def test_cut_sub_cell_rules_compress_the_fan_rule(levelset, level, k, r):
    # each cut sub-cell's volume rule is a positive subsample of its fan
    # rule with at most dim P_{2k+3} nodes and the same moments to degree
    # 2k+3; monomials are scaled to the sub-cell's bounding box, so each
    # moment is at most the sub-cell's area, and summed pairwise, so the
    # fine moments of ~31k nodes carry ~1e-16 of round-off, not ~1e-13
    try:
        cm = build_cut_mesh(build_mesh(level), levelset, r=r)
    except GeometryError:
        return
    ops = LocalOperators(cm, k)
    degree = 2 * k + 3
    fan = triangle_rule(degree)
    exps = monomial_exponents(degree)
    for cid in cm.cut_cells():
        for i in (1, 2):
            fine_pts, fine_w = map_to_triangles(cm.cells.tris[cid, i], *fan)
            pts, w = ops.volume_quadrature(cid, i)
            as_complex = [p[:, 0] + 1j * p[:, 1] for p in (pts, fine_pts)]
            assert np.all(np.isin(*as_complex)), (cid, i)
            assert np.all(w > 0.0), (cid, i)
            assert len(w) <= space_dimension(degree), (cid, i)
            lo, hi = fine_pts.min(axis=0), fine_pts.max(axis=0)

            def moments(p, wt):
                t = ((p - 0.5 * (lo + hi)) / (0.5 * (hi - lo))).T
                powers = np.cumprod(np.broadcast_to(t, (degree, 2, len(wt))), axis=0)
                powers = np.concatenate([np.ones((1, 2, len(wt))), powers])
                return (powers[exps[:, 0], 0] * powers[exps[:, 1], 1] * wt).sum(axis=1)

            miss = np.max(np.abs(moments(pts, w) - moments(fine_pts, fine_w)))
            assert miss <= 1e-13 * fine_w.sum(), (cid, i, miss)


# -- sub-triangulation -------------------------------------------------

def test_subtriangulation_straight_split_areas():
    m = build_mesh(0)
    cm = build_cut_mesh(m, Line((0.37, 0.0)), theta=0.0, r=4)
    cid = m.cell_id(3, 3)
    area = cm.cells.area[cid]
    assert cm.is_cut(cid)
    assert area[1] == pytest.approx(0.007, abs=1e-15)
    assert area[2] == pytest.approx(0.003, abs=1e-15)


def test_partition_identity_circle():
    m = build_mesh(1)
    cm = build_cut_mesh(m, CIRCLE, theta=0.3, r=6)
    cell_area = m.cell_size**2
    for cid in cm.cut_cells():
        area = cm.cells.area[cid]
        assert abs(area[1] + area[2] - cell_area) <= 1e-12 * cell_area
        for i in (1, 2):
            assert np.all(triangle_areas(cm.cells.tris[cid, i]) > 0)


def test_disk_area_converges_second_order():
    errors = []
    for r in (2, 3, 4):
        m = build_mesh(0)
        cm = build_cut_mesh(m, CIRCLE, theta=0.0, r=r)
        a1 = np.nansum(cm.cells.area[:, 1])
        errors.append(abs(a1 - np.pi / 9.0))
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_flower_area_matches_circle_area():
    # the cos(8 theta) modulation integrates to zero, so |inside| = pi R^2
    m = build_mesh(2)
    cm = build_cut_mesh(m, Flower(), theta=0.3, r=8)
    a1 = np.nansum(cm.cells.area[:, 1])
    assert a1 == pytest.approx(np.pi / 9.0, abs=1e-7)


def test_flower_petal_tip_double_crossing_rejected():
    # at level 1 the petal tips cross single faces twice; that topology is
    # rejected rather than silently mis-triangulated
    with pytest.raises(GeometryError, match="disconnected cut"):
        build_cut_mesh(build_mesh(1), Flower(), theta=0.3, r=4)


def test_square_interface_corner_cell():
    # the outer sub-cell is L-shaped (non-star-shaped); the partition must
    # stay exact and the inner area converge to the square corner in r
    m = build_mesh(0)
    s = m.cell_size**2
    deficits = []
    for r in (4, 6, 8):
        cm = build_cut_mesh(m, Square(delta=0.005), theta=0.3, r=r)
        corner = cm.cells.area[m.cell_id(7, 7)]
        assert cm.is_cut(m.cell_id(7, 7))
        assert abs(corner[1] + corner[2] - s) <= 1e-12 * s
        deficits.append(abs(corner[1] - 0.055**2))
    assert deficits[0] > deficits[1] > deficits[2]
    assert deficits[2] <= 1e-5


# -- classification ----------------------------------------------------

def test_uncut_inside_circle():
    m = build_mesh(0)
    cm = build_cut_mesh(m, CIRCLE, theta=0.3, r=4)
    c = m.cell_id(4, 4)  # [0.4,0.5]^2 inside the circle
    assert cm.cells.kind[c] == UNCUT and cm.cells.side[c] == 1
    c = m.cell_id(0, 0)
    assert cm.cells.kind[c] == UNCUT and cm.cells.side[c] == 2


def test_theta_zero_all_well_cut():
    m = build_mesh(0)
    cm = build_cut_mesh(m, CIRCLE, theta=0.0, r=4)
    kinds = set(cm.cells.kind[cm.cut_cells()].tolist())
    assert kinds == {WELL_CUT}
    assert len(cm.pairing) == 0


def test_sliver_is_ill_cut_on_the_sliver_side():
    delta = 5e-10
    m = build_mesh(0)
    cm = build_cut_mesh(m, Line((0.7 + delta, 0.0)), theta=0.3, r=2)
    tau = 0.3 * 0.5 * m.cell_size
    for iy in range(m.n):
        c = m.cell_id(7, iy)
        assert cm.cells.kind[c] == ILL_CUT
        assert cm.cells.side[c] == 1  # the sliver lies on side 1
        assert cm.cells.rho[c, 1] < tau <= cm.cells.rho[c, 2]
        assert cm.pairing.partner[c] in m.neighborhood(c, 1)


def test_both_sides_ill_cut_error():
    m = build_mesh(0)
    with pytest.raises(GeometryError, match="both sides ill-cut"):
        build_cut_mesh(m, Line((0.75, 0.0)), theta=0.9, r=2)


def test_cut_cell_geometry_error_names_the_cell():
    # at level 1 the square front with delta = 0.5e-8 leaves a sub-cell empty
    with pytest.raises(GeometryError,
                       match=r"^cell 315: degenerate triangle: empty sub-cell$"):
        build_cut_mesh(build_mesh(1), Square(delta=0.5e-8))


def test_face_geometry_errors_name_the_face():
    # the flower's petals cross the vertical face between cells 142 and 143 twice
    with pytest.raises(GeometryError, match=r"^face 150 \(cells 142, 143\): "
                       r"disconnected cut: face crossed more than once$"):
        build_cut_mesh(build_mesh(1), Flower(), r=4)
    # x = 0.5 is a gridline at level 0; its lowest face lies on the interface
    with pytest.raises(GeometryError,
                       match=r"^face 5 \(cells 4, 5\): face lies on the interface$"):
        build_cut_mesh(build_mesh(0), Line((0.5, 0.0)), r=4)


@pytest.mark.parametrize("tilt", [1e-13, -1e-13, 0.0])
def test_interface_along_a_gridline_up_to_round_off_lies_on_the_interface(tilt):
    # x = 0.5 is a gridline; tilted by 1e-13 the line stays within the snap
    # distance of the faces near y = 0.5, and their snapped endpoints make no
    # crossing of their own
    with pytest.raises(GeometryError, match=r"^face \d+ \(cells \d+, \d+\): "
                       r"face lies on the interface$"):
        build_cut_mesh(build_mesh(2), Line((0.5, 0.5), (1.0, tilt)), r=4)


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_second_crossing_of_a_face_through_a_snapped_vertex_rejected(c):
    # y = 0.3 + c (x - 0.3)(x - 0.35) runs through the vertex (0.3, 0.3) and
    # crosses the face to its right again at x = 0.35, whichever way it bends
    class Parabola(LevelSet):
        def value(self, pts):
            pts = np.atleast_2d(pts)
            return pts[:, 1] - 0.3 - c * (pts[:, 0] - 0.3) * (pts[:, 0] - 0.35)

        def gradient(self, pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([-c * (2.0 * pts[:, 0] - 0.65), np.ones(len(pts))])

    with pytest.raises(GeometryError, match=r"^face 143 \(cells 23, 33\): "
                       r"disconnected cut: face crossed more than once$"):
        build_cut_mesh(build_mesh(0), Parabola(), r=4)


def test_two_crossings_of_one_face_rejected():
    class TwoLines(LevelSet):
        def value(self, pts):
            pts = np.atleast_2d(pts)
            return (pts[:, 0] - 0.31) * (pts[:, 0] - 0.35)

        def gradient(self, pts):
            pts = np.atleast_2d(pts)
            g = np.zeros_like(pts)
            g[:, 0] = 2 * pts[:, 0] - 0.66
            return g

    m = build_mesh(0)
    with pytest.raises(GeometryError, match="disconnected cut"):
        build_cut_mesh(m, TwoLines(), theta=0.0, r=2)


class _Kinked(LevelSet):
    """phi = max of two lines at level 0, or its min with a small circle
    ``loop``.  The first line passes 'eps' left of vertex v and cuts a
    corner too small to triangulate off cell 22; the second runs through
    vertex w, so cell 65 below-left of w has one crossing only.  A loop
    inside one cell crosses none of its faces."""

    def __init__(self, eps, loop=None):
        m = build_mesh(0)
        self.v = m.cell_vertices(m.cell_id(3, 2))[0]
        self.w = m.cell_vertices(m.cell_id(6, 7))[0]
        self.eps, self.loop = eps, loop

    def _branches(self, pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        v, w = self.v, self.w
        return (x - (v[0] - self.eps + 0.7 * (y - v[1])),
                x - (w[0] + 0.4 * (y - w[1])))

    def value(self, pts):
        phi = np.maximum(*self._branches(pts))
        return phi if self.loop is None else np.minimum(phi, self.loop.value(pts))

    def gradient(self, pts):
        one, two = self._branches(pts)
        g = np.ones((len(one), 2))
        g[:, 1] = np.where(one >= two, -0.7, -0.4)
        if self.loop is not None:
            inside = self.loop.value(pts) < np.maximum(one, two)
            g[inside] = self.loop.gradient(pts)[inside]
        return g


def test_first_faulty_cell_in_cell_order_is_reported():
    # see _Kinked: cell 65 fails its crossing walk, cell 22 its triangulation
    m = build_mesh(0)
    with pytest.raises(GeometryError, match=r"^cell 65: disconnected cut: "
                       r"expected two boundary crossings$"):
        build_cut_mesh(m, _Kinked(1e-3), theta=0.0, r=4)
    # cell 22 fails in triangulation, after cell 65's crossing walk has failed
    with pytest.raises(GeometryError,
                       match=r"^cell 22: degenerate triangle: empty sub-cell$"):
        build_cut_mesh(m, _Kinked(1e-9), theta=0.0, r=4)


def test_each_cell_reports_its_first_error_in_stage_order():
    # cell 22 leaves a sub-cell empty; cell 12 is too coarse at theta 0.64
    # but not at 0.62.  The rho check comes after triangulation for each
    # cell, yet cell 12 is named first at 0.64: the lowest faulty cell wins
    m = build_mesh(0)
    with pytest.raises(GeometryError, match=r"^cell 12: both sides ill-cut"):
        build_cut_mesh(m, _Kinked(1e-9), theta=0.64, r=4)
    with pytest.raises(GeometryError, match=r"^cell 22: degenerate triangle: empty sub-cell"):
        build_cut_mesh(m, _Kinked(1e-9), theta=0.62, r=4)


@pytest.mark.parametrize("eps,faulty", [(1e-3, 65), (1e-9, 22)])
def test_interface_loop_in_an_uncrossed_cell_is_reported_in_cell_order(eps, faulty):
    # a circle of radius 0.01 around a sample point of one cell crosses none
    # of its faces: in cell 4 it is the first faulty cell, in cell 99 the
    # kinked front's cell 65 or 22 still is
    m = build_mesh(0)
    loop = Circle((0.45625, 0.05625), 0.01)
    with pytest.raises(GeometryError, match=r"^cell 4: disconnected cut: "
                       r"interface loop inside an uncrossed cell$"):
        build_cut_mesh(m, _Kinked(eps, loop), theta=0.0, r=4)
    loop = Circle((0.95625, 0.95625), 0.01)
    with pytest.raises(GeometryError, match=rf"^cell {faulty}: "):
        build_cut_mesh(m, _Kinked(eps, loop), theta=0.0, r=4)


def test_classification_deterministic():
    m = build_mesh(0)
    a = build_cut_mesh(m, CIRCLE, theta=0.3, r=4)
    b = build_cut_mesh(m, CIRCLE, theta=0.3, r=4)
    assert list(zip(a.cells.kind, a.cells.side)) == list(zip(b.cells.kind, b.cells.side))
    assert a.pairing.partner == b.pairing.partner


@pytest.mark.parametrize("levelset,level,r", [
    (make_case("sinsin").levelset, 2, 8), (Flower(amplitude=0.02), 1, 8),
    # a circle test_criterion_8_invariants draws: three sub-cells ear-clipped
    (Circle((0.4513001846769976, 0.45056686145030567), 0.34059003869816806), 0, 4)])
def test_cut_cell_rows_do_not_depend_on_their_stack(monkeypatch, levelset, level, r):
    # every cut row equals, bit for bit, the row its polygons give as a
    # stack of one, triangulated and then measured alone
    m = build_mesh(level)
    stacked = build_cut_mesh(m, levelset, theta=0.3, r=r)
    triangulate, ear_clip, clipped = geometry.triangulate_polygon, geometry._ear_clip, []

    def one_at_a_time(polys, anchors, cell_area):
        groups, errors = [], {}
        for row in range(len(polys)):
            tris, failed = triangulate(polys[row:row + 1], anchors[row:row + 1], cell_area)
            groups += [(np.array([row]), t) for _, t in tris]
            errors.update({row: e for e in failed.values()})
        return groups, errors

    monkeypatch.setattr(geometry, "triangulate_polygon", one_at_a_time)
    monkeypatch.setattr(geometry, "_ear_clip", lambda *a: clipped.append(1) or ear_clip(*a))
    alone = build_cut_mesh(m, levelset, theta=0.3, r=r)
    assert len(clipped) == (3 if r == 4 else 0)
    a, b = stacked.cells, alone.cells
    for name in ("kind", "side", "area", "barycenter", "rho"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=name not in ("kind", "side"))
    assert list(a.tris) == list(b.tris)
    assert all(np.array_equal(a.tris[key], b.tris[key]) for key in a.tris)
    assert stacked.pairing.partner == alone.pairing.partner


def test_benchmark_tracer_calls_every_geometry_function(monkeypatch):
    # perfbench/layertrace.py wraps these functions by name; a renamed one
    # would otherwise only break a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layertrace

    with layertrace.Tracer() as tracer:
        solve_single(make_case("jump-mixed"), 1, 0, r=4, check_case=False)
    missing = [name for name in layertrace.GEOMETRY_FUNCTIONS
               if not tracer.calls(f"geometry.{name}")]
    assert missing == []


# -- pairing -----------------------------------------------------------

def test_pairing_circle_level0():
    m = build_mesh(0)
    cm = build_cut_mesh(m, CIRCLE, theta=0.3, r=4)
    ill = np.flatnonzero(cm.cells.kind == ILL_CUT).tolist()
    assert ill, "expected ill-cut cells at this theta"
    assert sorted(cm.pairing.partner) == ill
    for s in ill:
        t = cm.pairing.partner[s]
        assert t in m.neighborhood(s, 1) and t != s
        i = cm.cells.side[s]
        assert (i, s) in cm.pairing.inverse[t]
        kind, side = cm.cells.kind[t], cm.cells.side[t]
        assert (
            (kind == UNCUT and side == i)
            or kind == WELL_CUT
            or (kind == ILL_CUT and side != i)
        )


def _fake_cells(mesh, spec):
    """CellCuts table from {cid: (kind, side, areas)} with uncut side-2 filler."""
    n = mesh.n_cells
    kind, side = np.full(n, UNCUT, dtype="<U5"), np.full(n, 2)
    area = np.full((n, 3), np.nan)
    area[:, 2] = mesh.cell_size**2
    for cid, (k, sd, areas) in spec.items():
        kind[cid], side[cid], area[cid] = k, sd or 0, np.nan
        for i, a in areas.items():
            area[cid, i] = a
    return CellCuts(kind, side, area, np.full((n, 3, 2), np.nan), np.full((n, 3), np.nan), {}, {})


def test_pairing_step4_reciprocal():
    # corner cell A (ill on side 1) has only its ill neighbor B as candidate;
    # B (ill on side 2) must then receive A reciprocally
    m = build_mesh(0)
    a, b = m.cell_id(0, 0), m.cell_id(1, 0)
    spec = {
        a: (ILL_CUT, 1, {1: 0.001, 2: 0.009}),
        b: (ILL_CUT, 2, {1: 0.009, 2: 0.001}),
    }
    cells = _fake_cells(m, spec)
    pairing = build_pairing(m, cells)
    assert pairing.partner[a] == b
    assert pairing.partner[b] == a


def test_pairing_preference_order_and_tiebreak():
    m = build_mesh(0)
    s = m.cell_id(5, 5)
    spec = {s: (ILL_CUT, 1, {1: 0.001, 2: 0.009})}
    # all neighbors uncut side 2 except: one well-cut, one uncut side 1
    well = m.cell_id(4, 5)
    unc1 = m.cell_id(6, 5)
    spec[well] = (WELL_CUT, None, {1: 0.009, 2: 0.001})
    spec[unc1] = (UNCUT, 1, {1: 0.01})
    pairing = build_pairing(m, _fake_cells(m, spec))
    assert pairing.partner[s] == unc1  # uncut beats well-cut

    # two uncut side-1 candidates: same area, smaller id wins
    spec[m.cell_id(4, 4)] = (UNCUT, 1, {1: 0.01})
    pairing = build_pairing(m, _fake_cells(m, spec))
    assert pairing.partner[s] == min(unc1, m.cell_id(4, 4))

    # larger borrowed sub-cell wins over smaller id
    spec[m.cell_id(4, 4)] = (WELL_CUT, None, {1: 0.004, 2: 0.006})
    spec[unc1] = (WELL_CUT, None, {1: 0.008, 2: 0.002})
    del spec[well]
    pairing = build_pairing(m, _fake_cells(m, spec))
    assert pairing.partner[s] == unc1


def test_pairing_failure():
    m = build_mesh(0)
    spec = {m.cell_id(0, 0): (ILL_CUT, 1, {1: 0.001, 2: 0.009})}
    # neighbors are all uncut side 2 (the filler), so no side-1 donor exists
    with pytest.raises(PairingError, match="pairing failed"):
        build_pairing(m, _fake_cells(m, spec))


def test_inverse_consistency():
    m = build_mesh(0)
    cm = build_cut_mesh(m, CIRCLE, theta=0.3, r=4)
    for t, entries in cm.pairing.inverse.items():
        for i, s in entries:
            assert cm.pairing.partner[s] == t
            assert cm.cells.side[s] == i
    n_inverse = sum(len(v) for v in cm.pairing.inverse.values())
    assert n_inverse == len(cm.pairing.partner)


@settings(max_examples=20, deadline=None)
@given(
    radius=st.floats(0.17, 0.42),
    cx=st.floats(0.45, 0.55),
    cy=st.floats(0.45, 0.55),
    theta=st.floats(0.0, 0.4),
)
def test_random_circles_partition_and_classify(radius, cx, cy, theta):
    m = build_mesh(0)
    ls = Circle((cx, cy), radius)
    try:
        cm = build_cut_mesh(m, ls, theta=theta, r=4)
    except GeometryError:
        return  # degenerate configuration, rejection is the contract
    cell_area = m.cell_size**2
    for cid in cm.cut_cells():
        area = cm.cells.area[cid]
        assert abs(area[1] + area[2] - cell_area) <= 1e-11 * cell_area
        assert np.max(np.abs(ls.value(cm.cells.polyline[cid]))) <= 1e-11
    total = np.nansum(cm.cells.area)
    assert abs(total - 1.0) <= 1e-10
