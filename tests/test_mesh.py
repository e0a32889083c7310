import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuthho.errors import ConfigError
from cuthho.mesh import build_mesh


def test_counts_level0():
    m = build_mesh(0)
    assert m.n_cells == 100
    assert m.n_faces == 220


def test_level2_size():
    m = build_mesh(2)
    assert m.n_cells == 1600
    assert m.h == pytest.approx(np.sqrt(2.0) * 0.025, rel=1e-15)


def test_level_bounds():
    with pytest.raises(ConfigError):
        build_mesh(-1)
    with pytest.raises(ConfigError, match="refinement too deep"):
        build_mesh(11)


def test_neighborhood_sizes():
    m = build_mesh(0)
    interior = m.cell_id(5, 5)
    assert len(m.neighborhood(interior, 1)) == 9
    assert len(m.neighborhood(interior, 2)) == 25
    assert len(m.neighborhood(0, 1)) == 4  # corner, includes the cell
    assert len(m.neighborhood(5, 1)) == 6  # edge, non-corner


def test_neighborhood_is_block():
    m = build_mesh(0)
    cid = m.cell_id(4, 7)
    block = {m.cell_id(ix, iy) for ix in range(3, 6) for iy in range(6, 9)}
    assert set(m.neighborhood(cid, 1)) == block
    assert cid in m.neighborhood(cid, 1)


def test_face_cell_incidence_total_and_symmetric():
    for level in (0, 1, 2):
        m = build_mesh(level)
        for cid in range(m.n_cells):
            for fid in m.cell_faces(cid):
                assert cid in m.face_cells(fid)
        for fid in range(m.n_faces):
            for cid in m.face_cells(fid):
                if cid >= 0:
                    assert fid in m.cell_faces(cid)
        assert m.boundary_faces.sum() == 4 * m.n


def test_cell_face_table_is_the_twin_of_the_face_cell_table():
    for level in (0, 1, 2):
        m = build_mesh(level)
        table = m.cell_face_table
        assert table.shape == (m.n_cells, 4)
        assert [tuple(row) for row in table.tolist()] == [m.cell_faces(c) for c in range(m.n_cells)]
        # each cell is on one side of each of its faces
        owners = m.face_cell_table[table]  # (n_cells, 4, 2)
        assert np.array_equal((owners == np.arange(m.n_cells)[:, None, None]).sum(axis=2),
                              np.ones((m.n_cells, 4), dtype=int))
        assert m.cell_face_table is table  # cached


def test_cell_areas_sum_to_one():
    for level in (0, 1):
        m = build_mesh(level)
        total = 0.0
        for cid in range(m.n_cells):
            x0, y0, x1, y1 = m.cell_box(cid)
            total += (x1 - x0) * (y1 - y0)
        assert abs(total - 1.0) <= 1e-14


def test_convex_hull_inside_first_layer():
    # cells are convex, so conv(T) = T must lie in the union of Delta_1(T)
    m = build_mesh(0)
    for cid in (0, 5, 55):
        x0, y0, x1, y1 = m.cell_box(cid)
        boxes = [m.cell_box(c) for c in m.neighborhood(cid, 1)]
        assert min(b[0] for b in boxes) <= x0
        assert max(b[2] for b in boxes) >= x1
        assert min(b[1] for b in boxes) <= y0
        assert max(b[3] for b in boxes) >= y1


def test_outward_normals():
    m = build_mesh(0)
    cid = m.cell_id(3, 4)
    left, right, bottom, top = m.cell_faces(cid)
    assert np.allclose(m.outward_normal(cid, left), [-1, 0])
    assert np.allclose(m.outward_normal(cid, right), [1, 0])
    assert np.allclose(m.outward_normal(cid, bottom), [0, -1])
    assert np.allclose(m.outward_normal(cid, top), [0, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.data())
def test_neighborhood_properties(level, data):
    m = build_mesh(level)
    cid = data.draw(st.integers(0, m.n_cells - 1))
    nb = m.neighborhood(cid, 1)
    assert cid in nb
    assert len(nb) in (4, 6, 9)
    assert len(set(nb.tolist())) == len(nb)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_vertex_table_numbers_every_face_and_cell_corner(level):
    # the one vertex numbering: coordinates, face endpoints and CCW cell
    # corners, bit for bit those of face_endpoints and cell_vertices
    m = build_mesh(level)
    v = m.vertices
    assert v.points.shape == ((m.n + 1) ** 2, 2)
    assert v.faces.shape == (m.n_faces, 2) and v.cells.shape == (m.n_cells, 4)
    ends = np.array([m.face_endpoints(f) for f in range(m.n_faces)])
    corners = np.array([m.cell_vertices(c) for c in range(m.n_cells)])
    assert v.points[v.faces].tobytes() == ends.tobytes()
    assert v.points[v.cells].tobytes() == corners.tobytes()
    assert len(np.unique(v.points, axis=0)) == len(v.points)  # one id a vertex
