from math import factorial

import numpy as np
import pytest

from cuthho import cases, local, quadrature, study
from cuthho.basis import (
    CellBasis,
    expand_in_basis,
    monomial_exponents,
    poly_diff,
    poly_eval,
    poly_laplacian,
    space_dimension,
)
from cuthho.errors import NumericalError
from cuthho.geometry import build_cut_mesh
from cuthho.levelset import Circle
from cuthho.local import LocalOperators
from cuthho.mesh import build_mesh
from cuthho.quadrature import (
    box_rule,
    compress_rule,
    fekete_start,
    gauss_1d,
    gauss_jacobi_1d,
    map_to_triangles,
    nnls,
    points_for_degree,
    segment_rules,
    triangle_rule,
)

RNG = np.random.default_rng(42)


# -- quadrature --------------------------------------------------------

def test_segment_rules_measures():
    pts, w = segment_rules(np.array([[(0.2, 0.3), (0.3, 0.3)]]), 3)
    assert w[0].sum() == pytest.approx(0.1, abs=1e-16)


def test_segment_rules_linear():
    pts, w = segment_rules(np.array([[(0.0, 0.0), (1.0, 0.0)]]), 2)
    assert np.dot(w[0], pts[0, :, 0]) == pytest.approx(0.5, abs=1e-15)


def test_segment_rules_degree5_exact_with_3_points():
    pts, w = segment_rules(np.array([[(0.0, 0.0), (1.0, 0.0)]]), 3)
    assert np.dot(w[0], pts[0, :, 0] ** 4) == pytest.approx(0.2, abs=1e-15)
    assert np.dot(w[0], pts[0, :, 0] ** 5) == pytest.approx(1.0 / 6.0, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 3, 5, 7, 9])
def test_triangle_rule_exactness(degree):
    # reference-triangle monomial integrals: a! b! / (a+b+2)!
    pts, w = triangle_rule(degree)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(0.5, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b)
            assert got == pytest.approx(exact, rel=1e-13), (a, b)


@pytest.mark.parametrize("npts", range(1, 7))
def test_gauss_jacobi_rule_integrates_against_one_minus_u(npts):
    u, w = gauss_jacobi_1d(npts)
    assert np.all(w > 0) and np.all((u > 0) & (u < 1))
    for j in range(2 * npts):
        exact = 1.0 / ((j + 1) * (j + 2))  # int_0^1 u^j (1 - u) du
        assert abs(w @ u**j - exact) <= 1e-14, j


@pytest.mark.parametrize("degree", range(10))
def test_triangle_rule_is_a_square_product(degree):
    # the Jacobian 1 - u of the collapse is in the Gauss-Jacobi weight, so
    # both directions take the same point count: 25 nodes at degree 9, not 30
    assert len(triangle_rule(degree)[1]) == points_for_degree(degree) ** 2


def test_mapped_triangle_rule_covers_union():
    tris = np.array(
        [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]]
    )
    pts, w = map_to_triangles(tris, *triangle_rule(3))
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.dot(w, pts[:, 0]) == pytest.approx(0.5, abs=1e-14)


def test_box_rule():
    pts, w = box_rule(0.0, 0.0, 0.5, 0.25, 3)
    assert w.sum() == pytest.approx(0.125, abs=1e-15)
    assert np.dot(w, pts[:, 0] ** 2) == pytest.approx(0.25 * 0.5**3 / 3, rel=1e-14)


def test_points_for_degree():
    for d in range(12):
        n = points_for_degree(d)
        assert 2 * n - 1 >= d
        assert 2 * (n - 1) - 1 < d or n == 1


# -- nonnegative least squares and rule compression --------------------

def test_nnls_recovers_a_nonnegative_solution():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 20))
    x = np.maximum(rng.standard_normal(20), 0.0)
    assert (x == 0.0).any() and (x > 0.0).any()
    got = nnls(a, a @ x)
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - x)) <= 1e-12


def test_nnls_matches_scipy_on_random_problems():
    from scipy.optimize import nnls as reference

    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(n, 40))  # full column rank: the solution is unique
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        want = reference(a, b)[0]
        got = nnls(a, b)
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
    for _ in range(100):  # more columns than rows, as in rule compression
        m = int(rng.integers(2, 20))
        a = rng.standard_normal((m, int(rng.integers(m + 1, 80))))
        b = rng.standard_normal(m)
        got = nnls(a, b)
        assert np.all(got >= 0.0)
        assert np.count_nonzero(got) <= m
        want = np.linalg.norm(a @ reference(a, b)[0] - b)
        assert np.linalg.norm(a @ got - b) <= want + 1e-10 * np.linalg.norm(b)


def test_compress_rule_keeps_moments_with_few_positive_nodes():
    tris = np.array([[[0.0, 0.0], [1.0, 0.0], [0.3, 0.2]],
                     [[0.0, 0.0], [0.3, 0.2], [0.1, 1.0]]])
    fine_pts, fine_w = map_to_triangles(tris, *triangle_rule(9))
    pts, w = compress_rule(fine_pts, fine_w, 5, "two triangles")
    assert len(w) <= space_dimension(5) < len(fine_w)
    assert np.all(w > 0.0)
    fine = {tuple(p) for p in fine_pts}
    assert all(tuple(p) in fine for p in pts)
    for a, b in monomial_exponents(5):
        want = fine_w @ (fine_pts[:, 0] ** a * fine_pts[:, 1] ** b)
        assert w @ (pts[:, 0] ** a * pts[:, 1] ** b) == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("dim", [10, 21, 55])
def test_nnls_from_the_fekete_start_matches_the_cold_start(dim):
    # problems shaped like the compression's: dim orthonormal moment rows
    # over 4 dim candidates, and the moments of a positive measure on them
    rng = np.random.default_rng(dim)
    for _ in range(20):
        a = np.linalg.qr(rng.standard_normal((4 * dim, dim)))[0].T
        b = a @ rng.uniform(0.1, 1.0, 4 * dim)
        x0 = fekete_start(a, b)
        assert x0 is not None and np.all(x0 >= 0.0) and np.any(x0 > 0.0)
        assert np.count_nonzero(x0) <= dim
        warm, cold = nnls(a, b, x0), nnls(a, b)
        assert np.all(warm >= 0.0)
        assert np.linalg.norm(a @ warm - b) <= (np.linalg.norm(a @ cold - b)
                                                + 1e-10 * np.linalg.norm(b))


def test_fekete_start_gives_no_start_for_a_singular_system():
    a = np.zeros((3, 8))
    a[:, :3] = np.eye(3)
    a[2] = 0.0  # rank 2: the pivoted QR's third pivot is zero
    assert fekete_start(a, np.ones(3)) is None


def test_compress_rule_starts_nnls_from_the_fekete_points(monkeypatch):
    # the first try starts from the square solve on the pivot columns, not
    # from x = 0, so nnls does not take in its support a column at a time
    starts = []

    def recording_nnls(a, b, x0=None):
        starts.append(x0)
        return nnls(a, b, x0)

    monkeypatch.setattr(quadrature, "nnls", recording_nnls)
    tris = np.array([[[0.0, 0.0], [1.0, 0.0], [0.3, 0.2]],
                     [[0.0, 0.0], [0.3, 0.2], [0.1, 1.0]]])
    compress_rule(*map_to_triangles(tris, *triangle_rule(9)), 5, "two triangles")
    assert starts and starts[0] is not None
    assert np.count_nonzero(starts[0]) > 0


@pytest.mark.parametrize("name,k,level,r", [
    ("sinsin", 1, 1, 8), ("sinsin", 3, 0, 6), ("jump-mixed", 3, 0, 6), ("jump-mixed", 1, 1, 8)])
def test_compressed_rules_keep_the_energy_error_of_the_fan_rules(monkeypatch, name, k, level, r):
    # f and the exact gradient are not polynomials, so other compressed
    # nodes move the energy error; it stays within 1e-6 of the error the
    # uncompressed fan rules give (measured 5e-9 to 1.2e-7)
    case = cases.make_case(name)
    compressed = study.solve_single(case, k, level, r=r)[0].energy_error
    monkeypatch.setattr(local, "compress_rule", lambda pts, w, degree, what: (pts, w))
    fan = study.solve_single(case, k, level, r=r)[0].energy_error
    assert abs(compressed - fan) <= 1e-6 * fan


def test_compress_rule_returns_a_rule_of_at_most_dim_nodes_unchanged():
    # two triangles of the degree-9 fan rule: 50 nodes <= dim P_9 = 55
    tris = np.array([[[0.0, 0.0], [1.0, 0.0], [0.3, 0.2]],
                     [[0.0, 0.0], [0.3, 0.2], [0.1, 1.0]]])
    fine_pts, fine_w = map_to_triangles(tris, *triangle_rule(9))
    assert len(fine_w) <= space_dimension(9)
    pts, w = compress_rule(fine_pts, fine_w, 9, "two triangles")
    assert pts is fine_pts and w is fine_w


def test_compress_rule_names_the_region_whose_moments_no_nodes_match():
    # seven nodes, more than dim P_2 = 6, so the moments go to nnls: the
    # negative weight gives P_2(x) the moment 59.5 times the total weight,
    # where |P_2| <= 1 on the nodes, so no positive rule on them matches
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0],
                    [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]])
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -5.9])
    with pytest.raises(NumericalError, match=r"compression failed on sub-cell \(7, 2\): "
                                             r"moments missed by"):
        compress_rule(pts, w, 2, "sub-cell (7, 2)")


def test_compress_rule_names_the_region_it_cannot_compress():
    # a negative weight puts the moments outside the cone of positive
    # rules: P_2(x) has moment 59.5 times the total weight, where
    # |P_2| <= 1 on the nodes
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]])
    w = np.array([1.0, 1.0, 1.0, 1.0, -3.9])
    with pytest.raises(NumericalError, match=r"compression failed on sub-cell \(7, 2\)"):
        compress_rule(pts, w, 2, "sub-cell (7, 2)")


# -- cell basis --------------------------------------------------------

def test_monomial_order_graded_lex():
    exps = monomial_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_basis_at_center():
    b = CellBasis(3, (0.3, 0.4), 0.05)
    vals = b.eval(np.array([[0.3, 0.4]]))[0]
    assert vals[0] == 1.0
    assert np.all(vals[1:] == 0.0)


def test_mass_matrix_p0_unit_area():
    tris = np.array(
        [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]]
    )
    pts, w = map_to_triangles(tris, *triangle_rule(1))
    b = CellBasis(0, (0.5, 0.5), 1.0)
    e = b.eval(pts)
    m = e.T @ (w[:, None] * e)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_mass_matrix_p1_barycentric_centering():
    tris = np.array(
        [[[0.1, 0.2], [0.4, 0.25], [0.3, 0.6]]]
    )
    bary = tris[0].mean(axis=0)
    pts, w = map_to_triangles(tris, *triangle_rule(3))
    b = CellBasis(1, tuple(bary), 0.2)
    e = b.eval(pts)
    m = e.T @ (w[:, None] * e)
    assert abs(m[0, 1]) <= 1e-13 * m[0, 0]
    assert abs(m[0, 2]) <= 1e-13 * m[0, 0]
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_mass_matrix_p2_against_analytic_integrals():
    # closed-form monomial integrals over the square [0, 0.1]^2
    x0, x1 = 0.0, 0.1
    center = (0.05, 0.05)
    scale = 0.05 * np.sqrt(2.0)

    def seg_int(c, s, p):
        # integral over [x0, x1] of ((x-c)/s)^p dx
        a, b = (x0 - c) / s, (x1 - c) / s
        return s * (b ** (p + 1) - a ** (p + 1)) / (p + 1)

    basis = CellBasis(2, center, scale)
    pts, w = box_rule(x0, x0, x1, x1, 4)
    e = basis.eval(pts)
    m = e.T @ (w[:, None] * e)
    for i, (a1, b1) in enumerate(basis.exps):
        for j, (a2, b2) in enumerate(basis.exps):
            exact = seg_int(0.05, scale, a1 + a2) * seg_int(0.05, scale, b1 + b2)
            assert m[i, j] == pytest.approx(exact, abs=1e-13), (i, j)


def test_derivative_matrices_match_symbolic_differentiation():
    poly = {(0, 0): 0.7, (1, 0): -1.2, (0, 1): 0.4, (2, 1): 2.0, (0, 3): -0.5,
            (3, 0): 1.1, (1, 2): 0.3}
    b = CellBasis(3, (0.45, 0.55), 0.07)
    coef = expand_in_basis(poly, b)
    dx, dy = b.derivative_matrices()
    lower = b.lower(2)
    cx = expand_in_basis(poly_diff(poly, 0), lower)
    cy = expand_in_basis(poly_diff(poly, 1), lower)
    assert np.allclose(dx @ coef, cx, atol=1e-11)
    assert np.allclose(dy @ coef, cy, atol=1e-11)


def test_expand_in_basis_roundtrip():
    poly = {(0, 0): 1.0, (2, 0): -0.3, (1, 1): 0.8, (0, 2): 0.1}
    b = CellBasis(2, (0.2, 0.9), 0.11)
    coef = expand_in_basis(poly, b)
    pts = RNG.uniform(0, 1, size=(20, 2))
    assert np.allclose(b.eval(pts) @ coef, poly_eval(poly, pts), atol=1e-12)


def test_poly_laplacian():
    poly = {(2, 0): 1.0, (0, 2): 2.0, (1, 1): 3.0, (3, 0): 1.0}
    lap = poly_laplacian(poly)
    assert lap[(0, 0)] == pytest.approx(6.0)
    assert lap[(1, 0)] == pytest.approx(6.0)


def test_basis_gradient_matches_fd():
    b = CellBasis(3, (0.5, 0.5), 0.07)
    pts = RNG.uniform(0.4, 0.6, size=(5, 2))
    g = b.grad(pts)
    h = 1e-6
    for comp, dvec in ((0, np.array([h, 0])), (1, np.array([0, h]))):
        fd = (b.eval(pts + dvec) - b.eval(pts - dvec)) / (2 * h)
        assert np.allclose(g[:, :, comp], fd, atol=1e-7)


# -- face basis --------------------------------------------------------

def face_operators(k):
    """Operators on a level-0 cut mesh: only the mesh size h matters here."""
    cm = build_cut_mesh(build_mesh(0), Circle((0.5, 0.5), 1.0 / 3.0), theta=0.3, r=2)
    return LocalOperators(cm, k)


def test_face_basis_midpoint_centering():
    # the face rule's values are sqrt(2j+1) P_j(t) at the Gauss parameters t
    # in [-1, 1] from p0 to p1, times sqrt(h / |F|), here |F| = h; the
    # middle of the 5 Gauss points is the sub-face's midpoint, where
    # P_j(0) = 1, 0, -1/2, 0
    ops = face_operators(3)
    h = ops.cm.mesh.h
    p0 = np.array([0.2, 0.3])
    p1 = p0 + h * np.array([0.6, 0.8])
    pts, w, chi = ops.face_rule(np.array([p0, p1]))
    t = gauss_1d(points_for_degree(9))[0]
    assert np.allclose(pts, (p0 + p1) / 2 + 0.5 * np.outer(t, p1 - p0), rtol=0, atol=1e-15)
    scale = np.sqrt([1.0, 3.0, 5.0, 7.0])
    legendre = np.column_stack([np.ones_like(t), t, (3 * t**2 - 1) / 2, (5 * t**3 - 3 * t) / 2])
    assert np.abs(chi - legendre * scale).max() <= 1e-14
    assert np.allclose(pts[2], (p0 + p1) / 2, rtol=0, atol=1e-15)
    assert np.allclose(chi[2], [1.0, 0.0, -0.5 * scale[2], 0.0], rtol=0, atol=1e-14)
    # a zero-length segment has an empty rule
    pts, w, chi = ops.face_rule(np.array([p0, p0]))
    assert pts.shape == (0, 2) and w.shape == (0,) and chi.shape == (0, 4)


@pytest.mark.parametrize("length", [1e-1, 1e-4, 1e-8, 5e-10])
def test_face_gram_condition_independent_of_cut(length):
    # the scaling makes the Gram matrix h I on a sub-face of any length and
    # position: the values come from the reference table, not from the
    # rounded coordinates of the Gauss points
    ops = face_operators(3)
    h = ops.cm.mesh.h
    for x0 in (0.0, 0.5):
        pts, w, chi = ops.face_rule(np.array([[x0, 0.5], [x0 + length, 0.5]]))
        gram = chi.T @ (w[:, None] * chi)
        assert np.max(np.abs(gram - h * np.eye(4))) <= 1e-12 * h, x0
