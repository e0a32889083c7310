from math import factorial

import numpy as np
import pytest

from cuthho.basis import (
    CellBasis,
    FaceBasis,
    expand_in_basis,
    monomial_exponents,
    poly_diff,
    poly_eval,
    poly_laplacian,
    space_dimension,
)
from cuthho.errors import NumericalError
from cuthho.quadrature import (
    box_rule,
    compress_rule,
    gauss_1d,
    gauss_jacobi_1d,
    map_to_triangles,
    nnls,
    points_for_degree,
    segment_rule,
    triangle_rule,
)

RNG = np.random.default_rng(42)


# -- quadrature --------------------------------------------------------

def test_segment_rule_measures():
    pts, w = segment_rule((0.2, 0.3), (0.3, 0.3), 3)
    assert w.sum() == pytest.approx(0.1, abs=1e-16)


def test_segment_rule_linear():
    pts, w = segment_rule((0.0, 0.0), (1.0, 0.0), 2)
    assert np.dot(w, pts[:, 0]) == pytest.approx(0.5, abs=1e-15)


def test_segment_rule_degree5_exact_with_3_points():
    pts, w = segment_rule((0.0, 0.0), (1.0, 0.0), 3)
    assert np.dot(w, pts[:, 0] ** 4) == pytest.approx(0.2, abs=1e-15)
    assert np.dot(w, pts[:, 0] ** 5) == pytest.approx(1.0 / 6.0, abs=1e-15)


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

def test_face_basis_midpoint_centering():
    # Legendre P_0, P_1, P_2 of t in [-1, 1] from p0 to p1, each times
    # sqrt((2j+1) h / |F|), here |F| = h: P_j(0) = 1, 0, -1/2; P_j(+-1) = (+-1)^j
    fb = FaceBasis(2, (0.2, 0.3), (0.2, 0.4), 0.1)
    scale = np.sqrt([1.0, 3.0, 5.0])
    mid = np.array([[0.2, 0.35]])
    vals = fb.eval(mid)[0]
    assert vals[0] == pytest.approx(1.0, rel=1e-14) and abs(vals[1]) < 1e-14
    assert vals[2] == pytest.approx(-0.5 * scale[2], rel=1e-14)
    ends = fb.eval(np.array([[0.2, 0.3], [0.2, 0.4]]))
    assert np.allclose(ends, [[1.0, -1.0, 1.0] * scale, scale], rtol=1e-14, atol=0)


@pytest.mark.parametrize("length", [1e-1, 1e-4, 1e-8, 5e-10])
def test_face_gram_condition_independent_of_cut(length):
    # the scaling makes the Gram matrix h I on a sub-face of any length.  The
    # Gauss points of a segment at x0 are rounded to about eps |x0|, so off
    # the origin its Gram is h I only up to about eps |x0| / length
    h = 0.1
    eps = np.finfo(float).eps
    for x0, tol in ((0.0, 1e-12), (0.5, 1e-12 + 10 * eps * 0.5 / length)):
        fb = FaceBasis(3, (x0, 0.5), (x0 + length, 0.5), h)
        pts, w = segment_rule((x0, 0.5), (x0 + length, 0.5), 5)
        chi = fb.eval(pts)
        gram = chi.T @ (w[:, None] * chi)
        assert np.max(np.abs(gram - h * np.eye(4))) <= tol * h, x0
