"""Per-cell operator checks.

The exact-gradient invariant is the core: feeding the interpolate of a
global polynomial of degree k+1 (with the ill-cut cells inheriting their
partner's polynomial) must reproduce the exact gradient on every sub-cell
that owns a reconstruction, including extended stencils.  Coefficients
are compared in the first dim P_k functions of the cell basis: they are
orthonormal in the mean-value inner product of the sub-cell (on failing
sides, of the region merged with the partner), so the comparison bounds
the RMS error of the gradient there.

Every test that draws random data owns its generator, so a draw never
depends on which tests ran before.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from cuthho.assembly import DofLayout, PlainCells, assemble, interpolate_polynomial
from cuthho.basis import CellBasis, expand_in_basis, poly_diff
from cuthho.cases import make_case
from cuthho.errors import NumericalError
from cuthho.geometry import build_cut_mesh
from cuthho.levelset import Circle, Line
from cuthho.local import LocalOperators, orthonormal_basis
from cuthho.mesh import build_mesh

CIRCLE = Circle((0.5, 0.5), 1.0 / 3.0)
SEED = 3


def random_poly(degree, rng):
    return {
        (a, b): float(rng.uniform(-1, 1))
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    }


def reconstruction_applied(ops, layout, cid, i, x):
    ghat, _, st = ops.gradient_reconstruction(cid, i)
    loc = x[layout.stencil_indices(st)]
    return ghat @ loc


def assert_gradient_reproduced(cm, k, polys, tol=1e-11):
    """Check each polynomial in ``polys``; operators are built once."""
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    gradients = {}
    for cid, i in cm.ok_sides():
        ghat, _, st = ops.gradient_reconstruction(cid, i)
        gradients[cid, i] = ghat, st
    for cid, i in cm.ko_sides():
        gradients[cid, i] = ops.gradient_plain(cid, i)
    for poly in polys:
        x = interpolate_polynomial(cm, k, poly)
        gx = poly_diff(poly, 0)
        gy = poly_diff(poly, 1)
        scale = 1.0 + max(abs(v) for v in poly.values())
        for (cid, i), (g, st) in gradients.items():
            got = g @ x[layout.stencil_indices(st)]
            bk = ops.cell_basis(cid, i).lower(k)
            want = np.concatenate([expand_in_basis(gx, bk), expand_in_basis(gy, bk)])
            assert np.max(np.abs(got - want)) <= tol * scale, (cid, i, poly)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_exact_gradient_reproduction_circle(k):
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=5)
    assert len(cm.pairing) > 0
    rng = np.random.default_rng(SEED)
    assert_gradient_reproduced(cm, k, [random_poly(k + 1, rng) for _ in range(5)])


def test_exact_gradient_reproduction_straight_cut():
    cm = build_cut_mesh(build_mesh(0), Line((0.37, 0.0)), theta=0.3, r=3)
    rng = np.random.default_rng(SEED)
    assert_gradient_reproduced(cm, 2, [random_poly(3, rng)])


def test_uncut_constant_and_linear():
    cm = build_cut_mesh(build_mesh(0), Circle((5.0, 5.0), 0.1), theta=0.3, r=3)
    assert not cm.cut_cells()
    for k in (0, 2):
        assert_gradient_reproduced(cm, k, [{(0, 0): 1.0}])
        ops = LocalOperators(cm, k)
        layout = DofLayout.build(cm, k)
        x = interpolate_polynomial(cm, k, {(1, 0): 1.0})
        got = reconstruction_applied(ops, layout, 55, 2, x)
        ng = ops.ng
        want = np.zeros(2 * ng)
        want[0] = 1.0  # constant-first ordering: gradient (1, 0)
        assert np.allclose(got, want, atol=1e-12)


def test_reconstruction_basis_orthonormal_on_cut_and_extended_sub_cells():
    # the whole degree-(k+1) cell basis is orthonormal on every sub-cell, a
    # failing side on the region merged with its partner, and its first
    # dim P_k functions are the degree-k orthonormal basis of that region
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    k = 3
    ops = LocalOperators(cm, k)
    ok = cm.ok_sides()
    assert any(cm.cells[cid].is_cut for cid, _ in ok)
    assert any(not cm.cells[cid].is_cut and cm.pairing.donors(cid, i) for cid, i in ok)
    assert any(cm.is_plain(cid, i) for cid, i in ok)
    assert cm.ko_sides()
    ng = ops.ng
    for cid, i in cm.sides():
        pts, w = ops.volume_quadrature(cid, i)
        if cm.is_ko(cid, i):
            tp, tw = ops.volume_quadrature(cm.partner_of(cid), i)
            pts, w = np.vstack([pts, tp]), np.concatenate([w, tw])
        basis = ops.cell_basis(cid, i)
        e = basis.eval(pts)
        gram = e.T @ ((w / w.sum())[:, None] * e)
        assert np.max(np.abs(gram - np.eye(ops.nc))) <= 1e-12, (cid, i)
        assert np.array_equal(basis.transform, np.triu(basis.transform)), (cid, i)
        ek = basis.lower(k).eval(pts)
        assert np.max(np.abs(ek - e[:, :ng])) <= 1e-14 * np.abs(e).max(), (cid, i)
        mono_k = basis.mono.lower(k).eval(pts)
        direct = orthonormal_basis(mono_k[None], w[None], [f"sub-cell ({cid}, {i})"])[0]
        tk = basis.lower(k).transform
        assert np.max(np.abs(tk - direct)) <= 1e-12 * np.abs(direct).max(), (cid, i)


def test_orthonormal_basis_guards_degenerate_region():
    # the degenerate region is the second of a stack, after a sound one
    mono = CellBasis(1, (0.0, 0.0), 1.0)
    line = np.column_stack([np.linspace(0.0, 1.0, 7), np.zeros(7)])
    square = np.column_stack([np.tile([0.0, 1.0], 4)[:7], np.repeat([0.0, 1.0], 4)[:7]])
    e = np.stack([mono.eval(square), mono.eval(line)])
    with pytest.raises(NumericalError, match=r"singular mass matrix: sub-cell \(4, 1\)"):
        orthonormal_basis(e, np.ones((2, 7)), ["sub-cell (3, 2)", "sub-cell (4, 1)"])
    transforms = orthonormal_basis(e[:1], np.ones((1, 7)), ["sub-cell (3, 2)"])
    orthonormal = e[0] @ transforms[0]
    assert np.max(np.abs(orthonormal.T @ orthonormal / 7 - np.eye(3))) <= 1e-14


def test_reconstruction_bit_identical_after_table_eviction():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 3)
    (cid, i), other = [s for s in cm.ok_sides() if cm.cells[s[0]].is_cut][:2]
    tables = ops.volume_tables(cid, i)
    basis = ops.cell_basis(cid, i)
    ghat = ops.gradient_reconstruction(cid, i)[0]
    ops.volume_tables(*other)  # only the last sub-cell's tables are kept
    rebuilt = ops.volume_tables(cid, i)
    assert rebuilt is not tables
    assert np.array_equal(rebuilt.ek1, tables.ek1)
    assert np.array_equal(ops.cell_basis(cid, i).transform, basis.transform)
    assert np.array_equal(ops.gradient_reconstruction(cid, i)[0], ghat)


def test_assemble_builds_each_sub_cell_tables_once(monkeypatch):
    case = make_case("jump-mixed")  # g_D and g_N on the interface
    assert case.g_D is not None and case.g_N is not None
    # k=3 at r=9: each cut sub-cell's fan rule of about 15k points is
    # compressed once, to at most 55 nodes, and the tables use those
    cm = build_cut_mesh(build_mesh(0), case.levelset, theta=0.3, r=9)
    assert len(cm.pairing) > 0
    built: dict[tuple[int, int], list] = {}
    original = LocalOperators.volume_tables

    def counting(self, cid, i):
        out = original(self, cid, i)
        seen = built.setdefault((cid, i), [])  # holds them, so ids stay unique
        if not any(t is out for t in seen):
            seen.append(out)
        return out

    monkeypatch.setattr(LocalOperators, "volume_tables", counting)
    assemble(cm, 3, kappa=case.kappa, case=case)
    # plain sub-cells share the reference element's tables, built on one of them
    not_plain = {(cid, i) for cid, i in cm.sides() if not cm.is_plain(cid, i)}
    assert not_plain <= set(built)
    assert {key: len(v) for key, v in built.items() if len(v) != 1} == {}


def test_error_pass_quadrature_is_the_tables_bit_for_bit():
    # energy_error reads the quadrature and the basis gradients without the
    # tables, so each non-plain sub-cell's contribution must not move
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 3)
    for cid, i in cm.sides():
        pts, w = ops.volume_quadrature(cid, i)
        t = ops.volume_tables(cid, i)
        assert np.array_equal(pts, t.pts) and np.array_equal(w, t.w)
        assert np.array_equal(ops.cell_basis(cid, i).grad(pts), t.dek1)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name,level", [("sinsin", 1), ("jump-mixed", 0)])
def test_plain_sub_cells_match_the_reference_element(name, level, k):
    # the reference path rests on this: every plain sub-cell's blocks are the
    # first plain sub-cell's, and its stencil is the cell, then its four faces
    # in mesh.cell_faces order
    case = make_case(name)
    cm = build_cut_mesh(build_mesh(level), case.levelset, theta=0.3, r=4)
    ops = LocalOperators(cm, k)
    plain = PlainCells.build(ops, DofLayout.build(cm, k), case.kappa)
    assert [(c, i) for c, i in zip(plain.cids, plain.sides)] == [
        (c, i) for c, i in cm.sides() if cm.is_plain(c, i)]
    cid0, i0 = plain.cids[0], plain.sides[0]
    a_ref = ops.stiffness_ok(cid0, i0, 1.0)[0]
    s_ref = ops.stab_circ(cid0, i0, 1.0)[0]
    assert np.array_equal(plain.a, a_ref + s_ref)
    for cid, i in zip(plain.cids, plain.sides):
        a, _, _, st = ops.stiffness_ok(cid, i, 1.0)
        s, st_s = ops.stab_circ(cid, i, 1.0)
        faces = cm.mesh.cell_faces(cid)
        assert st.keys == st_s.keys == [("c", cid, i)] + [("f", f, i) for f in faces]
        ek1 = ops.volume_tables(cid, i).ek1
        for got, ref in ((a, a_ref), (s, s_ref), (ek1, plain.ek1)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("k", range(4))
def test_stiffness_ko_is_the_broken_gradient_energy(k):
    # oracle: kappa sum_d D_d^T M D_d, with D_d the exact derivative maps of
    # the cell polynomial and M the monomial mass of the failing side
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    assert cm.ko_sides()
    ops = LocalOperators(cm, k)
    kappa = 3.0
    for cid, i in cm.ko_sides():
        d, st = ops.gradient_plain(cid, i)
        t = ops.volume_tables(cid, i)
        e = ops.cell_basis(cid, i).lower(k).eval(t.pts)
        m = e.T @ (t.w[:, None] * e)
        ng = ops.ng
        want = kappa * (d[:ng].T @ m @ d[:ng] + d[ng:].T @ m @ d[ng:])
        got, st_ko = ops.stiffness_ko(cid, i, kappa)
        assert st_ko.keys == st.keys == [("c", cid, i)]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (cid, i)


def test_plain_gradient_matrix():
    cm = build_cut_mesh(build_mesh(0), Line((0.7 + 5e-10, 0.0)), theta=0.3, r=2)
    k = 2
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    cid, i = cm.ko_sides()[0]
    # p = y maps to the constant gradient (0, 1)
    x = interpolate_polynomial(cm, k, {(0, 1): 1.0})
    d, st = ops.gradient_plain(cid, i)
    got = d @ x[layout.stencil_indices(st)]
    want = np.zeros(2 * ops.ng)
    want[ops.ng] = 1.0
    assert np.allclose(got, want, atol=1e-12)


# -- lifting -----------------------------------------------------------

def test_lifting_zero_data():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 1)
    cid = cm.cut_cells()[0]
    l = ops.lifting_coefficients(cid, lambda pts: np.zeros(len(pts)))
    assert np.allclose(l, 0.0)


def test_lifting_uncut_without_pairing_is_zero():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 1)
    uncut_inside = [
        c.cid for c in cm.cells
        if c.kind == "uncut" and c.side == 1 and not cm.pairing.donors(c.cid, 1)
    ]
    l = ops.lifting_coefficients(uncut_inside[0], lambda pts: np.ones(len(pts)))
    assert np.allclose(l, 0.0)


def test_lifting_constant_hand_computed():
    # k=0, straight interface through one cell column, no pairing:
    # (l, q) |T1| = (1, q . n)_TG with n = (1,0), so l = (|TG|/|T1|, 0)
    m = build_mesh(0)
    cm = build_cut_mesh(m, Line((0.37, 0.0)), theta=0.0, r=3)
    ops = LocalOperators(cm, 0)
    cid = m.cell_id(3, 4)
    l = ops.lifting_coefficients(cid, lambda pts: np.ones(len(pts)))
    assert l[0] == pytest.approx(0.1 / 0.007, rel=1e-12)
    assert abs(l[1]) <= 1e-12


# -- stabilizations ------------------------------------------------------

def quadratic_form(mat, st, layout, x):
    loc = x[layout.stencil_indices(st)]
    return float(loc @ mat @ loc)


def stab_values_pointwise(cm, ops, layout, x, eta=20.0):
    """The three stabilization values evaluated through their residuals.

    Evaluating v.T S v through the assembled matrices has a ~1e-16
    cancellation floor; forming the projected differences and jumps first
    resolves the values down to their true near-zero size.
    """
    from scipy.linalg import solve

    h = cm.mesh.h
    s_circ = s_gamma = s_pair = 0.0
    for cid, i in cm.sides():
        coef = x[layout.indices(("c", cid, i))]
        basis = ops.cell_basis(cid, i)
        for fid, seg, _ in cm.subfaces(cid, i):
            fpts, fw = ops.face_quadrature(seg)
            chi = ops.face_basis(fid, i).eval(fpts)
            gram = chi.T @ (fw[:, None] * chi)
            proj = solve(gram, chi.T @ (fw * (basis.eval(fpts) @ coef)),
                         assume_a="pos")
            r = proj - x[layout.indices(("f", fid, i))]
            s_circ += (r @ gram @ r) / h
    for cid in cm.cut_cells():
        pts, w, _ = ops.interface_quadrature(cid)
        j = (ops.cell_basis(cid, 1).eval(pts) @ x[layout.indices(("c", cid, 1))]
             - ops.cell_basis(cid, 2).eval(pts) @ x[layout.indices(("c", cid, 2))])
        s_gamma += float(np.sum(w * j * j)) / h
    for cid, i in cm.ok_sides():
        for donor in cm.pairing.donors(cid, i):
            t = ops.volume_tables(cid, i)
            d = (ops.cell_basis(donor, i).eval(t.pts)
                 @ x[layout.indices(("c", donor, i))]
                 - t.ek1 @ x[layout.indices(("c", cid, i))])
            s_pair += eta / h**2 * float(np.sum(t.w * d * d))
    return s_circ, s_gamma, s_pair


def test_stabilizations_vanish_on_interpolates():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    k = 2
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    rng = np.random.default_rng(SEED)
    x = interpolate_polynomial(cm, k, random_poly(k + 1, rng))
    scale = float(np.max(np.abs(x))) ** 2
    s_circ, s_gamma, s_pair = stab_values_pointwise(cm, ops, layout, x)
    assert s_circ <= 1e-20 * scale
    assert s_gamma <= 1e-20 * scale
    assert s_pair <= 1e-20 * scale


def test_stab_circ_constant_cell_value():
    # v_T = 1, v_F = 0 on an uncut cell: value = kappa/h * perimeter
    m = build_mesh(0)
    cm = build_cut_mesh(m, Circle((5.0, 5.0), 0.1), theta=0.3, r=2)
    k = 0
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    x = np.zeros(layout.n_total)
    x[layout.indices(("c", 44, 2))[0]] = 1.0  # constant coefficient only
    s, st = ops.stab_circ(44, 2, 1.0)
    want = 0.4 / m.h
    assert quadratic_form(s, st, layout, x) == pytest.approx(want, rel=1e-12)
    assert quadratic_form(s, st, layout, np.zeros(layout.n_total)) == 0.0


def test_stab_circ_symmetric_psd():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 1)
    for cid, i in list(cm.sides())[::17]:
        s, _ = ops.stab_circ(cid, i, 2.0)
        assert np.allclose(s, s.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12 * max(np.abs(s).max(), 1)


def test_stab_gamma_values():
    m = build_mesh(0)
    cm = build_cut_mesh(m, Line((0.37, 0.0)), theta=0.0, r=3)
    k = 1
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    cid = m.cell_id(3, 5)
    s, st = ops.stab_gamma(cid, 1.0)

    rng = np.random.default_rng(SEED)

    # equal polynomials on both sides: pointwise jump residual is zero
    x = interpolate_polynomial(cm, k, random_poly(k + 1, rng))
    pts_g, w_g, _ = ops.interface_quadrature(cid)
    jump = (ops.cell_basis(cid, 1).eval(pts_g) @ x[layout.indices(("c", cid, 1))]
            - ops.cell_basis(cid, 2).eval(pts_g) @ x[layout.indices(("c", cid, 2))])
    assert float(np.sum(w_g * jump * jump)) / m.h <= 1e-22

    # v1 = 1, v2 = 0: kappa1/h * |TG|
    x = np.zeros(layout.n_total)
    x[layout.indices(("c", cid, 1))[0]] = 1.0
    assert quadratic_form(s, st, layout, x) == pytest.approx(0.1 / m.h, rel=1e-12)

    # random dofs against an independent dense quadrature of the jump
    x = rng.uniform(-1, 1, layout.n_total)
    got = quadratic_form(s, st, layout, x)
    t = np.linspace(0.5, 0.6, 20001)  # the cell spans y in [0.5, 0.6]
    pts = np.column_stack([np.full_like(t, 0.37), t])
    b1 = ops.cell_basis(cid, 1).eval(pts) @ x[layout.indices(("c", cid, 1))]
    b2 = ops.cell_basis(cid, 2).eval(pts) @ x[layout.indices(("c", cid, 2))]
    f = (b1 - b2) ** 2
    want = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t))) / m.h
    assert got == pytest.approx(want, rel=1e-7)


def test_stab_pairing_values():
    m = build_mesh(0)
    delta = 1e-3
    cm = build_cut_mesh(m, Line((0.7 + delta, 0.0)), theta=0.3, r=2)
    k = 1
    eta = 20.0
    ops = LocalOperators(cm, k)
    layout = DofLayout.build(cm, k)
    s_cid, i = cm.ko_sides()[0]
    t_cid = cm.pairing.partner[s_cid]
    smat, st = ops.stab_pairing(t_cid, i, s_cid, 1.0, eta)

    # same global polynomial on both: extension residual vanishes pointwise
    rng = np.random.default_rng(SEED)
    x = interpolate_polynomial(cm, k, random_poly(k + 1, rng))
    tv = ops.volume_tables(t_cid, i)
    diff = (ops.cell_basis(s_cid, i).eval(tv.pts) @ x[layout.indices(("c", s_cid, i))]
            - tv.ek1 @ x[layout.indices(("c", t_cid, i))])
    assert eta / m.h**2 * float(np.sum(tv.w * diff * diff)) <= 1e-20

    # v_S = 1, v_T = 0: eta/h^2 * |T^i|
    x = np.zeros(layout.n_total)
    x[layout.indices(("c", s_cid, i))[0]] = 1.0
    area_t = cm.cells[t_cid].area[i]
    want = eta / m.h**2 * area_t
    assert quadratic_form(smat, st, layout, x) == pytest.approx(want, rel=1e-12)


# -- data terms ----------------------------------------------------------

def test_load_zero_data_is_zero():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 1)
    cid = cm.cut_cells()[0]
    zero = lambda i, pts: np.zeros(len(pts))
    assert np.allclose(ops.load_volume(cid, 1, zero), 0.0)
    r1, r2 = ops.load_interface(cid, 1.0, None, None)
    assert np.allclose(r1, 0.0) and np.allclose(r2, 0.0)


def test_load_constant_source_k0():
    m = build_mesh(0)
    cm = build_cut_mesh(m, Circle((5.0, 5.0), 0.1), theta=0.3, r=2)
    ops = LocalOperators(cm, 0)
    one = lambda i, pts: np.ones(len(pts))
    load = ops.load_volume(7, 2, one)
    assert load[0] == pytest.approx(m.cell_size**2, rel=1e-14)


def test_neumann_data_only_touches_side2():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    ops = LocalOperators(cm, 1)
    cid = cm.cut_cells()[0]
    g_n = lambda pts, normals: np.ones(len(pts))
    r1, r2 = ops.load_interface(cid, 1.0, None, g_n)
    assert np.allclose(r1, 0.0)
    assert not np.allclose(r2, 0.0)


# -- fitted-HHO equivalence on uncut cells --------------------------------

def fitted_reconstruction(mesh, cid, k):
    """Mixed-order HHO gradient of one uncut cell, built independently."""
    x0, y0, x1, y1 = mesh.cell_box(cid)
    h = mesh.h
    center = ((x0 + x1) / 2, (y0 + y1) / 2)
    exps1 = [(d - b, b) for d in range(k + 2) for b in range(d + 1)]
    exps = [(d - b, b) for d in range(k + 1) for b in range(d + 1)]
    nc, ng = len(exps1), len(exps)

    def ev(pts, ee):
        xi = (pts[:, 0] - center[0]) / (h / 2)
        eta = (pts[:, 1] - center[1]) / (h / 2)
        return np.column_stack([xi**a * eta**b for a, b in ee])

    def gr(pts, ee, comp):
        xi = (pts[:, 0] - center[0]) / (h / 2)
        eta = (pts[:, 1] - center[1]) / (h / 2)
        cols = []
        for a, b in ee:
            if comp == 0:
                cols.append(a * xi ** max(a - 1, 0) * eta**b / (h / 2))
            else:
                cols.append(b * xi**a * eta ** max(b - 1, 0) / (h / 2))
        return np.column_stack(cols)

    gl_x, gl_w = np.polynomial.legendre.leggauss(k + 3)
    xs = (x0 + x1) / 2 + (x1 - x0) / 2 * gl_x
    ys = (y0 + y1) / 2 + (y1 - y0) / 2 * gl_x
    wx = (x1 - x0) / 2 * gl_w
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    qp = np.column_stack([X.ravel(), Y.ravel()])
    qw = np.outer(wx, wx).ravel()

    m = ev(qp, exps).T @ (qw[:, None] * ev(qp, exps))
    b_mat = np.zeros((2 * ng, nc + 4 * (k + 1)))
    for comp in (0, 1):
        rows = slice(comp * ng, (comp + 1) * ng)
        b_mat[rows, :nc] += ev(qp, exps).T @ (qw[:, None] * gr(qp, exps1, comp))
    for jf, fid in enumerate(mesh.cell_faces(cid)):
        ends = mesh.face_endpoints(fid)
        nrm = mesh.outward_normal(cid, fid)
        fpts = (ends[0] + ends[1]) / 2 + 0.5 * np.outer(gl_x, ends[1] - ends[0])
        flen = np.linalg.norm(ends[1] - ends[0])
        fw = 0.5 * flen * gl_w
        mid = (ends[0] + ends[1]) / 2
        tang = (ends[1] - ends[0]) / flen
        tpar = ((fpts - mid) @ tang) / (flen / 2)
        chi = np.column_stack([tpar**j for j in range(k + 1)])
        cols = slice(nc + jf * (k + 1), nc + (jf + 1) * (k + 1))
        for comp in (0, 1):
            rows = slice(comp * ng, (comp + 1) * ng)
            wn = fw * nrm[comp]
            b_mat[rows, cols] += ev(fpts, exps).T @ (wn[:, None] * chi)
            b_mat[rows, :nc] -= ev(fpts, exps).T @ (wn[:, None] * ev(fpts, exps1))
    ghat = np.vstack([np.linalg.solve(m, b_mat[:ng]), np.linalg.solve(m, b_mat[ng:])])
    return ghat


def face_to_monomials(mesh, ops, fid, k):
    """F with chi = mono F on face fid: maps coefficients in the face basis
    of side 2 to those in the oracle's monomials of the arc-length
    parameter t in [-1, 1], read at k+1 Gauss points of t."""
    ends = mesh.face_endpoints(fid)
    t = np.polynomial.legendre.leggauss(k + 1)[0]
    pts = (ends[0] + ends[1]) / 2 + 0.5 * np.outer(t, ends[1] - ends[0])
    return np.linalg.solve(t[:, None] ** np.arange(k + 1), ops.face_basis(fid, 2).eval(pts))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reconstruction_matches_fitted_hho_on_uncut_cell(k):
    mesh = build_mesh(0)
    cm = build_cut_mesh(mesh, Circle((5.0, 5.0), 0.1), theta=0.3, r=2)
    ops = LocalOperators(cm, k)
    cid = mesh.cell_id(4, 6)
    ghat, _, st = ops.gradient_reconstruction(cid, 2)
    basis = ops.cell_basis(cid, 2)
    transform = basis.lower(k).transform  # rows to the oracle's monomials
    ng = ops.ng
    ghat = np.vstack([transform @ ghat[:ng], transform @ ghat[ng:]])
    # columns: stencil dofs in the oracle's cell and face monomials
    to_mono = block_diag(basis.transform, *[face_to_monomials(mesh, ops, fid, k)
                                            for fid in mesh.cell_faces(cid)])
    oracle = fitted_reconstruction(mesh, cid, k) @ to_mono
    assert st.keys[0] == ("c", cid, 2)
    assert ghat.shape == oracle.shape
    assert np.max(np.abs(ghat - oracle)) <= 1e-10 * max(1.0, np.abs(oracle).max())
