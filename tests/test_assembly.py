import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from cuthho import assembly, cli
from cuthho.assembly import (
    DofLayout,
    assemble,
    condense,
    condition_number,
    energy_error,
    interpolate_polynomial,
    pairing_groups,
    solve,
    solve_full,
)
from cuthho.cases import make_case, polynomial_case
from cuthho.errors import ConfigError, NumericalError
from cuthho.geometry import build_cut_mesh
from cuthho.levelset import Circle, Line, Square
from cuthho.local import LocalOperators
from cuthho.mesh import build_mesh
from cuthho.study import conditioning_study

CIRCLE = Circle((0.5, 0.5), 1.0 / 3.0)
FAR_CIRCLE = Circle((5.0, 5.0), 0.1)  # leaves the whole mesh uncut on side 2
RNG = np.random.default_rng(11)


def circle_system(k=1, level=0, theta=0.3, case=None, kappa=(1.0, 1.0)):
    cm = build_cut_mesh(build_mesh(level), CIRCLE, theta=theta, r=4)
    return assemble(cm, k, kappa=kappa, case=case)


def test_matrix_symmetry():
    system = circle_system(k=2)
    diff = (system.A - system.A.T).tocoo()
    scale = np.abs(system.A.data).max()
    assert np.all(np.abs(diff.data) <= 1e-12 * scale) if diff.nnz else True


def test_kappa_ordering_enforced():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    with pytest.raises(ConfigError):
        assemble(cm, 1, kappa=(10.0, 1.0))


def test_spd_after_dirichlet_elimination():
    system = circle_system(k=1)
    a_red, _ = system.reduced()
    ev = np.linalg.eigvalsh(a_red.toarray())
    assert ev[0] > 0
    for _ in range(20):
        v = RNG.standard_normal(a_red.shape[0])
        assert v @ (a_red @ v) > 0


def test_zero_rhs_gives_zero_solution():
    system = circle_system(k=1)  # case=None -> b = 0
    x = solve(system, condensed=False)
    assert np.allclose(x, 0.0)
    x = solve(system, condensed=True)
    assert np.allclose(x, 0.0)


def test_condensed_matches_full_solve():
    case = make_case("sinsin")
    system = circle_system(k=2, case=case)
    xf = solve_full(system)
    xc = condense(system).solve()
    assert np.linalg.norm(xc - xf) <= 1e-10 * np.linalg.norm(xf)


def test_residual_small():
    case = make_case("sinsin")
    system = circle_system(k=1, case=case)
    x = solve(system)
    a_red, b_red = system.reduced()
    res = np.linalg.norm(a_red @ x[system.free] - b_red) / np.linalg.norm(b_red)
    assert res <= 1e-10


def test_group_structure_circle():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    groups = pairing_groups(cm)
    by_cell = {}
    for g in groups:
        for cid in g:
            by_cell[cid] = g
    # every ill-cut cell shares its group with its partner
    for s, t in cm.pairing.partner.items():
        assert by_cell[s] is by_cell[t]
    # with no chained pairings each group is {T} with its donors
    for g in groups:
        if len(g) > 1:
            donors = set()
            heads = [c for c in g if cm.pairing.inverse.get(c)]
            for h in heads:
                donors.update(s for _, s in cm.pairing.inverse[h])
            assert set(g) == donors | set(heads)
            for h in heads:
                assert len(g) >= 1 + len(cm.pairing.inverse[h])


def test_cellcell_coupling_only_within_groups():
    cm = build_cut_mesh(build_mesh(0), CIRCLE, theta=0.3, r=4)
    k = 1
    system = assemble(cm, k, kappa=(1.0, 1.0))
    layout = system.layout
    groups = pairing_groups(cm)
    gid = {}
    for n, g in enumerate(groups):
        for cid in g:
            gid[cid] = n
    ncell = layout.n_cell_dofs
    acc = system.A[:ncell][:, :ncell].tocoo()
    # map dof -> cell via the layout's cell offsets
    owner = np.full(ncell, -1)
    for cid, i in zip(*np.nonzero(layout.cell_offset >= 0)):
        off = layout.cell_offset[cid, i]
        owner[off : off + layout.nc] = cid
    assert np.all(owner >= 0)
    nz = np.abs(acc.data) > 1e-14 * np.abs(acc.data).max()
    for r, c in zip(acc.row[nz], acc.col[nz]):
        assert gid[owner[r]] == gid[owner[c]]


def test_groups_merge_chained_pairings():
    # an ill-cut cell that is itself a partner chains two blocks together
    from dataclasses import dataclass

    from cuthho.geometry import PairingMap

    mesh = build_mesh(0)

    @dataclass
    class FakeCM:
        mesh: object
        pairing: PairingMap

    pairing = PairingMap({5: 6, 6: 17, 30: 31}, {})
    groups = pairing_groups(FakeCM(mesh, pairing))
    by_cell = {cid: tuple(g) for g in groups for cid in g}
    assert by_cell[5] == by_cell[6] == by_cell[17] == (5, 6, 17)
    assert by_cell[30] == (30, 31)
    assert by_cell[0] == (0,)
    assert sum(len(g) for g in groups) == mesh.n_cells


def test_dirichlet_mask_on_boundary_faces():
    system = circle_system(k=1)
    layout = system.layout
    cm = system.cm
    for fc in cm.faces:
        for i in fc.sides():
            idx = layout.indices(("f", fc.fid, i))
            if cm.mesh.is_boundary_face(fc.fid):
                assert np.all(layout.dirichlet[idx])
            else:
                assert not np.any(layout.dirichlet[idx])


def test_energy_error_zero_for_injected_interpolate():
    case = polynomial_case(2)
    cm = build_cut_mesh(build_mesh(0), case.levelset, theta=0.3, r=3)
    system = assemble(cm, 2, kappa=case.kappa, case=case)
    x = interpolate_polynomial(cm, 2, case.poly)
    assert energy_error(system, x, case) <= 1e-10


# -- sparse conditioning ---------------------------------------------------

def dense_condition(system):
    """Oracle: lambda_max / lambda_min from all eigenvalues of the reduced matrix."""
    ev = np.linalg.eigvalsh(system.reduced()[0].toarray())
    return float(ev[-1] / ev[0])


@pytest.mark.parametrize("levelset", [Square(delta=0.5 * 10.0 ** -p) for p in range(2, 10)]
                         + [Circle((0.5, 0.5), 1.0 / 3.0 + i / 32.0) for i in (-4, 0, 4)],
                         ids=[f"square-p{p}" for p in range(2, 10)]
                         + [f"circle-i{i}" for i in (-4, 0, 4)])
def test_condition_number_matches_dense_eigenvalues(levelset):
    cm = build_cut_mesh(build_mesh(0), levelset, theta=0.3, r=8)
    for k in range(4) if isinstance(levelset, Square) else [3]:
        system = assemble(cm, k)
        c = condition_number(system)
        ref = dense_condition(system)
        assert abs(c - ref) <= 1e-6 * ref, (k, c, ref)
        assert condition_number(system) == c  # fixed start vector: bit for bit


def test_condition_number_flat_in_small_cuts_at_level_1():
    # at level 1 the square front leaves 31 ill-cut cells and sub-faces down
    # to 5e-8 long; with the cell and face bases scaled to their sub-cells
    # and sub-faces, cond no longer grows as the cut shrinks.  p = 8, 9 leave
    # a corner piece the triangulation drops ("empty sub-cell")
    recs = conditioning_study("square", list(range(2, 8)), [0, 1, 2, 3], level=1,
                              theta=0.3, r=8)
    conds = {}
    for rec in recs:
        conds.setdefault(rec.k, []).append(rec.cond)
    assert sorted(conds) == [0, 1, 2, 3] and all(len(v) == 6 for v in conds.values())
    ratios = {k: max(v) / min(v) for k, v in conds.items()}
    assert all(r <= 10.0 for r in ratios.values()), ratios


@pytest.mark.parametrize("breakage", ["singular", "negative definite"])
def test_condition_number_fails_loudly(breakage):
    system = circle_system(k=1)
    a = system.A.tolil()
    if breakage == "singular":
        j = int(np.flatnonzero(system.free)[0])
        a[j, :] = 0.0
        a[:, j] = 0.0
    else:
        a = -a
    broken = dataclasses.replace(system, A=a.tocsr())
    with pytest.raises(NumericalError, match=f"n={int(system.free.sum())}"):
        condition_number(broken)


@pytest.mark.parametrize("where", ["plain cell", "largest pairing group"])
def test_condense_fails_loudly_on_a_singular_cell_block(where):
    system = circle_system(k=1)
    groups = pairing_groups(system.cm)
    if where == "plain cell":
        group = groups[0]
        assert group[0] in system.plain.cids
    else:
        group = max(groups, key=len)
        assert len(group) == 4
    j = system.layout.cell_offset[group[-1], 1:].max()  # a cell dof of the group
    a = system.A.tolil()
    a[j, :] = 0.0
    a[:, j] = 0.0
    message = f"singular cell block in group {group}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        condense(dataclasses.replace(system, A=a.tocsr()))


def test_condition_number_beyond_dense_size(tmp_path):
    # 32688 free dofs: a dense SVD would need an 8.5 GB matrix
    out = tmp_path / "cond.csv"
    assert cli.main(["solve", "--case", "sinsin", "--k", "0", "--level", "3",
                     "--cond", "--out", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert row["cond"]

    case = make_case("sinsin")
    cm = build_cut_mesh(build_mesh(3), case.levelset, theta=0.3, r=case.default_r)
    system = assemble(cm, 0, kappa=case.kappa)
    a_red, _ = system.reduced()
    assert a_red.shape[0] == int(row["ndofs"]) == 32688
    c = condition_number(system)
    assert c == float(row["cond"])  # the matrix does not depend on the data
    assert np.isfinite(c) and c >= 1.0
    # Rayleigh quotients lie in [lambda_min, lambda_max]: their spread bounds cond below
    rng = np.random.default_rng(5)
    quotients = [v @ (a_red @ v) / (v @ v)
                 for v in rng.standard_normal((8, a_red.shape[0]))]
    quotients += [a_red.diagonal().max(), a_red.diagonal().min()]  # unit vectors
    assert c >= max(quotients) / min(quotients)


# -- equality with a fitted mixed-order HHO assembly on an uncut mesh ----

def fitted_hho_dense(mesh, k, layout):
    """Independent fitted assembly; the interface misses every cell."""
    nd = layout.n_total
    a = np.zeros((nd, nd))
    h = mesh.h
    exps1 = [(d - b, b) for d in range(k + 2) for b in range(d + 1)]
    exps = [(d - b, b) for d in range(k + 1) for b in range(d + 1)]
    nc, ng, nf = len(exps1), len(exps), k + 1
    gl_x, gl_w = np.polynomial.legendre.leggauss(k + 3)

    for cid in range(mesh.n_cells):
        x0, y0, x1, y1 = mesh.cell_box(cid)
        center = ((x0 + x1) / 2, (y0 + y1) / 2)

        def ev(pts, ee, deriv=None):
            xi = (pts[:, 0] - center[0]) / (h / 2)
            eta = (pts[:, 1] - center[1]) / (h / 2)
            cols = []
            for aa, bb in ee:
                if deriv is None:
                    cols.append(xi**aa * eta**bb)
                elif deriv == 0:
                    cols.append(aa * xi ** max(aa - 1, 0) * eta**bb / (h / 2))
                else:
                    cols.append(bb * xi**aa * eta ** max(bb - 1, 0) / (h / 2))
            return np.column_stack(cols)

        xs = (x0 + x1) / 2 + (x1 - x0) / 2 * gl_x
        wx = (x1 - x0) / 2 * gl_w
        X, Y = np.meshgrid(xs, xs + (y0 - x0), indexing="ij")
        qp = np.column_stack([X.ravel(), Y.ravel()])
        qw = np.outer(wx, wx).ravel()

        m = ev(qp, exps).T @ (qw[:, None] * ev(qp, exps))
        width = nc + 4 * nf
        bmat = np.zeros((2 * ng, width))
        for comp in (0, 1):
            rows = slice(comp * ng, (comp + 1) * ng)
            bmat[rows, :nc] = ev(qp, exps).T @ (qw[:, None] * ev(qp, exps1, comp))

        idx = [layout.indices(("c", cid, 2))]
        stab = np.zeros((width, width))
        for jf, fid in enumerate(mesh.cell_faces(cid)):
            ends = mesh.face_endpoints(fid)
            nrm = mesh.outward_normal(cid, fid)
            flen = np.linalg.norm(ends[1] - ends[0])
            fpts = (ends[0] + ends[1]) / 2 + 0.5 * np.outer(gl_x, ends[1] - ends[0])
            fw = 0.5 * flen * gl_w
            tang = (ends[1] - ends[0]) / flen
            tpar = ((fpts - (ends[0] + ends[1]) / 2) @ tang) / (flen / 2)
            chi = np.column_stack([tpar**j for j in range(nf)])
            cols = slice(nc + jf * nf, nc + (jf + 1) * nf)
            for comp in (0, 1):
                rows = slice(comp * ng, (comp + 1) * ng)
                wn = fw * nrm[comp]
                bmat[rows, cols] += ev(fpts, exps).T @ (wn[:, None] * chi)
                bmat[rows, :nc] -= ev(fpts, exps).T @ (wn[:, None] * ev(fpts, exps1))
            gram = chi.T @ (fw[:, None] * chi)
            proj = np.linalg.solve(gram, chi.T @ (fw[:, None] * ev(fpts, exps1)))
            rmat = np.zeros((nf, width))
            rmat[:, :nc] = proj
            rmat[:, cols] -= np.eye(nf)
            stab += rmat.T @ gram @ rmat
            idx.append(layout.indices(("f", fid, 2)))
        ghat = np.vstack([np.linalg.solve(m, bmat[:ng]), np.linalg.solve(m, bmat[ng:])])
        a_loc = bmat[:ng].T @ ghat[:ng] + bmat[ng:].T @ ghat[ng:]
        a_loc += stab / h
        gidx = np.concatenate(idx)
        a[np.ix_(gidx, gidx)] += a_loc
    return a


def to_monomials(mesh, ops, layout, k):
    """M with x_oracle = M x: each cell block through its basis' transform,
    each face block through F with chi = mono F, read at k+1 Gauss points
    of the oracle's arc-length parameter t in [-1, 1]."""
    m = np.zeros((layout.n_total, layout.n_total))
    t = np.polynomial.legendre.leggauss(k + 1)[0]
    for cid in range(mesh.n_cells):
        idx = layout.indices(("c", cid, 2))
        m[np.ix_(idx, idx)] = ops.cell_basis(cid, 2).transform
    for fid in range(mesh.n_faces):
        ends = mesh.face_endpoints(fid)
        pts = (ends[0] + ends[1]) / 2 + 0.5 * np.outer(t, ends[1] - ends[0])
        idx = layout.indices(("f", fid, 2))
        m[np.ix_(idx, idx)] = np.linalg.solve(t[:, None] ** np.arange(k + 1),
                                              ops.face_basis(fid, 2).eval(pts))
    return m


@pytest.mark.parametrize("k", [0, 1])
def test_uncut_mesh_equals_fitted_hho(k):
    mesh = build_mesh(0)
    cm = build_cut_mesh(mesh, FAR_CIRCLE, theta=0.3, r=2)
    assert not cm.cut_cells()
    system = assemble(cm, k, kappa=(1.0, 1.0))
    m = to_monomials(mesh, system.ops, system.layout, k)
    oracle = m.T @ fitted_hho_dense(mesh, k, system.layout) @ m  # in the code's bases
    got = system.A.toarray()
    scale = np.abs(oracle).max()
    assert np.max(np.abs(got - oracle)) <= 1e-10 * scale


# -- reference path for plain sub-cells ------------------------------------

def per_cell_assembly(cm, k, case, eta=20.0):
    """Oracle: A and b with every sub-cell's terms taken one at a time."""
    ops, layout = LocalOperators(cm, k), DofLayout.build(cm, k)
    kap = {1: case.kappa[0], 2: case.kappa[1]}
    blocks, b = [], np.zeros(layout.n_total)
    for cid, i in cm.sides():
        cell = layout.indices(("c", cid, i))
        if cm.is_ko(cid, i):
            blocks.append(ops.stiffness_ko(cid, i, kap[i]))
        else:
            a, _, bmat, st = ops.stiffness_ok(cid, i, kap[i])
            blocks.append((a, st))
            donors = cm.pairing.donors(cid, i)
            if i == 1 and case.g_D is not None and (cm.cells[cid].is_cut or donors):
                lift = ops.lifting_coefficients(cid, case.g_D)
                b[layout.stencil_indices(st)] -= kap[1] * (bmat.T @ lift)
            blocks += [ops.stab_pairing(cid, i, s, kap[i], eta) for s in donors]
        blocks.append(ops.stab_circ(cid, i, kap[i]))
        b[cell] += ops.load_volume(cid, i, case.f)
        if i == 2 and cm.cells[cid].is_cut:
            blocks.append(ops.stab_gamma(cid, kap[1]))
            if case.g_D is not None or case.g_N is not None:
                r1, r2 = ops.load_interface(cid, kap[1], case.g_D, case.g_N)
                b[layout.indices(("c", cid, 1))] += r1
                b[cell] += r2
    a_mat = sp.csr_matrix((layout.n_total, layout.n_total))
    for a, st in blocks:
        idx = layout.stencil_indices(st)
        a_mat += sp.coo_matrix((a.ravel(), (np.repeat(idx, len(idx)), np.tile(idx, len(idx)))),
                               shape=a_mat.shape)
    return a_mat, b


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name,level,kappa2", [("sinsin", 1, None), ("jump-mixed", 0, 10.0)])
def test_reference_path_matches_per_cell_assembly(name, level, kappa2, k):
    case = make_case(name, kappa2=kappa2)  # jump-mixed: g_D, g_N and kappa1 != kappa2
    cm = build_cut_mesh(build_mesh(level), case.levelset, theta=0.3, r=4)
    system = assemble(cm, k, kappa=case.kappa, case=case)
    plain = system.plain
    assert set(plain.sides) == {1, 2}
    assert system.layout.dirichlet[plain.face_dofs].any()  # boundary cells are plain
    a_ref, b_ref = per_cell_assembly(cm, k, case)
    assert abs(system.A - a_ref).max() <= 1e-12 * abs(a_ref).max()
    assert np.abs(system.b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()

    # compared in the energy norm: at k=3, cond(A) ~ 1e10 lets two stable
    # solvers differ by ~1e-9 in the Euclidean norm, per-group path included
    x = condense(system).solve()
    x_full = solve_full(system)
    d = x - x_full
    assert d @ (system.A @ d) <= 1e-20 * (x_full @ (system.A @ x_full))

    total = 0.0
    for cid, i in cm.sides():
        t = system.ops.volume_tables(cid, i)
        coef = x[system.layout.indices(("c", cid, i))]
        diff = np.einsum("pcd,c->pd", t.dek1, coef) - case.grad_u(i, t.pts)
        total += case.kappa[i - 1] * float(t.w @ np.sum(diff * diff, axis=1))
    assert abs(energy_error(system, x, case) - np.sqrt(total)) <= 1e-12 * np.sqrt(total)
