import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cuthho import assembly, study
from cuthho.cases import (
    RADIUS,
    available_cases,
    make_case,
    polynomial_case,
    verify_case,
)
from cuthho.cli import main
from cuthho.errors import ConfigError, GeometryError, NumericalError
from cuthho.geometry import ILL_CUT, WELL_CUT, build_cut_mesh
from cuthho.levelset import Circle, Square, interface_clear_of_boundary
from cuthho.mesh import build_mesh
from cuthho.study import (
    CSV_COLUMNS,
    conditioning_study,
    convergence_study,
    records_to_csv,
    solve_single,
    theta_study,
)
from cuthho.viz import dump_cuts

RNG = np.random.default_rng(5)


def test_registry_names():
    names = available_cases()
    for required in ("sinsin", "contrast", "jump-neumann", "jump-dirichlet",
                     "jump-mixed", "patch-3"):
        assert required in names


def test_unknown_case():
    with pytest.raises(ConfigError, match="unknown case"):
        make_case("nope")


@pytest.mark.parametrize("name", ["sinsin", "contrast", "jump-neumann",
                                  "jump-dirichlet", "jump-mixed", "patch-2"])
def test_case_self_consistency(name):
    verify_case(make_case(name))


def test_sinsin_source_value():
    case = make_case("sinsin")
    pts = np.array([[0.3, 0.7]])
    want = 2 * np.pi**2 * np.sin(0.3 * np.pi) * np.sin(0.7 * np.pi)
    assert case.f(1, pts)[0] == pytest.approx(want, rel=1e-14)
    assert case.g_D is None and case.g_N is None


def test_radial_source_value():
    case = make_case("contrast", kappa2=100.0)
    pts = RNG.uniform(0.2, 0.8, size=(10, 2))
    rho = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
    for i in (1, 2):
        assert np.allclose(case.f(i, pts), -36.0 * rho**4, rtol=1e-13)


def test_flux_jump_value():
    # constant flux jump 2 R^5 (3 - 4 R^2) for the neumann-jump case
    case = make_case("jump-neumann", kappa2=1e4)
    pts = np.array([[0.5 + RADIUS, 0.5]])
    nrm = np.array([[1.0, 0.0]])
    want = 2 * RADIUS**5 * (3 - 4 * RADIUS**2)
    assert case.g_N(pts, nrm)[0] == pytest.approx(want, rel=1e-14)
    assert case.g_D is None


def test_value_jump():
    case = make_case("jump-dirichlet", kappa2=1e4)
    pts = np.array([[0.5, 0.5 + RADIUS]])
    want = RADIUS**6 * (1.0 - 1e-4)
    assert case.g_D(pts)[0] == pytest.approx(want, rel=1e-14)
    assert case.g_N is None


def test_kappa_ordering_in_registry():
    with pytest.raises(ConfigError):
        make_case("contrast", kappa2=0.5)


@pytest.mark.parametrize("name", ["patch-9", "patch--1"])
def test_patch_degree_outside_0_to_3_rejected(name):
    with pytest.raises(ConfigError, match="polynomial degree k must be in 0..3"):
        make_case(name)


def test_interface_clear_of_boundary():
    assert interface_clear_of_boundary(Circle((0.5, 0.5), 1 / 3))
    assert not interface_clear_of_boundary(Circle((0.5, 0.5), 0.6))


def test_inconsistent_case_rejected():
    case = make_case("sinsin")
    broken = type(case)(
        name="broken", levelset=case.levelset, kappa=case.kappa, u=case.u,
        grad_u=case.grad_u, f=lambda i, pts: np.zeros(len(pts)),
    )
    with pytest.raises(ConfigError, match="residual"):
        verify_case(broken)


# -- study runners -------------------------------------------------------

def test_convergence_rate_k1():
    recs = convergence_study("sinsin", [1], [0, 1], theta=0.3)
    assert recs[0].rate is None
    assert recs[1].rate == pytest.approx(2.0, abs=0.45)
    assert recs[1].energy_error < recs[0].energy_error


def test_csv_schema_and_determinism():
    recs1 = convergence_study("sinsin", [0], [0, 1], theta=0.3)
    recs2 = convergence_study("sinsin", [0], [0, 1], theta=0.3)
    csv1 = records_to_csv(recs1).splitlines()
    csv2 = records_to_csv(recs2).splitlines()
    assert csv1[0] == ",".join(CSV_COLUMNS)
    assert (
        csv1[0]
        == "case,k,level,r,theta,eta,kappa2,ndofs,energy_error,rate,cond,wall_time_s"
    )

    def strip_wall(lines):
        return [",".join(l.split(",")[:-1]) for l in lines]

    assert strip_wall(csv1) == strip_wall(csv2)


def test_empty_fields_for_non_applicable_columns():
    recs = conditioning_study("square", [2], [0], level=0, r=4)
    line = records_to_csv(recs).splitlines()[1]
    fields = dict(zip(CSV_COLUMNS, line.split(",")))
    assert fields["energy_error"] == ""
    assert fields["rate"] == ""
    assert float(fields["cond"]) > 1.0


def test_conditioning_circle_radius_sweep():
    recs = conditioning_study("circle", [-1, 0], [0], level=0, r=4)
    assert len(recs) == 2
    assert all(r.cond and r.cond > 1 for r in recs)
    assert recs[0].case == "circle[i=-1]"


def test_conditioning_builds_one_cut_mesh_per_sweep_point(monkeypatch):
    built = []

    def counting_build(*args, **kwargs):
        built.append(args[1])
        return build_cut_mesh(*args, **kwargs)

    monkeypatch.setattr(study, "build_cut_mesh", counting_build)
    recs = conditioning_study("circle", [-1, 0], [0, 1], level=0, r=4)
    assert len(built) == 2
    monkeypatch.undo()
    one_k = [rec for i in (-1, 0) for k in (0, 1)
             for rec in conditioning_study("circle", [i], [k], level=0, r=4)]
    assert [dataclasses.replace(rec, wall_time_s=0.0) for rec in recs] == [
        dataclasses.replace(rec, wall_time_s=0.0) for rec in one_k]


def test_repeated_study_inputs_are_solved_once(monkeypatch):
    # as convergence_study does with a repeated k or level
    solved = []
    original = assembly.assemble

    def counting(cm, k, *args, **kwargs):
        solved.append(k)
        return original(cm, k, *args, **kwargs)

    monkeypatch.setattr(assembly, "assemble", counting)
    recs = conditioning_study("square", [2, 2], [0, 0], level=0, r=4)
    assert len(solved) == 1 and [(rec.case, rec.k) for rec in recs] == [("square[p=2]", 0)]
    solved.clear()
    recs = study.theta_study("sinsin", [0.3, 0.3], 0, [0], r=4)
    assert len(solved) == 1 and [rec.theta for rec in recs] == [0.3]
    solved.clear()
    recs = conditioning_study("circle", [0, -1, 0], [1, 0, 1], level=0, r=4)
    assert len(solved) == 4
    assert [(rec.case, rec.k) for rec in recs] == [
        ("circle[i=0]", 0), ("circle[i=0]", 1), ("circle[i=-1]", 0), ("circle[i=-1]", 1)]


@pytest.mark.parametrize("x0", [0.37, 0.3 + 1e-9, 0.615, 0.72])
def test_patch_test_on_several_vertical_lines(x0):
    # a global P^{k+1} across a vertical line, near a vertex (x0 = 0.3 +
    # 1e-9) or not, is reproduced on every face term of the method
    worst = 0.0
    for level in (0, 1):
        for k in range(4):
            rec, _, _ = solve_single(polynomial_case(k, x0), k, level, r=4, theta=0.3,
                                     check_case=False)
            worst = max(worst, rec.energy_error)
    assert worst <= 1e-9


def test_patch_line_on_a_face_is_rejected_naming_it():
    with pytest.raises(GeometryError, match=r"face 11\b"):
        solve_single(polynomial_case(1, 0.55), 1, 1, r=4, theta=0.3, check_case=False)


def test_convergence_builds_one_cut_mesh_per_level(monkeypatch):
    built = []

    def counting_build(*args, **kwargs):
        built.append(args[0].level)
        return build_cut_mesh(*args, **kwargs)

    def quick_solve(cm, case, k, level, r, theta, eta, want_cond, t0):
        rec = study.RunRecord(case.name, k, level, r, theta, eta, case.kappa[1],
                              cm.mesh.n_cells, 2.0 ** -level)
        return rec, None, None

    monkeypatch.setattr(study, "build_cut_mesh", counting_build)
    with monkeypatch.context() as m:  # the count alone: no solves
        m.setattr(study, "_solve_on", quick_solve)
        convergence_study("patch-0", [0, 1, 2, 3], [0, 1, 2, 3], r=2)
    assert built == [0, 1, 2, 3]
    built.clear()
    recs = convergence_study("patch-0", [0, 1, 2, 3], [0, 1], r=2)
    assert built == [0, 1]
    monkeypatch.undo()
    per_k = [rec for k in range(4) for rec in convergence_study("patch-0", [k], [0, 1], r=2)]
    assert [dataclasses.replace(rec, wall_time_s=0.0) for rec in recs] == [
        dataclasses.replace(rec, wall_time_s=0.0) for rec in per_k]


def test_convergence_rate_is_per_halving_across_a_level_gap(monkeypatch):
    # errors 4^-level: two halvings from level 0 to 2 are rate 2, not 4
    def quick_solve(cm, case, k, level, r, theta, eta, want_cond, t0):
        rec = study.RunRecord(case.name, k, level, r, theta, eta, case.kappa[1],
                              1, 4.0 ** -level)
        return rec, None, None

    built = []
    monkeypatch.setattr(study, "build_cut_mesh", lambda mesh, *a, **kw: built.append(mesh.level))
    monkeypatch.setattr(study, "_solve_on", quick_solve)
    recs = convergence_study("patch-0", [1], [2, 0, 2], r=2)
    assert built == [0, 2]  # a repeated level is solved once
    assert [(rec.level, rec.rate) for rec in recs] == [(0, None), (2, 2.0)]
    assert [rec.rate for rec in convergence_study("patch-0", [1], [0, 0], r=2)] == [None]


def test_cut_cell_solve_does_not_import_scipy_optimize():
    # scipy.optimize alone adds ~17 MiB of resident memory and ~0.1 s to
    # the import; the weights of the compressed cut-cell rules come from
    # the package's own NNLS, so neither the import nor a solve loads it
    code = ("import sys\n"
            "import cuthho\n"
            "assert 'scipy.optimize' not in sys.modules, 'import cuthho imported scipy.optimize'\n"
            "from cuthho import cases, study\n"
            "study.solve_single(cases.make_case('jump-mixed'), 3, 0)\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_conditioning_square_far_away_is_uncut():
    # a huge shift keeps the interface outside every cell
    from cuthho.geometry import build_cut_mesh
    from cuthho.levelset import Square
    from cuthho.mesh import build_mesh

    cm = build_cut_mesh(build_mesh(0), Square(delta=5.0), theta=0.3, r=2)
    assert not cm.cut_cells()


def test_solve_single_patch():
    case = polynomial_case(1)
    rec, system, x = solve_single(case, 1, 0, theta=0.3)
    assert rec.energy_error <= 1e-10
    assert rec.ndofs == int(system.free.sum())


def test_errors_decrease_with_level():
    recs = convergence_study("sinsin", [0, 1], [0, 1], theta=0.3)
    by_k = {}
    for r in recs:
        by_k.setdefault(r.k, []).append(r.energy_error)
    for k, errs in by_k.items():
        assert errs[1] < errs[0]


# -- CLI -----------------------------------------------------------------

def test_cli_solve_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--case", "patch-0", "--k", "0", "--level", "0",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("case,k,level")
    assert lines[1].startswith("patch-0,0,0,")


def test_cli_dumps_and_matrix_export(tmp_path):
    svg = tmp_path / "cuts.svg"
    csvd = tmp_path / "cuts.csv"
    mtx = tmp_path / "mat.mtx"
    code = main([
        "solve", "--case", "sinsin", "--k", "0", "--level", "0",
        "--dump-cuts", str(svg), "--export-matrix", str(mtx),
        "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 0
    assert svg.read_text().startswith("<svg")
    code = main([
        "solve", "--case", "sinsin", "--k", "0", "--level", "0",
        "--dump-cuts", str(csvd), "--out", str(tmp_path / "o2.csv"),
    ])
    assert code == 0
    assert csvd.read_text().startswith("cell,kind")
    assert mtx.read_text().startswith("%%MatrixMarket")


@pytest.mark.parametrize("levelset,level", [(make_case("sinsin").levelset, 0),
                                             (Square(delta=0.5e-5), 1)])
def test_dump_cuts_csv_has_one_row_per_cell(levelset, level, tmp_path):
    # each row is the cell's kind, side (none for a well-cut cell), partner
    # and polyline; sinsin has ill-cut cells on both sides, the square
    # front on side 1
    cm = build_cut_mesh(build_mesh(level), levelset, theta=0.3, r=4)
    assert cm.pairing.partner
    path = tmp_path / "cuts.csv"
    dump_cuts(cm, str(path))
    header, *rows = path.read_text().splitlines()
    assert header == "cell,kind,side,partner,polyline"
    assert len(rows) == cm.mesh.n_cells
    for cid, row in enumerate(rows):
        cell, kind, side, partner, poly = row.split(",")
        assert (int(cell), kind) == (cid, cm.cells.kind[cid])
        assert side == ("" if kind == WELL_CUT else str(cm.cells.side[cid]))
        assert partner == str(cm.pairing.partner.get(cid, ""))
        if cm.is_cut(cid):
            pts = np.array([p.split(":") for p in poly.split(";")], dtype=float)
            assert np.allclose(pts, cm.cells.polyline[cid], rtol=1e-15, atol=0.0)
        else:
            assert poly == ""
    ill = {int(row.split(",")[2]) for row in rows if row.split(",")[1] == ILL_CUT}
    assert ill == ({1} if level else {1, 2})


@pytest.mark.parametrize("name", ["cuts.png", "cuts", "cuts.svg.txt"])
def test_dump_cuts_rejects_other_suffixes_and_writes_nothing(name, tmp_path):
    cm = build_cut_mesh(build_mesh(0), Circle((0.5, 0.5), 1.0 / 3.0), theta=0.3, r=2)
    with pytest.raises(ConfigError, match="must end in .svg or .csv"):
        dump_cuts(cm, str(tmp_path / name))
    assert list(tmp_path.iterdir()) == []


def test_cli_exit_code_numerical_failure(capsys):
    # theta close to 1 makes central cuts fail on both sides
    code = main(["solve", "--case", "sinsin", "--k", "0", "--level", "0",
                 "--theta", "0.95"])
    assert code == 3
    assert "both sides ill-cut" in capsys.readouterr().err


def test_cli_exit_code_bad_config():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "not-a-case", "--k", "0", "--level", "0"])
    assert exc.value.code == 2


def test_cli_study_conditioning(tmp_path):
    out = tmp_path / "cond.csv"
    code = main([
        "study", "conditioning", "--interface", "square", "--sweep", "2,3",
        "--k", "0", "--level", "0", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_cli_study_conditioning_failure_names_the_sweep_point(tmp_path, capsys):
    # at level 1 the square front with p = 8 leaves cell 315 an empty sub-cell
    out = tmp_path / "cond.csv"
    code = main(["study", "conditioning", "--interface", "square", "--sweep", "7..9",
                 "--k", "1", "--level", "1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == ("error: square[p=8] level=1 r=8 theta=0.3: "
                                       "cell 315: degenerate triangle: empty sub-cell\n")
    assert not out.exists()


def test_conditioning_failure_in_one_degree_names_k(monkeypatch):
    def failing(system):
        raise NumericalError("Lanczos did not converge")

    monkeypatch.setattr(assembly, "condition_number", failing)
    with pytest.raises(NumericalError, match=r"^circle\[i=0\] level=0 r=4 theta=0.3 k=1: "
                       r"Lanczos did not converge$"):
        conditioning_study("circle", [0], [1, 2], level=0, r=4)


def test_convergence_failure_warning_names_theta_and_r(capsys):
    # theta close to 1 makes central cuts fail on both sides
    assert theta_study("sinsin", [0.95], 0, [0], r=3) == []
    assert capsys.readouterr().err.startswith(
        "warning: sinsin k=0 level=0 r=3 theta=0.95 failed: cell ")


def test_cli_study_theta(tmp_path):
    out = tmp_path / "theta.csv"
    code = main([
        "study", "theta", "--case", "sinsin", "--theta", "0,0.3", "--k", "0",
        "--levels", "0", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["study", "convergence", "--case", "sinsin", "--k", "5", "--levels", "0"],
    ["study", "convergence", "--case", "sinsin", "--k", "1", "--levels", "11"],
    ["study", "theta", "--case", "sinsin", "--theta", "0.3", "--k", "5", "--levels", "0"],
    ["study", "conditioning", "--interface", "circle", "--sweep", "0", "--k", "-1"],
    ["study", "conditioning", "--interface", "circle", "--sweep", "0", "--k", "4"],
])
def test_cli_study_exit_code_bad_config(argv, tmp_path, capsys):
    # a configuration error ends a study, rather than leaving a partial report
    out = tmp_path / "study.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["study", "convergence", "--case", "sinsin", "--levels", "3..1"],
    ["study", "conditioning", "--interface", "square", "--sweep", "9..2"],
    ["study", "theta", "--case", "sinsin", "--theta", ""],
    ["study", "convergence", "--case", "sinsin", "--k", ","],
])
def test_cli_rejects_empty_or_reversed_lists(argv, tmp_path, capsys):
    # argparse rejects the list, so no study runs and no header-only CSV is written
    out = tmp_path / "study.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "(empty list or reversed range)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--r", "-1"],
     "interface subdivision exponent r must be >= 0"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--eta", "-1"],
     "extension weight eta must be positive and finite"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--eta", "nan"],
     "extension weight eta must be positive and finite"),
    (["study", "convergence", "--case", "sinsin", "--levels", "0", "--eta", "0"],
     "extension weight eta must be positive and finite"),
    (["study", "conditioning", "--interface", "circle", "--sweep", "0", "--r", "-2"],
     "interface subdivision exponent r must be >= 0"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--theta", "nan"],
     "flagging parameter theta must be finite and >= 0"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--theta", "-1"],
     "flagging parameter theta must be finite and >= 0"),
    (["study", "theta", "--theta", "0.3,inf", "--levels", "0"],
     "flagging parameter theta must be finite and >= 0"),
    (["study", "conditioning", "--interface", "square", "--sweep", "2", "--theta", "-0.1"],
     "flagging parameter theta must be finite and >= 0"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--kappa2", "inf"],
     "kappa2 must be finite and >= kappa1 = 1"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0", "--kappa2", "nan"],
     "kappa2 must be finite and >= kappa1 = 1"),
    (["study", "convergence", "--case", "contrast", "--levels", "0", "--kappa2", "0.5"],
     "kappa2 must be finite and >= kappa1 = 1"),
    *[(["study", "conditioning", "--interface", "square", "--sweep", "2", "--kappa2", kappa2],
       "kappa2 must be finite and >= kappa1 = 1") for kappa2 in ("inf", "nan", "0.5")],
    (["study", "convergence", "--case", "sinsin", "--k", "1", "--levels", "0,1,11"],
     "mesh level must be in 0..10, got 11"),
    (["study", "theta", "--levels", "0,11"], "mesh level must be in 0..10, got 11"),
    (["study", "conditioning", "--interface", "circle", "--sweep", "6"],
     "circle[i=6]: the circle of radius 0.521 must lie inside the unit square"),
    (["study", "conditioning", "--interface", "circle", "--sweep", "-11"],
     "circle[i=-11]: the circle of radius -0.010 must lie inside the unit square"),
    (["solve", "--case", "sinsin", "--k", "1", "--level", "1",
      "--out", "{tmp}/missing/x.csv"], "no directory for output path"),
    *[(["study", "conditioning", "--interface", "square", f"--sweep={p}"],
       f"square[p={p}]: the exponent p must be an integer >= 1") for p in (-400, 0)],
    (["solve", "--case", "sinsin", "--k", "1", "--level", "0",
      "--dump-cuts", "{tmp}/cuts.png"], "a cut dump path must end in .svg or .csv"),
])
def test_cli_bad_r_or_eta_rejected_before_geometry(argv, message, monkeypatch, capsys,
                                                    tmp_path):
    def no_geometry(*args, **kwargs):
        raise AssertionError("cut mesh built before r and eta were checked")

    monkeypatch.setattr(study, "build_cut_mesh", no_geometry)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--case", "sinsin", "--k", "5", "--level", "3"],
    ["study", "conditioning", "--interface", "square", "--sweep", "2", "--k", "4"],
])
def test_cli_bad_degree_rejected_before_geometry(argv, monkeypatch, capsys):
    def no_geometry(*args, **kwargs):
        raise AssertionError("cut mesh built before the degree check")

    monkeypatch.setattr(study, "build_cut_mesh", no_geometry)
    assert main(argv) == 2
    assert "polynomial degree k must be in 0..3" in capsys.readouterr().err


@pytest.mark.parametrize("run,args,kwargs,message", [
    (solve_single, (make_case("sinsin"), 1, 1.5), {}, "mesh level must be an integer, got 1.5"),
    (solve_single, (make_case("sinsin"), 1.5, 0), {},
     "polynomial degree k must be an integer, got 1.5"),
    (solve_single, (make_case("sinsin"), 1, 0), {"r": 2.5},
     "interface subdivision exponent r must be an integer, got 2.5"),
    (convergence_study, ("sinsin", [1.0], [0]), {},
     "polynomial degree k must be an integer, got 1.0"),
    (conditioning_study, ("circle", [0], [1]), {"level": 0.5},
     "mesh level must be an integer, got 0.5"),
    (study.theta_study, ("sinsin", [0.3], 1, [0]), {"r": 4.0},
     "interface subdivision exponent r must be an integer, got 4.0"),
], ids=["solve-level", "solve-k", "solve-r", "convergence-k", "conditioning-level", "theta-r"])
def test_api_non_integer_k_level_or_r_rejected_before_geometry(run, args, kwargs, message,
                                                                monkeypatch):
    def no_geometry(*args, **kwargs):
        raise AssertionError("cut mesh built before k, level and r were checked")

    monkeypatch.setattr(study, "build_cut_mesh", no_geometry)
    with pytest.raises(ConfigError) as exc:
        run(*args, **kwargs)
    assert message in str(exc.value)
