"""Command-line interface.

Subcommands:

* ``solve``               one case on one mesh, CSV row to stdout or file
* ``study convergence``   level sweep with observed rates
* ``study conditioning``  condition-number sweep (circle radius / square shift)
* ``study theta``         convergence for several flagging parameters

Exit codes: 0 on success, 2 for invalid configuration, 3 for geometric or
numerical failures (the error message goes to stderr).  Invalid input,
an output path in a missing directory and a ``--dump-cuts`` path that
does not end in .svg or .csv included, exits 2 before any geometry is
built.
"""

from __future__ import annotations

import argparse
import os
import sys

import scipy.io
import scipy.sparse as sp

from . import study
from .cases import available_cases, make_case
from .errors import ConfigError, CutHHOError
from .viz import check_dump_path, dump_cuts


def _int_list(text: str) -> list[int]:
    """Parse '0..3' or '0,1,2,3' (also single values) into integers."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(t) for t in text.split(",") if t], text)


def _float_list(text: str) -> list[float]:
    return _nonempty([float(t) for t in text.split(",") if t], text)


def _nonempty(values: list, text: str) -> list:
    """The parsed values; an empty list (say from '' or '3..1') is an
    argparse error, so the command exits with code 2."""
    if not values:
        raise argparse.ArgumentTypeError(
            f"no values in {text!r} (empty list or reversed range)")
    return values


def _check_output_dirs(*paths: str | None) -> None:
    """Reject an output path whose directory does not exist."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"no directory for output path {path!r}")


def _emit(records, out: str | None) -> None:
    if out:
        study.write_csv(records, out)
    else:
        sys.stdout.write(study.records_to_csv(records))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, default=None,
                   help="interface subdivision exponent (2^r chords; "
                        "default 8, 10 for jump-mixed)")
    p.add_argument("--theta", type=float, default=0.3,
                   help="ill-cut flagging parameter (0 disables pairing)")
    p.add_argument("--eta", type=float, default=20.0,
                   help="extension stabilization weight")
    p.add_argument("--kappa2", type=float, default=None,
                   help="diffusivity of side 2 (kappa1 is 1)")
    p.add_argument("--out", type=str, default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cuthho",
        description="Unfitted HHO solver for elliptic interface problems "
                    "on the unit square.",
        epilog="Cases with nonzero boundary traces impose the exact trace "
               "on the Dirichlet faces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one configuration")
    ps.add_argument("--case", required=True, choices=available_cases())
    ps.add_argument("--k", type=int, required=True, help="face degree (0..3)")
    ps.add_argument("--level", type=int, required=True, help="mesh level")
    _add_common(ps)
    ps.add_argument("--cond", action="store_true",
                    help="also report the condition number")
    ps.add_argument("--dump-cuts", type=str, default=None,
                    help="write the cut topology (.svg or .csv)")
    ps.add_argument("--export-matrix", type=str, default=None,
                    help="write the reduced stiffness matrix (MatrixMarket)")

    st = sub.add_parser("study", help="parameter sweeps")
    stsub = st.add_subparsers(dest="study_kind", required=True)

    pc = stsub.add_parser("convergence", help="mesh refinement sweep")
    pc.add_argument("--case", required=True, choices=available_cases())
    pc.add_argument("--k", type=_int_list, default=[0, 1, 2, 3],
                    help="degrees, e.g. 0..3 or 1,3")
    pc.add_argument("--levels", type=_int_list, default=[0, 1, 2, 3])
    _add_common(pc)

    pd = stsub.add_parser("conditioning", help="cut-position sweep")
    pd.add_argument("--interface", required=True, choices=["circle", "square"])
    pd.add_argument("--sweep", type=_int_list, required=True,
                    help="circle: offsets i in -10..5 (radius 1/3+i/32); "
                         "square: exponents p >= 1 (delta=0.5e-p)")
    pd.add_argument("--k", type=_int_list, default=[0, 1, 2, 3])
    pd.add_argument("--level", type=int, default=0)
    _add_common(pd)

    pt = stsub.add_parser("theta", help="flagging-parameter sweep")
    pt.add_argument("--case", default="sinsin", choices=available_cases())
    pt.add_argument("--theta", type=_float_list, default=[0.0, 0.1, 0.2, 0.3])
    pt.add_argument("--k", type=int, default=3)
    pt.add_argument("--levels", type=_int_list, default=[0, 1, 2])
    pt.add_argument("--r", type=int, default=None)
    pt.add_argument("--eta", type=float, default=20.0)
    pt.add_argument("--kappa2", type=float, default=None)
    pt.add_argument("--out", type=str, default=None)
    return ap


def _cmd_solve(args) -> None:
    _check_output_dirs(args.dump_cuts, args.export_matrix)
    if args.dump_cuts:
        check_dump_path(args.dump_cuts)
    case = make_case(args.case, kappa2=args.kappa2)
    rec, system, _ = study.solve_single(
        case, args.k, args.level, r=args.r, theta=args.theta, eta=args.eta,
        want_cond=args.cond,
    )
    if args.dump_cuts:
        dump_cuts(system.cm, args.dump_cuts)
    if args.export_matrix:
        a_red, _ = system.reduced()
        scipy.io.mmwrite(args.export_matrix, sp.coo_matrix(a_red))
    _emit([rec], args.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_dirs(args.out)
        if args.command == "solve":
            _cmd_solve(args)
        elif args.study_kind == "convergence":
            _emit(study.convergence_study(
                args.case, args.k, args.levels, r=args.r, theta=args.theta,
                eta=args.eta, kappa2=args.kappa2), args.out)
        elif args.study_kind == "conditioning":
            _emit(study.conditioning_study(
                args.interface, args.sweep, args.k, level=args.level,
                theta=args.theta, r=args.r if args.r is not None else 8,
                eta=args.eta,
                kappa2=args.kappa2 if args.kappa2 is not None else 1.0), args.out)
        elif args.study_kind == "theta":
            _emit(study.theta_study(
                args.case, args.theta, args.k, args.levels, r=args.r,
                eta=args.eta, kappa2=args.kappa2), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CutHHOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
