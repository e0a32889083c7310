"""Manufactured solutions for the experiment suite.

Every case packages an interface, the diffusivities, the exact per-side
solution with its gradient, the matching source term, and the interface
jump data.  ``make_case`` accepts only a finite kappa2 >= kappa1 = 1, so
the lower-diffusivity subdomain is always side 1 (inside the interface).

Registered cases:

* ``sinsin``          smooth product of sines, no jumps, circle interface
* ``contrast``        radial rho^6/kappa solution, continuous value and flux
* ``jump-neumann``    radial solution with a constant flux jump
* ``jump-dirichlet``  radial solution with a constant value jump
* ``jump-mixed``      cos(y)e^x against sin(pi x)sin(pi y), variable jumps

``polynomial_case`` builds exact global polynomials across a straight
interface for patch testing (``make_case`` names ``patch-0`` .. ``patch-3``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import check_inputs
from .basis import Poly, poly_diff, poly_eval, poly_laplacian
from .errors import ConfigError
from .geometry import project_onto_interface
from .levelset import Circle, LevelSet, Line

RADIUS = 1.0 / 3.0
CENTER = (0.5, 0.5)
INTERFACE = Circle(CENTER, RADIUS)  # of every registered case but the patches


@dataclass(frozen=True)
class Case:
    name: str
    levelset: LevelSet
    kappa: tuple[float, float]
    u: Callable[[int, np.ndarray], np.ndarray]
    grad_u: Callable[[int, np.ndarray], np.ndarray]
    f: Callable[[int, np.ndarray], np.ndarray]
    g_D: Callable[[np.ndarray], np.ndarray] | None = None
    g_N: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    default_r: int = 8
    poly: Poly | None = None  # set for patch cases (exact global polynomial)


def _rho(pts: np.ndarray) -> np.ndarray:
    return np.hypot(pts[:, 0] - CENTER[0], pts[:, 1] - CENTER[1])


def _radial_grad(pts: np.ndarray, du: np.ndarray) -> np.ndarray:
    rho = np.maximum(_rho(pts), 1e-300)
    out = np.empty_like(pts, dtype=float)
    out[:, 0] = du * (pts[:, 0] - CENTER[0]) / rho
    out[:, 1] = du * (pts[:, 1] - CENTER[1]) / rho
    return out


def _sinsin(pts):
    return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])


def _sinsin_grad(pts):
    out = np.empty_like(pts, dtype=float)
    out[:, 0] = np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    out[:, 1] = np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    return out


def _case_sinsin(kappa2: float) -> Case:
    kappa = (1.0, kappa2)

    def u(i, pts):
        return _sinsin(pts)

    def grad_u(i, pts):
        return _sinsin_grad(pts)

    def f(i, pts):
        return kappa[i - 1] * 2.0 * np.pi**2 * _sinsin(pts)

    g_n = None
    if kappa2 != 1.0:
        # continuous gradient, so the flux jump is (k1 - k2) grad(u).n
        def g_n(pts, normals):
            return (kappa[0] - kappa[1]) * np.sum(_sinsin_grad(pts) * normals, axis=1)

    return Case("sinsin", INTERFACE, kappa, u, grad_u, f, None, g_n)


def _case_contrast(kappa2: float) -> Case:
    kappa = (1.0, kappa2)
    shift = RADIUS**6 * (1.0 / kappa[0] - 1.0 / kappa[1])

    def u(i, pts):
        rho = _rho(pts)
        return rho**6 / kappa[i - 1] + (shift if i == 2 else 0.0)

    def grad_u(i, pts):
        return _radial_grad(pts, 6.0 * _rho(pts) ** 5 / kappa[i - 1])

    def f(i, pts):
        return -36.0 * _rho(pts) ** 4

    return Case("contrast", INTERFACE, kappa, u, grad_u, f)


def _case_jump_neumann(kappa2: float) -> Case:
    kappa = (1.0, kappa2)
    g_n_value = 2.0 * RADIUS**5 * (3.0 - 4.0 * RADIUS**2)

    def u(i, pts):
        rho = _rho(pts)
        if i == 1:
            return rho**6 / kappa[0]
        return (rho**8 - RADIUS**8) / kappa[1] + RADIUS**6 / kappa[0]

    def grad_u(i, pts):
        rho = _rho(pts)
        du = 6.0 * rho**5 / kappa[0] if i == 1 else 8.0 * rho**7 / kappa[1]
        return _radial_grad(pts, du)

    def f(i, pts):
        rho = _rho(pts)
        return -36.0 * rho**4 if i == 1 else -64.0 * rho**6

    def g_n(pts, normals):
        return np.full(len(pts), g_n_value)

    return Case("jump-neumann", INTERFACE, kappa, u, grad_u, f, None, g_n)


def _case_jump_dirichlet(kappa2: float) -> Case:
    kappa = (1.0, kappa2)
    g_d_value = RADIUS**6 * (1.0 / kappa[0] - 1.0 / kappa[1])

    def u(i, pts):
        return _rho(pts) ** 6 / kappa[i - 1]

    def grad_u(i, pts):
        return _radial_grad(pts, 6.0 * _rho(pts) ** 5 / kappa[i - 1])

    def f(i, pts):
        return -36.0 * _rho(pts) ** 4

    def g_d(pts):
        return np.full(len(pts), g_d_value)

    return Case("jump-dirichlet", INTERFACE, kappa, u, grad_u, f, g_d)


def _case_jump_mixed(kappa2: float) -> Case:
    kappa = (1.0, kappa2)

    def u1(pts):
        return np.cos(pts[:, 1]) * np.exp(pts[:, 0])

    def grad_u1(pts):
        out = np.empty_like(pts, dtype=float)
        out[:, 0] = np.cos(pts[:, 1]) * np.exp(pts[:, 0])
        out[:, 1] = -np.sin(pts[:, 1]) * np.exp(pts[:, 0])
        return out

    def u(i, pts):
        return u1(pts) if i == 1 else _sinsin(pts)

    def grad_u(i, pts):
        return grad_u1(pts) if i == 1 else _sinsin_grad(pts)

    def f(i, pts):
        if i == 1:
            return np.zeros(len(pts))  # cos(y)e^x is harmonic
        return kappa[1] * 2.0 * np.pi**2 * _sinsin(pts)

    def g_d(pts):
        return u1(pts) - _sinsin(pts)

    def g_n(pts, normals):
        diff = kappa[0] * grad_u1(pts) - kappa[1] * _sinsin_grad(pts)
        return np.sum(diff * normals, axis=1)

    return Case("jump-mixed", INTERFACE, kappa, u, grad_u, f, g_d, g_n,
                default_r=10)


def polynomial_case(k: int, x0: float = 0.37) -> Case:
    """Global polynomial of degree k+1 across a straight vertical interface."""
    coeffs: Poly = {}
    for a in range(k + 2):
        for b in range(k + 2 - a):
            coeffs[(a, b)] = ((-1.0) ** (a + 2 * b)) * (1.0 + a + 0.5 * b) / (1 + a + b)
    lap = poly_laplacian(coeffs)
    dx = poly_diff(coeffs, 0)
    dy = poly_diff(coeffs, 1)

    def u(i, pts):
        return poly_eval(coeffs, pts)

    def grad_u(i, pts):
        return np.column_stack([poly_eval(dx, pts), poly_eval(dy, pts)])

    def f(i, pts):
        return -poly_eval(lap, pts)

    return Case(f"patch-{k}", Line((x0, 0.0)), (1.0, 1.0), u, grad_u, f,
                poly=coeffs)


_BUILDERS = {
    "sinsin": (_case_sinsin, 1.0),
    "contrast": (_case_contrast, 1.0e4),
    "jump-neumann": (_case_jump_neumann, 1.0e4),
    "jump-dirichlet": (_case_jump_dirichlet, 1.0e4),
    "jump-mixed": (_case_jump_mixed, 1.0),
}


def available_cases() -> list[str]:
    return sorted(_BUILDERS) + [f"patch-{k}" for k in range(4)]


def make_case(name: str, kappa2: float | None = None) -> Case:
    """The registered case ``name``; ``kappa2`` overrides its default.  The
    k of a ``patch-k`` name, or kappa2 and the interface, pass ``check_inputs``."""
    if name.startswith("patch-"):
        try:
            k = int(name.split("-", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"unknown case {name!r}") from exc
        check_inputs(ks=[k])
        return polynomial_case(k)
    if name not in _BUILDERS:
        raise ConfigError(f"unknown case {name!r}; available: {available_cases()}")
    builder, default_k2 = _BUILDERS[name]
    k2 = default_k2 if kappa2 is None else float(kappa2)
    check_inputs(kappa2=k2, circles=[(name, INTERFACE)])
    return builder(k2)


# ----------------------------------------------------------------------
# consistency self-check
# ----------------------------------------------------------------------

def _fd_laplacian(u, i, pts, h):
    def shift(dx, dy):
        return u(i, pts + np.array([dx, dy]))

    return (
        shift(h, 0) + shift(-h, 0) + shift(0, h) + shift(0, -h) - 4.0 * u(i, pts)
    ) / h**2


def verify_case(case: Case) -> None:
    """Check f, g_D, g_N against the registered solution.

    The PDE residual is formed with a Richardson-extrapolated five-point
    Laplacian at up to 100 interior points of each side; jump data are
    checked at up to 100 points projected onto the interface, all to a
    relative 1e-6.  The points are drawn from a fixed seed.  Raises
    ConfigError on failure.
    """
    samples, tol = 100, 1e-6
    rng = np.random.default_rng(7)
    h = 1e-2
    pts = rng.uniform(0.1, 0.9, size=(20 * samples, 2))
    dist = case.levelset.distance_estimate(pts)
    vals = case.levelset.value(pts)
    for i, mask in ((1, vals < 0), (2, vals > 0)):
        sel = pts[mask & (dist > 3 * h)][:samples]
        if len(sel) == 0:
            continue
        lap = (4.0 * _fd_laplacian(case.u, i, sel, h / 2)
               - _fd_laplacian(case.u, i, sel, h)) / 3.0
        res = -case.kappa[i - 1] * lap - case.f(i, sel)
        bound = tol * (1.0 + np.abs(case.f(i, sel)))
        if np.any(np.abs(res) > bound):
            raise ConfigError(
                f"case {case.name}: PDE residual check failed on side {i}"
            )
    # jump data on the interface
    seeds = rng.uniform(0.3, 0.7, size=(samples, 2))
    grad = case.levelset.gradient(seeds)
    dirs = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    gpts = project_onto_interface(seeds, dirs, case.levelset,
                                  np.full(len(seeds), 0.5))
    on_gamma = case.levelset.distance_estimate(gpts) < 1e-9
    gpts = gpts[on_gamma]
    if len(gpts):
        normals = case.levelset.normals(gpts)
        jump_u = case.u(1, gpts) - case.u(2, gpts)
        want = case.g_D(gpts) if case.g_D is not None else 0.0
        if np.any(np.abs(jump_u - want) > tol * (1.0 + np.abs(want))):
            raise ConfigError(f"case {case.name}: g_D inconsistent with u")
        flux = (case.kappa[0] * case.grad_u(1, gpts)
                - case.kappa[1] * case.grad_u(2, gpts))
        jump_f = np.sum(flux * normals, axis=1)
        want = case.g_N(gpts, normals) if case.g_N is not None else 0.0
        if np.any(np.abs(jump_f - want) > tol * (1.0 + np.abs(want))):
            raise ConfigError(f"case {case.name}: g_N inconsistent with u")
