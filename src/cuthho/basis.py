"""Cell and face bases.

CellBasis holds monomials ((x-cx)/s)^a ((y-cy)/s)^b in graded
lexicographic order (constant first); global polynomials re-expand
exactly in it.  It is the substrate of the cell bases, not a basis of
unknowns.

The cell unknowns of each sub-cell use an OrthonormalBasis of degree
k+1: the monomials times an upper-triangular transform that makes them
orthonormal in the mean-value inner product of the sub-cell.  Its first
dim P_k functions (``OrthonormalBasis.lower``) are orthonormal too, and
are the gradient reconstruction basis.  Face unknowns use Legendre
polynomials of the sub-face's arc length, scaled so that their Gram
matrix is h I whatever the sub-face's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from math import comb

import numpy as np
from numpy.polynomial.legendre import leg2poly
from scipy.linalg import solve_triangular


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b), total degree <= degree, graded lex order."""
    exps = [(d - b, b) for d in range(degree + 1) for b in range(d + 1)]
    return np.array(exps, dtype=int)


def space_dimension(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class CellBasis:
    degree: int
    center: tuple[float, float]
    scale: float

    @cached_property
    def exps(self) -> np.ndarray:
        return monomial_exponents(self.degree)

    @property
    def dim(self) -> int:
        return space_dimension(self.degree)

    def _power_tables(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(pts)
        xi = (pts[:, 0] - self.center[0]) / self.scale
        eta = (pts[:, 1] - self.center[1]) / self.scale
        deg = self.degree
        px = np.empty((len(pts), deg + 1))
        py = np.empty((len(pts), deg + 1))
        px[:, 0] = 1.0
        py[:, 0] = 1.0
        for d in range(1, deg + 1):
            px[:, d] = px[:, d - 1] * xi
            py[:, d] = py[:, d - 1] * eta
        return px, py

    def eval(self, pts: np.ndarray) -> np.ndarray:
        px, py = self._power_tables(pts)
        return px[:, self.exps[:, 0]] * py[:, self.exps[:, 1]]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients, shape (npts, dim, 2)."""
        px, py = self._power_tables(pts)
        a = self.exps[:, 0]
        b = self.exps[:, 1]
        pa = np.where(a > 0, a - 1, 0)
        pb = np.where(b > 0, b - 1, 0)
        gx = a[None, :] * px[:, pa] * py[:, b]
        gy = b[None, :] * px[:, a] * py[:, pb]
        return np.stack([gx, gy], axis=2) / self.scale

    def lower(self, degree: int) -> "CellBasis":
        """Same center and scale at another degree."""
        return CellBasis(degree, self.center, self.scale)

    def derivative_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact maps of coefficients to gradient coefficients one degree down."""
        lo = monomial_exponents(self.degree - 1)
        index = {(int(a), int(b)): j for j, (a, b) in enumerate(lo)}
        dx = np.zeros((len(lo), self.dim))
        dy = np.zeros((len(lo), self.dim))
        for j, (a, b) in enumerate(self.exps):
            if a > 0:
                dx[index[(int(a) - 1, int(b))], j] = a / self.scale
            if b > 0:
                dy[index[(int(a), int(b) - 1)], j] = b / self.scale
        return dx, dy


class OrthonormalBasis:
    """Monomials times an upper-triangular transform: phi = mono @ transform.

    The transform makes the functions orthonormal in the mean-value inner
    product (1/|R|) int_R p q of the region R it was built on; being
    triangular, phi_j still spans the first j+1 monomials.
    """

    def __init__(self, mono: CellBasis, transform: np.ndarray):
        self.mono = mono
        self.transform = transform

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return self.mono.eval(pts) @ self.transform

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients, shape (npts, dim, 2)."""
        return np.tensordot(self.mono.grad(pts), self.transform, axes=(1, 0)).swapaxes(1, 2)

    def lower(self, degree: int) -> "OrthonormalBasis":
        """The first dim P_degree functions: the transform's leading block."""
        n = space_dimension(degree)
        return OrthonormalBasis(self.mono.lower(degree), self.transform[:n, :n])


@dataclass(frozen=True)
class FaceBasis:
    """Legendre polynomials P_j(t) of the arc-length parameter t in [-1, 1]
    of the segment p0-p1, times sqrt((2j+1) h / |F|): their Gram matrix
    on the segment is h I."""

    degree: int
    p0: tuple[float, float]
    p1: tuple[float, float]
    h: float

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, float]:
        p0 = np.asarray(self.p0, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        mid = 0.5 * (p0 + p1)
        length = float(np.linalg.norm(p1 - p0))
        tang = (p1 - p0) / length if length > 0 else np.array([1.0, 0.0])
        return mid, tang, 0.5 * length

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, pts: np.ndarray) -> np.ndarray:
        mid, tang, half = self._frame
        pts = np.atleast_2d(pts)
        t = ((pts - mid) @ tang) / half
        powers = t[:, None] ** np.arange(self.degree + 1)[None, :]
        return powers @ _legendre_coefficients(self.degree) * np.sqrt(self.h / (2 * half))


@lru_cache(maxsize=None)
def _legendre_coefficients(degree: int) -> np.ndarray:
    """Monomial coefficients of sqrt(2j+1) P_j in column j, j = 0..degree."""
    c = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        c[: j + 1, j] = np.sqrt(2 * j + 1) * leg2poly(np.eye(j + 1)[j])
    return c


# -- small dense-polynomial helpers (coefficient dicts on global x, y) ----

Poly = dict[tuple[int, int], float]


def poly_eval(coeffs: Poly, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(pts)
    out = np.zeros(len(pts))
    for (a, b), c in coeffs.items():
        out += c * pts[:, 0] ** a * pts[:, 1] ** b
    return out


def poly_diff(coeffs: Poly, var: int) -> Poly:
    out: Poly = {}
    for (a, b), c in coeffs.items():
        if var == 0 and a > 0:
            out[(a - 1, b)] = out.get((a - 1, b), 0.0) + a * c
        if var == 1 and b > 0:
            out[(a, b - 1)] = out.get((a, b - 1), 0.0) + b * c
    return out


def poly_laplacian(coeffs: Poly) -> Poly:
    out: Poly = {}
    for part in (poly_diff(poly_diff(coeffs, 0), 0), poly_diff(poly_diff(coeffs, 1), 1)):
        for key, c in part.items():
            out[key] = out.get(key, 0.0) + c
    return out


def expand_in_basis(coeffs: Poly, basis: CellBasis | OrthonormalBasis) -> np.ndarray:
    """Exact coefficients of a global polynomial in a cell basis.

    Expands x^p y^q with x = cx + s*xi via the binomial theorem; requires
    the total degree of the polynomial to fit in the basis.  For an
    OrthonormalBasis the polynomial is expanded in its monomials and then
    mapped through the inverse transform (exact up to that solve's
    round-off).
    """
    if isinstance(basis, OrthonormalBasis):
        mono = expand_in_basis(coeffs, basis.mono)
        return solve_triangular(basis.transform, mono, lower=False)
    cx, cy = basis.center
    s = basis.scale
    index = {(int(a), int(b)): j for j, (a, b) in enumerate(basis.exps)}
    out = np.zeros(basis.dim)
    for (p, q), c in coeffs.items():
        if p + q > basis.degree:
            raise ValueError("polynomial degree exceeds basis degree")
        for a in range(p + 1):
            for b in range(q + 1):
                coef = (
                    c
                    * comb(p, a)
                    * comb(q, b)
                    * cx ** (p - a)
                    * cy ** (q - b)
                    * s ** (a + b)
                )
                out[index[(a, b)]] += coef
    return out
