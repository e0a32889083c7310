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
matrix is h I whatever the sub-face's length; they are only needed at
the sub-face's Gauss points, where ``LocalOperators.face_rule`` takes
their values from one reference table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from math import comb

import numpy as np
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

    def scaled(self, pts: np.ndarray) -> np.ndarray:
        """Points as (x - center) / scale, the monomials' coordinates."""
        return (np.atleast_2d(pts) - self.center) / self.scale

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return monomial_values(self.scaled(pts), self.degree)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients, shape (npts, dim, 2)."""
        return monomial_gradients(self.scaled(pts), self.degree, self.scale)

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
        return transform_gradients(self.mono.grad(pts)[None], self.transform[None])[0]

    def lower(self, degree: int) -> "OrthonormalBasis":
        """The first dim P_degree functions: the transform's leading block."""
        n = space_dimension(degree)
        return OrthonormalBasis(self.mono.lower(degree), self.transform[:n, :n])


def _power_tables(xi: np.ndarray, degree: int) -> np.ndarray:
    """Powers 0..degree of scaled coordinates xi (..., 2), coordinate and
    power first: (2, degree + 1, ...)."""
    pw = np.empty((2, degree + 1, *xi.shape[:-1]))
    pw[:, 0] = 1.0
    if degree:
        pw[:, 1] = xi.transpose(-1, *range(xi.ndim - 1))
    for d in range(2, degree + 1):
        np.multiply(pw[:, d - 1], pw[:, 1], out=pw[:, d])
    return pw


def monomial_values(xi: np.ndarray, degree: int) -> np.ndarray:
    """The monomials of ``CellBasis`` at scaled coordinates xi (..., 2),
    (x - center) / scale: (..., dim).  A stack of bases passes the stack of
    each one's scaled points.  The products are formed a degree at a time
    along the points, which is several times quicker than gathering the
    powers per monomial."""
    px, py = _power_tables(xi, degree)
    out = np.empty((space_dimension(degree), *xi.shape[:-1]))
    off = 0
    for d in range(degree + 1):  # x^(d-b) y^b, b = 0..d
        np.multiply(px[d::-1], py[: d + 1], out=out[off : off + d + 1])
        off += d + 1
    return np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0))


def monomial_gradients(xi: np.ndarray, degree: int, scale) -> np.ndarray:
    """Gradients of the monomials, as ``monomial_values``: (..., dim, 2);
    ``scale`` broadcasts against them."""
    px, py = _power_tables(xi, degree)
    a, b = monomial_exponents(degree).T
    pa, pb = np.maximum(a - 1, 0), np.maximum(b - 1, 0)
    shape = (-1,) + (1,) * (xi.ndim - 1)  # exponents along the monomial axis
    g = np.stack([a.reshape(shape) * px[pa] * py[b], b.reshape(shape) * px[a] * py[pb]],
                 axis=-1)
    return np.divide(np.moveaxis(g, 0, -2), scale, order="C")


def transform_gradients(g: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """Gradients (n, p, dim, 2) of a stack of bases, mono @ transform, from
    those of their monomials and the upper-triangular transforms (n, dim, dim).

    Each entry is summed one monomial at a time in a fixed order, so it has
    the same bits in a stack of any size.
    """
    out = g[:, :, :1] * transforms[:, None, 0, :, None]
    for a in range(1, g.shape[2]):
        out[:, :, a:] += g[:, :, a:a + 1] * transforms[:, None, a, a:, None]
    return out


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
