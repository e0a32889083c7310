"""Quadrature rules on segments, triangles, and boxes, and their compression.

Rules are generated, not tabulated: Gauss-Legendre in 1d, and on the
reference triangle the collapsed (Stroud) product of a Gauss-Jacobi rule
for the weight 1 - u, which absorbs the Jacobian of the collapse, with
a Gauss-Legendre rule; the Gauss-Jacobi rule comes from the eigenvalues
of its Jacobi matrix (Golub-Welsch).  A rule built for exactness degree
``d`` integrates every bivariate monomial of total degree up to ``d``
exactly and has positive weights; the triangle rule has
points_for_degree(d)**2 nodes, 25 at d = 9.

A fine rule on a union of many triangles, such as the fan rule of a cut
sub-cell, is compressed by ``compress_rule``: a Caratheodory-Tchakaloff
subsample of its nodes with new positive weights that keeps its moments
to degree ``d`` (Sommariva & Vianello 2015, "Compression of multivariate
discrete measures and applications").  The compressed rule has at most
dim P_d nodes, all of them nodes of the fine rule; its weights come from
the Lawson-Hanson active-set solver ``nnls``, run on moment rows made
orthonormal over the candidate nodes (Piazzon, Sommariva & Vianello
2017, "Caratheodory-Tchakaloff subsampling").  The first try starts
``nnls`` from approximate Fekete points (``fekete_start``): the pivot
columns of a column-pivoted QR of those rows (Sommariva & Vianello 2009,
"Computing approximate Fekete points by QR factorizations of Vandermonde
matrices"), so the solver starts near its final support instead of
taking it in one column at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import qr, qr_delete
from scipy.linalg.lapack import dtrtrs

from .basis import monomial_exponents
from .errors import NumericalError

_COMPRESSION_TOL = 1e-13  # on moments relative to the rule's total weight


@lru_cache(maxsize=None)
def gauss_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights on [-1, 1], exact to degree 2*npts - 1."""
    return np.polynomial.legendre.leggauss(npts)


def points_for_degree(degree: int) -> int:
    """Smallest Gauss point count integrating 1d degree exactly."""
    return max(1, (degree + 2) // 2)


def segment_rules(segs: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Mapped Gauss rules on a stack of segments (n, 2, 2): points
    (n, npts, 2) and weights (n, npts), which sum to each segment's length;
    a zero-length segment has zero weights."""
    t, w = gauss_1d(npts)
    p0, p1 = segs[:, 0], segs[:, 1]
    pts = 0.5 * (p0 + p1)[:, None] + 0.5 * (t[:, None] * (p1 - p0)[:, None])
    return pts, 0.5 * np.linalg.norm(p1 - p0, axis=1)[:, None] * w


def gauss_jacobi_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights on [0, 1] for the weight 1 - u: the rule integrates
    p(u) (1 - u) exactly for p of degree up to 2*npts - 1.

    Golub-Welsch: the points are the eigenvalues of the Jacobi matrix of
    the Jacobi polynomials P_n^(1,0) on [-1, 1] (recurrence a_n =
    -1/((2n+1)(2n+3)), b_n = sqrt(n(n+1))/(2n+1)), mapped onto [0, 1];
    the weights are 1/2 times the squared first components of the
    normalized eigenvectors.
    """
    n = np.arange(npts)
    j = n[1:]
    off = np.sqrt(j * (j + 1.0)) / (2 * j + 1)
    jacobi = np.diag(-1.0 / ((2 * n + 1) * (2 * n + 3))) + np.diag(off, 1) + np.diag(off, -1)
    t, vec = np.linalg.eigh(jacobi)
    return 0.5 * (t + 1.0), 0.5 * vec[0] ** 2


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed (Stroud) product rule on the reference triangle (0,0)-(1,0)-(0,1).

    The collapse x = u, y = v*(1-u) has Jacobian 1 - u, which is taken
    into the Gauss-Jacobi weight in u, so both directions need only the
    points_for_degree(degree) points of degree ``degree``: the rule has
    points_for_degree(degree)**2 nodes, positive weights summing to 1/2.
    """
    npts = points_for_degree(degree)
    u, wu = gauss_jacobi_1d(npts)
    xv, wv = gauss_1d(npts)
    U, V = np.meshgrid(u, 0.5 * (xv + 1.0), indexing="ij")
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, np.outer(wu, 0.5 * wv).ravel()


def map_to_triangles(tris: np.ndarray, ref_pts: np.ndarray, ref_w: np.ndarray):
    """Push a reference-triangle rule onto physical triangles.

    tris has shape (m, 3, 2); the returned weights integrate over the
    union, scaling each copy by twice the (positive) triangle area.
    """
    tris = np.asarray(tris, dtype=float)
    if tris.size == 0:
        return np.zeros((0, 2)), np.zeros(0)
    v0 = tris[:, 0]
    e = tris[:, 1:] - v0[:, None, :]  # rows: the edges from v0, (m, 2, 2)
    jac = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    pts = v0[:, None, :] + ref_pts @ e
    w = np.abs(jac)[:, None] * ref_w[None, :]
    return pts.reshape(-1, 2), w.ravel()


def box_rule(x0: float, y0: float, x1: float, y1: float, npts: int):
    """Tensor Gauss rule on an axis-aligned box."""
    t, w = gauss_1d(npts)
    xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * t
    ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * t
    wx = 0.5 * (x1 - x0) * w
    wy = 0.5 * (y1 - y0) * w
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wx, wy)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def triangle_areas(tris: np.ndarray) -> np.ndarray:
    tris = np.asarray(tris, dtype=float)
    if tris.size == 0:
        return np.zeros(0)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def nnls(a: np.ndarray, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Lawson-Hanson solution of min |a x - b| over x >= 0.

    Columns enter the passive set one at a time, each the column with the
    largest positive entry of the gradient a^T (b - a x); the
    least-squares problem on the passive columns is solved through a QR
    factorization a_P = Q R that is updated as columns enter (one
    Householder reflection) and leave (``qr_delete``) (Lawson & Hanson,
    *Solving Least Squares Problems*, 1974, ch. 23).  Iteration stops at
    the optimum, or when the passive columns span the rows.  A start
    ``x0`` must be nonnegative.  The iteration takes it for the
    least-squares solution on its support; a start that only comes close,
    such as the solution of a nearby problem, still gives a nonnegative
    x, but not always the optimal one.
    """
    m, n = a.shape
    at = np.ascontiguousarray(a.T)  # row j is column j of a
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    cols = np.zeros(m, dtype=int)  # the passive columns are cols[:p]
    p = np.count_nonzero(x)
    cols[:p] = np.flatnonzero(x)
    q, r_p = np.linalg.qr(a[:, cols[:p]], mode="complete")
    qb = np.column_stack([q.T, q.T @ b])  # [Q^T | Q^T b], reflected together
    r = np.zeros((m, m))
    r[:, :p] = r_p
    for _ in range(3 * n):
        if p == m:
            break
        grad = at @ (qb[p:, m] @ qb[p:, :m])  # a^T (b - a x): x solves on cols
        grad[cols[:p]] = -np.inf
        j = int(grad.argmax())
        if not grad[j] > 0.0:
            break  # optimal
        # append column j: reflect rows p.. of Q^T a_j onto row p
        u = qb[:, :m] @ at[j]
        v = u[p:]
        alpha = -math.copysign(math.sqrt(v @ v), v[0])
        v[0] -= alpha
        v *= math.sqrt(2.0 / (v @ v))
        qb[p:] -= v[:, None] * (v @ qb[p:])
        r[:p, p] = u[:p]
        r[p, p] = alpha
        cols[p] = j
        p += 1
        z, info = dtrtrs(r[:p, :p], qb[:p, m])
        if info or not z[-1] > 0.0:
            break  # round-off: the entering column takes no positive weight
        while z.min() <= 0.0:
            # move towards z until the first weight reaches zero; drop the zeros
            xp = x[cols[:p]]
            neg = np.flatnonzero(z <= 0.0)
            t = xp[neg] / (xp[neg] - z[neg])
            xp += t.min() * (z - xp)
            xp[neg[t.argmin()]] = 0.0
            drop = np.flatnonzero(xp <= 0.0)
            x[cols[drop]] = 0.0
            q = qb[:, :m].T
            for d in drop[::-1]:
                q, r_p = qr_delete(q, r[:, :p], d, which="col", check_finite=False)
                p -= 1
                r[:, :p] = r_p
                r[:, p] = 0.0
                cols[d:p] = cols[d + 1:p + 1]
            qb = np.column_stack([q.T, q.T @ b])
            z = dtrtrs(r[:p, :p], qb[:p, m])[0]
        x[cols[:p]] = z
    return x


def fekete_start(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Start for ``nnls(a, b)`` on approximate Fekete points.

    A column-pivoted QR of ``a`` (m rows), a P = Q R, picks its first m
    pivot columns; the start holds the positive entries of the solution
    of the square system on them, R_11 z = Q^T b, and zeros elsewhere.
    Returns None if that system is singular or its solution not finite.
    The start is not the least-squares solution on its support, so
    ``nnls`` may end at a nonnegative x that is not optimal (see there);
    ``compress_rule`` checks the moments of every try.
    """
    m = a.shape[0]
    q, r, piv = qr(a, mode="economic", pivoting=True, check_finite=False)
    z, info = dtrtrs(r[:, :m], q.T @ b)
    if info or not np.isfinite(z).all():
        return None
    x0 = np.zeros(a.shape[1])
    x0[piv[:m]] = np.maximum(z, 0.0)
    return x0


def _legendre(s: np.ndarray, degree: int) -> np.ndarray:
    """Legendre polynomials P_0..P_degree, one row per degree, at s mapped
    affinely from its range onto [-1, 1]."""
    lo, hi = s.min(), s.max()
    t = (2.0 * s - (lo + hi)) / (hi - lo)
    out = np.empty((degree + 1, len(t)))
    out[0] = 1.0
    if degree:
        out[1] = t
    for n in range(1, degree):  # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}, in place
        np.multiply(t, out[n], out=out[n + 1])
        out[n + 1] -= (n / (2 * n + 1)) * out[n - 1]
        out[n + 1] *= (2 * n + 1) / (n + 1)
    return out


def compress_rule(pts: np.ndarray, w: np.ndarray, degree: int,
                  what: str) -> tuple[np.ndarray, np.ndarray]:
    """Positive rule on at most dim P_degree of the nodes of (pts, w) with
    the same moments to ``degree``.

    A positive rule with at most dim P_degree nodes is returned as it
    is.  Otherwise the moments are those of the products P_a(x) P_b(y),
    a + b <= degree, of Legendre polynomials on the nodes' bounding box,
    from one product of two 1d tables.  The weights solve the moment
    equations by ``nnls`` on candidate nodes taken at equal quantiles of
    the cumulative fine weights: 4 dim P_degree of them at first, twice
    as many on each retry, which also keeps the nodes the last try kept,
    up to all nodes.  A try needs at least dim P_degree distinct
    candidates.  On each try the moment rows V are made orthonormal over
    the candidates by one QR, V^T = Q R, and ``nnls`` solves
    Q^T x = R^-T moments, which for V of full row rank has the same
    solutions but far better conditioned columns; the miss is checked on
    V.  A try that keeps no nodes, the first, starts ``nnls`` from
    ``fekete_start`` on Q^T, a retry from the nodes the last try kept.
    ``w`` must be positive.  Raises NumericalError naming ``what`` if a
    rule of at most dim P_degree nodes is not positive, or if even all
    nodes miss the moments by more than _COMPRESSION_TOL times the total
    weight.
    """
    n = len(w)
    ea, eb = monomial_exponents(degree).T
    dim = len(ea)
    if n <= dim:
        if not w.min() > 0.0:
            raise NumericalError(f"quadrature compression failed on {what}: "
                                 f"a rule of {n} nodes has a weight <= 0")
        return pts, w
    lx, ly = (_legendre(s, degree) for s in np.ascontiguousarray(pts.T))
    total = w.sum()
    moments = ((lx * (w / total)) @ ly.T)[ea, eb]
    cumulative = np.cumsum(w) / total
    kept, x = np.zeros(0, dtype=int), np.zeros(0)
    m = 4 * dim
    while True:
        if m >= n:
            picks = np.arange(n)
        else:
            picks = np.minimum(np.searchsorted(cumulative, (np.arange(m) + 0.5) / m), n - 1)
        cand = np.union1d(picks, kept)
        if len(cand) >= dim:
            x0 = np.zeros(len(cand))
            x0[np.searchsorted(cand, kept)] = x
            v = lx[:, cand][ea] * ly[:, cand][eb]
            q, r = np.linalg.qr(v.T)
            rhs = dtrtrs(r, moments, trans=1)[0]
            x = nnls(q.T, rhs, x0 if len(kept) else fekete_start(q.T, rhs))
            miss = float(np.max(np.abs(v @ x - moments)))
            kept, x = cand[x > 0], x[x > 0]
            if miss <= _COMPRESSION_TOL:
                return pts[kept], total * x
        if m >= n:
            raise NumericalError(f"quadrature compression failed on {what}: "
                                 f"moments missed by {miss:.1e} of the total weight")
        m *= 2
