"""Analytic level sets describing the interface.

Sign convention: the subdomain index is ``i = 1`` where ``phi < 0`` and
``i = 2`` where ``phi > 0``; the interface is the zero set.  Unit normals
``grad(phi)/|grad(phi)|`` therefore point from side 1 into side 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


class LevelSet:
    """Base class; subclasses provide vectorized value/gradient."""

    def value(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normals(self, pts: np.ndarray) -> np.ndarray:
        """Unit normals oriented from side 1 to side 2."""
        g = self.gradient(np.atleast_2d(pts))
        norm = np.linalg.norm(g, axis=1)
        if np.any(norm < 1e-300):
            raise GeometryError("vanishing level-set gradient on the interface")
        return g / norm[:, None]

    def distance_estimate(self, pts: np.ndarray) -> np.ndarray:
        """First-order distance to the zero set, |phi| / |grad phi|."""
        pts = np.atleast_2d(pts)
        v = np.abs(self.value(pts))
        g = np.linalg.norm(self.gradient(pts), axis=1)
        return v / np.maximum(g, 1e-300)


@dataclass(frozen=True)
class Circle(LevelSet):
    """phi = (x-a)^2 + (y-b)^2 - R^2."""

    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 1.0 / 3.0

    def value(self, pts):
        pts = np.atleast_2d(pts)
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return dx * dx + dy * dy - self.radius**2

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        g = np.empty_like(pts, dtype=float)
        g[:, 0] = 2.0 * (pts[:, 0] - self.center[0])
        g[:, 1] = 2.0 * (pts[:, 1] - self.center[1])
        return g


@dataclass(frozen=True)
class Flower(LevelSet):
    """Circle perturbed by an angular cosine, petals around the center."""

    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 1.0 / 3.0
    amplitude: float = 0.03
    petals: int = 8

    def _theta(self, pts):
        return np.arctan2(pts[:, 1] - self.center[1], pts[:, 0] - self.center[0])

    def value(self, pts):
        pts = np.atleast_2d(pts)
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return dx * dx + dy * dy - self.radius**2 + self.amplitude * np.cos(
            self.petals * self._theta(pts)
        )

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        rho2 = np.maximum(dx * dx + dy * dy, 1e-300)
        th = self._theta(pts)
        s = -self.amplitude * self.petals * np.sin(self.petals * th)
        g = np.empty_like(pts, dtype=float)
        # grad(theta) = (-dy, dx) / rho^2
        g[:, 0] = 2.0 * dx + s * (-dy / rho2)
        g[:, 1] = 2.0 * dy + s * (dx / rho2)
        return g


@dataclass(frozen=True)
class Square(LevelSet):
    """phi = max(x-a, y-b) - (0.25 + delta); a square front with a corner.

    The gradient is piecewise constant; on the diagonal x-a == y-b the
    tie goes to the x branch, which keeps root projections well defined.
    """

    a: float = 0.5
    b: float = 0.5
    delta: float = 0.0

    def value(self, pts):
        pts = np.atleast_2d(pts)
        return np.maximum(pts[:, 0] - self.a, pts[:, 1] - self.b) - (0.25 + self.delta)

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        g = np.zeros_like(pts, dtype=float)
        xbranch = pts[:, 0] - self.a >= pts[:, 1] - self.b
        g[xbranch, 0] = 1.0
        g[~xbranch, 1] = 1.0
        return g


@dataclass(frozen=True)
class Line(LevelSet):
    """phi = n . (p - p0) for a unit normal n; side 1 is behind the line."""

    point: tuple[float, float]
    normal: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        nx, ny = self.normal
        norm = float(np.hypot(nx, ny))
        object.__setattr__(self, "normal", (nx / norm, ny / norm))

    def value(self, pts):
        pts = np.atleast_2d(pts)
        nx, ny = self.normal
        return nx * (pts[:, 0] - self.point[0]) + ny * (pts[:, 1] - self.point[1])

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.asarray(self.normal, dtype=float), pts.shape).copy()


def interface_clear_of_boundary(levelset: LevelSet) -> bool:
    """Check by sampling that side 1 (phi < 0) stays clear of the unit-square
    boundary: phi > 0 at 2048 points on each side of the square."""
    t = np.linspace(0.0, 1.0, 2048)
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    pts = np.concatenate(
        [
            np.column_stack([t, zeros]),
            np.column_stack([t, ones]),
            np.column_stack([zeros, t]),
            np.column_stack([ones, t]),
        ]
    )
    return bool(np.all(levelset.value(pts) > 0))
