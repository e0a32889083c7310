"""Uniform Cartesian background mesh of the unit square.

Cells are axis-aligned squares indexed row-major, ``cid = iy*n + ix``.
Faces are numbered with all vertical faces first (``fid = iy*(n+1) + ix``
for the face on gridline ``x = ix*s``), then all horizontal faces
(``fid = n*(n+1) + iy*n + ix``).  Vertices are numbered row-major too,
``vid = iy*(n+1) + ix`` at ``(ix*s, iy*s)``; ``vertices`` is the one
table of them.  Neighborhood layers use vertex adjacency, so the first
layer of an interior cell is its 3x3 block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

MAX_LEVEL = 10


class Vertices(NamedTuple):
    """The mesh vertices: coordinates and the ids that faces and cells use."""

    points: np.ndarray  # ((n+1)^2, 2), vertex iy*(n+1) + ix at (ix*s, iy*s)
    faces: np.ndarray  # (n_faces, 2) endpoint ids, in face_endpoints order
    cells: np.ndarray  # (n_cells, 4) corner ids, in cell_vertices order


@dataclass(frozen=True)
class CartesianMesh:
    level: int

    @cached_property
    def n(self) -> int:
        """Cells per direction, 10 * 2**level."""
        return 10 * 2 ** self.level

    @cached_property
    def cell_size(self) -> float:
        return 0.1 * 2.0 ** (-self.level)

    @cached_property
    def h(self) -> float:
        """Cell diameter."""
        return np.sqrt(2.0) * self.cell_size

    @property
    def n_cells(self) -> int:
        return self.n * self.n

    @property
    def n_faces(self) -> int:
        return 2 * self.n * (self.n + 1)

    @cached_property
    def vertices(self) -> Vertices:
        n = self.n
        ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # [iy, ix]
        v = np.arange(n + 1) * self.cell_size
        return Vertices(
            np.stack(np.meshgrid(v, v), axis=-1).reshape(-1, 2),
            np.concatenate([np.stack([ids[:-1], ids[1:]], axis=-1).reshape(-1, 2),
                            np.stack([ids[:, :-1], ids[:, 1:]], axis=-1).reshape(-1, 2)]),
            np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]],
                     axis=-1).reshape(-1, 4))

    # -- cells ---------------------------------------------------------

    def cell_index(self, cid: int) -> tuple[int, int]:
        return cid % self.n, cid // self.n

    def cell_id(self, ix: int, iy: int) -> int:
        return iy * self.n + ix

    def cell_box(self, cid: int) -> tuple[float, float, float, float]:
        ix, iy = self.cell_index(cid)
        s = self.cell_size
        return ix * s, iy * s, (ix + 1) * s, (iy + 1) * s

    def cell_center(self, cid: int) -> np.ndarray:
        x0, y0, x1, y1 = self.cell_box(cid)
        return np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])

    def cell_vertices(self, cid: int) -> np.ndarray:
        """Corners in counterclockwise order starting at the lower left."""
        x0, y0, x1, y1 = self.cell_box(cid)
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    # -- faces ---------------------------------------------------------

    @property
    def _n_vertical(self) -> int:
        return (self.n + 1) * self.n

    def face_is_vertical(self, fid: int) -> bool:
        return fid < self._n_vertical

    def vertical_face_id(self, ix: int, iy: int) -> int:
        return iy * (self.n + 1) + ix

    def horizontal_face_id(self, ix: int, iy: int) -> int:
        return self._n_vertical + iy * self.n + ix

    def face_endpoints(self, fid: int) -> np.ndarray:
        s = self.cell_size
        if self.face_is_vertical(fid):
            ix, iy = fid % (self.n + 1), fid // (self.n + 1)
            return np.array([[ix * s, iy * s], [ix * s, (iy + 1) * s]])
        k = fid - self._n_vertical
        ix, iy = k % self.n, k // self.n
        return np.array([[ix * s, iy * s], [(ix + 1) * s, iy * s]])

    @cached_property
    def face_cell_table(self) -> np.ndarray:
        """(n_faces, 2): the cells on the negative and positive side of each
        face (left, right or below, above), -1 outside the domain."""
        n = self.n
        ids = np.full((n + 2, n + 2), -1)  # [iy + 1, ix + 1], -1 in the frame
        ids[1:-1, 1:-1] = np.arange(n * n).reshape(n, n)
        return np.concatenate([np.stack([ids[1:-1, :-1], ids[1:-1, 1:]], axis=-1).reshape(-1, 2),
                               np.stack([ids[:-1, 1:-1], ids[1:, 1:-1]], axis=-1).reshape(-1, 2)])

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        """(n_faces,) mask of the faces on the domain boundary."""
        return (self.face_cell_table < 0).any(axis=1)

    def face_cells(self, fid: int) -> tuple[int, int]:
        """Adjacent cells on the negative and positive side, -1 at the boundary."""
        a, b = self.face_cell_table[fid].tolist()
        return a, b

    def is_boundary_face(self, fid: int) -> bool:
        return bool(self.boundary_faces[fid])

    def cell_faces(self, cid: int) -> tuple[int, int, int, int]:
        """Faces of a cell as (left, right, bottom, top)."""
        ix, iy = self.cell_index(cid)
        return (
            self.vertical_face_id(ix, iy),
            self.vertical_face_id(ix + 1, iy),
            self.horizontal_face_id(ix, iy),
            self.horizontal_face_id(ix, iy + 1),
        )

    @cached_property
    def cell_face_table(self) -> np.ndarray:
        """(n_cells, 4): the faces of each cell, in ``cell_faces`` order."""
        return np.stack(self.cell_faces(np.arange(self.n_cells)), axis=1)

    def outward_normal(self, cid: int, fid: int) -> np.ndarray:
        """Unit normal on face fid pointing out of cell cid."""
        a, _ = self.face_cells(fid)
        sign = 1.0 if a == cid else -1.0
        if self.face_is_vertical(fid):
            return np.array([sign, 0.0])
        return np.array([0.0, sign])

    # -- neighborhoods ---------------------------------------------------

    def neighborhood(self, cid: int, j: int = 1) -> np.ndarray:
        """Layer Delta_j(T) by vertex adjacency; includes the cell itself."""
        ix, iy = self.cell_index(cid)
        xs = np.arange(max(ix - j, 0), min(ix + j, self.n - 1) + 1)
        ys = np.arange(max(iy - j, 0), min(iy + j, self.n - 1) + 1)
        return (ys[:, None] * self.n + xs[None, :]).ravel()


def build_mesh(level: int) -> CartesianMesh:
    if level < 0:
        raise ConfigError("refinement level must be nonnegative")
    if level > MAX_LEVEL:
        raise ConfigError("refinement too deep")
    return CartesianMesh(level=level)
