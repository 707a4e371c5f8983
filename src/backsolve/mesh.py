"""Temporal grids and simplicial spatial meshes.

Spatial meshes are conforming simplicial partitions of (0,1)^d, d in {1,2}.
Refinement is uniform bisection: every cell is bisected once per sweep. In 2d
the cell tuple encodes the bisection rule positionally: the edge between the
first two vertices is the refinement edge, the third vertex is the newest.
The initial square mesh makes the center vertex newest in all four
triangles, which keeps every uniform sweep conforming.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeMesh:
    """Partition of a time interval into ordered elements."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)

    @property
    def n_elements(self) -> int:
        return self.breakpoints.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


@dataclass(frozen=True)
class SpatialMesh:
    """Conforming simplicial mesh; facets and boundary flags follow from the
    cells and are derived on first use, like the geometry."""

    dimension: int
    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        c = np.ascontiguousarray(np.asarray(self.cells, dtype=np.int64))
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if v.ndim != 2 or v.shape[1] != self.dimension:
            raise ValueError("vertex array shape mismatch")
        if c.ndim != 2 or c.shape[1] != self.dimension + 1:
            raise ValueError("cell array shape mismatch")
        if c.size and (c.min() < 0 or c.max() >= v.shape[0]):
            raise ValueError("cell index out of range")
        for arr in (v, c):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "cells", c)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @functools.cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell |volume| and inverse Jacobians (reference -> physical);
        a Jacobian's columns are the edge vectors v_i - v_0."""
        vol = cell_volumes(self)
        if np.any(vol <= 0.0):
            raise ValueError("cell with nonpositive volume")
        v = self.vertices[self.cells]
        jinv = np.linalg.inv(np.swapaxes(v[:, 1:] - v[:, :1], 1, 2))
        for arr in (vol, jinv):
            arr.setflags(write=False)
        return vol, jinv

    @functools.cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique facets, cell->facet map and per-facet incidence counts."""
        d = self.dimension
        if d == 1:
            raw = self.cells.reshape(-1, 1)
        else:
            # facet k of a cell is the (sorted) set of vertices without local vertex k
            nloc = d + 1
            idx = [[j for j in range(nloc) if j != i] for i in range(nloc)]
            raw = np.sort(self.cells[:, idx].reshape(-1, d), axis=1)
        # a sorted vertex tuple keyed as one integer sorts like the row
        shape = (self.n_vertices,) * d
        keys, inverse, counts = np.unique(
            np.ravel_multi_index(raw.T, shape), return_inverse=True, return_counts=True
        )
        facets = np.stack(np.unravel_index(keys, shape), axis=1)
        cell_facets = inverse.reshape(self.n_cells, -1)
        for arr in (facets, cell_facets, counts):
            arr.setflags(write=False)
        return facets, cell_facets, counts

    @functools.cached_property
    def boundary_vertex_flags(self) -> np.ndarray:
        """Flags of the vertices on facets that belong to exactly one cell."""
        facets, _, counts = self.facets
        flags = np.zeros(self.n_vertices, dtype=bool)
        flags[facets[counts == 1]] = True
        flags.setflags(write=False)
        return flags


def uniform_time_mesh(t_start: float, t_end: float, k: int) -> TimeMesh:
    """Split (t_start, t_end) into 2**k equal elements."""
    if not t_end > t_start:
        raise ValueError(f"degenerate interval: t_end={t_end} <= t_start={t_start}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = 2**k
    # i/n is exact for n a power of two, so dyadic endpoints give exact grids
    frac = np.arange(n + 1) / n
    bp = t_start + (t_end - t_start) * frac
    bp[0], bp[-1] = t_start, t_end
    return TimeMesh(bp)


def cell_volumes(mesh: SpatialMesh) -> np.ndarray:
    """Signed volumes under the stored vertex order (positive when valid)."""
    v = mesh.vertices[mesh.cells]
    if mesh.dimension == 1:
        return v[:, 1, 0] - v[:, 0, 0]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def unit_square_initial() -> SpatialMesh:
    """(0,1)^2 cut along its diagonals: 4 triangles around the center vertex."""
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    # refinement edge first two, newest vertex (center) last
    cells = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return SpatialMesh(2, vertices, cells)


def unit_interval_mesh(m: int) -> SpatialMesh:
    """m equal elements on (0,1)."""
    if m < 1:
        raise ValueError("need at least one element")
    vertices = (np.arange(m + 1) / m).reshape(-1, 1)
    cells = np.stack([np.arange(m), np.arange(1, m + 1)], axis=1)
    return SpatialMesh(1, vertices, cells)


def _bisect_sweep_2d(vertices: np.ndarray, cells: np.ndarray):
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    # each refinement edge keyed as lo * n_vertices + hi, sorted like (lo, hi)
    keys = np.minimum(a, b) * vertices.shape[0] + np.maximum(a, b)
    uniq, inverse = np.unique(keys, return_inverse=True)
    lo, hi = np.divmod(uniq, vertices.shape[0])
    mids = 0.5 * (vertices[lo] + vertices[hi])
    m = vertices.shape[0] + inverse
    # children of (a,b,c): (c,a,m) and (b,c,m); keeps positive orientation
    new_cells = np.empty((2 * cells.shape[0], 3), dtype=np.int64)
    new_cells[0::2] = np.stack([c, a, m], axis=1)
    new_cells[1::2] = np.stack([b, c, m], axis=1)
    return np.vstack([vertices, mids]), new_cells


def _bisect_sweep_1d(vertices: np.ndarray, cells: np.ndarray):
    left, right = cells[:, 0], cells[:, 1]
    mids = 0.5 * (vertices[left] + vertices[right])
    m = vertices.shape[0] + np.arange(cells.shape[0])
    new_cells = np.empty((2 * cells.shape[0], 2), dtype=np.int64)
    new_cells[0::2] = np.stack([left, m], axis=1)
    new_cells[1::2] = np.stack([m, right], axis=1)
    return np.vstack([vertices, mids]), new_cells


def refine_uniform(mesh: SpatialMesh, n: int) -> SpatialMesh:
    """n sweeps of uniform bisection; returns a new mesh, input untouched.

    The sweeps act on plain (vertices, cells) arrays; only the final cells
    become a mesh.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return mesh
    sweep = _bisect_sweep_2d if mesh.dimension == 2 else _bisect_sweep_1d
    vertices, cells = mesh.vertices, mesh.cells
    for _ in range(n):
        vertices, cells = sweep(vertices, cells)
    return SpatialMesh(mesh.dimension, vertices, cells)

