"""Temporal grid and spatial mesh construction, refinement, conformity."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from backsolve.config import ExperimentConfig
from backsolve.mesh import (
    SpatialMesh,
    TimeMesh,
    cell_volumes,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.solver import build_meshes
from reference import check_conforming


class TestTimeMesh:
    def test_single_element(self):
        tm = TimeMesh(0.0, 1.0, 0)
        assert np.array_equal(tm.breakpoints, [0.0, 1.0])
        assert tm.n_elements == 1

    def test_four_elements(self):
        tm = TimeMesh(0.0, 1.0, 2)
        assert np.array_equal(tm.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_short_end_interval(self):
        tm = TimeMesh(7.0 / 8.0, 1.0, 0)
        assert np.array_equal(tm.breakpoints, [0.875, 1.0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeMesh(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeMesh(1.0, 0.5, 1)

    def test_endpoints_and_lengths(self):
        tm = TimeMesh(0.25, 2.25, 3)
        assert tm.breakpoints[0] == 0.25
        assert tm.breakpoints[-1] == 2.25
        assert np.all(tm.lengths > 0.0)
        assert tm.lengths.sum() == pytest.approx(2.0, abs=1e-15)

    @given(
        k=st.integers(min_value=0, max_value=12),
        t0=st.floats(min_value=-4.0, max_value=4.0),
        dt=st.floats(min_value=1e-3, max_value=8.0),
    )
    def test_uniform_lengths_exact(self, k, t0, dt):
        # dyadic splitting keeps every element exactly T * 2^-k long
        tm = TimeMesh(t0, t0 + dt, k)
        assert tm.n_elements == 2**k
        assert np.max(tm.lengths) == pytest.approx(dt * 2.0**-k, rel=1e-12)
        assert tm.breakpoints[0] == t0
        assert tm.breakpoints[-1] == t0 + dt

    @pytest.mark.parametrize(
        "window",
        [(0.0, 1.0, k) for k in range(11)]
        + [(0.25, 2.25, 3), (0.75, 1.0, 2), (0.0, 0.3, 3), (0.0, 0.3, 5)]
        + [("interval-length", L, k) for L in (0.5, 0.25) for k in range(7)],
        ids=lambda window: "-".join(map(str, window)),
    )
    def test_breakpoints_and_step_are_the_breakpoint_array_formulas(self, window):
        # the formulas of a mesh built from a breakpoint array, written out:
        # i / n scaled onto the window with its endpoints set exactly, and
        # the step as the span of those breakpoints over n. An
        # interval-length window is the one build_meshes makes at T = 1
        if window[0] == "interval-length":
            _, L, k = window
            config = ExperimentConfig("interval-length", 1, 1.0, [k], L=L)
            tm = build_meshes(config, k)[0]
        else:
            tm = TimeMesh(*window)
        t0, t1, n = tm.t_start, tm.t_end, 2**tm.k
        want = t0 + (t1 - t0) * (np.arange(n + 1) / n)
        want[0], want[-1] = t0, t1
        assert tm.breakpoints.tobytes() == want.tobytes()
        assert tm.step.hex() == float((want[-1] - want[0]) / n).hex()
        assert tm.n_elements == n
        with pytest.raises(ValueError, match="read-only"):
            tm.breakpoints[1] = 0.5


class TestUnitSquare:
    def test_structure(self):
        m = unit_square_initial()
        assert m.n_vertices == 5
        assert m.n_cells == 4
        # corners on the boundary, center interior
        assert m.boundary_vertex_flags.sum() == 4
        assert not m.boundary_vertex_flags[4]

    def test_areas(self):
        m = unit_square_initial()
        vols = cell_volumes(m)
        assert np.allclose(vols, 0.25, atol=1e-15)
        assert vols.sum() == pytest.approx(1.0, abs=1e-15)

    def test_conforming(self):
        check_conforming(unit_square_initial())


class TestUnitInterval:
    def test_single_element(self):
        m = unit_interval_mesh(1)
        assert np.array_equal(m.vertices.ravel(), [0.0, 1.0])
        assert m.n_cells == 1

    def test_four_elements(self):
        m = unit_interval_mesh(4)
        assert m.n_vertices == 5
        assert np.allclose(cell_volumes(m), 0.25)

    def test_interior_vertex(self):
        m = unit_interval_mesh(2)
        interior = m.vertices[~m.boundary_vertex_flags]
        assert interior.shape == (1, 1)
        assert interior[0, 0] == 0.5

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            unit_interval_mesh(0)


class TestRefinement:
    def test_two_sweeps_square(self):
        m = refine_uniform(unit_square_initial(), 2)
        assert m.n_cells == 16
        assert cell_volumes(m).sum() == pytest.approx(1.0, rel=1e-14)

    def test_zero_sweeps_identity(self):
        m0 = unit_square_initial()
        m1 = refine_uniform(m0, 0)
        assert m1 is m0

    def test_interval_split(self):
        m = refine_uniform(unit_interval_mesh(2), 1)
        assert m.n_cells == 4
        assert np.allclose(cell_volumes(m), 0.25)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_preserved_and_conforming(self, n):
        m = refine_uniform(unit_square_initial(), n)
        assert m.n_cells == 4 * 2**n
        assert cell_volumes(m).sum() == pytest.approx(1.0, rel=1e-14)
        assert np.all(cell_volumes(m) > 0.0)
        check_conforming(m)

    def test_shape_regularity_bounded(self):
        # uniform bisection of the diagonal cut produces finitely many
        # similarity classes, so the worst radius ratio never grows
        def worst_ratio(mesh):
            v = mesh.vertices[mesh.cells]
            a = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
            b = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
            c = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
            s = 0.5 * (a + b + c)
            area = cell_volumes(mesh)
            inradius = area / s
            circumradius = a * b * c / (4.0 * area)
            return float(np.max(circumradius / inradius))

        initial = worst_ratio(unit_square_initial())
        for n in range(1, 5):
            assert worst_ratio(refine_uniform(unit_square_initial(), n)) <= (
                initial + 1e-12
            )

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ValueError):
            refine_uniform(unit_square_initial(), -1)


class TestMeshValidation:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize(
        "initial",
        [unit_square_initial, lambda: unit_interval_mesh(3)],
        ids=["square", "interval-3"],
    )
    def test_boundary_flags_are_the_vertices_on_the_boundary(self, initial, n):
        # the boundary of (0,1)^d is where some coordinate is 0 or 1
        m = refine_uniform(initial(), n)
        on_boundary = np.any((m.vertices == 0.0) | (m.vertices == 1.0), axis=1)
        assert np.array_equal(m.boundary_vertex_flags, on_boundary)

    def test_derived_data_kept_and_read_only(self):
        # no wrong flag array can be stored: they follow from the cells
        m = refine_uniform(unit_square_initial(), 2)
        assert m.facets is m.facets
        assert m.boundary_vertex_flags is m.boundary_vertex_flags
        for arr in (*m.facets, m.boundary_vertex_flags):
            assert not arr.flags.writeable
        with pytest.raises(FrozenInstanceError):
            m.boundary_vertex_flags = np.ones(m.n_vertices, dtype=bool)

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError):
            SpatialMesh(1, np.array([[0.0], [1.0]]), np.array([[0, 2]]))

    def test_three_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SpatialMesh(3, np.eye(4, 3), np.array([[0, 1, 2, 3]]))


# ------------------------------------------------- per-sweep reference ----
# The earlier refinement: every sweep builds a SpatialMesh from its cells.
# Kept as the definition of the refined mesh.


def _ref_bisect_sweep_2d(mesh):
    cells = mesh.cells
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    ref_edges = np.sort(np.stack([a, b], axis=1), axis=1)
    uniq, inverse = np.unique(ref_edges, axis=0, return_inverse=True)
    mids = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    m = mesh.n_vertices + inverse
    vertices = np.vstack([mesh.vertices, mids])
    new_cells = np.empty((2 * mesh.n_cells, 3), dtype=np.int64)
    new_cells[0::2] = np.stack([c, a, m], axis=1)
    new_cells[1::2] = np.stack([b, c, m], axis=1)
    return SpatialMesh(2, vertices, new_cells)


def _ref_bisect_sweep_1d(mesh):
    left, right = mesh.cells[:, 0], mesh.cells[:, 1]
    mids = 0.5 * (mesh.vertices[left] + mesh.vertices[right])
    m = mesh.n_vertices + np.arange(mesh.n_cells)
    vertices = np.vstack([mesh.vertices, mids])
    new_cells = np.empty((2 * mesh.n_cells, 2), dtype=np.int64)
    new_cells[0::2] = np.stack([left, m], axis=1)
    new_cells[1::2] = np.stack([m, right], axis=1)
    return SpatialMesh(1, vertices, new_cells)


def _ref_refine_uniform(mesh, n):
    for _ in range(n):
        if mesh.dimension == 2:
            mesh = _ref_bisect_sweep_2d(mesh)
        else:
            mesh = _ref_bisect_sweep_1d(mesh)
    return mesh


INITIAL_MESHES = {
    "square": unit_square_initial,
    "interval-1": lambda: unit_interval_mesh(1),
    "interval-3": lambda: unit_interval_mesh(3),
}


@pytest.mark.parametrize("n", [*range(7), 12])
@pytest.mark.parametrize("initial", INITIAL_MESHES)
def test_refinement_is_bitwise_the_per_sweep_loop(initial, n):
    got = refine_uniform(INITIAL_MESHES[initial](), n)
    want = _ref_refine_uniform(INITIAL_MESHES[initial](), n)
    assert got.dimension == want.dimension
    for name in ("vertices", "cells", "boundary_vertex_flags"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _ref_facets(mesh):
    """The earlier facet table: a row-unique sort of the sorted vertex tuples."""
    d = mesh.dimension
    if d == 1:
        raw = mesh.cells.reshape(-1, 1)
    else:
        idx = [[j for j in range(d + 1) if j != i] for i in range(d + 1)]
        raw = np.sort(mesh.cells[:, idx].reshape(-1, d), axis=1)
    facets, inverse, counts = np.unique(
        raw, axis=0, return_inverse=True, return_counts=True
    )
    return facets, inverse.reshape(mesh.n_cells, -1), counts


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("initial", INITIAL_MESHES)
def test_facets_are_bitwise_the_row_unique_table(initial, n):
    mesh = refine_uniform(INITIAL_MESHES[initial](), n)
    for got, want in zip(mesh.facets, _ref_facets(mesh), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestGeometry:
    def test_computed_once_and_read_only(self):
        m = refine_uniform(unit_square_initial(), 2)
        assert m.geometry is m.geometry
        vol, jinv = m.geometry
        with pytest.raises(ValueError):
            vol[0] = 1.0
        with pytest.raises(ValueError):
            jinv[0] = 1.0

    def test_inverted_cell_rejected(self):
        m = unit_square_initial()
        flipped = SpatialMesh(2, m.vertices, m.cells[:, [1, 0, 2]])
        with pytest.raises(ValueError, match="nonpositive"):
            flipped.geometry
