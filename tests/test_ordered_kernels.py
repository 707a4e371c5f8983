"""The level build's ordered kernels against their earlier forms, bitwise.

The quad-point map, the loads, the P1 gradients, PCR's updates, the
eigenbasis operators that write in place and the trig tables gathered from
one row of angles do the same floating-point operations in the same order
as the einsum, matmul, allocating and per-entry forms kept in
tests/reference.py, so every result is the same bytes, signed zeros
included, on the meshes the solver builds.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from backsolve import assembly, precond
from backsolve.assembly import (
    QUAD_ORDER,
    _cell_rule,
    fe_gradients_on_cells,
    gradient_load,
    quad_points_physical,
    space_load,
)
from backsolve.config import ExperimentConfig
from backsolve.mesh import TimeMesh, refine_uniform, unit_interval_mesh, unit_square_initial
from backsolve.precond import RieszPreconditioner
from backsolve.solutions import get_solution
from backsolve.solver import build_level, choose_epsilon, pcg, phi_sample, solve_level
from reference import (
    dst2_per_entry,
    eigenbasis_apply_allocating,
    fe_gradients_matmul,
    gradient_load_einsum,
    pcg_allocating,
    quad_points_einsum,
    sine_per_entry,
    space_load_einsum,
    time_modes_per_entry,
)

LEVELS = [pytest.param(1, k, id=f"d1-{k}") for k in range(9)] + [
    pytest.param(2, k, id=f"d2-{k}") for k in range(6)
]


def _space_mesh(d, k):
    initial = unit_square_initial() if d == 2 else unit_interval_mesh(1)
    return refine_uniform(initial, d * k)


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, k", LEVELS)
def test_mesh_kernels_are_bitwise_the_einsum_and_matmul_forms(d, k):
    mesh = _space_mesh(d, k)
    rng = np.random.default_rng(10 * d + k)
    for degree in (2, QUAD_ORDER):
        pts, _ = _cell_rule(mesh, degree)
        assert_bytes_equal(quad_points_physical(mesh, pts), quad_points_einsum(mesh, pts))
    solution = get_solution("cubic", d)
    points, phi, interp = phi_sample(mesh, solution)
    values = rng.standard_normal(phi.shape)
    for p in (1, 2):
        for f in (phi, values):
            assert_bytes_equal(space_load(mesh, p, f), space_load_einsum(mesh, p, f))
    grad_phi = solution.grad_phi(points).reshape(mesh.n_cells, -1, d)
    for field in (grad_phi[:, 0], rng.standard_normal((mesh.n_cells, d))):
        assert_bytes_equal(gradient_load(mesh, field), gradient_load_einsum(mesh, field))
    _, grads = assembly.ref_shapes(1, np.eye(d + 1)[:1])
    want = np.einsum("ie,ced->cid", grads[0], mesh.geometry[1])
    assert_bytes_equal(mesh.bary_gradients, want)
    assert not mesh.bary_gradients.flags.writeable
    pts, _ = _cell_rule(mesh, QUAD_ORDER)
    # I phi at one point, as the error terms take it, and a batch of rows
    # at every point
    rows = rng.standard_normal((2, 3, interp.size))
    for coeffs, at in ((interp, pts[:1]), (rows, pts)):
        assert_bytes_equal(
            fe_gradients_on_cells(mesh, coeffs, at), fe_gradients_matmul(mesh, coeffs, at)
        )


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("d, k", LEVELS[1:])  # d=1 k=0 has no interior dof
def test_pcg_in_place_is_bitwise_the_allocating_loop(d, k, l):
    cfg = ExperimentConfig(
        experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic", l=l
    )
    level = build_level(cfg, k)
    system = replace(level.system, reg_epsilon=choose_epsilon("plain", level.system.n, d))
    # the level's own stopping rule, then a tight threshold for more steps
    for threshold, max_iter in ((None, 5000), (1e-24, 12)):
        x, rep = pcg(system, level.g_x, threshold, max_iter)
        want_x, want_history, converged = pcg_allocating(
            system, level.g_x, threshold, max_iter
        )
        assert_bytes_equal(x, want_x)
        assert_bytes_equal(rep.residual_history, want_history)
        assert rep.converged == converged


@pytest.mark.parametrize("d", [1, 2])
def test_bary_gradients_computed_once_per_level(
    bary_gradient_computations, geometry_computations, d
):
    # the table serves both gradient loads and the gradient of I phi in
    # the error terms; the solves read the terms and compute nothing
    cfg = ExperimentConfig(
        experiment="convergence", d=d, T=1.0, k_range=[3], solution="cubic"
    )
    level = build_level(cfg, 3)
    solve_level(cfg, 3, level, "plain")
    solve_level(cfg, 3, level, "data-aware")
    (level_mesh,) = geometry_computations
    assert [m is level_mesh for m in bary_gradient_computations] == [True]


@pytest.mark.parametrize(
    "k",
    [pytest.param(k, id=str(k)) for k in range(11)]
    + [pytest.param(k, id=str(k), marks=pytest.mark.deep) for k in (11, 12)],
)
def test_trig_tables_are_bitwise_the_per_entry_forms(k):
    # the time modes of a level and of an interval-length window, and the
    # sine table of N = 2^k, each gathered from one row of reduced angles
    for tm in (TimeMesh(0.0, 1.0, k), TimeMesh(0.75, 1.0, k)):
        for got, want in zip(precond._time_modes(tm), time_modes_per_entry(tm)):
            assert_bytes_equal(got, want)
    assert_bytes_equal(precond._sine(2**k), sine_per_entry(2**k))


def test_dst2_table_is_bitwise_the_per_entry_form():
    for n in range(1, 65):
        assert_bytes_equal(precond._dst2(n), dst2_per_entry(n))


@pytest.mark.parametrize("d, k", [(1, 1), (1, 5), (1, 8), (2, 1), (2, 3), (2, 5)])
def test_eigenbasis_apply_and_lift_write_the_allocating_bytes(d, k):
    cfg = ExperimentConfig(
        experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic"
    )
    level = build_level(cfg, k)
    v = np.random.default_rng(k).standard_normal(level.system.n)
    for eps in (0.0, 0.3, 2.0):
        system = replace(level.system, reg_epsilon=eps)
        want = eigenbasis_apply_allocating(system, v)
        out, scratch = np.full((2, v.size), np.nan)
        assert system.apply(v, out, scratch) is out
        assert_bytes_equal(out, want)
        assert_bytes_equal(system.apply(v), want)
    lifted = np.full(v.size, np.nan)
    assert level.g_x.apply(v, lifted) is lifted
    assert_bytes_equal(lifted, v / level.system.modes[1].ravel())
    assert_bytes_equal(level.g_x.apply(v), lifted)


# x, r, z, p, S p, S z and the scratch vector
PCG_WORKSPACE = 7


@pytest.mark.parametrize("d, k", [(1, 8), (2, 5)])
def test_pcg_working_set_is_its_workspace(d, k):
    # tracemalloc's peak above pcg's start: its workspace and at most one
    # more full-length array of transients (the ufunc buffers of the
    # rank-one terms, about a quarter of one at these levels). A lift off
    # the exact one (the square root of its diagonal) forces every step,
    # and 12 steps peak where 3 do, less the residual history's floats: the
    # loop allocates nothing full-length
    cfg = ExperimentConfig(
        experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic"
    )
    level = build_level(cfg, k)
    system = replace(level.system, reg_epsilon=choose_epsilon("plain", level.system.n, d))
    loose = RieszPreconditioner(diagonal=np.sqrt(level.g_x.diagonal))
    full = system.rhs.nbytes
    peaks, steps = [], []
    runs = ((level.g_x, None, 5000), (loose, 1e-24, 3), (loose, 1e-24, 12))
    for g_x, threshold, max_iter in runs:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, rep = pcg(system, g_x, threshold, max_iter)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        steps.append(rep.iterations)
    assert steps[0] >= 1 and steps[1:] == [3, 12]
    assert max(peaks) <= (PCG_WORKSPACE + 1) * full
    assert 0 <= peaks[2] - peaks[1] <= 1024
