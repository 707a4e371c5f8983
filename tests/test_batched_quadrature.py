"""Batched space-time quadrature against the per-time-point loops it replaced.

The reference helpers below are the earlier implementations, kept as the
definition of the quantities: one spatial load per time Gauss point, one FE
evaluation (with its own geometry) per time Gauss point and error mode, and
the system data loaded from callables, each evaluated on its own points.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from backsolve import assembly
from backsolve.assembly import (
    QUAD_ORDER,
    _cell_rule,
    fe_gradients_on_cells,
    fe_values_on_cells,
    load_vector_f,
    quad_points,
    quad_points_physical,
    ref_shapes,
    space_dof_map,
    space_load,
)
from backsolve.config import ExperimentConfig
from backsolve.mesh import (
    TimeMesh,
    cell_volumes,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.operators import space_factors
from backsolve.oracle import mode_perturbation, random_perturbation
from backsolve.precond import make_G_X, space_stencils
from backsolve.quadrature import gauss_1d_for_degree
from backsolve.solutions import ManufacturedSolution, get_solution
from backsolve.solver import (
    _tensor_error_sq,
    build_level,
    build_meshes,
    error_report,
    interpolation_gap_xnorm,
    nodal_interpolant,
    solve_level,
)
from reference import (
    BRoute,
    graded_time_mesh,
    gram_X,
    level_error_report,
    level_error_terms,
    level_system,
    system_data,
    to_dofs,
    to_slots,
)

RTOL = 1e-12


def _ref_space_load(mesh, p, func, degree):
    dm = space_dof_map(mesh, p)
    pts, w = _cell_rule(mesh, degree)
    vol, _ = mesh.geometry
    vals, _ = ref_shapes(p, pts)
    xq = quad_points_physical(mesh, pts)
    fq = np.asarray(func(xq.reshape(-1, mesh.dimension))).reshape(xq.shape[:2])
    cell_load = vol[:, None] * np.einsum("q,cq,qi->ci", w, fq, vals)
    out = np.zeros(dm.n_dofs)
    np.add.at(out, dm.cell_dofs.ravel().clip(min=0), np.where(
        dm.cell_dofs.ravel() >= 0, cell_load.ravel(), 0.0
    ))
    return out


def _ref_load_vector_f(time_mesh, space_mesh, p, f, quad_order):
    n_x = space_dof_map(space_mesh, p).n_dofs
    out = np.zeros((2 * time_mesh.n_elements, n_x))
    sq, wq = gauss_1d_for_degree(quad_order)
    for e in range(time_mesh.n_elements):
        t0, t1 = time_mesh.breakpoints[e], time_mesh.breakpoints[e + 1]
        h = t1 - t0
        psi = assembly.test_basis_values(sq, h)
        for q in range(sq.size):
            t = t0 + h * sq[q]
            lx = _ref_space_load(space_mesh, p, lambda x: f(t, x), quad_order)
            out[2 * e : 2 * e + 2] += (h * wq[q]) * np.outer(
                psi[:, q], lx
            )
    return out.reshape(-1)


def _ref_tensor_error_sq(time_mesh, space_mesh, coeffs, solution, quad_order, mode):
    n_x = coeffs.size // time_mesh.breakpoints.size
    mat = coeffs.reshape(-1, n_x)
    pts, w = _cell_rule(space_mesh, quad_order)
    vol = cell_volumes(space_mesh)
    phys = quad_points_physical(space_mesh, pts)
    flat = phys.reshape(-1, space_mesh.dimension)
    sq, wq = gauss_1d_for_degree(quad_order)
    total = 0.0
    for e in range(time_mesh.n_elements):
        t0, t1 = time_mesh.breakpoints[e], time_mesh.breakpoints[e + 1]
        h = t1 - t0
        for s, tw in zip(sq, wq):
            t = t0 + h * s
            if mode == "dt":
                c = (mat[e + 1] - mat[e]) / h
                approx = fe_values_on_cells(space_mesh, c, pts)
                exact = solution.dtau(t) * solution.phi(flat).reshape(approx.shape)
                diff_sq = (approx - exact) ** 2
            elif mode == "h1":
                c = (1.0 - s) * mat[e] + s * mat[e + 1]
                approx = fe_gradients_on_cells(space_mesh, c, pts)
                exact = solution.tau(t) * solution.grad_phi(flat)
                exact = exact.reshape(approx.shape)
                diff_sq = np.sum((approx - exact) ** 2, axis=2)
            else:
                c = (1.0 - s) * mat[e] + s * mat[e + 1]
                approx = fe_values_on_cells(space_mesh, c, pts)
                exact = solution.tau(t) * solution.phi(flat).reshape(approx.shape)
                diff_sq = (approx - exact) ** 2
            total += h * tw * float(np.einsum("c,q,cq->", vol, w, diff_sq))
    return total


def _ref_sin_product(x):
    return np.prod(np.sin(np.pi * x), axis=1)


def _ref_grad_sin_product(x):
    s = np.sin(np.pi * x)
    c = np.cos(np.pi * x)
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        others = np.prod(np.delete(s, i, axis=1), axis=1) if x.shape[1] > 1 else 1.0
        out[:, i] = np.pi * c[:, i] * others
    return out


# The earlier manufactured solutions, one closure per quantity, each taking
# a scalar time and an (m, d) point array; they return (u, du_dt, grad, f).


def _ref_cubic(d):
    lam = d * np.pi**2

    def u(t, x):
        return (1.0 + t**3) * _ref_sin_product(x)

    def du_dt(t, x):
        return 3.0 * t**2 * _ref_sin_product(x)

    def grad(t, x):
        return (1.0 + t**3) * _ref_grad_sin_product(x)

    def f(t, x):
        return (3.0 * t**2 + lam * (1.0 + t**3)) * _ref_sin_product(x)

    return u, du_dt, grad, f


def _ref_decay(d):
    lam = d * np.pi**2

    def u(t, x):
        return np.exp(lam * (1.0 - t)) * _ref_sin_product(x)

    def du_dt(t, x):
        return -lam * np.exp(lam * (1.0 - t)) * _ref_sin_product(x)

    def grad(t, x):
        return np.exp(lam * (1.0 - t)) * _ref_grad_sin_product(x)

    def f(t, x):
        return np.zeros(x.shape[0])

    return u, du_dt, grad, f


def _ref_zero(d):
    z1 = lambda t, x: np.zeros(x.shape[0])  # noqa: E731
    zd = lambda t, x: np.zeros_like(x)  # noqa: E731
    return z1, z1, zd, z1


_REF_SOLUTIONS = {"cubic": _ref_cubic, "decay": _ref_decay, "zero": _ref_zero}


def _space_mesh(d, k):
    initial = unit_square_initial() if d == 2 else unit_interval_mesh(1)
    return refine_uniform(initial, d * k)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("degree", [1, 2])
def test_load_vector_f_matches_per_time_point_loop(d, degree):
    sm = _space_mesh(d, 2)
    sol = get_solution("cubic", d)
    f = lambda t, x: sol.source(t) * sol.phi(x)  # noqa: E731
    phi_load = space_load(sm, degree, sol.phi(quad_points(sm)))
    for tm in (TimeMesh(0.25, 1.0, 2), _time_meshes(2)[1]):
        got = np.outer(load_vector_f(tm, sol.source), phi_load).ravel()
        ref = _ref_load_vector_f(tm, sm, degree, f, QUAD_ORDER)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_space_load_scatter_is_bytewise_the_add_at_loop(d, p):
    sm = _space_mesh(d, 2)
    g = lambda x: np.cos(2.0 * x[:, 0]) + x[:, -1]  # noqa: E731
    np.testing.assert_array_equal(
        space_load(sm, p, g(quad_points(sm))), _ref_space_load(sm, p, g, QUAD_ORDER)
    )


def _ref_integrate_squared(mesh, func, degree):
    pts, w = _cell_rule(mesh, degree)
    vol, _ = mesh.geometry
    xq = quad_points_physical(mesh, pts)
    fq = np.asarray(func(xq.reshape(-1, mesh.dimension))).reshape(xq.shape[:2])
    return float(np.einsum("c,q,cq->", vol, w, fq**2))


def _ref_system_data(tm, sm, l, solution, perturbation):
    """f_load, g_load and g_sq by the earlier callable route.

    The source is loaded from the callable phi; g = u(T) (None for the zero
    solution) and the perturbation are callables, each loaded and squared
    on its own evaluation of the rule points.
    """
    q = QUAD_ORDER
    phi_load = _ref_space_load(sm, 1 + l, solution.phi, q)
    f_load = np.outer(load_vector_f(tm, solution.source), phi_load).ravel()
    T = tm.breakpoints[-1]
    g = None if solution.name == "zero" else lambda x: solution.tau(T) * solution.phi(x)
    n_x = space_dof_map(sm, 1).n_dofs
    g_load = np.zeros(n_x) if g is None else _ref_space_load(sm, 1, g, q)
    g_sq = 0.0 if g is None else _ref_integrate_squared(sm, g, q)
    if isinstance(perturbation, np.ndarray):
        # slot-order coefficients loaded through the level's mass stencils,
        # as build_level loads them; test_precond checks the stencil
        # products against the CSR ones
        c, st = perturbation, space_factors(sm, 1)[0]
        mass_c = st.product((st.mass, c))
        g_sq += float(c @ mass_c) + 2.0 * float(c @ st.gather(g_load))
        g_load = g_load + st.scatter(mass_c)
    elif perturbation is not None:
        pert_eval = perturbation.evaluate
        g_load = g_load + _ref_space_load(sm, 1, pert_eval, q)
        if g is None:
            g_sq = _ref_integrate_squared(sm, pert_eval, q)
        else:
            g_sq = _ref_integrate_squared(sm, lambda x: g(x) + pert_eval(x), q)
    return f_load, g_load, g_sq


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("T", [1.0, 0.125])
@pytest.mark.parametrize("noise", [None, "nodal", "spectral"])
def test_system_data_match_the_callable_route(d, l, T, noise):
    # at T = 1 the cubic tau(T) = 2 scales exactly, so the data agree
    # bitwise; at T = 1/8 scaling the phi load by tau(T) rounds differently
    # from loading tau(T) phi
    tm = TimeMesh(0.0, T, 2)
    sm = _space_mesh(d, 2)
    perturbation = {
        None: None,
        "nodal": random_perturbation(space_factors(sm, 1)[0], 0.01, 3),
        "spectral": mode_perturbation(1, T, 0.05, d),
    }[noise]
    for name in ("cubic", "decay", "zero"):
        solution = get_solution(name, d)
        space = space_factors(sm, l)
        system = level_system(tm, sm, l, solution, space, perturbation)
        ref_data = _ref_system_data(tm, sm, l, solution, perturbation)
        data = system_data(tm, sm, l, solution, perturbation)
        for key, got, want in zip(("f_load", "g_load", "g_sq"), data, ref_data):
            if T == 1.0:
                np.testing.assert_array_equal(got, want, err_msg=f"{name} {key}")
            else:
                gap = np.max(np.abs(np.subtract(got, want)), initial=0.0)
                assert gap <= 1e-13 * np.max(np.abs(want), initial=0.0), (name, key)
        # h and J(0) come from one A_test solve, not from B and the Y lift
        ref = BRoute(tm, sm, l, 0.3, *ref_data)
        rhs, j_zero = to_dofs(system.stencils, system.rhs), system.j_zero
        for key, got, want in (("rhs", rhs, ref.rhs), ("j_zero", j_zero, ref.j_zero)):
            gap = np.linalg.norm(np.subtract(got, want))
            assert gap <= 1e-12 * np.linalg.norm(want), (name, key)


def _coeff_cases(tm, sm, solution):
    interp = nodal_interpolant(tm, sm, solution)
    return interp, np.random.default_rng(3).standard_normal(interp.size)


def _ref_slice_errors(time_mesh, space_mesh, coeffs, solution, slice_times, quad_order):
    # one FE evaluation per requested slice, at its nearest breakpoint
    bp = time_mesh.breakpoints
    mat = coeffs.reshape(bp.size, -1)
    pts, w = _cell_rule(space_mesh, quad_order)
    vol = cell_volumes(space_mesh)
    phys = quad_points_physical(space_mesh, pts)
    phi = solution.phi(phys.reshape(-1, space_mesh.dimension)).reshape(phys.shape[:2])
    out = {}
    for t_req in slice_times:
        idx = int(np.argmin(np.abs(bp - t_req)))
        approx = fe_values_on_cells(space_mesh, mat[idx], pts)
        exact = solution.tau(bp[idx]) * phi
        err_sq = float(np.einsum("c,q,cq->", vol, w, (approx - exact) ** 2))
        out[float(t_req)] = math.sqrt(max(err_sq, 0.0))
    return out


def _time_meshes(k):
    # uniform, and one with random element lengths
    steps = np.random.default_rng(k).uniform(0.2, 1.0, 2**k)
    graded = graded_time_mesh(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
    return TimeMesh(0.0, 1.0, k), graded


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["cubic", "decay", "zero"])
def test_error_quadrature_matches_per_gauss_point_loop(d, k, name):
    sm = _space_mesh(d, k)
    solution = get_solution(name, d)
    lam1 = d * math.pi**2
    q = QUAD_ORDER
    slice_times = [0.0, 0.3, 0.5, 1.0]
    cases = [
        (tm, coeffs)
        for tm in _time_meshes(k)
        for coeffs in _coeff_cases(tm, sm, solution)
    ]
    for tm, coeffs in cases:
        ref = {
            mode: _ref_tensor_error_sq(tm, sm, coeffs, solution, q, mode)
            for mode in ("l2", "h1", "dt")
        }
        gap = interpolation_gap_xnorm(tm, sm, coeffs, solution)
        assert gap == pytest.approx(
            math.sqrt(ref["h1"] + ref["dt"] / lam1), rel=RTOL
        )
        rep = level_error_report(tm, sm, coeffs, solution, slice_times)
        assert rep.l2l2 == pytest.approx(math.sqrt(ref["l2"]), rel=RTOL)
        assert rep.l2h1 == pytest.approx(math.sqrt(ref["h1"]), rel=RTOL)
        ref_slices = _ref_slice_errors(tm, sm, coeffs, solution, slice_times, q)
        assert rep.l2_slices.keys() == ref_slices.keys()
        for t, err in ref_slices.items():
            assert rep.l2_slices[t] == pytest.approx(err, rel=RTOL)


@pytest.mark.parametrize("d", [1, 2])
def test_error_modes_asked_together_match_each_alone(d):
    # "l2" and "dt" read the same errors D_i, formed once in place in the FE
    # values; asked together, each mode gives what it gives alone
    tm, sm = TimeMesh(0.0, 1.0, 3), _space_mesh(d, 3)
    solution = get_solution("cubic", d)
    for coeffs in _coeff_cases(tm, sm, solution):
        modes = ("l2", "dt", "h1")
        together, slices = _tensor_error_sq(tm, sm, coeffs, solution, modes)
        for mode, got in zip(modes, together):
            (alone,), _ = _tensor_error_sq(tm, sm, coeffs, solution, (mode,))
            assert got == alone
        _, alone_slices = _tensor_error_sq(tm, sm, coeffs, solution, ("l2",))
        np.testing.assert_array_equal(slices, alone_slices)


# a slice error far below |u(t_i)| is read to an absolute accuracy: both
# sides subtract tau_i phi from an iterate of about its size (at the points,
# or in coefficients as U_i - tau_i I phi), each rounding to about 1e-16
# |u(t_i)|, so what they agree on is a few of those ulps, not a share of the
# slice error itself
SLICE_ATOL = 1e-14


@pytest.mark.parametrize(
    "d, k", [(1, k) for k in range(1, 7)] + [(2, k) for k in range(1, 5)]
)
@pytest.mark.parametrize("name", ["cubic", "decay"])
def test_error_report_matches_the_tensor_quadrature(d, k, name):
    # the report of a solved level against the same quadrature evaluated at
    # the points, for the iterate, the nodal interpolant and random rows
    cfg = ExperimentConfig(
        experiment="convergence", d=d, T=1.0, k_range=[k], solution=name
    )
    tm, sm = build_meshes(cfg, k)
    level = build_level(cfg, k)
    solved, _, _ = solve_level(cfg, k, level, "plain")
    bp = tm.breakpoints
    # |u(t_i)| = |tau(t_i)| |phi|, and |phi|^2 = 2^-d
    norm_u = np.abs([level.solution.tau(t) for t in bp]) * 0.5 ** (d / 2)
    for coeffs in (solved, *_coeff_cases(tm, sm, level.solution)):
        slots = to_slots(level.system.stencils, coeffs)
        rep = error_report(tm, slots, level.solution, level.error_terms, bp)
        (l2_sq, h1_sq), slice_sq = _tensor_error_sq(
            tm, sm, coeffs, level.solution, ("l2", "h1")
        )
        assert rep.l2l2 == pytest.approx(math.sqrt(l2_sq), rel=RTOL)
        assert rep.l2h1 == pytest.approx(math.sqrt(h1_sq), rel=RTOL)
        want = np.sqrt(slice_sq)
        got = np.array([rep.l2_slices[t] for t in bp])
        np.testing.assert_array_less(
            np.abs(got - want), np.maximum(RTOL * want, SLICE_ATOL * norm_u)
        )


@pytest.mark.parametrize("d", [1, 2])
def test_set_up_work_does_not_grow_with_time_elements(
    record_calls, geometry_computations, d
):
    calls = {
        name: record_calls(assembly, name) for name in ("space_dof_map", "space_load")
    }
    sm = _space_mesh(d, 2)
    solution = get_solution("cubic", d)
    # a stand-in with the same factors that counts the phi and grad_phi
    # evaluations
    counted = SimpleNamespace(
        **{
            key: getattr(solution, key)
            for key in ("tau", "dtau", "source", "phi", "grad_phi")
        }
    )
    for name in ("phi", "grad_phi"):
        calls[name] = record_calls(counted, name)
    per_mesh = []
    for k in (1, 4):  # 2 and 16 time elements
        tm = TimeMesh(0.0, 1.0, k)
        coeffs = nodal_interpolant(tm, sm, solution)
        terms = []
        seen = []
        for call in (
            lambda: np.outer(
                load_vector_f(tm, counted.source),
                assembly.space_load(sm, 2, counted.phi(quad_points(sm))),
            ),
            lambda: nodal_interpolant(tm, sm, counted),
            lambda: interpolation_gap_xnorm(tm, sm, coeffs, counted),
            lambda: terms.append(level_error_terms(sm, counted)),
            lambda: error_report(
                tm, to_slots(terms[0].stencils, coeffs), counted, terms[0], [0.5]
            ),
        ):
            for recorded in calls.values():
                recorded.clear()
            call()
            seen.append({name: len(recorded) for name, recorded in calls.items()})
        per_mesh.append(seen)
    assert per_mesh[0] == per_mesh[1]
    # the load is one space load of phi; a level's error terms load phi and
    # psi = phi - I phi, from one phi and one grad_phi sample; the report
    # reads them and samples, loads and maps nothing
    assert [c["space_load"] for c in per_mesh[0]] == [1, 0, 0, 2, 0]
    assert per_mesh[0][0]["phi"] == 1
    assert all(c["phi"] >= 1 for c in per_mesh[0][1:3])
    assert per_mesh[0][2]["grad_phi"] >= 1
    assert per_mesh[0][3]["phi"] == per_mesh[0][3]["grad_phi"] == 1
    assert set(per_mesh[0][4].values()) == {0}
    # the mesh's cell geometry is computed once, for all ten calls
    assert len(geometry_computations) == 1
    assert geometry_computations[0] is sm


@pytest.mark.parametrize("d", [1, 2])
def test_sin_products_are_bytewise_the_earlier_ones(d):
    x = np.random.default_rng(5).uniform(0.0, 1.0, size=(200, d))
    x[:7] = np.array([0.0, 0.5, 1.0, 0.25, 1e-300, 0.75, 1.0 - 1e-16])[:, None]
    phi, grad_phi = ManufacturedSolution.phi, ManufacturedSolution.grad_phi
    np.testing.assert_array_equal(grad_phi(x), _ref_grad_sin_product(x))
    np.testing.assert_array_equal(phi(x), _ref_sin_product(x))
    # each factored solution against its earlier closures, at the breakpoints
    # (0 and 1 among them) and at time Gauss points formed as the solver does
    bp = TimeMesh(0.0, 1.0, 3).breakpoints
    sq, _ = gauss_1d_for_degree(QUAD_ORDER)
    gauss = [bp[e] + (bp[e + 1] - bp[e]) * s for e in range(bp.size - 1) for s in sq]
    for name, ref in _REF_SOLUTIONS.items():
        sol = get_solution(name, d)
        u, du_dt, grad, f = ref(d)
        for t in [0.0, 1.0, *bp, *gauss]:
            np.testing.assert_array_equal(sol.tau(t) * phi(x), u(t, x))
            np.testing.assert_array_equal(sol.source(t) * phi(x), f(t, x))
            np.testing.assert_array_equal(sol.dtau(t) * phi(x), du_dt(t, x))
            np.testing.assert_array_equal(sol.tau(t) * grad_phi(x), grad(t, x))


class TestDenseSizeGuard:
    def test_lift_builds_when_dense_would_not_fit(self):
        # the trial-space lift allocates nothing n_x x n_x in d=2: its set-up
        # and one apply together peak below one such float64 array
        tm = TimeMesh(0.0, 1.0, 1)
        sm = _space_mesh(2, 4)
        st = space_stencils(sm)  # the lift's slot order, outside the trace
        n_x = st.slots.size
        G = gram_X(tm, sm)
        v = np.random.default_rng(9).standard_normal(G.shape[1])
        f = to_slots(st, G.apply(v))
        tracemalloc.start()
        try:
            got = make_G_X(tm, space_stencils(sm)).apply(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_x * n_x * 8
        got = to_dofs(st, got)
        assert np.max(np.abs(got - v)) <= 1e-8 * max(1.0, np.max(np.abs(v)))
