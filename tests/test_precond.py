"""Riesz lifts: the exact trial-space lift, and the test stiffness solve
that stands in for the test-space lift."""

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import eigh

from backsolve import precond
from backsolve.assembly import (
    QUAD_ORDER,
    quad_points,
    space_load,
    time_mass_trial,
    time_stiffness_trial,
)
from backsolve.mesh import (
    SpatialMesh,
    TimeMesh,
    refine_uniform,
    uniform_time_mesh,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.operators import TRIAL_SPACE, space_factors
from backsolve.operators import test_space_spec as enriched_space_spec
from backsolve.precond import UnsupportedMeshError, make_G_X, make_G_Y
from backsolve.solutions import get_solution
from backsolve.solver import build_system
from reference import dense, gram_X, gram_Y, space_mass, space_stiffness, system_data


def mesh_pair_1d():
    return uniform_time_mesh(0.0, 1.0, 1), unit_interval_mesh(4)


def mesh_pair_2d():
    return (
        uniform_time_mesh(0.0, 1.0, 1),
        refine_uniform(unit_square_initial(), 2),
    )


def reference_G_X(time_mesh, space_mesh):
    """Trial-space lift by a double dense eigendecomposition of the time
    pencil and the space pencil, the earlier form of make_G_X for every size."""
    mu, vx = eigh(
        space_stiffness(space_mesh, TRIAL_SPACE).toarray(),
        space_mass(space_mesh, TRIAL_SPACE).toarray(),
    )
    theta, zt = eigh(
        time_stiffness_trial(time_mesh).toarray(),
        time_mass_trial(time_mesh).toarray(),
    )
    theta = np.maximum(theta, 0.0)
    denom = mu[None, :] + theta[:, None] / mu[None, :]

    def apply(f):
        mat = f.reshape(zt.shape[0], vx.shape[0])
        w = (zt.T @ mat @ vx) / denom
        return (zt @ w @ vx.T).ravel()

    return apply


def _space_mesh(d, bisections):
    initial = unit_square_initial() if d == 2 else unit_interval_mesh(1)
    return refine_uniform(initial, bisections)


# (time mesh, space mesh): meshes the solver builds, with more and with
# fewer space dofs than time dofs, all solved by the one closed form
LIFT_CASES = {
    "d2-k1-long-time": (uniform_time_mesh(0.0, 1.0, 4), _space_mesh(2, 2)),
    "d2-k2": (uniform_time_mesh(0.0, 1.0, 2), _space_mesh(2, 4)),
    "d1-k3-long-time": (uniform_time_mesh(0.0, 1.0, 4), _space_mesh(1, 3)),
    "d1-k5": (uniform_time_mesh(0.0, 1.0, 2), _space_mesh(1, 5)),
    "d2-nonuniform-time": (
        TimeMesh(np.array([0.0, 0.05, 0.3, 0.35, 0.8, 1.0])),
        _space_mesh(2, 4),
    ),
    # N = 2: one grid dof, with no axis neighbour, and four centres
    "d2-k1": (uniform_time_mesh(0.0, 1.0, 1), _space_mesh(2, 2)),
    # N = 1: one centre and no grid dof
    "d2-k0": (uniform_time_mesh(0.0, 1.0, 0), _space_mesh(2, 0)),
    # N = 2: one grid dof, with no neighbour
    "d1-k1": (uniform_time_mesh(0.0, 1.0, 1), _space_mesh(1, 1)),
    # a level of the d=1 convergence benchmark
    "d1-k6": (uniform_time_mesh(0.0, 1.0, 6), _space_mesh(1, 6)),
}


def _dims(time_mesh, space_mesh):
    return time_mesh.n_elements + 1, space_mass(space_mesh, TRIAL_SPACE).shape[0]


def _recording_eigh(monkeypatch):
    sizes = []
    real = precond.scipy.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(precond.scipy.linalg, "eigh", recording)
    return sizes


class TestGXForms:
    @pytest.mark.parametrize("case", LIFT_CASES)
    def test_matches_double_eigendecomposition(self, case, monkeypatch):
        tm, sm = LIFT_CASES[case]
        n_t, n_x = _dims(tm, sm)
        reference = reference_G_X(tm, sm)
        sizes = _recording_eigh(monkeypatch)
        lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        assert sizes == [n_t]  # the time pencil only
        rng = np.random.default_rng(7)
        for _ in range(3):
            f = rng.standard_normal(n_t * n_x)
            want = reference(f)
            got = lift.apply(f)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", LIFT_CASES)
    def test_symmetric(self, case):
        tm, sm = LIFT_CASES[case]
        n_t, n_x = _dims(tm, sm)
        lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        rng = np.random.default_rng(8)
        for _ in range(3):
            f, g = rng.standard_normal((2, n_t * n_x))
            assert f @ lift.apply(g) == pytest.approx(g @ lift.apply(f), rel=1e-12)

    @pytest.mark.parametrize(
        "d, k", [(2, k) for k in (1, 2, 3)] + [(1, k) for k in range(1, 9)]
    )
    def test_decomposes_only_the_time_pencil(self, d, k, monkeypatch):
        # the levels of build_meshes, where d=1 has fewer space than time dofs
        tm, sm = uniform_time_mesh(0.0, 1.0, k), _space_mesh(d, d * k)
        n_t, _ = _dims(tm, sm)
        sizes = _recording_eigh(monkeypatch)
        make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        assert sizes == [n_t]


def _jittered(mesh, seed):
    """mesh with its interior vertices moved at random by well under a
    thousandth of an edge: the same cells, no longer uniform."""
    rng = np.random.default_rng(seed)
    interior = ~mesh.boundary_vertex_flags
    step = 1e-3 / np.sqrt(mesh.n_cells)
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(-step, step, (interior.sum(), mesh.dimension))
    return SpatialMesh(mesh.dimension, vertices, mesh.cells)


class TestGXClosedForm:
    """make_G_X solves the uniform meshes the solver builds in closed form,
    and refuses any other mesh before any work, whatever its size against
    the time mesh."""

    @pytest.mark.parametrize(
        "sm",
        [
            _space_mesh(2, 3),
            _jittered(_space_mesh(2, 4), 1),
            _jittered(_space_mesh(1, 4), 2),
            unit_interval_mesh(5),
        ],
        ids=["d2-three-sweeps", "d2-jittered", "d1-jittered", "d1-non-dyadic"],
    )
    def test_other_meshes_raise(self, sm, monkeypatch):
        tm = uniform_time_mesh(0.0, 1.0, 3)  # 9 time dofs: d1-non-dyadic has 4
        sizes = _recording_eigh(monkeypatch)
        a, m = space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        with pytest.raises(UnsupportedMeshError, match="not the stencils"):
            make_G_X(tm, sm, a, m)
        assert isinstance(UnsupportedMeshError(), ValueError)
        assert sizes == []  # not even the time pencil

    def test_makes_no_sparse_factorization(self, record_calls):
        tm, sm = uniform_time_mesh(0.0, 1.0, 4), _space_mesh(2, 8)
        factored = record_calls(scipy.sparse.linalg, "splu")
        make_G_X(tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE))
        assert factored == []


class TestGYLift:
    """make_G_Y's A_test solve, which the test-space lift reduces to."""

    def test_dual_norm_matches_dense_solve(self):
        # J(0) - |g|^2 is f(Y^-1 f), f = t_c x l_test the source load: its
        # squared dual norm sup (f v)^2 / ||v||_Y^2, computed independently
        # by a dense solve with the test Gram
        for tm, sm in (mesh_pair_1d(), mesh_pair_2d()):
            solution = get_solution("cubic", sm.dimension)
            for l in (0, 1):
                space = space_factors(sm, l)
                system = build_system(tm, sm, l, solution, space)
                f_load, _, g_sq = system_data(tm, sm, l, solution)
                Y = dense(gram_Y(tm, sm, l))
                assert system.j_zero - g_sq == pytest.approx(
                    f_load @ np.linalg.solve(Y, f_load), rel=1e-10
                )

    @pytest.mark.parametrize("d", [1, 2])
    def test_test_load_maps_to_the_p1_load(self, d):
        # P1 lies in P2 with the same Dirichlet boundary, so A_mix = A_test P
        # and A_mix^T A_test^-1 l_test = P^T l_test, the P1 load of the same
        # sample of phi: the identity that puts l_P1 into the right-hand side
        sm = _space_mesh(d, 6)
        _, _, _, a_mix, a_test = space_factors(sm, 1)
        phi = get_solution("cubic", d).phi(quad_points(sm, QUAD_ORDER))
        test_load = space_load(sm, enriched_space_spec(1), phi, QUAD_ORDER)
        p1_load = space_load(sm, TRIAL_SPACE, phi, QUAD_ORDER)
        got = a_mix.T @ make_G_Y(a_test)(test_load)
        assert np.linalg.norm(got - p1_load) <= 1e-12 * np.linalg.norm(p1_load)

    @pytest.mark.parametrize("l", [0, 1])
    def test_space_solve_inverts_test_stiffness(self, l):
        _, sm = mesh_pair_2d()
        a_test = space_factors(sm, l)[4]
        cols = np.random.default_rng(4).standard_normal((a_test.shape[0], 3))
        got = a_test @ make_G_Y(a_test)(cols)
        assert np.max(np.abs(got - cols)) <= 1e-12 * np.max(np.abs(cols))


class TestGXLift:
    def test_inverts_gram(self):
        tm, sm = mesh_pair_2d()
        G = gram_X(tm, sm)
        lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(G.shape[1])
            got = lift.apply(G.apply(v))
            assert np.max(np.abs(got - v)) <= 1e-8 * max(1.0, np.max(np.abs(v)))

    def test_positive_on_functionals(self):
        tm, sm = mesh_pair_1d()
        lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        n = gram_X(tm, sm).shape[0]
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(n)
            assert f @ lift.apply(f) > 0.0

    def test_deterministic(self):
        tm, sm = mesh_pair_1d()
        rng = np.random.default_rng(5)
        f = rng.standard_normal(gram_X(tm, sm).shape[0])
        first = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        ).apply(f)
        again_same_lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        ).apply(f)
        assert np.array_equal(first, again_same_lift)

    def test_norm_equivalence_is_identity(self):
        # exact lift: the preconditioned Rayleigh quotient sits at 1
        tm, sm = mesh_pair_1d()
        G = gram_X(tm, sm)
        lift = make_G_X(
            tm, sm, space_stiffness(sm, TRIAL_SPACE), space_mass(sm, TRIAL_SPACE)
        )
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(G.shape[1])
            ratio = v @ G.apply(lift.apply(G.apply(v))) / (v @ G.apply(v))
            assert ratio == pytest.approx(1.0, abs=1e-8)
