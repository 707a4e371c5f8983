"""Riesz lifts: the exact trial-space lift, and the test stiffness solve
that stands in for the test-space lift."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg import eigh

from backsolve import precond
from backsolve.assembly import quad_points, space_load
from backsolve.mesh import (
    SpatialMesh,
    TimeMesh,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.config import ExperimentConfig
from backsolve.operators import space_factors
from backsolve.precond import (
    RieszPreconditioner,
    UnsupportedMeshError,
    make_G_X,
    make_G_Y,
    space_stencils,
    stiffness_solve,
)
from backsolve.solutions import get_solution
from backsolve.solver import build_level, solve_backward
from reference import (
    dense,
    dof_order,
    gram_X,
    gram_Y,
    hat_matrix,
    level_system,
    space_csr,
    space_mass,
    space_stiffness,
    stencil_classes,
    system_data,
    time_mass_trial,
    time_stiffness_trial,
)


def mesh_pair_1d():
    return TimeMesh(0.0, 1.0, 1), unit_interval_mesh(4)


def mesh_pair_2d():
    return (
        TimeMesh(0.0, 1.0, 1),
        refine_uniform(unit_square_initial(), 2),
    )


def reference_G_X(time_mesh, space_mesh):
    """Trial-space lift by a double dense eigendecomposition of the time
    pencil and the space pencil, the earlier form of make_G_X for every size."""
    mu, vx = eigh(
        space_stiffness(space_mesh, 1).toarray(),
        space_mass(space_mesh, 1).toarray(),
    )
    theta, zt = eigh(
        hat_matrix(time_stiffness_trial(time_mesh)).toarray(),
        hat_matrix(time_mass_trial(time_mesh)).toarray(),
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


def _lift(tm, sm):
    """make_G_X's lift of the level on a vector or columns in dof order."""
    st = space_stencils(sm)
    lift = make_G_X(tm, st)

    def apply(f):  # a row of space dofs per breakpoint, per column
        rows = f.reshape(-1, st.slots.size, *f.shape[1:])
        out = lift.apply(rows[:, st.slots].reshape(f.shape))
        return out.reshape(rows.shape)[:, st.rank].reshape(f.shape)

    return RieszPreconditioner(apply)


# (time mesh, space mesh): meshes the solver builds, with more and with
# fewer space dofs than time dofs, all solved by the one closed form
LIFT_CASES = {
    "d2-k1-long-time": (TimeMesh(0.0, 1.0, 4), _space_mesh(2, 2)),
    "d2-k2": (TimeMesh(0.0, 1.0, 2), _space_mesh(2, 4)),
    "d1-k3-long-time": (TimeMesh(0.0, 1.0, 4), _space_mesh(1, 3)),
    "d1-k5": (TimeMesh(0.0, 1.0, 2), _space_mesh(1, 5)),
    # the restricted window of the interval-length study
    "d2-k2-window": (TimeMesh(0.75, 1.0, 2), _space_mesh(2, 4)),
    # N = 2: one grid dof, with no axis neighbour, and four centres
    "d2-k1": (TimeMesh(0.0, 1.0, 1), _space_mesh(2, 2)),
    # N = 1: one centre and no grid dof
    "d2-k0": (TimeMesh(0.0, 1.0, 0), _space_mesh(2, 0)),
    # N = 2: one grid dof, with no neighbour
    "d1-k1": (TimeMesh(0.0, 1.0, 1), _space_mesh(1, 1)),
    # a level of the d=1 convergence benchmark
    "d1-k6": (TimeMesh(0.0, 1.0, 6), _space_mesh(1, 6)),
}


def _dims(time_mesh, space_mesh):
    return time_mesh.n_elements + 1, space_mass(space_mesh, 1).shape[0]


def _recording_eigh(monkeypatch):
    """List that receives the size of every scipy or numpy eigh call."""
    sizes = []
    for owner in (scipy.linalg, np.linalg):
        real = owner.eigh

        def recording(a, *args, _real=real, **kwargs):
            sizes.append(np.shape(a)[0])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(owner, "eigh", recording)
    return sizes


class TestGXForms:
    @pytest.mark.parametrize("case", LIFT_CASES)
    def test_matches_double_eigendecomposition(self, case):
        tm, sm = LIFT_CASES[case]
        n_t, n_x = _dims(tm, sm)
        reference = reference_G_X(tm, sm)
        lift = _lift(tm, sm)
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
        lift = _lift(tm, sm)
        rng = np.random.default_rng(8)
        for _ in range(3):
            f, g = rng.standard_normal((2, n_t * n_x))
            assert f @ lift.apply(g) == pytest.approx(g @ lift.apply(f), rel=1e-12)

    @pytest.mark.parametrize(
        "d, k", [(2, k) for k in (1, 2, 3)] + [(1, k) for k in range(1, 9)]
    )
    def test_makes_no_eigendecomposition(self, d, k, monkeypatch):
        # the levels of build_meshes, where d=1 has fewer space than time
        # dofs: the time modes are in closed form too
        tm, sm = TimeMesh(0.0, 1.0, k), _space_mesh(d, d * k)
        stencils = space_stencils(sm)
        sizes = _recording_eigh(monkeypatch)
        make_G_X(tm, stencils)
        assert sizes == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_l0_level_makes_no_eigendecomposition(self, d, monkeypatch):
        # an l = 0 level, its space modes included, is built in closed form
        cfg = ExperimentConfig(experiment="convergence", d=d, T=1.0, k_range=[3])
        sizes = _recording_eigh(monkeypatch)
        build_level(cfg, 3)
        assert sizes == []


def _time_pencil(tm):
    pencil = (time_stiffness_trial(tm), time_mass_trial(tm))
    return tuple(hat_matrix(blocks).toarray() for blocks in pencil)


class TestTimeModes:
    """The closed-form eigenpairs of the time pencil and the trig tables."""

    @pytest.mark.parametrize("k", range(11))
    def test_match_eigh(self, k):
        tm = TimeMesh(0.0, 1.0, k)
        theta, z = precond._time_modes(tm)
        want, want_z = eigh(*_time_pencil(tm))
        # relative to the largest: eigh's small eigenvalues carry an absolute
        # error of some eps * theta_max (5e-12 relative to theta_1 at k = 10)
        assert np.max(np.abs(theta - want)) <= 1e-14 * want[-1]
        assert theta[0] == 0.0  # constants in time
        signs = np.sign(np.sum(z * want_z, axis=0))
        assert np.max(np.abs(z - signs * want_z)) <= 1e-10 * np.max(np.abs(want_z))

    @pytest.mark.parametrize("k", range(11))
    def test_tables_orthonormal(self, k):
        # i j and p i reduced mod 2N before the scaling by pi / N; unreduced,
        # the sine table is off by 20 eps at N = 64 and 180 eps at N = 1024
        eps = np.finfo(float).eps
        tm = TimeMesh(0.0, 1.0, k)
        _, z = precond._time_modes(tm)
        _, t_mass = _time_pencil(tm)
        assert np.max(np.abs(z.T @ t_mass @ z - np.eye(z.shape[0]))) <= 8 * eps
        sine = precond._sine(2**k)
        residual = np.abs(sine @ sine - np.eye(sine.shape[0]))
        assert np.max(residual, initial=0.0) <= 8 * eps  # N = 1: empty
        dst2 = precond._dst2(2**k)  # orthogonal, not symmetric
        assert np.max(np.abs(dst2 @ dst2.T - np.eye(2**k))) <= 8 * eps


class TestSpaceModes:
    """space_modes: the trial stiffness and mass in their common eigenbasis,
    in closed form at both d: V^T A V = diag(a), V^T M V = diag(m)."""

    @pytest.mark.parametrize(
        "d, k",
        [pytest.param(1, k, id=str(k)) for k in range(1, 7)]
        + [pytest.param(2, k, id=f"d2-{k}") for k in range(5)],
    )
    def test_diagonalize_the_assembled_matrices(self, d, k):
        sm = _space_mesh(d, d * k)
        st = space_stencils(sm)
        v = st.modes[3](np.eye(st.slots.size)).T  # back maps the rows of I to V^T
        for values, csr in zip(st.modes, (space_stiffness(sm, 1), space_mass(sm, 1))):
            want = csr.toarray()[np.ix_(st.slots, st.slots)]
            got = v.T @ want @ v
            scale = np.max(np.abs(values))
            assert np.max(np.abs(got - np.diag(values))) <= 1e-13 * scale

    @pytest.mark.parametrize("d, k", [(1, 6), (2, 0), (2, 1), (2, 4)])
    def test_forward_and_back_are_transposes(self, d, k):
        # x . forward(y) = back(x) . y on random rows, batched on a leading axis
        st = space_stencils(_space_mesh(d, d * k))
        _, _, forward, back = st.modes
        x, y = np.random.default_rng(k).standard_normal((2, 3, st.slots.size))
        got = np.einsum("ij,ij->i", x, forward(y))
        want = np.einsum("ij,ij->i", back(x), y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_one_square_builds_and_solves(self):
        # N = 1: one centre, no grid dof, one 1 x 1 block of A = 4, M = 1/6
        st = space_stencils(_space_mesh(2, 0))
        a, m, _, _ = st.modes
        assert (a.shape, m.shape) == ((1,), (1,))
        assert a[0] == pytest.approx(24.0, rel=1e-15) and m[0] == 1.0
        assert stiffness_solve(st)(np.array([4.0])) == pytest.approx([1.0], rel=1e-15)

    def test_smallest_stiffness_eigenvalue_keeps_its_digits(self):
        # (4/h) sin^2(pi / 2N) at N = 1024, against a long double reference;
        # a0 + a1 2 cos(pi / N) would cancel about five digits of it
        n = 1024
        a, *_ = space_stencils(_space_mesh(1, 10)).modes
        pi = 4 * np.arctan(np.longdouble(1))
        want = 4 * n * np.sin(pi / (2 * n)) ** 2
        assert a.min() == a[0]
        assert abs(a[0] - want) <= 1e-15 * want

    def test_smallest_d2_stiffness_eigenvalue_keeps_its_digits(self):
        # the smaller root of mode (1, 1)'s 2 x 2 pencil at N = 64, against
        # the same closed form in long double. Batched np.linalg.eigh on
        # the Cholesky-reduced blocks reads it 6.1e-15, 7.1e-14 and 2.4e-13
        # off at N = 16, 32 and 64
        n = 64
        st = space_stencils(_space_mesh(2, 12))
        ld = np.longdouble
        pi = 4 * np.arctan(ld(1))
        sigma, cos_sq = 4 * np.sin(pi / (2 * n)) ** 2, np.cos(pi / (2 * n)) ** 2
        h_sq = ld(1) / (n * n)
        g_a, b_a, al_a = ld(4), -4 * cos_sq, ld(4)  # the stiffness's block
        g_m = h_sq / 2 - h_sq * sigma / 12  # the mass's, (1/24)-stencils
        b_m, al_m = h_sq * cos_sq / 6, h_sq / 6
        det_a, det_m = 8 * sigma - sigma * sigma, g_m * al_m - b_m * b_m
        trace = g_a * al_m + g_m * al_a - 2 * b_a * b_m
        big = (trace + np.sqrt(trace * trace - 4 * det_m * det_a)) / (2 * det_m)
        want = det_a / (det_m * big)
        a = st.modes[0]
        assert a.min() == a[0]
        assert abs(a[0] - want) <= 1e-15 * want

    # max |V^T M V - I| at d = 2, measured: the loss sits at the top mode
    # (N - 1, N - 1), where the 2 x 2 pencil's eigenvalues nearly coincide
    # and the vectors read off a row of A - lam M cancel; it grows about 4x
    # per level. A known defect, pinned with a margin of 2
    M_ORTHONORMALITY_LOSS = {4: 2.1e-15, 5: 1.6e-14, 6: 9.3e-14}

    @pytest.mark.parametrize(
        "k", [4, 5, pytest.param(6, marks=pytest.mark.deep)]
    )
    def test_d2_modes_keep_m_orthonormality_to_the_pinned_loss(self, k):
        # forward(M back(e)) is V^T M V e, over every unit row e, in blocks
        st = space_stencils(_space_mesh(2, 2 * k))
        _, _, forward, back = st.modes
        n, loss = st.slots.size, 0.0
        for start in range(0, n, 256):
            e = np.eye(min(256, n - start), n, start)
            gap = forward(st.product((st.mass, back(e)))) - e
            loss = max(loss, np.max(np.abs(gap)))
        assert loss <= 2.0 * self.M_ORTHONORMALITY_LOSS[k]


def _jittered(mesh, seed):
    """mesh with its interior vertices moved at random by well under a
    thousandth of an edge: the same cells, no longer uniform."""
    rng = np.random.default_rng(seed)
    interior = ~mesh.boundary_vertex_flags
    step = 1e-3 / np.sqrt(mesh.n_cells)
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(-step, step, (interior.sum(), mesh.dimension))
    return SpatialMesh(mesh.dimension, vertices, mesh.cells)


def _retriangulated(mesh, old, new):
    """mesh less its cells on the vertex triples old, plus cells on the
    triples new, each a tuple of vertex coordinates."""
    at = {tuple(p): i for i, p in enumerate(mesh.vertices.tolist())}
    drop = [{at[p] for p in triple} for triple in old]
    cells = [c for c in mesh.cells.tolist() if set(c) not in drop]
    cells += [[at[p] for p in triple] for triple in new]
    return SpatialMesh(mesh.dimension, mesh.vertices, np.array(cells))


# on the criss-cross mesh of 4 x 4 squares: the square [0, 1/4]^2 with
# centre C1 and corners O and A; the side A B it shares with the square of
# centre C2
O, A, B = (0.0, 0.0), (0.25, 0.0), (0.25, 0.25)
C1, C2 = (0.125, 0.125), (0.375, 0.125)


class TestGXClosedForm:
    """The closed forms solve the uniform meshes the solver builds and refuse
    any other mesh before any work: space_stencils a space mesh and
    make_G_X a time mesh."""

    @pytest.mark.parametrize(
        "sm",
        [
            _space_mesh(2, 3),
            _jittered(_space_mesh(2, 4), 1),
            _jittered(_space_mesh(1, 4), 2),
            unit_interval_mesh(5),
            _retriangulated(_space_mesh(2, 4), [(O, A, C1)], [(A, B, C1)]),
            _retriangulated(_space_mesh(2, 4), [(O, A, C1)], [(O, (0.5, 0.0), C1)]),
            _retriangulated(
                _space_mesh(2, 4), [(A, B, C1), (B, A, C2)], [(C1, A, C2), (C2, B, C1)]
            ),
            SpatialMesh(
                1,
                unit_interval_mesh(8).vertices,
                np.array([[0, 2], *([i, i + 1] for i in range(1, 8))]),
            ),
        ],
        ids=[
            "d2-three-sweeps",
            "d2-jittered",
            "d1-jittered",
            "d1-non-dyadic",
            "d2-cell-copied",
            "d2-corner-off-its-square",
            "d2-side-flipped",
            "d1-cell-of-two-steps",
        ],
    )
    def test_other_meshes_raise(self, sm):
        # the mesh is checked, and refused, before the time mesh is seen.
        # The last four meshes have their vertices on the lattice and a
        # power-of-two N, and the cell check refuses them first: a cell
        # copied over another; a cell with a corner off its own square; the
        # side A B swapped for the diagonal C1 C2; and an interval mesh whose
        # first cell spans two of its 8 steps. The swap leaves a conforming
        # mesh with the criss-cross mesh's boundary and dofs, so no other
        # part of the guard sees it
        with pytest.raises(UnsupportedMeshError, match="not the stencils"):
            space_stencils(sm)
        assert isinstance(UnsupportedMeshError(), ValueError)

    def test_makes_no_sparse_factorization(self, record_calls):
        tm, sm = TimeMesh(0.0, 1.0, 4), _space_mesh(2, 8)
        factored = record_calls(scipy.sparse.linalg, "splu")
        _lift(tm, sm)
        assert factored == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_sine_table_built_once_per_level(self, d, record_calls):
        # the l = 0 A_test solve, the eigenbasis and the map back read the
        # stencils' one set of modes, and its tables
        names = ("_sine", "_dst2", "space_modes")
        calls = [record_calls(precond, name) for name in names]
        cfg = ExperimentConfig(experiment="convergence", d=d, T=1.0, k_range=[3], l=0)
        solve_backward(cfg, 3)
        assert [len(c) for c in calls] == [1, d - 1, 1]


class TestGYLift:
    """The A_test solve, which the test-space lift reduces to: in closed
    form at l = 0, make_G_Y's factor at l = 1."""

    def test_dual_norm_matches_dense_solve(self):
        # J(0) - |g|^2 is f(Y^-1 f), f = t_c x l_test the source load: its
        # squared dual norm sup (f v)^2 / ||v||_Y^2, computed independently
        # by a dense solve with the test Gram
        for tm, sm in (mesh_pair_1d(), mesh_pair_2d()):
            solution = get_solution("cubic", sm.dimension)
            for l in (0, 1):
                system = level_system(tm, sm, l, solution)
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
        _, _, _, a_mix, a_test = space_csr(sm, 1)
        phi = get_solution("cubic", d).phi(quad_points(sm))
        test_load = space_load(sm, 2, phi)
        p1_load = space_load(sm, 1, phi)
        got = a_mix.T @ make_G_Y(a_test)(test_load)
        assert np.linalg.norm(got - p1_load) <= 1e-12 * np.linalg.norm(p1_load)

    @pytest.mark.parametrize("l", [0, 1])
    def test_space_solve_inverts_test_stiffness(self, l):
        _, sm = mesh_pair_2d()
        a_test = space_csr(sm, l)[4]
        st = space_stencils(sm)
        solve = make_G_Y(a_test) if l else dof_order(st, stiffness_solve(st))
        cols = np.random.default_rng(4).standard_normal((a_test.shape[0], 3))
        got = a_test @ solve(cols)
        assert np.max(np.abs(got - cols)) <= 1e-12 * np.max(np.abs(cols))

    @pytest.mark.parametrize("d, bisections", [(1, 8), (2, 10)])
    def test_closed_form_stiffness_solve_matches_superlu(self, d, bisections):
        # the l = 0 A_test solve, on a vector and on the columns of an array
        sm = _space_mesh(d, bisections)
        a = space_stiffness(sm, 1)
        st = space_stencils(sm)
        solve, factored = dof_order(st, stiffness_solve(st)), make_G_Y(a)
        rng = np.random.default_rng(10)
        for shape in (a.shape[0], (a.shape[0], 5)):
            w = rng.standard_normal(shape)
            got, want = solve(w), factored(w)
            assert got.shape == w.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestGXLift:
    def test_inverts_gram(self):
        tm, sm = mesh_pair_2d()
        G = gram_X(tm, sm)
        lift = _lift(tm, sm)
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(G.shape[1])
            got = lift.apply(G.apply(v))
            assert np.max(np.abs(got - v)) <= 1e-8 * max(1.0, np.max(np.abs(v)))

    def test_positive_on_functionals(self):
        tm, sm = mesh_pair_1d()
        lift = _lift(tm, sm)
        n = gram_X(tm, sm).shape[0]
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(n)
            assert f @ lift.apply(f) > 0.0

    def test_deterministic(self):
        tm, sm = mesh_pair_1d()
        rng = np.random.default_rng(5)
        f = rng.standard_normal(gram_X(tm, sm).shape[0])
        first = _lift(tm, sm).apply(f)
        again_same_lift = _lift(tm, sm).apply(f)
        assert np.array_equal(first, again_same_lift)

    def test_norm_equivalence_is_identity(self):
        # exact lift: the preconditioned Rayleigh quotient sits at 1
        tm, sm = mesh_pair_1d()
        G = gram_X(tm, sm)
        lift = _lift(tm, sm)
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(G.shape[1])
            ratio = v @ G.apply(lift.apply(G.apply(v))) / (v @ G.apply(v))
            assert ratio == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("case", ["d2-k2", "d1-k5", "d2-k0"])
    def test_block_is_bitwise_its_columns(self, case):
        # a block of columns takes one time transform and one batch of
        # shifted solves, with the columns on a leading axis
        tm, sm = LIFT_CASES[case]
        lift = make_G_X(tm, space_stencils(sm))
        block = np.random.default_rng(7).standard_normal((np.prod(_dims(tm, sm)), 4))
        columns = np.stack([lift.apply(col) for col in block.T], axis=1)
        assert np.array_equal(lift.apply(block), columns)


# the levels whose trial mass and stiffness the stencils apply: d = 1 k <= 6
# and d = 2 k <= 4, N = 2^k squares per axis
STENCIL_LEVELS = [(1, k) for k in range(1, 7)] + [(2, k) for k in range(5)]


@pytest.mark.parametrize("d, k", STENCIL_LEVELS)
def test_stencil_products_match_the_csr_products(d, k):
    # the level's stencil-applied M and A against the assembled scipy CSR
    # matrices, on a vector and on a row block in slot order, alone and summed
    sm = _space_mesh(d, d * k)
    stencils = space_factors(sm, 0)[0]
    rng = np.random.default_rng(10 * d + k)
    for values, csr in [
        (stencils.mass, space_mass(sm, 1)),
        (stencils.stiffness, space_stiffness(sm, 1)),
    ]:
        v = rng.standard_normal(csr.shape[0])
        rows = rng.standard_normal((5, csr.shape[0]))

        def product(x):  # of rows in dof order, through the slots
            return stencils.scatter(stencils.product((values, stencils.gather(x))))

        for got, want in [(product(v), csr @ v), (product(rows), (csr @ rows.T).T)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a sum of products in one pass, as the normal operator applies M and A
    u, w = rng.standard_normal((2, 5, stencils.slots.size))
    pair = stencils.product((stencils.mass, u), (stencils.stiffness, w))
    got = stencils.scatter(pair)
    want = (space_mass(sm, 1) @ stencils.scatter(u).T).T
    want += (space_stiffness(sm, 1) @ stencils.scatter(w).T).T
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# the levels whose assembled trial matrices are checked entry by entry:
# d = 1 k <= 10 and d = 2 k <= 5, and d = 2 k = 6 under the deep marker
ENTRY_LEVELS = [(1, k) for k in range(1, 11)] + [(2, k) for k in range(6)]
ENTRY_LEVELS += [pytest.param(2, 6, marks=pytest.mark.deep)]


@pytest.mark.parametrize("d, k", ENTRY_LEVELS)
def test_assembled_entries_are_the_closed_form_constants(d, k):
    # every entry of the assembled P1 stiffness in a stencil class equals
    # the class's closed-form constant bitwise, and of the mass within 2
    # ulps: the constants are rounded once, the assembled sums of cell
    # entries more often. Every entry outside the classes is 0
    sm = _space_mesh(d, d * k)
    st = space_stencils(sm)
    for values, mat, ulps in [
        (st.stiffness, space_stiffness(sm, 1), 0),
        (st.mass, space_mass(sm, 1), 2),
    ]:
        inside = 0
        for value, (rows, cols) in zip(values, stencil_classes(st)):
            if rows.size == 0:  # an empty class: scipy reads no entries
                continue
            got = np.asarray(mat[rows, cols]).ravel()
            assert np.all(np.abs(got - value) <= ulps * np.spacing(abs(value)))
            inside += np.count_nonzero(got)
        assert np.count_nonzero(mat.data) == inside
