"""Element matrices in time and space, and loads."""

import numpy as np
import pytest
import scipy.sparse as sp

from backsolve.assembly import (
    _cell_rule,
    fe_gradients_on_cells,
    gradient_load,
    integrate_squared,
    load_vector_f,
    quad_points,
    quad_points_physical,
    ref_shapes,
    space_dof_map,
    space_load,
    space_matrices,
    time_derivative_mixed,
    time_mass_mixed,
    to_hats,
)
from backsolve.mesh import (
    SpatialMesh,
    TimeMesh,
    cell_volumes,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)

# aliased so pytest does not collect the source helper as a test
from backsolve.assembly import test_basis_values as legendre_values
from backsolve.quadrature import gauss_1d_for_degree
from backsolve.solutions import get_solution
from backsolve.solver import _hat_products
from reference import (
    coo_sum,
    graded_time_mesh,
    hat_matrix,
    mixed_matrix,
    space_mass,
    space_stiffness,
    time_mass_trial,
    time_stiffness_trial,
)


class TestTimeTrialMatrices:
    def test_mass_single_element(self):
        tm = TimeMesh(0.0, 1.0, 0)
        M = hat_matrix(time_mass_trial(tm)).toarray()
        assert np.allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)

    def test_mass_row_sums_are_hat_integrals(self):
        # row sum of the mass matrix integrates the hat against 1
        tm = TimeMesh(0.0, 2.0, 2)
        M = hat_matrix(time_mass_trial(tm)).toarray()
        h = tm.lengths
        expected = np.zeros(tm.n_elements + 1)
        expected[:-1] += h / 2
        expected[1:] += h / 2
        assert np.allclose(M.sum(axis=1), expected, atol=1e-14)
        assert M.sum() == pytest.approx(2.0, abs=1e-14)

    def test_stiffness_single_element(self):
        tm = TimeMesh(0.0, 1.0, 0)
        T = hat_matrix(time_stiffness_trial(tm)).toarray()
        assert np.allclose(T, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_stiffness_row_sums_vanish(self):
        tm = TimeMesh(0.0, 1.0, 3)
        T = hat_matrix(time_stiffness_trial(tm)).toarray()
        assert np.allclose(T.sum(axis=1), 0.0, atol=1e-13)

    def test_stiffness_interior_diagonal(self):
        # two elements of length 1/2 meet at the middle node: 2 + 2
        tm = TimeMesh(0.0, 1.0, 1)
        T = hat_matrix(time_stiffness_trial(tm)).toarray()
        assert T[1, 1] == pytest.approx(4.0, abs=1e-14)


def _jittered_time_mesh(n):
    """n elements on (0, 1), each inner breakpoint moved by up to 0.3 / n."""
    bp = np.linspace(0.0, 1.0, n + 1)
    bp[1:-1] += np.random.default_rng(n).uniform(-0.3, 0.3, n - 1) / n
    return graded_time_mesh(bp)


class TestTimeTestBasis:
    def test_orthonormal_on_element(self):
        # scaled Legendre pair integrates to the identity gram matrix
        h = 0.5
        s, w = np.polynomial.legendre.leggauss(4)
        s = (s + 1.0) / 2.0  # local coordinates in (0,1)
        w = w * h / 2.0  # physical weights on an element of length h
        vals = legendre_values(s, h)
        gram = (vals * w) @ vals.T
        assert np.allclose(gram, np.eye(2), atol=1e-14)

    def test_mixed_mass_single_element(self):
        tm = TimeMesh(0.0, 1.0, 0)
        Mx = mixed_matrix(time_mass_mixed(tm)).toarray()
        expected = np.array(
            [[0.5, 0.5], [-1.0 / (2.0 * np.sqrt(3.0)), 1.0 / (2.0 * np.sqrt(3.0))]]
        )
        assert Mx.shape == (2, 2)
        assert np.allclose(Mx, expected, atol=1e-14)

    def test_mixed_mass_shape(self):
        tm = TimeMesh(0.0, 1.0, 3)
        Mx = mixed_matrix(time_mass_mixed(tm)).toarray()
        assert Mx.shape == (8 * 2, 8 + 1)

    def test_mixed_mass_partition_of_unity(self):
        # hats sum to one, so each row integrates one test function:
        # the constant mode gives sqrt(h), the linear mode zero
        tm = TimeMesh(0.0, 1.0, 2)
        Mx = mixed_matrix(time_mass_mixed(tm)).toarray()
        sums = Mx @ np.ones(tm.n_elements + 1)
        h = tm.lengths
        expected = np.zeros(2 * tm.n_elements)
        expected[0::2] = np.sqrt(h)
        assert np.allclose(sums, expected, atol=1e-14)

    def test_mixed_derivative_single_element(self):
        # the hats' slopes are -1 and 1; only the constant mode has a mean
        tm = TimeMesh(0.0, 1.0, 0)
        D = mixed_matrix(time_derivative_mixed(tm)).toarray()
        assert np.allclose(D, [[-1.0, 1.0], [0.0, 0.0]], atol=1e-14)

    def test_mixed_derivative_kills_constants(self):
        tm = TimeMesh(0.0, 1.0, 3)
        D = mixed_matrix(time_derivative_mixed(tm)).toarray()
        assert np.allclose(D @ np.ones(tm.n_elements + 1), 0.0, atol=1e-14)

    def test_mixed_derivative_locality(self):
        # hat j only overlaps test functions on elements j-1 and j
        tm = TimeMesh(0.0, 1.0, 2)
        D = mixed_matrix(time_derivative_mixed(tm)).toarray()
        for j in range(5):
            rows = np.nonzero(np.abs(D[:, j]) > 1e-14)[0]
            elements = set(rows // 2)
            assert elements <= {j - 1, j}

    @pytest.mark.parametrize(
        "tm",
        [
            TimeMesh(0.0, 1.0, 0),
            TimeMesh(0.25, 2.25, 3),
            TimeMesh(0.0, 1.0, 6),
            _jittered_time_mesh(31),
        ],
        ids=["one-element", "shifted-k3", "k6", "jittered-31"],
    )
    def test_contains_the_hats_and_their_derivatives(self, tm):
        # the degree-1 test space holds the hats and their derivatives, and
        # the energy identity of the normal operator rests on that
        D = mixed_matrix(time_derivative_mixed(tm)).toarray()
        N = mixed_matrix(time_mass_mixed(tm)).toarray()
        trace = np.zeros((tm.n_elements + 1,) * 2)
        trace[-1, -1], trace[0, 0] = 1.0, -1.0
        for got, want in [
            (D.T @ D, hat_matrix(time_stiffness_trial(tm)).toarray()),
            (N.T @ N, hat_matrix(time_mass_trial(tm)).toarray()),
            (D.T @ N + N.T @ D, trace),
        ]:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# The earlier per-element assembly of the mixed time matrices, one COO entry
# at a time: the reference the table-driven versions must equal bit for bit.


def _ref_time_mass_mixed(mesh):
    sq, wq = gauss_1d_for_degree(2)
    n = mesh.n_elements
    rows, cols, vals = [], [], []
    hats = np.stack([1.0 - sq, sq])
    for e in range(n):
        h = mesh.lengths[e]
        psi = legendre_values(sq, h)
        loc = h * np.einsum("q,iq,jq->ij", wq, psi, hats)
        for i in range(2):
            for j in range(2):
                rows.append(e * 2 + i)
                cols.append(e + j)
                vals.append(loc[i, j])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n * 2, n + 1)).tocsr()


def _ref_time_derivative_mixed(mesh):
    sq, wq = gauss_1d_for_degree(1)
    n = mesh.n_elements
    rows, cols, vals = [], [], []
    for e in range(n):
        h = mesh.lengths[e]
        ints = h * legendre_values(sq, h) @ wq
        for i in range(2):
            for j, slope in ((0, -1.0 / h), (1, 1.0 / h)):
                rows.append(e * 2 + i)
                cols.append(e + j)
                vals.append(slope * ints[i])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n * 2, n + 1)).tocsr()


def _time_mesh(kind, k):
    if kind == "uniform":
        return TimeMesh(0.0, 1.0, k)
    steps = np.random.default_rng(k).uniform(0.2, 1.0, 2**k)
    return graded_time_mesh(np.cumsum(np.r_[0.25, steps]))


@pytest.mark.parametrize("k", [0, 3, 6, 8])
@pytest.mark.parametrize("kind", ["uniform", "random-steps"])
@pytest.mark.parametrize(
    "build, ref",
    [
        (time_mass_mixed, _ref_time_mass_mixed),
        (time_derivative_mixed, _ref_time_derivative_mixed),
    ],
)
def test_mixed_time_matrices_are_bitwise_the_element_loop(k, kind, build, ref):
    tm = _time_mesh(kind, k)
    got, want = mixed_matrix(build(tm)), ref(tm)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.shape == want.shape


def _ref_hat_matrix(mesh, entries):
    # the COO assembly each hat matrix had, one (i, j, value) list per entry
    n = mesh.n_elements
    rows, cols, vals = [], [], []
    for i, j, v in entries:
        rows.append(np.arange(n) + i)
        cols.append(np.arange(n) + j)
        vals.append(v)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + 1, n + 1),
    ).tocsr()


def _ref_time_mass_trial(mesh):
    h = mesh.lengths
    entries = ((0, 0, 1 / 3), (0, 1, 1 / 6), (1, 0, 1 / 6), (1, 1, 1 / 3))
    return _ref_hat_matrix(mesh, [(i, j, c * h) for i, j, c in entries])


def _ref_time_stiffness_trial(mesh):
    h = mesh.lengths
    entries = ((0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0))
    return _ref_hat_matrix(mesh, [(i, j, c / h) for i, j, c in entries])


@pytest.mark.parametrize("k", [0, 3, 6, 8])
@pytest.mark.parametrize(
    "build, ref",
    [
        (time_mass_trial, _ref_time_mass_trial),
        (time_stiffness_trial, _ref_time_stiffness_trial),
    ],
)
def test_hat_matrices_are_bitwise_the_coo_assembly(k, build, ref):
    for tm in (_time_mesh("uniform", k), _time_mesh("random-steps", k)):
        got, want = hat_matrix(build(tm)), ref(tm)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.shape == want.shape


# windows of the uniform time meshes the solver builds; every element length
# is span / n on the first four, not on "offset" at k >= 1
TIME_WINDOWS = {
    "uniform": (0.0, 1.0),
    "eighth": (0.0, 0.125),
    "seven-eighths": (0.0, 0.875),
    "upper-half": (0.5, 1.0),
    "offset": (0.1, 0.7),
}


@pytest.mark.parametrize("k", [0, 3, 6])
@pytest.mark.parametrize("kind", TIME_WINDOWS)
def test_time_applies_match_the_dense_products(k, kind):
    # the uniform-step hat products on rows against the dense K_t and M_t
    # of the element blocks: bitwise, entry by entry, where every element
    # has the step's length; and the transposed mixed matrices on a test
    # vector
    tm = TimeMesh(*TIME_WINDOWS[kind], k)
    h = tm.step
    exact = bool(np.all(tm.lengths == h))
    assert exact or (kind == "offset" and k > 0)
    rng = np.random.default_rng(k)
    rows = rng.standard_normal((tm.n_elements + 1, 4))
    t = rng.standard_normal(2 * tm.n_elements)
    products = zip(_hat_products(h, rows), (time_stiffness_trial, time_mass_trial))
    cases = []
    for got, build in products:
        dense = hat_matrix(build(tm)).toarray()
        cases += [(got, dense @ rows)]
        if exact:  # the diagonal, then each off-diagonal, as the blocks sum
            want = np.diag(dense)[:, None] * rows
            want[:-1] += np.diag(dense, 1)[:, None] * rows[1:]
            want[1:] += np.diag(dense, -1)[:, None] * rows[:-1]
            np.testing.assert_array_equal(got, want)
    for build in (time_mass_mixed, time_derivative_mixed):
        cases += [(to_hats(build(tm), t), mixed_matrix(build(tm)).toarray().T @ t)]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [0, 3, 6])
def test_to_hats_on_random_steps(k):
    # the transposed mixed matrices need no uniform step
    tm = _time_mesh("random-steps", k)
    t = np.random.default_rng(k).standard_normal(2 * tm.n_elements)
    for build in (time_mass_mixed, time_derivative_mixed):
        got, want = to_hats(build(tm), t), mixed_matrix(build(tm)).toarray().T @ t
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestSpaceMatrices:
    def test_mass_two_element_interval(self):
        m = unit_interval_mesh(2)
        M = space_mass(m, 1)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_mass_spd(self):
        m = refine_uniform(unit_square_initial(), 2)
        M = space_mass(m, 1).toarray()
        assert np.allclose(M, M.T, atol=1e-15)
        assert np.linalg.eigvalsh(M).min() > 0.0

    def test_stiffness_two_element_interval(self):
        m = unit_interval_mesh(2)
        A = space_stiffness(m, 1)
        assert A[0, 0] == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_mass_sum_closed_form(self, n):
        # the free mass sums to 1; eliminating the two boundary hats takes
        # off a row and a column of sum h/2 each and gives back the twice
        # subtracted diagonal h/3: 1 - 4(h/2) + 2(h/3) = 1 - 4h/3
        M = space_mass(unit_interval_mesh(n), 1)
        assert M.sum() == pytest.approx(1.0 - 4.0 / (3.0 * n), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_stiffness_exact_for_quadratics(self, n):
        # P1 on an interval is nodally exact: A applied to the vertex values
        # of u = x(1 - x) is the load of -u'' = 2, which is 2h in every row
        m = unit_interval_mesh(n)
        x = m.vertices[~m.boundary_vertex_flags, 0]
        got = space_stiffness(m, 1) @ (x * (1.0 - x))
        np.testing.assert_allclose(got, 2.0 / n, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_p2_mass_sum_closed_form(self, n):
        # the kept P2 functions sum to 1 - phi_0 - phi_n; on an end cell
        # int (1 - phi)^2 = int_0^1 (3s - 2s^2)^2 h ds = 4h/5, and 1 on the
        # rest: 1 - 2h + 2(4h/5) = 1 - 2h/5
        M = space_mass(unit_interval_mesh(n), 2)
        assert M.sum() == pytest.approx(1.0 - 2.0 / (5.0 * n), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_p2_stiffness_exact_for_quadratics(self, n):
        # u = x(1 - x) lies in P2, so A applied to its dof values is the
        # load of -u'' = 2: 2(h/3) on a vertex function, 2(2h/3) on a bubble
        m = unit_interval_mesh(n)
        dm = space_dof_map(m, 2)
        x_cell = m.vertices[m.cells, 0]
        x_local = np.column_stack([x_cell, x_cell.mean(axis=1)])
        x = np.empty(dm.n_dofs)
        kept = dm.cell_dofs >= 0
        x[dm.cell_dofs[kept]] = x_local[kept]
        is_bubble = np.zeros(dm.n_dofs, dtype=bool)
        is_bubble[dm.cell_dofs[:, 2]] = True
        want = np.where(is_bubble, 4.0 / (3.0 * n), 2.0 / (3.0 * n))
        got = space_stiffness(m, 2) @ (x * (1.0 - x))
        # the entries of A are of order n, so is the round-off of the product
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * n)

    def test_smallest_eigenvalue_1d(self):
        # Dirichlet Laplacian on (0,1): lambda_1 = pi^2, FE value above
        # and within 1 percent at h = 1/32
        import scipy.linalg

        m = unit_interval_mesh(32)
        A = space_stiffness(m, 1).toarray()
        M = space_mass(m, 1).toarray()
        lam = scipy.linalg.eigh(A, M, eigvals_only=True)[0]
        assert lam >= np.pi**2
        assert lam == pytest.approx(np.pi**2, rel=1e-2)

    def test_mixed_enriched_shapes(self):
        m = refine_uniform(unit_square_initial(), 1)
        n_trial = int((~m.boundary_vertex_flags).sum())
        Mmix, Amix = space_matrices(m, 2, 1)
        assert Mmix.shape[1] == n_trial
        assert Amix.shape == Mmix.shape
        assert Mmix.shape[0] > n_trial

    def test_mixed_single_interval_no_interior(self):
        # one element, P2 test space has one interior bubble; P1 trial empty
        m = unit_interval_mesh(1)
        Mmix, Amix = space_matrices(m, 2, 1)
        assert Mmix.shape == (1, 0)
        assert Amix.shape == (1, 0)

    def test_only_degrees_1_and_2(self):
        for p in (0, 3):
            with pytest.raises(ValueError, match=f"degrees 1 and 2 .* got {p}"):
                space_matrices(unit_interval_mesh(4), p, 1)

    @pytest.mark.parametrize("p", [1, 2])
    def test_symmetry(self, p):
        for m in (unit_interval_mesh(4), refine_uniform(unit_square_initial(), 2)):
            M = space_mass(m, p).toarray()
            A = space_stiffness(m, p).toarray()
            assert np.max(np.abs(M - M.T)) <= 1e-14
            assert np.max(np.abs(A - A.T)) <= 1e-14


# ------------------------------------------------- per-pair reference ----
# The earlier space assembly: one pass per matrix, each computing its own
# dof maps and cell geometry. Kept as the definition of the matrices.


def _ref_geometry(mesh):
    vol = cell_volumes(mesh)
    if np.any(vol <= 0.0):
        raise ValueError("cell with nonpositive volume")
    v = mesh.vertices[mesh.cells]
    if mesh.dimension == 1:
        jinv = (1.0 / (v[:, 1, 0] - v[:, 0, 0]))[:, None, None]
        return vol, jinv
    jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    jinv = np.linalg.inv(jac)
    return vol, jinv


def _ref_assemble_pair(mesh, test, trial, kind):
    dm_test = space_dof_map(mesh, test)
    dm_trial = space_dof_map(mesh, trial)
    if kind == "mass":
        deg = test + trial
    else:
        deg = max(1, (test - 1) + (trial - 1))
    pts, w = _cell_rule(mesh, deg)
    vol, jinv = _ref_geometry(mesh)
    te_v, te_g = ref_shapes(test, pts)
    tr_v, tr_g = ref_shapes(trial, pts)
    if kind == "mass":
        k_ref = np.einsum("q,qi,qj->ij", w, te_v, tr_v)
        local = vol[:, None, None] * k_ref[None]
    else:
        gte = np.einsum("qie,ced->cqid", te_g, jinv)
        gtr = np.einsum("qje,ced->cqjd", tr_g, jinv)
        local = vol[:, None, None] * np.einsum("q,cqid,cqjd->cij", w, gte, gtr)
    return coo_sum(
        dm_test.cell_dofs, dm_trial.cell_dofs, local, (dm_test.n_dofs, dm_trial.n_dofs)
    )


def _jittered_square(sweeps, seed):
    """Refined square with interior vertices moved: cells of many shapes."""
    m = refine_uniform(unit_square_initial(), sweeps)
    rng = np.random.default_rng(seed)
    h = 2.0 ** (-sweeps / 2) / 8
    shift = rng.uniform(-h, h, size=m.vertices.shape)
    shift[m.boundary_vertex_flags] = 0.0
    return SpatialMesh(2, m.vertices + shift, m.cells)


REFERENCE_MESHES = {
    "interval-1": lambda: unit_interval_mesh(1),
    "interval-5": lambda: unit_interval_mesh(5),
    "interval-refined": lambda: refine_uniform(unit_interval_mesh(1), 4),
    "square-0": unit_square_initial,
    "square-3": lambda: refine_uniform(unit_square_initial(), 3),
    "square-6": lambda: refine_uniform(unit_square_initial(), 6),
    "square-jittered": lambda: _jittered_square(4, 3),
}
SPACE_PAIRS = {"P1-P1": (1, 1), "P2-P1": (2, 1), "P2-P2": (2, 2)}


@pytest.mark.parametrize("pair", SPACE_PAIRS)
@pytest.mark.parametrize("mesh", REFERENCE_MESHES)
def test_space_matrices_are_the_per_pair_coo_assembly(mesh, pair):
    # the same entries as scipy's coo_matrix(...).tocsr(). np.bincount sums
    # a key's cell entries in cell order, scipy in the order its index sort
    # leaves, so where those entries differ the sums agree only to rounding:
    # on the jittered mesh, and in the P2 x P2 mass of the criss-cross mesh
    # of 6 sweeps (4 entries, 1 ulp), a mesh the solver builds. Everything
    # else is bitwise
    m = REFERENCE_MESHES[mesh]()
    test, trial = SPACE_PAIRS[pair]
    got = space_matrices(m, test, trial)
    for kind, mat in zip(("mass", "stiffness"), got):
        want = _ref_assemble_pair(m, test, trial, kind)
        assert mat.shape == want.shape
        for name in ("indices", "indptr"):
            assert np.array_equal(getattr(mat, name), getattr(want, name))
        summed_apart = mesh == "square-6" and pair == "P2-P2" and kind == "mass"
        if mesh == "square-jittered" or summed_apart:
            gap = np.max(np.abs(mat.data - want.data))
            assert gap <= 1e-15 * np.max(np.abs(want.data))
        else:
            assert np.array_equal(mat.data, want.data)


@pytest.mark.parametrize("mesh", REFERENCE_MESHES)
def test_mesh_geometry_is_bitwise_the_earlier_one(mesh):
    m = REFERENCE_MESHES[mesh]()
    for got, want in zip(m.geometry, _ref_geometry(m)):
        assert np.array_equal(got, want)


def _jittered_interval(m, seed):
    rng = np.random.default_rng(seed)
    x = np.arange(m + 1) / m
    x[1:-1] += rng.uniform(-0.25, 0.25, m - 1) / m
    return SpatialMesh(1, x[:, None], np.stack([np.arange(m), np.arange(1, m + 1)], 1))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_interval_as_the_1_simplex_is_bitwise_the_closed_forms_in_s(degree):
    # the barycentric rows (1 - s, s) of the Gauss points s reproduce the
    # interval's earlier closed forms in s exactly
    s, _ = gauss_1d_for_degree(degree)
    meshes = [refine_uniform(unit_interval_mesh(1), 4), _jittered_interval(7, 5)]
    pts, _ = _cell_rule(meshes[0], degree)
    p1_vals, p1_grads = ref_shapes(1, pts)
    assert np.array_equal(p1_vals, np.stack([1.0 - s, s], axis=1))
    assert np.array_equal(p1_grads, np.broadcast_to([[-1.0], [1.0]], (s.size, 2, 1)))
    p2_vals, p2_grads = ref_shapes(2, pts)
    want_vals = [(1.0 - s) * (1.0 - 2.0 * s), s * (2.0 * s - 1.0), 4.0 * s * (1.0 - s)]
    want_grads = [4.0 * s - 3.0, 4.0 * s - 1.0, 4.0 - 8.0 * s]
    assert np.array_equal(p2_vals, np.stack(want_vals, axis=1))
    assert np.array_equal(p2_grads, np.stack(want_grads, axis=1)[:, :, None])
    for mesh in meshes:
        v = mesh.vertices[mesh.cells]  # (cells, 2, 1)
        want = v[:, None, 0] * (1.0 - s)[:, None] + v[:, None, 1] * s[:, None]
        assert np.array_equal(quad_points_physical(mesh, pts), want)
        jinv = mesh.geometry[1]
        assert np.array_equal(jinv, 1.0 / (v[:, 1:] - v[:, :1]))


class TestLoads:
    @pytest.mark.parametrize("d", [1, 2])
    def test_caloric_time_loads_are_exact_zeros(self, d):
        # source = dtau + d pi^2 tau rounds to exactly 0 for a caloric
        # solution, so its data need no source-free branch
        steps = np.random.default_rng(d).uniform(0.2, 1.0, 5)
        meshes = [
            TimeMesh(0.0, 1.0, 0),
            TimeMesh(0.25, 2.25, 3),
            graded_time_mesh(np.concatenate([[0.0], np.cumsum(steps)])),
        ]
        for name in ("decay", "zero"):
            source = get_solution(name, d).source
            for tm in meshes:
                t_c = load_vector_f(tm, source)
                assert t_c.shape == (2 * tm.n_elements,)
                assert np.all(t_c == 0.0), (name, tm.n_elements)

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_space_load_constant(self, n):
        # each of the n - 1 interior hats integrates 1 to h = 1/n
        m = unit_interval_mesh(n)
        b = space_load(m, 1, np.ones(len(quad_points(m))))
        assert b.sum() == pytest.approx(1.0 - 1.0 / n, abs=1e-14)

    def test_load_vector_f_zero(self):
        # a time load: one entry per element and Legendre function
        tm = TimeMesh(0.0, 1.0, 1)
        t_c = load_vector_f(tm, lambda t: 0.0)
        assert t_c.shape == (4,)
        assert np.allclose(t_c, 0.0, atol=1e-15)

    def test_load_vector_f_separable(self):
        # f(t,x) = t * 1 factors: time moments against the Legendre pair
        # times the space load of the constant
        tm = TimeMesh(0.0, 1.0, 0)
        m = unit_interval_mesh(4)
        b = space_load(m, 1, np.ones(len(quad_points(m))))
        F = np.outer(load_vector_f(tm, lambda t: t), b).ravel()
        # int_0^1 t * 1 dt = 1/2, int_0^1 t * sqrt(3)(2t-1) dt = 1/(2 sqrt 3)
        n_x = b.size
        assert F.shape == (2 * n_x,)
        assert np.allclose(F[:n_x], 0.5 * b, atol=1e-14)
        assert np.allclose(F[n_x:], b / (2.0 * np.sqrt(3.0)), atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gradient_load_of_a_p1_gradient_is_the_stiffness_product(self, d):
        # (grad v, grad eta_i) = (A v)_i for v in P1; the interior vertices are
        # jittered so that a transposed Jacobian contraction would show
        initial = unit_square_initial() if d == 2 else unit_interval_mesh(1)
        mesh = refine_uniform(initial, 2 * d)
        rng = np.random.default_rng(d)
        verts = mesh.vertices.copy()
        inner = ~mesh.boundary_vertex_flags
        verts[inner] += rng.uniform(-0.05, 0.05, verts[inner].shape)
        mesh = SpatialMesh(d, verts, mesh.cells)
        v = rng.standard_normal(space_dof_map(mesh, 1).n_dofs)
        pts, _ = _cell_rule(mesh, 1)
        grads = fe_gradients_on_cells(mesh, v, pts[:1])[:, 0]
        want = space_stiffness(mesh, 1) @ v
        got = gradient_load(mesh, grads)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_integrate_squared(self):
        m = unit_interval_mesh(16)
        val = integrate_squared(m, np.sin(np.pi * quad_points(m)[:, 0]))
        assert val == pytest.approx(0.5, rel=1e-6)

