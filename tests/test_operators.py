"""Space-time tensor operators checked against direct quadrature assembly."""

import numpy as np
import pytest
import scipy.linalg

from backsolve import assembly
from backsolve.config import ExperimentConfig
from backsolve.mesh import (
    refine_uniform,
    uniform_time_mesh,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.operators import (
    KroneckerOperator,
    assemble_B,
    space_factors,
)
from backsolve import solver
from backsolve.precond import RieszPreconditioner, make_G_X
from backsolve.solutions import get_solution
from backsolve.solver import build_meshes, infsup_constant
from reference import (
    MassSolveMass,
    dense,
    dense_from_apply,
    gram_X,
    gram_Y,
    hat_matrix,
    level_system,
    normal_matrices_dense,
    normal_matrix_b_route,
    space_csr,
    space_mass,
    space_stiffness,
    time_mass_trial,
    time_stiffness_trial,
)


# ---------------------------------------------------------- oracle pieces ----
# Hand-rolled shape functions and quadrature, independent of the assembly
# module, used to re-derive the space-time matrices entry by entry.


def hat_1d(mesh, points):
    """P1 values and derivatives at physical points: (n_free, q) each."""
    verts = mesh.vertices[:, 0]
    free = np.nonzero(~mesh.boundary_vertex_flags)[0]
    vals = np.zeros((len(free), len(points)))
    ders = np.zeros_like(vals)
    order = np.argsort(verts)
    xs = verts[order]
    for row, v in enumerate(free):
        pos = int(np.searchsorted(xs, verts[v]))
        left, mid, right = xs[pos - 1], xs[pos], xs[pos + 1]
        on_l = (points >= left) & (points <= mid)
        on_r = (points > mid) & (points <= right)
        vals[row, on_l] = (points[on_l] - left) / (mid - left)
        vals[row, on_r] = (right - points[on_r]) / (right - mid)
        ders[row, on_l] = 1.0 / (mid - left)
        ders[row, on_r] = -1.0 / (right - mid)
    return vals, ders


def legendre_pair(s, h):
    """Orthonormal constant and linear test modes at local coordinates s."""
    return np.stack(
        [np.full_like(s, 1.0 / np.sqrt(h)), np.sqrt(3.0 / h) * (2.0 * s - 1.0)]
    )


def quadrature_B_1d(tm, sm):
    """Parabolic form matrix assembled by explicit space-time quadrature."""
    sq, wq = np.polynomial.legendre.leggauss(4)
    sq = (sq + 1.0) / 2.0
    wq = wq / 2.0
    xq, xw = np.polynomial.legendre.leggauss(4)

    n_hat = tm.n_elements + 1
    hats_t = np.array(tm.breakpoints)
    free = np.nonzero(~sm.boundary_vertex_flags)[0]
    n_x = len(free)
    B = np.zeros((2 * tm.n_elements * n_x, n_hat * n_x))

    # spatial quadrature points per cell
    cells = sm.vertices[sm.cells][:, :, 0]
    lo = cells.min(axis=1)
    hi = cells.max(axis=1)
    pts = lo[:, None] + (xq[None, :] + 1.0) / 2.0 * (hi - lo)[:, None]
    wts = xw[None, :] / 2.0 * (hi - lo)[:, None]
    phi, dphi = hat_1d(sm, pts.ravel())
    phi = phi.reshape(n_x, len(cells), len(xq))
    dphi = dphi.reshape(n_x, len(cells), len(xq))
    mass_x = np.einsum("ncq,mcq,cq->nm", phi, phi, wts)
    stiff_x = np.einsum("ncq,mcq,cq->nm", dphi, dphi, wts)

    for e in range(tm.n_elements):
        t0, t1 = hats_t[e], hats_t[e + 1]
        h = t1 - t0
        tq = t0 + sq * h
        tw = wq * h
        psi = legendre_pair(sq, h)  # (2, q)
        for j in range(n_hat):
            hat_vals = np.interp(tq, hats_t, np.eye(n_hat)[j])
            hat_der = np.zeros_like(tq)
            if j == e + 1:
                hat_der[:] = 1.0 / h
            elif j == e:
                hat_der[:] = -1.0 / h
            dt_mom = psi @ (tw * hat_der)  # (2,)
            ms_mom = psi @ (tw * hat_vals)
            for i in range(2):
                row = (2 * e + i) * n_x
                col = j * n_x
                B[row : row + n_x, col : col + n_x] += (
                    dt_mom[i] * mass_x + ms_mom[i] * stiff_x
                )
    return B


# ------------------------------------------------------------------- tests ----


class TestFactors:
    def test_enriched_space_spec(self):
        # l = 0 tests with P1 itself, l = 1 with P2, whose mixed mass takes
        # P1 columns in slot order; no other l is accepted
        sm = unit_interval_mesh(4)
        assert space_factors(sm, 0)[1:] == (None, None)
        st, m_mix, a_test = space_factors(sm, 1)
        assert a_test.shape == (7, 7)  # 3 vertices, 4 midpoints
        want = space_csr(sm, 1)[2].toarray()[:, st.slots]
        assert np.array_equal(m_mix.toarray(), want)
        for l in (2, -1):
            with pytest.raises(ValueError, match="must be 0 or 1, got"):
                space_factors(sm, l)

    def test_mass_solve_mass(self):
        sm = unit_interval_mesh(4)
        M = space_mass(sm, 1)
        A = space_stiffness(sm, 1)
        op = MassSolveMass(M, A)
        want = M.toarray() @ np.linalg.solve(A.toarray(), M.toarray())
        rng = np.random.default_rng(0)
        v = rng.standard_normal(M.shape[0])
        assert np.allclose(op @ v, want @ v, atol=1e-13)
        assert op.T is op
        assert np.allclose(op.to_dense(), want, atol=1e-13)

    def test_kronecker_requires_terms(self):
        with pytest.raises(ValueError):
            KroneckerOperator([])

    def test_dense_from_apply(self):
        mat = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(dense_from_apply(lambda v: mat @ v, 3), mat)


class TestParabolicOperator:
    def test_quadrature_oracle_1d(self):
        # dense Kronecker assembly against the raw quadrature route
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(4)
        B = dense(assemble_B(tm, *space_csr(sm, 0)[2:4]))
        ref = quadrature_B_1d(tm, sm)
        assert B.shape == ref.shape
        assert np.max(np.abs(B - ref)) <= 1e-13

    def test_shape_2d(self):
        tm = uniform_time_mesh(0.0, 1.0, 0)
        sm = refine_uniform(unit_square_initial(), 1)
        n_trial = int((~sm.boundary_vertex_flags).sum())
        B = assemble_B(tm, *space_csr(sm, 0)[2:4])
        assert B.shape == (2 * n_trial, 2 * n_trial)
        B1 = assemble_B(tm, *space_csr(sm, 1)[2:4])
        assert B1.shape[1] == 2 * n_trial
        assert B1.shape[0] > B.shape[0]

    def test_constant_in_time_drops_derivative(self):
        # u constant in time: B u reduces to the stiffness term alone
        tm = uniform_time_mesh(0.0, 1.0, 2)
        sm = unit_interval_mesh(4)
        rng = np.random.default_rng(1)
        n_x = int((~sm.boundary_vertex_flags).sum())
        z_x = rng.standard_normal(n_x)
        z = np.tile(z_x, tm.n_elements + 1)
        B = assemble_B(tm, *space_csr(sm, 0)[2:4])
        out = B.apply(z).reshape(tm.n_elements, 2, n_x)
        A = space_stiffness(sm, 1)
        h = tm.lengths
        # constant test mode picks up sqrt(h) * A z, the linear mode zero
        for e in range(tm.n_elements):
            assert np.allclose(
                out[e, 0], np.sqrt(h[e]) * (A @ z_x), atol=1e-13
            )
            assert np.allclose(out[e, 1], 0.0, atol=1e-13)

    def test_adjoint_identity(self):
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = refine_uniform(unit_square_initial(), 1)
        B = assemble_B(tm, *space_csr(sm, 0)[2:4])
        rng = np.random.default_rng(2)
        z = rng.standard_normal(B.shape[1])
        w = rng.standard_normal(B.shape[0])
        assert B.apply(z) @ w == pytest.approx(z @ B.apply_transpose(w), rel=1e-13)

    def test_discrete_injectivity(self):
        # (Bz)' G_Y^{-1} (Bz) > 0 for z != 0: no kernel in the trial space
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(4)
        B = dense(assemble_B(tm, *space_csr(sm, 0)[2:4]))
        Y = dense(gram_Y(tm, sm, 0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.standard_normal(B.shape[1])
            r = B @ z
            assert r @ np.linalg.solve(Y, r) > 1e-10 * (z @ z)

    @pytest.mark.parametrize(
        "pair",
        [
            (uniform_time_mesh(0.0, 1.0, 0), unit_interval_mesh(2)),
            (
                uniform_time_mesh(0.0, 1.0, 1),
                refine_uniform(unit_square_initial(), 1),
            ),
        ],
    )
    def test_matrix_free_matches_dense(self, pair):
        tm, sm = pair
        for op in (
            assemble_B(tm, *space_csr(sm, 0)[2:4]),
            assemble_B(tm, *space_csr(sm, 1)[2:4]),
            gram_X(tm, sm),
            gram_Y(tm, sm, 0),
        ):
            dense_op = dense(op)
            rng = np.random.default_rng(4)
            for _ in range(5):
                z = rng.standard_normal(op.shape[1])
                w = rng.standard_normal(op.shape[0])
                assert np.allclose(op.apply(z), dense_op @ z, atol=1e-13)
                assert np.allclose(
                    op.apply_transpose(w), dense_op.T @ w, atol=1e-13
                )


class TestGramY:
    def test_quadrature_oracle_1d(self):
        # identity in time x stiffness in space, re-derived by quadrature
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(4)
        G = dense(gram_Y(tm, sm, 0))

        xq, xw = np.polynomial.legendre.leggauss(3)
        cells = sm.vertices[sm.cells][:, :, 0]
        lo, hi = cells.min(axis=1), cells.max(axis=1)
        pts = lo[:, None] + (xq[None, :] + 1.0) / 2.0 * (hi - lo)[:, None]
        wts = xw[None, :] / 2.0 * (hi - lo)[:, None]
        _, dphi = hat_1d(sm, pts.ravel())
        n_x = dphi.shape[0]
        dphi = dphi.reshape(n_x, len(cells), len(xq))
        stiff = np.einsum("ncq,mcq,cq->nm", dphi, dphi, wts)
        ref = np.kron(np.eye(2 * tm.n_elements), stiff)
        assert np.max(np.abs(G - ref)) <= 1e-12

    def test_symmetric_positive(self):
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = refine_uniform(unit_square_initial(), 1)
        G = dense(gram_Y(tm, sm, 1))
        assert np.max(np.abs(G - G.T)) <= 1e-13
        assert np.linalg.eigvalsh(G).min() > 0.0


class TestGramX:
    def test_single_eigenfunction_closed_form(self):
        # for a generalized stiffness eigenvector the squared norm is
        # mu * int tau^2 + (1/mu) * int (tau')^2
        tm = uniform_time_mesh(0.0, 1.0, 2)
        sm = unit_interval_mesh(8)
        A = space_stiffness(sm, 1).toarray()
        M = space_mass(sm, 1).toarray()
        mus, vecs = scipy.linalg.eigh(A, M)
        G = gram_X(tm, sm)
        Mt = hat_matrix(time_mass_trial(tm)).toarray()
        Tt = hat_matrix(time_stiffness_trial(tm)).toarray()
        rng = np.random.default_rng(5)
        tau = rng.standard_normal(tm.n_elements + 1)
        for idx in range(len(mus)):
            v = vecs[:, idx]  # M-orthonormal
            u = np.kron(tau, v)
            expected = mus[idx] * (tau @ Mt @ tau) + (tau @ Tt @ tau) / mus[idx]
            assert u @ G.apply(u) == pytest.approx(expected, rel=1e-10)

    def test_spd(self):
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = refine_uniform(unit_square_initial(), 1)
        G = gram_X(tm, sm)
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = rng.standard_normal(G.shape[1])
            assert v @ G.apply(v) > 0.0
        dense_g = dense(G)
        assert np.max(np.abs(dense_g - dense_g.T)) <= 1e-12


class TestInfSup:
    def test_one_assembly_pass_per_distinct_pair(self, record_calls):
        # (P2, P1) and (P2, P2), once each: the P1 pair is the closed-form
        # stencils, which the l = 0 pencil side shares with the l = 1 factors
        calls = record_calls(assembly, "space_matrices")
        tm = uniform_time_mesh(0.0, 1.0, 1)
        sm = refine_uniform(unit_square_initial(), 2)
        infsup_constant(tm, sm)
        assert [(test, trial) for _, test, trial in calls] == [(2, 1), (2, 2)]

    def test_lift_takes_lobpcg_blocks_whole(self, monkeypatch):
        # the G_X lift's matmat lifts a block of LOBPCG residuals in one
        # apply: at d=1 k=5 the applies number at most the iterations plus
        # two, where a matvec alone would lift 101 single columns
        import scipy.sparse.linalg

        lifts, iterations = [], []
        real_apply, real_lobpcg = RieszPreconditioner.apply, scipy.sparse.linalg.lobpcg

        def apply(self, f):
            lifts.append(np.shape(f))
            return real_apply(self, f)

        def lobpcg(*args, **kwargs):
            vals, vecs, history = real_lobpcg(
                *args, retResidualNormsHistory=True, **kwargs
            )
            iterations.append(len(history) - 1)  # a row per pass, one for the result
            return vals, vecs

        monkeypatch.setattr(RieszPreconditioner, "apply", apply)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lobpcg)
        sm = refine_uniform(unit_interval_mesh(1), 5)
        infsup_constant(uniform_time_mesh(0.0, 1.0, 5), sm)
        assert len(lifts) <= iterations[0] + 2
        assert all(len(shape) == 2 for shape in lifts)

    @pytest.mark.parametrize("d, k", [(1, 2), (2, 1)])
    def test_operators_take_integer_arrays(self, d, k, monkeypatch):
        # lobpcg's dense path below 5 block sizes passes an integer identity:
        # the normal apply, the G_X lift and both pencil sides give bitwise
        # what they give on the float copy; LOBPCG starts from the dof-order
        # draw, gathered per time row
        import scipy.sparse.linalg

        seen, real_lobpcg = {}, scipy.sparse.linalg.lobpcg

        def lobpcg(small, start, B, M, **kwargs):
            seen.update(start=start, small=small, big=B, lift=M)
            return real_lobpcg(small, start, B=B, M=M, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lobpcg)
        cfg = ExperimentConfig(experiment="infsup", d=d, T=1.0, k_range=[k])
        tm, sm = build_meshes(cfg, k)
        infsup_constant(tm, sm)
        system = level_system(tm, sm, 0, get_solution("cubic", d))
        st, n = system.stencils, system.n
        g_x = make_G_X(tm, st)
        ints = np.random.default_rng(1).integers(-3, 4, (n, 3))
        small, big = seen["small"], seen["big"]
        for apply in (system.apply, g_x.apply, small.matvec, big.matvec):
            np.testing.assert_array_equal(apply(ints[:, 0]), apply(ints[:, 0] * 1.0))
        for apply in (g_x.apply, small.matmat, big.matmat):
            np.testing.assert_array_equal(apply(ints), apply(ints * 1.0))
        draw = np.random.default_rng(0).standard_normal((n, 4))
        start = seen["start"].reshape(-1, st.slots.size, 4)[:, st.rank]
        np.testing.assert_array_equal(start.reshape(n, 4), draw)

    @pytest.mark.parametrize(
        "d, k", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3)]
    )
    def test_identity_pencil_matches_b_route(self, d, k):
        # the dense energy-identity pencil against the B route: the same
        # normal matrices; and the matrix-free gamma against the dense one
        cfg = ExperimentConfig(experiment="infsup", d=d, T=1.0, k_range=[k])
        tm, sm = build_meshes(cfg, k)
        space = space_csr(sm, 1)
        m, a, m_mix, a_mix, a_test = space
        want = (
            normal_matrix_b_route(tm, m, a, a),
            normal_matrix_b_route(tm, m_mix, a_mix, a_test),
        )
        got = normal_matrices_dense(tm, space)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
        gamma_b = np.sqrt(scipy.linalg.eigh(*want, eigvals_only=True)[0])
        assert infsup_constant(tm, sm) == pytest.approx(gamma_b, rel=1e-11)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nested_bounded_by_one(self, k):
        tm = uniform_time_mesh(0.0, 1.0, k)
        sm = refine_uniform(unit_square_initial(), 2 * k)
        gamma = infsup_constant(tm, sm)
        assert gamma <= 1.0 + 1e-10
        assert gamma > 0.5

    def test_unconverged_eigenpair_raises(self, monkeypatch):
        # d=2 k=3 needs far more than one LOBPCG iteration
        monkeypatch.setattr(solver, "INFSUP_MAX_ITER", 1)
        tm = uniform_time_mesh(0.0, 1.0, 3)
        sm = refine_uniform(unit_square_initial(), 6)
        with pytest.raises(RuntimeError, match=r"n = 1017 .* in 1 iterations"):
            infsup_constant(tm, sm)
