"""Closed-form sine-series heat solutions and conditional stability checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backsolve.assembly import integrate_squared, quad_points
from backsolve.mesh import refine_uniform, unit_interval_mesh, unit_square_initial
from backsolve.operators import space_factors
from backsolve.oracle import (
    SpectralField,
    check_hbeta_stability,
    check_log_convexity,
    check_smoothing,
    decay_rate_fit,
    hbeta_norm,
    heat_evolve,
    mode_perturbation,
    random_perturbation,
    random_spectral_fields,
    single_mode_hbeta_ratio_exact,
    time_derivative,
)
from reference import space_mass


def single_mode(d=1, n=1, c=1.0):
    return SpectralField(d, np.full((1, d), n), np.array([c]))


class TestSpectralField:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralField(3, np.array([[1, 1, 1]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SpectralField(1, np.array([[0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SpectralField(1, np.array([[2], [2]]), np.array([1.0, 1.0]))

    def test_eigenvalues(self):
        f = SpectralField(2, np.array([[1, 1], [1, 2]]), np.array([1.0, 1.0]))
        assert np.allclose(f.eigenvalues, [2 * np.pi**2, 5 * np.pi**2])

    def test_l2_norm_parseval(self):
        # each product-sine mode carries squared norm 1/2^d
        assert single_mode(1).l2_norm() == pytest.approx(np.sqrt(0.5))
        assert single_mode(2, c=4.0).l2_norm() == pytest.approx(2.0)

    def test_norm_matches_quadrature(self):
        f = SpectralField(1, np.array([[1], [2], [5]]), np.array([0.3, -1.1, 0.7]))
        x, w = np.polynomial.legendre.leggauss(60)
        x = (x + 1.0) / 2.0
        w = w / 2.0
        val = f.evaluate(x[:, None])
        assert np.sqrt(np.sum(w * val**2)) == pytest.approx(
            f.l2_norm(), abs=1e-10
        )

    def test_evaluate_2d(self):
        f = single_mode(2)
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = [1.0, np.sin(np.pi / 4) * np.sin(3 * np.pi / 4)]
        assert np.allclose(f.evaluate(p), expected, atol=1e-14)


class TestHeatEvolve:
    def test_zero_dt_identity(self):
        f = SpectralField(1, np.array([[1], [3]]), np.array([1.0, -2.0]))
        g = heat_evolve(f, 0.0)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_single_mode_scale(self):
        f = single_mode(1)
        g = heat_evolve(f, 1.0)
        assert g.coeffs[0] == pytest.approx(np.exp(-np.pi**2), rel=1e-13)

    def test_forward_backward_roundtrip(self):
        f = SpectralField(1, np.array([[1], [2]]), np.array([0.5, 0.25]))
        g = heat_evolve(heat_evolve(f, 0.7), -0.7)
        assert np.allclose(g.coeffs, f.coeffs, rtol=1e-12)

    def test_semigroup_property(self):
        f = SpectralField(2, np.array([[1, 1], [2, 3]]), np.array([1.0, 0.5]))
        one = heat_evolve(f, 0.9)
        two = heat_evolve(heat_evolve(f, 0.4), 0.5)
        assert np.allclose(one.coeffs, two.coeffs, rtol=1e-13)

    def test_backward_overflow_guard(self):
        with pytest.raises(OverflowError):
            heat_evolve(single_mode(1, n=10), -10.0)

    def test_time_derivative(self):
        f = single_mode(1)
        g = time_derivative(f)
        assert g.coeffs[0] == pytest.approx(-np.pi**2, rel=1e-14)


class TestHbetaNorm:
    def test_beta_zero_is_l2(self):
        f = SpectralField(1, np.array([[1], [4]]), np.array([1.0, 2.0]))
        assert hbeta_norm(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-14)

    def test_beta_one_single_mode(self):
        f = single_mode(1)
        assert hbeta_norm(f, 1.0) == pytest.approx(np.pi * f.l2_norm(), rel=1e-13)

    def test_beta_two_is_laplacian_image(self):
        f = single_mode(2, n=2)
        lam = 8 * np.pi**2
        assert hbeta_norm(f, 2.0) == pytest.approx(lam * f.l2_norm(), rel=1e-13)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            hbeta_norm(single_mode(), -0.5)
        with pytest.raises(ValueError):
            hbeta_norm(single_mode(), 2.5)


class TestLogConvexity:
    def test_single_mode_saturates(self):
        res = check_log_convexity(single_mode(1), T=1.0)
        assert abs(res.max_violation) <= 1e-12
        assert res.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_two_modes_strictly_below(self):
        f = SpectralField(1, np.array([[1], [3]]), np.array([1.0, 1.0]))
        res = check_log_convexity(f, T=1.0)
        assert res.max_violation <= 1e-14
        # strict convexity away from the endpoints
        inner = res.actual_values[1:-1] - res.bound_values[1:-1]
        assert np.all(inner < 0.0)

    def test_suite(self):
        suite = random_spectral_fields(25, d=2, n_max=6, seed=11)
        assert check_log_convexity(suite, T=1.0).max_violation <= 1e-10

    def test_report_structure(self):
        res = check_log_convexity(single_mode(), T=2.0, n_samples=50)
        assert res.sample_times.shape == (50,)
        assert res.omega[0] == 0.0 and res.omega[-1] == 1.0
        assert res.elliptic_regularity_gain == 2.0

    def test_zero_field_rejected(self):
        f = SpectralField(1, np.array([[1]]), np.array([0.0]))
        with pytest.raises(ValueError):
            check_log_convexity(f, T=1.0)

    @pytest.mark.parametrize(
        "check",
        [
            lambda f: check_log_convexity(f, T=1.0),
            lambda f: check_smoothing(f, T=1.0),
            lambda f: check_hbeta_stability(f, T=1.0, beta=0.5),
        ],
        ids=["log_convexity", "smoothing", "hbeta"],
    )
    def test_zero_series_of_a_stack_is_named(self, check):
        suite = random_spectral_fields(4, d=1, n_max=3, seed=0)
        coeffs = suite.coeffs.copy()
        coeffs[2] = 0.0
        with pytest.raises(ValueError, match=r"identically zero \(series 2\)"):
            check(SpectralField(1, suite.modes, coeffs))

    @given(
        c1=st.floats(min_value=-10.0, max_value=10.0),
        c2=st.floats(min_value=-10.0, max_value=10.0),
        n2=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_holds_for_arbitrary_two_mode_fields(self, c1, c2, n2):
        if abs(c1) < 1e-6 and abs(c2) < 1e-6:
            return
        f = SpectralField(1, np.array([[1], [n2]]), np.array([c1, c2]))
        assert check_log_convexity(f, T=1.0).max_violation <= 1e-10


class TestSmoothing:
    def test_single_mode_exact(self):
        # t * lambda * exp(-lambda t) peaks at exactly 1/e
        rep = check_smoothing(single_mode(1), T=1.0)
        assert rep.constant == pytest.approx(1.0 / np.e, abs=1e-12)
        assert rep.t_at_max == pytest.approx(1.0 / np.pi**2, rel=1e-12)

    def test_suite_below_one(self):
        rep = check_smoothing(random_spectral_fields(25, d=2, n_max=6, seed=12), T=1.0)
        assert rep.constant <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_suite_below_one_over_e(self, d):
        # t lambda exp(-lambda t) <= 1/e per mode bounds every field by 1/e
        worst = max(
            check_smoothing(
                random_spectral_fields(100, d=d, n_max=8, seed=seed), T=1.0
            ).constant
            for seed in range(20)
        )
        assert worst <= (1.0 / math.e) * (1.0 + 1e-12)

    def test_values_never_negative(self):
        rep = check_smoothing(single_mode(2), T=0.5)
        assert np.all(rep.values >= 0.0)


class TestHbetaStability:
    def test_single_mode_matches_closed_form(self):
        # coefficient 4 puts ||u(0)|| above ||u(T)|| + 1 so the constant
        # M reduces to ||u(0)|| and the ratio has an exact value
        f = single_mode(2, n=1, c=4.0)
        for beta in (0.5, 1.0, 1.5):
            res = check_hbeta_stability(f, T=1.0, beta=beta)
            assert res.max_ratio == pytest.approx(
                single_mode_hbeta_ratio_exact(beta), abs=1e-12
            )

    def test_closed_form_values(self):
        assert single_mode_hbeta_ratio_exact(0.0) == 1.0
        assert single_mode_hbeta_ratio_exact(1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_suite_bounded(self):
        suite = random_spectral_fields(10, d=2, n_max=4, seed=13)
        res = check_hbeta_stability(suite, T=1.0, beta=0.5)
        assert np.isfinite(res.max_ratio)
        assert np.all(res.constant_m >= suite.l2_norm())

    def test_beta_range(self):
        with pytest.raises(ValueError):
            check_hbeta_stability(single_mode(), T=1.0, beta=2.0)
        with pytest.raises(ValueError):
            check_hbeta_stability(single_mode(), T=1.0, beta=-0.1)


class TestDecayRateFit:
    @pytest.mark.parametrize("beta,target", [(0.0, -0.5), (0.5, -0.25)])
    def test_slope_near_asymptote(self, beta, target):
        slope, xs, ys = decay_rate_fit(beta, range(1, 9), T=1.0, d=1)
        assert slope == pytest.approx(target, rel=0.2)
        assert xs.shape == ys.shape == (8,)
        assert np.all(np.diff(xs) > 0.0)

    def test_high_modes_stay_finite(self):
        # closed-form path: coefficients this small underflow a naive norm
        slope, xs, _ = decay_rate_fit(0.0, [40, 50, 60], T=1.0, d=1)
        assert np.all(np.isfinite(xs))
        assert np.isfinite(slope)

    def test_undecayed_mode_rejected(self):
        # an amplifying window pushes -log||u(T)|| nonpositive, which the
        # log-log fit cannot use
        with pytest.raises(ValueError):
            decay_rate_fit(0.0, [1, 2, 3], T=-1.0, d=1)


class TestPerturbations:
    def test_mode_perturbation_norm_at_unit_time(self):
        # T = 1: no amplification, the (1,1) mode has norm amplitude/2
        f = mode_perturbation(1, T=1.0, amplitude=0.05, d=2)
        assert f.l2_norm() == pytest.approx(0.025, rel=1e-14)

    def test_mode_perturbation_amplifies_backward(self):
        f = mode_perturbation(1, T=0.5, amplitude=1.0, d=2)
        assert f.coeffs[0] == pytest.approx(np.exp(np.pi**2), rel=1e-12)

    def test_mode_perturbation_in_one_dimension(self):
        # d = 1: a e^{lam (1 - T)} sin(n pi x) with lam = (n pi)^2, and its
        # Parseval norm is the quadrature norm of that field on (0, 1)
        a, n, T = 0.05, 2, 0.875
        f = mode_perturbation(n, T=T, amplitude=a, d=1)
        assert f.dimension == 1
        x = np.linspace(0.0, 1.0, 33)
        want = a * np.exp((n * np.pi) ** 2 * (1.0 - T)) * np.sin(n * np.pi * x)
        got = f.evaluate(x[:, None])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * f.coeffs[0])
        mesh = unit_interval_mesh(32)
        quad = integrate_squared(mesh, f.evaluate(quad_points(mesh)))
        assert f.l2_norm() == pytest.approx(math.sqrt(quad), rel=1e-10)

    def test_mode_perturbation_guards(self):
        with pytest.raises(ValueError):
            mode_perturbation(0, T=1.0, amplitude=0.1, d=2)
        with pytest.raises(OverflowError):
            mode_perturbation(20, T=0.0, amplitude=1.0, d=2)

    def test_random_perturbation_exact_norm(self):
        sm = unit_interval_mesh(16)
        st = space_factors(sm, 0)[0]
        f = st.scatter(random_perturbation(st, 0.01, seed=42))
        mass = space_mass(sm, 1)
        l2_norm = np.sqrt(f @ (mass @ f))
        assert l2_norm == pytest.approx(0.01, rel=1e-12)

    def test_random_perturbation_takes_the_level_mass(self):
        # the solver hands over the stencils of its level's space_factors;
        # in dof order the field is the dof-order draw normalized by the
        # CSR mass, up to the rounding of the norm
        sm = refine_uniform(unit_square_initial(), 4)
        st = space_factors(sm, 1)[0]
        got = st.scatter(random_perturbation(st, 0.01, 3))
        mass = space_mass(sm, 1)
        draw = np.random.default_rng(3).uniform(-1.0, 1.0, mass.shape[0])
        want = draw * (0.01 / math.sqrt(float(draw @ (mass @ draw))))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_random_perturbation_deterministic(self):
        st = space_factors(unit_interval_mesh(8), 0)[0]
        a = random_perturbation(st, 0.5, seed=7)
        b = random_perturbation(st, 0.5, seed=7)
        c = random_perturbation(st, 0.5, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_perturbation_guards(self):
        st = space_factors(unit_interval_mesh(8), 0)[0]
        with pytest.raises(ValueError):
            random_perturbation(st, 0.0, 0)
        with pytest.raises(ValueError):  # no dofs: no stencils to perturb
            random_perturbation(space_factors(unit_interval_mesh(1), 0)[0], 0.1, 0)

    def test_suite_guards(self):
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            random_spectral_fields(0, d=2, n_max=8, seed=0)
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            random_spectral_fields(10, d=2, n_max=0, seed=0)

    def test_suite_seeded(self):
        a = random_spectral_fields(3, d=1, n_max=4, seed=5)
        b = random_spectral_fields(3, d=1, n_max=4, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert len(a.coeffs) == 3
        assert a.modes.shape == (4, 1)
