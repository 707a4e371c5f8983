"""Regularized normal system, Krylov iteration, error reporting, meshes."""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import FunctionType, SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from backsolve import assembly, precond
from backsolve.config import ExperimentConfig
from backsolve.mesh import (
    TimeMesh,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.operators import KroneckerOperator, assemble_B
from backsolve.precond import (
    RieszPreconditioner,
    SpaceStencils,
    make_G_X,
)
from backsolve.solutions import ManufacturedSolution, get_solution
from backsolve.solver import (
    LeastSquaresSystem,
    build_level,
    build_meshes,
    choose_epsilon,
    in_modes,
    interior_points,
    nodal_interpolant,
    pcg,
    solve_backward,
    solve_level,
    trial_dofs,
)
from reference import (
    b_route,
    dense,
    dense_from_apply,
    dof_apply,
    fit_rate,
    gram_X,
    gram_Y,
    hat_matrix,
    level_error_report,
    level_system,
    space_csr,
    space_mass,
    time_mass_trial,
    to_dofs,
)


class TestChooseEpsilon:
    def test_plain(self):
        assert choose_epsilon("plain", 10**6, 2) == pytest.approx(1e-3, rel=1e-12)

    def test_data_aware(self):
        got = choose_epsilon("data-aware", 10**4, 2, pert_norm=0.01)
        assert got == pytest.approx(0.02, rel=1e-12)

    def test_explicit(self):
        assert choose_epsilon("explicit", 100, 2, explicit_value=0.125) == 0.125
        with pytest.raises(ValueError):
            choose_epsilon("explicit", 100, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            choose_epsilon("plain", 0, 2)
        with pytest.raises(ValueError):
            choose_epsilon("plain", 8, 3)
        with pytest.raises(ValueError):
            choose_epsilon("plain", 100, 4)
        with pytest.raises(ValueError):
            choose_epsilon("tikhonov", 100, 2)


def small_system(reg_epsilon=0.1, l=0):
    tm = TimeMesh(0.0, 1.0, 1)
    sm = unit_interval_mesh(4)
    system = level_system(tm, sm, l, get_solution("cubic", 1))
    return tm, sm, replace(system, reg_epsilon=reg_epsilon)


class TestBuildSystem:
    def test_zero_data_zero_minimizer(self):
        tm = TimeMesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(4)
        zero = get_solution("zero", 1)
        system = replace(
            level_system(tm, sm, 0, zero), reg_epsilon=0.5
        )
        assert np.array_equal(system.rhs, np.zeros(system.n))
        assert b_route(tm, sm, 0, 0.5, zero).functional(np.zeros(system.n)) == 0.0
        assert system.j_zero == 0.0
        g_x = make_G_X(tm, system.stencils)
        # the functional rule needs no zero-data case: J = 0 and r = 0
        for threshold in (1e-30, None):
            x, rep = pcg(system, g_x, threshold=threshold, max_iter=50)
            assert np.array_equal(x, np.zeros(system.n))
            assert rep.iterations == 0
            assert rep.converged

    def test_normal_operator_spd(self):
        _, _, system = small_system()
        S = dense_from_apply(system.apply, system.n)
        assert np.max(np.abs(S - S.T)) <= 1e-13
        assert np.linalg.eigvalsh(S).min() > 0.0

    def test_epsilon_term_is_start_trace(self):
        # S_eps v - S_0 v = eps^2 kron(e_0 e_0', M) v, nothing else
        tm, sm, with_eps = small_system(reg_epsilon=0.3)
        _, _, without = small_system(reg_epsilon=0.0)
        first = np.eye(tm.breakpoints.size)[:1]
        start_term = np.kron(first.T @ first, space_mass(sm, 1).toarray())
        rng = np.random.default_rng(0)
        v = rng.standard_normal(with_eps.n)
        gap = dof_apply(with_eps)(v) - dof_apply(without)(v)
        assert np.allclose(gap, 0.3**2 * start_term @ v, atol=1e-13)

    def test_negative_epsilon_rejected(self):
        # the guard runs in __post_init__, so dataclasses.replace runs it too
        _, _, system = small_system()
        with pytest.raises(ValueError, match="reg_epsilon must be nonnegative"):
            replace(system, reg_epsilon=-0.1)

    def test_functional_minimized_at_solve(self):
        # the Krylov solution beats nearby vectors in the functional
        tm, sm, system = small_system()
        g_x = make_G_X(tm, system.stencils)
        x, _ = pcg(system, g_x, threshold=1e-24, max_iter=200)
        x = to_dofs(system.stencils, x)
        functional = b_route(tm, sm, 0, 0.1, get_solution("cubic", 1)).functional
        base = functional(x)
        rng = np.random.default_rng(1)
        for _ in range(10):
            dv = rng.standard_normal(system.n) * 1e-3
            assert functional(x + dv) >= base - 1e-12


def dense_reference(tm, sm, l, reg_epsilon, f_load, g_load, g_sq):
    """Normal matrix, right-hand side and functional built densely from
    B, the test Gram, the space mass and np.eye time rows:

        S = B' Y^-1 B + kron(e_T e_T', M) + eps^2 kron(e_0 e_0', M).
    """
    B = dense(assemble_B(tm, *space_csr(sm, l)[2:4]))
    Y = dense(gram_Y(tm, sm, l))
    M = space_mass(sm, 1).toarray()
    eye_t = np.eye(tm.breakpoints.size)
    start = np.kron(eye_t[:1], np.eye(M.shape[0]))  # v -> v(0)
    end = np.kron(eye_t[-1:], np.eye(M.shape[0]))  # v -> v(T)
    S = (
        B.T @ np.linalg.solve(Y, B)
        + end.T @ M @ end
        + reg_epsilon**2 * start.T @ M @ start
    )
    rhs = B.T @ np.linalg.solve(Y, f_load) + end.T @ g_load

    def functional(v):
        res = B @ v - f_load
        v_end, v0 = end @ v, start @ v
        return (
            res @ np.linalg.solve(Y, res)
            + v_end @ M @ v_end
            - 2.0 * v_end @ g_load
            + g_sq
            + reg_epsilon**2 * v0 @ M @ v0
        )

    return S, rhs, functional


def _rel(a, b):
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


def reference_case(d, l, reg_epsilon):
    """Meshes and system of the dense reference checks."""
    if d == 1:
        tm, sm = TimeMesh(0.0, 1.0, 2), unit_interval_mesh(4)
    else:
        tm = TimeMesh(0.0, 1.0, 1)
        sm = refine_uniform(unit_square_initial(), 2)
    system = level_system(tm, sm, l, get_solution("cubic", d))
    return tm, sm, replace(system, reg_epsilon=reg_epsilon)


class TestDenseReference:
    @pytest.mark.parametrize("reg_epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_normal_operator_matches_dense(self, d, reg_epsilon):
        tm, sm, system = reference_case(d, 0, reg_epsilon)
        route = b_route(tm, sm, 0, reg_epsilon, get_solution("cubic", d))
        S, rhs, functional = dense_reference(
            tm, sm, 0, reg_epsilon, route.f_load, route.g_load, route.g_sq
        )
        assert _rel(to_dofs(system.stencils, system.rhs), rhs) <= 1e-12
        rng = np.random.default_rng(10 + d)
        for _ in range(5):
            v = rng.standard_normal(system.n)
            assert _rel(dof_apply(system)(v), S @ v) <= 1e-12
            assert _rel(route.functional(v), functional(v)) <= 1e-12
        # the minimizer of the functional, where its terms nearly cancel
        x = np.linalg.solve(S, rhs)
        assert _rel(route.functional(x), functional(x)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_enriched_normal_operator_matches_dense(self, d):
        # l = 1: the energy identity needs M_mix = M_test P, A_mix = A_test P
        tm, sm, system = reference_case(d, 1, 0.3)
        route = b_route(tm, sm, 1, 0.3, get_solution("cubic", d))
        S, rhs, _ = dense_reference(
            tm, sm, 1, 0.3, route.f_load, route.g_load, route.g_sq
        )
        assert _rel(to_dofs(system.stencils, system.rhs), rhs) <= 1e-12
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            v = rng.standard_normal(system.n)
            assert _rel(dof_apply(system)(v), S @ v) <= 1e-12

    @pytest.mark.parametrize("reg_epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_energy_identity_against_gram_X(self, d, reg_epsilon):
        # at l = 0, S = Gram_X + (2 e_T e_T' + (eps^2 - 1) e_0 e_0') x M
        tm, sm, system = reference_case(d, 0, reg_epsilon)
        S = dense_from_apply(dof_apply(system), system.n)
        eye_t = np.eye(tm.breakpoints.size)
        traces = 2.0 * np.outer(eye_t[-1], eye_t[-1]) + (
            reg_epsilon**2 - 1.0
        ) * np.outer(eye_t[0], eye_t[0])
        M = space_mass(sm, 1).toarray()
        want = dense(gram_X(tm, sm)) + np.kron(traces, M)
        assert np.max(np.abs(S - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_normal_operator_symmetric_to_roundoff(self, d, l):
        # symmetric up to the rounding of one sparse LU solve, well inside
        # the 1e-13 of test_normal_operator_spd
        _, _, system = reference_case(d, l, 0.3)
        S = dense_from_apply(system.apply, system.n)
        assert np.max(np.abs(S - S.T)) <= 1e-15 * np.max(np.abs(S))


class TestPCG:
    def test_matches_dense_solve(self):
        tm, sm, system = small_system()
        g_x = make_G_X(tm, system.stencils)
        x, rep = pcg(system, g_x, threshold=1e-26, max_iter=500)
        S = dense_from_apply(system.apply, system.n)
        x_ref = np.linalg.solve(S, system.rhs)
        G = gram_X(tm, sm)
        st = system.stencils
        gap, x_ref = to_dofs(st, x - x_ref), to_dofs(st, x_ref)
        rel = np.sqrt(gap @ G.apply(gap) / (x_ref @ G.apply(x_ref)))
        assert rel <= 1e-8

    def test_cr_history_monotone(self):
        # the conjugate residual variant minimizes the monitored quantity,
        # so its history never increases
        tm, sm, system = small_system()
        g_x = make_G_X(tm, system.stencils)
        _, rep = pcg(system, g_x, threshold=1e-26, max_iter=500)
        hist = rep.residual_history
        assert np.all(np.diff(hist) <= 1e-14 * hist[0])

    @pytest.mark.parametrize(
        "d, k",
        [(1, k) for k in range(1, 9)]
        + [(2, k) for k in range(5)]
        + [
            pytest.param(d, k, marks=pytest.mark.deep)
            for d, k in [(1, 9), (1, 10), (2, 5), (2, 6)]
        ],
    )
    def test_accepted_iterate_meets_the_rule_on_its_true_residual(self, d, k):
        # PCR carries r and z = G_X r by recurrences; r = h - S x recomputed
        # from the accepted iterate must meet the stopping rule too:
        # r (G_X r) <= the report's threshold, at d = 1 k <= 8, d = 2 k <= 4,
        # and under the deep marker at d = 1 k = 9, 10 and d = 2 k = 5, 6.
        # Every l = 0 level solves in the tensor eigenbasis; the iterate is
        # mapped back, and r and G_X r are build_system's slot-order operator
        # and make_G_X's lift, not the eigenbasis system's
        cfg = ExperimentConfig(
            experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic"
        )
        level = build_level(cfg, k)
        assert level.system.modes is not None
        eps = choose_epsilon(cfg.epsilon_strategy, level.system.n, d)
        x, rep = pcg(
            replace(level.system, reg_epsilon=eps), level.g_x,
            cfg.threshold, cfg.max_iter,
        )
        tm, sm = build_meshes(cfg, k)
        system = replace(level_system(tm, sm, 0, level.solution), reg_epsilon=eps)
        r = system.rhs - system.apply(level.system.in_slots(x))
        assert rep.converged
        assert float(r @ make_G_X(tm, system.stencils).apply(r)) <= rep.threshold

    def test_max_iter_exhaustion_flagged(self):
        tm, sm, system = small_system()
        g_x = make_G_X(tm, system.stencils)
        _, rep = pcg(system, g_x, threshold=1e-40, max_iter=1)
        assert rep.iterations == 1
        assert not rep.converged
        assert len(rep.residual_history) == 2

    def test_invalid_arguments(self):
        tm, sm, system = small_system()
        g_x = make_G_X(tm, system.stencils)
        with pytest.raises(ValueError):
            pcg(system, g_x, threshold=0.0, max_iter=10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_functional_rule_accepts_first_iterate_below_bound(self, d):
        # without a threshold the accepted bound is min(1, eps)^2 J(x), with
        # J read through the two-dot-product identity, and one step fewer
        # would not have been accepted
        if d == 1:
            tm, sm = TimeMesh(0.0, 1.0, 3), unit_interval_mesh(8)
        else:
            tm = TimeMesh(0.0, 1.0, 2)
            sm = refine_uniform(unit_square_initial(), 4)
        sol = get_solution("cubic", d)
        eps = choose_epsilon("plain", trial_dofs(tm, sm), d)
        system = replace(
            level_system(tm, sm, 0, sol), reg_epsilon=eps
        )
        functional = b_route(tm, sm, 0, eps, sol).functional
        assert system.j_zero == pytest.approx(
            functional(np.zeros(system.n)), rel=1e-12
        )
        g_x = make_G_X(tm, system.stencils)
        x, rep = pcg(system, g_x, threshold=None, max_iter=100)
        assert rep.converged and rep.iterations >= 1
        assert rep.stopping_value <= rep.threshold
        assert rep.threshold == pytest.approx(
            min(1.0, eps) ** 2 * functional(to_dofs(system.stencils, x)), rel=1e-6
        )
        _, early = pcg(system, g_x, threshold=None, max_iter=rep.iterations - 1)
        assert not early.converged

    def test_report_fields(self):
        tm, sm, system = small_system(reg_epsilon=0.25)
        g_x = make_G_X(tm, system.stencils)
        _, rep = pcg(system, g_x, threshold=1e-20, max_iter=300)
        assert rep.epsilon == 0.25
        assert rep.threshold == 1e-20
        assert rep.stopping_value == rep.residual_history[-1]
        assert rep.wall_time >= 0.0

    def test_negative_rounding_reported_as_zero(self):
        # a lift that takes r.z a hair below 0: the monitored value is
        # reported as 0, and x = 0 is still accepted at once
        _, _, system = small_system()
        g_x = RieszPreconditioner(lambda f: -1e-300 * f)
        _, rep = pcg(system, g_x, threshold=None, max_iter=10)
        assert rep.converged and rep.iterations == 0
        assert rep.stopping_value == 0.0
        assert list(rep.residual_history) == [0.0]

    def test_cubic_d2_from_k0_reports_no_negative_value(self):
        # at k = 0 the accepted iterate's r.z sits at round-off (-5.5e-33
        # when A_test was factored): every reported value is at least 0, and
        # both levels stop after 2 iterations
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[0, 1], solution="cubic"
        )
        for k in cfg.k_range:
            _, rep, _ = solve_backward(cfg, k)
            assert rep.converged and rep.iterations == 2
            assert rep.stopping_value >= 0.0
            assert np.all(rep.residual_history >= 0.0)


def eigenbasis_pair(d, k, reg_epsilon):
    """(time mesh, slot-order system, eigenbasis system, its lift, Z, M_t)
    of an l = 0 convergence level k: build_system's slot-order system and
    in_modes of it."""
    tm = TimeMesh(0.0, 1.0, k)
    initial = unit_square_initial() if d == 2 else unit_interval_mesh(1)
    sm = refine_uniform(initial, d * k)
    slot = replace(
        level_system(tm, sm, 0, get_solution("cubic", d)), reg_epsilon=reg_epsilon
    )
    modal, lift = in_modes(tm, slot)
    m_t = hat_matrix(time_mass_trial(tm)).toarray()
    return tm, slot, modal, lift, modal.modes[0], m_t


# d = 1 k <= 6, with the ids they had as d = 1 levels alone, and d = 2 k <= 3
EIGENBASIS_LEVELS = [pytest.param(1, k, id=str(k)) for k in range(1, 7)]
EIGENBASIS_LEVELS += [pytest.param(2, k, id=f"d2-{k}") for k in range(1, 4)]


class TestEigenbasis:
    """The l = 0 solve in the tensor eigenbasis x = (Z x V) x~, V the space
    modes: the eigenbasis operators are the slot-order ones in that basis."""

    @staticmethod
    def near(got, want, rel=1e-12):
        return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

    @pytest.mark.parametrize("d, k", EIGENBASIS_LEVELS)
    def test_operators_are_the_slot_order_operators(self, d, k):
        tm, slot, modal, lift, z, m_t = eigenbasis_pair(d, k, 0.3)
        st = slot.stencils
        _, m, forward, _ = st.modes
        shape = modal.modes[1].shape
        g_x = make_G_X(tm, st)
        rng = np.random.default_rng(k)
        for _ in range(3):
            x, f = rng.standard_normal((2, *shape))
            # iterates map back by (Z x V) x~ and residuals forward by
            # (Z x V)^T r: the eigenbasis operator is (Z x V)^T S (Z x V)
            slot_s = slot.apply(modal.in_slots(x)).reshape(shape)
            assert self.near(modal.apply(x), forward(z.T @ slot_s).ravel())
            lifted = modal.in_slots(lift.apply(forward(z.T @ f).ravel()))
            assert self.near(lifted, g_x.apply(f.ravel()))
            # the forward map of an iterate, Z^T M_t x diag(1 / m) V^T M,
            # then the back map
            ahead = forward(st.product((st.mass, z.T @ m_t @ f))) / m
            assert self.near(modal.in_slots(ahead), f.ravel())
        assert self.near(modal.rhs, forward(z.T @ slot.rhs.reshape(shape)).ravel())

    @pytest.mark.parametrize("d, k", EIGENBASIS_LEVELS)
    def test_pcg_takes_the_slot_order_iterations(self, d, k):
        # at a fixed threshold, well above either form's round-off floor
        # (about 1e-24 here), both run the same PCR iterations to iterates
        # within 1e-9
        tm, slot, modal, lift, _, _ = eigenbasis_pair(d, k, 2.0**-k)
        g_x = make_G_X(tm, slot.stencils)
        x, rep = pcg(slot, g_x, 1e-16, 100)
        x_modal, rep_modal = pcg(modal, lift, 1e-16, 100)
        assert rep.converged and rep_modal.converged
        assert rep_modal.iterations == rep.iterations >= 1
        gap = np.linalg.norm(modal.in_slots(x_modal) - x)
        assert gap <= 1e-9 * np.linalg.norm(x)

    @pytest.mark.parametrize("d, k", [(1, 5), (2, 3)])
    def test_pcg_runs_no_space_solve_or_stencil_product(self, d, k, record_calls):
        # inside pcg an l = 0 solve applies diagonals and the rank-2 time
        # trace term only. The level builds one set of space modes, which
        # the A solve of the slot-order build_system (its test_part the
        # eigenbasis system never calls) and in_modes share, and no
        # make_G_X; pcg runs no space transform and no stencil product;
        # solve_level maps back and scatters once
        cfg = ExperimentConfig(
            experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic"
        )
        modes = record_calls(precond, "space_modes")
        lifts = record_calls(precond, "make_G_X")
        level = build_level(cfg, k)
        assert (len(modes), len(lifts)) == (1, 0)
        st = level.system.stencils
        a, m, forward, back = st.modes
        maps = []  # the space transforms called, forward or back

        def spy(name, fn):
            return lambda y: maps.append(name) or fn(y)

        modes = (a, m, spy("forward", forward), spy("back", back))
        level.system = replace(
            level.system, test_part=None, stencils=st._replace(modes=modes)
        )
        products = record_calls(SpaceStencils, "product")
        in_slots = record_calls(LeastSquaresSystem, "in_slots")
        scatters = record_calls(SpaceStencils, "scatter")
        system = replace(level.system, reg_epsilon=2.0**-k)
        _, rep = pcg(system, level.g_x, cfg.threshold, cfg.max_iter)
        assert rep.converged and rep.iterations >= 1
        assert products == [] and maps == []
        solve_level(cfg, k, level, "plain")
        assert (len(in_slots), len(scatters), maps) == (1, 1, ["back"])


def linear_fe_solution(sm):
    """A member of the trial space, exactly representable: zero errors."""
    xs = np.sort(sm.vertices[:, 0])
    free = ~sm.boundary_vertex_flags
    vals_at = dict(
        zip(sm.vertices[free][:, 0], np.sin(np.pi * sm.vertices[free][:, 0]))
    )
    nodal = np.array([vals_at.get(x, 0.0) for x in xs])

    def shape(points):
        return np.interp(points[:, 0], xs, nodal)

    def slope(points):
        idx = np.clip(np.searchsorted(xs, points[:, 0]) - 1, 0, len(xs) - 2)
        return (nodal[idx + 1] - nodal[idx]) / (xs[idx + 1] - xs[idx])

    # u = (1 + t) shape(x), in the factored form of a manufactured solution
    return SimpleNamespace(
        name="fe-interp",
        dimension=1,
        tau=lambda t: 1.0 + t,
        dtau=lambda t: 1.0,
        phi=shape,
        grad_phi=lambda p: slope(p)[:, None],
    )


class TestErrorReport:
    def test_exact_representation_has_zero_error(self):
        tm = TimeMesh(0.0, 1.0, 2)
        sm = unit_interval_mesh(8)
        sol = linear_fe_solution(sm)
        coeffs = nodal_interpolant(tm, sm, sol)
        rep = level_error_report(tm, sm, coeffs, sol, [0.25, 0.5, 1.0])
        assert rep.l2l2 <= 1e-12
        assert rep.l2h1 <= 1e-12
        assert all(v <= 1e-12 for v in rep.l2_slices.values())

    def test_zero_coeffs_measure_solution_norm(self):
        # u(t,x) = sin(pi x): l2l2 is sqrt(1/2), h1 is pi times larger
        tm = TimeMesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(16)
        sol = ManufacturedSolution("sine", 1, lambda t: 1.0, lambda t: 0.0)
        n = (tm.n_elements + 1) * int((~sm.boundary_vertex_flags).sum())
        rep = level_error_report(tm, sm, np.zeros(n), sol, [0.5])
        assert rep.l2l2 == pytest.approx(np.sqrt(0.5), rel=1e-9)
        assert rep.l2h1 == pytest.approx(np.pi * np.sqrt(0.5), rel=1e-9)
        assert rep.l2_slices[0.5] == pytest.approx(np.sqrt(0.5), rel=1e-9)

    def test_slices_snap_to_breakpoints(self):
        tm = TimeMesh(0.0, 1.0, 1)
        sm = unit_interval_mesh(8)
        sol = linear_fe_solution(sm)
        coeffs = nodal_interpolant(tm, sm, sol)
        rep = level_error_report(tm, sm, coeffs, sol, [0.49])
        assert 0.49 in rep.l2_slices  # keyed by the requested time



class TestFitRate:
    def test_exact_power_law(self):
        dofs = np.array([10.0, 100.0, 1000.0, 10000.0])
        errors = dofs ** (-1.0 / 3.0)
        assert fit_rate(dofs, errors) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_constant_errors(self):
        assert fit_rate([10, 100, 1000], [2.0, 2.0, 2.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_noise_tolerance(self):
        rng = np.random.default_rng(7)
        dofs = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        errors = dofs**-0.5 * np.exp(rng.normal(0.0, 0.01, size=5))
        assert fit_rate(dofs, errors) == pytest.approx(-0.5, abs=0.02)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fit_rate([10, 100], [1.0, 0.1])
        with pytest.raises(ValueError):
            fit_rate([10, 100, 1000], [1.0, -0.1, 0.01])


class TestBuildMeshes:
    def test_convergence_level(self):
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[2], solution="cubic"
        )
        tm, sm = build_meshes(cfg, 2)
        assert tm.n_elements == 4
        assert tm.breakpoints[0] == 0.0 and tm.breakpoints[-1] == 1.0
        assert sm.n_cells == 4 * 2**4

    def test_interval_length_restriction(self):
        # restriction of the 2^(k+3)-element full mesh: L/T = 1/2 at k = 0
        # keeps 4 elements on (1/2, 1)
        cfg = ExperimentConfig(
            experiment="interval-length",
            d=2,
            T=1.0,
            k_range=[0],
            L=0.5,
            solution="decay",
            slice_times=[0.75, 1.0],
        )
        tm, _ = build_meshes(cfg, 0)
        assert tm.n_elements == 4
        assert tm.breakpoints[0] == 0.5

    def test_interval_length_requires_dyadic_ratio(self):
        cfg = ExperimentConfig(
            experiment="interval-length",
            d=2,
            T=1.0,
            k_range=[0],
            L=0.3,
            solution="decay",
            slice_times=[0.75, 1.0],
        )
        with pytest.raises(ValueError, match="L/T a power of two"):
            build_meshes(cfg, 0)

    def test_interval_length_too_few_doublings(self):
        # L/T = 2^-4 is dyadic, but k + 3 + log2(L/T) = -1 at k = 0
        cfg = ExperimentConfig(
            experiment="interval-length",
            d=1,
            T=1.0,
            k_range=[0],
            L=1.0 / 16.0,
            solution="decay",
            slice_times=[1.0],
        )
        with pytest.raises(ValueError, match=r"k = 0 with L/T = 2\^-4.* got -1"):
            build_meshes(cfg, 0)
        assert build_meshes(cfg, 1)[0].n_elements == 1


class TestSolveBackward:
    def test_l0_solve_calls_no_factorization_or_lapack(
        self, record_calls, monkeypatch
    ):
        # at l = 0 A_test and the G_X lift are solved in closed form: no
        # SuperLU factor and no scipy.linalg (LAPACK) call on the solve path
        factored = record_calls(scipy.sparse.linalg, "splu")
        dense = []
        for name in scipy.linalg.__all__:
            fn = getattr(scipy.linalg, name)
            if isinstance(fn, FunctionType):

                def recorded(*args, _fn=fn, _name=name, **kwargs):
                    dense.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(scipy.linalg, name, recorded)
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[3], solution="cubic"
        )
        _, rep, _ = solve_backward(cfg, 3)
        assert rep.converged
        assert factored == [] and dense == []
        scipy.linalg.eigh(np.eye(2))  # the recording sees a call
        assert dense == ["eigh"]

    def test_import_l0_solves_and_oracle_load_no_scipy_module(self):
        # in a fresh interpreter: no scipy module is loaded by import
        # backsolve, by l = 0 builds and solves at d = 1 and d = 2, or by a
        # stability-oracle run, and no argparse either (only the command
        # line uses it); an l = 1 build factors its A_test with SuperLU and
        # so loads scipy.sparse.linalg
        script = textwrap.dedent(
            """
            import json, sys
            from dataclasses import replace

            def scipy_modules():
                return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

            import backsolve
            from backsolve.solver import build_level, solve_level
            loaded, converged = [scipy_modules()], []
            for d in (1, 2):
                cfg = backsolve.ExperimentConfig(
                    experiment="convergence", d=d, T=1.0, k_range=[3], solution="cubic"
                )
                _, rep, _ = solve_level(cfg, 3, build_level(cfg, 3), "plain")
                converged.append(rep.converged)
            loaded.append(scipy_modules())
            oracle = dict(experiment="stability-oracle", d=2, T=1.0, k_range=[1])
            backsolve.run(backsolve.ExperimentConfig(**oracle))
            loaded.append(scipy_modules())
            cli = "argparse" in sys.modules
            build_level(replace(cfg, l=1), 3)
            l1 = "scipy.sparse.linalg" in sys.modules
            print(json.dumps([converged, loaded, cli, l1]))
            """
        )
        src = str(Path(assembly.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[True, True], [[], [], []], False, True]

    def test_explicit_epsilon_outside_k_range(self):
        cfg = ExperimentConfig(
            experiment="convergence",
            d=1,
            T=1.0,
            k_range=[1, 2],
            epsilon_strategy="explicit",
            epsilon_values=[0.1, 0.2],
        )
        with pytest.raises(ValueError, match=r"per level of k_range \[1, 2\].*k = 3"):
            solve_backward(cfg, 3)

    @pytest.mark.parametrize("l", [0, 1])
    def test_normal_operator_reuses_the_test_factor(self, l, monkeypatch):
        # a d=2 solve makes one sparse factorization at l = 1, of the P2
        # A_test, and none at l = 0, where A_test = A is solved in closed
        # form like G_X's lift; nothing applies B, and every Riesz lift is
        # G_X's, none of them inside the normal operator
        factored, calls, inside = [], [], [False]
        real_splu = scipy.sparse.linalg.splu

        def splu(mat, **kwargs):
            factored.append((mat.shape, np.iscomplexobj(mat.data)))
            return real_splu(mat, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        real_normal = LeastSquaresSystem.apply

        def normal(self, v):
            calls.append(("normal", None, False))
            inside[0] = True
            try:
                return real_normal(self, v)
            finally:
                inside[0] = False

        monkeypatch.setattr(LeastSquaresSystem, "apply", normal)
        for owner, name in [
            (KroneckerOperator, "apply"),
            (KroneckerOperator, "apply_transpose"),
            (RieszPreconditioner, "apply"),
        ]:

            def wrapped(self, *args, _real=getattr(owner, name), _name=name):
                calls.append((_name, getattr(self, "norm", None), inside[0]))
                return _real(self, *args)

            monkeypatch.setattr(owner, name, wrapped)
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[2], solution="cubic", l=l
        )
        solve_backward(cfg, 2)
        n_test = space_csr(build_meshes(cfg, 2)[1], l)[4].shape[0]
        assert factored == ([((n_test, n_test), False)] if l else [])
        assert ("normal", None, False) in calls
        lifts = {call for call in calls if call[0] != "normal"}
        assert lifts == {("apply", "X", False)}

    @pytest.mark.parametrize(
        "solution, l, passes, n_loads",
        [("cubic", 0, 0, 2), ("cubic", 1, 2, 3), ("decay", 1, 2, 3)],
        ids=["0-0", "1-2", "decay-1-2"],
    )
    def test_space_set_up_runs_once(
        self,
        solution,
        l,
        passes,
        n_loads,
        record_calls,
        geometry_computations,
        facet_computations,
    ):
        # one space assembly pass per distinct (test, trial) pair, none at
        # l = 0, where the P1 pair is the closed-form stencils, and (P2, P1)
        # and (P2, P2) at l = 1; one geometry and one facet table, both for
        # the level's mesh
        matrices = record_calls(assembly, "space_matrices")
        mappings = record_calls(assembly, "quad_points_physical")
        phi = record_calls(ManufacturedSolution, "phi")
        loads = record_calls(assembly, "space_load")
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[2], solution=solution, l=l
        )
        solve_backward(cfg, 2)
        pairs = [(test, trial) for _, test, trial in matrices]
        assert len(pairs) == len(set(pairs)) == passes
        (level_mesh,) = geometry_computations
        assert [m is level_mesh for m in facet_computations] == [True]
        # one mapping and one phi sample feed the source, the end data, J(0)
        # and the error terms, which load psi = phi - I phi on P1. l = 1
        # loads the source on P2 too, a caloric one (its time load exactly
        # zero) included
        assert len(mappings) == 1
        assert len(phi) == 1
        assert len(loads) == n_loads

    def test_level_samples_once_and_its_solves_sample_nothing(self, record_calls):
        # build_level maps the load rule's points and samples phi and grad phi
        # once; the two epsilon-strategy solves of a perturbation level then
        # sample, map, evaluate and load nothing
        owners = {
            "quad_points": assembly,
            "phi": ManufacturedSolution,
            "grad_phi": ManufacturedSolution,
            "fe_values_on_cells": assembly,
            "fe_gradients_on_cells": assembly,
            "space_load": assembly,
        }
        calls = {name: record_calls(owner, name) for name, owner in owners.items()}
        cfg = ExperimentConfig(
            experiment="perturb-random",
            d=2,
            T=0.125,
            k_range=[2],
            solution="cubic",
            slice_times=[0.0625],
            seed=3,
        )
        level = build_level(cfg, 2)
        built = {name: len(recorded) for name, recorded in calls.items()}
        assert built["quad_points"] == built["phi"] == built["grad_phi"] == 1
        for strategy in ("plain", "data-aware"):
            solve_level(cfg, 2, level, strategy)
        assert {name: len(recorded) for name, recorded in calls.items()} == built

    def test_error_terms_do_not_depend_on_epsilon(self):
        # the two strategies solve one level at two epsilon values; each
        # report is bitwise that of a level built for its strategy alone
        cfg = ExperimentConfig(
            experiment="perturb-random",
            d=2,
            T=0.125,
            k_range=[3],
            solution="cubic",
            slice_times=[0.0625, 0.125],
            seed=3,
        )
        level = build_level(cfg, 3)
        shared = [solve_level(cfg, 3, level, s) for s in ("plain", "data-aware")]
        assert shared[0][1].epsilon != shared[1][1].epsilon
        for strategy, (coeffs, _, report) in zip(("plain", "data-aware"), shared):
            fresh_coeffs, _, fresh = solve_level(cfg, 3, build_level(cfg, 3), strategy)
            np.testing.assert_array_equal(coeffs, fresh_coeffs)
            assert report == fresh

    def test_perturb_random_level_reads_its_stencils_once_per_solve(
        self, record_calls
    ):
        # the random field is normalized with the level's own P1 mass
        # stencils, so each epsilon-strategy solve of a level reads the
        # stencils once and assembles nothing
        stencils = record_calls(precond, "space_stencils")
        matrices = record_calls(assembly, "space_matrices")
        cfg = ExperimentConfig(
            experiment="perturb-random",
            d=2,
            T=0.125,
            k_range=[2],
            solution="cubic",
            slice_times=[0.0625],
            seed=3,
        )
        for strategy in ("plain", "data-aware"):
            solve_backward(replace(cfg, epsilon_strategy=strategy), 2)
        assert (len(stencils), len(matrices)) == (2, 0)

    @pytest.mark.parametrize("d, k", [(1, 5), (2, 3)])
    def test_solve_runs_in_slot_order(self, d, k, record_calls):
        # the data enter the level's slot order once, at build_level; a
        # solve gathers nothing and scatters its iterate once, however many
        # PCR iterations it runs: at the functional rule and at a threshold
        # that takes more of them
        gathers = record_calls(SpaceStencils, "gather")
        scatters = record_calls(SpaceStencils, "scatter")
        cfg = ExperimentConfig(
            experiment="convergence", d=d, T=1.0, k_range=[k], solution="cubic"
        )
        iterations = []
        for threshold in (None, "tight"):
            if threshold:
                cfg = replace(cfg, threshold=1e-3 * rep.stopping_value)
            level = build_level(cfg, k)
            built = len(gathers)
            assert built > 0 and scatters == []
            _, rep, _ = solve_level(cfg, k, level, "plain")
            assert (len(gathers), len(scatters)) == (built, 1)
            iterations.append(rep.iterations)
            gathers.clear()
            scatters.clear()
        assert iterations[1] > iterations[0] >= 1

    def test_zero_solution_is_exact(self):
        cfg = ExperimentConfig(
            experiment="convergence", d=1, T=1.0, k_range=[1], solution="zero"
        )
        coeffs, solve_rep, err_rep = solve_backward(cfg, 1)
        assert np.array_equal(coeffs, np.zeros_like(coeffs))
        assert solve_rep.converged
        assert err_rep.l2l2 == 0.0

    def test_small_run_reports(self):
        cfg = ExperimentConfig(
            experiment="convergence", d=1, T=1.0, k_range=[2], solution="cubic"
        )
        coeffs, solve_rep, err_rep = solve_backward(cfg, 2)
        assert solve_rep.converged
        assert solve_rep.stopping_value <= solve_rep.threshold
        assert coeffs.size == trial_dofs(*build_meshes(cfg, 2))
        # slice errors keyed by the default quarter points
        assert set(err_rep.l2_slices) == {0.25, 0.5, 0.75, 1.0}
        assert err_rep.l2l2 > 0.0

    def test_d1_error_halves_per_level(self):
        cfg = ExperimentConfig(
            experiment="convergence",
            d=1,
            T=1.0,
            k_range=[3, 4, 5, 6],
            solution="cubic",
            epsilon_strategy="plain",
        )
        errs = [solve_backward(cfg, k)[2].l2h1 for k in cfg.k_range]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= 0.6 * coarse

    def test_interval_length_full_window_takes_a_step(self):
        # the L = T variant of an interval-length study; with threshold 1e-20
        # it takes 2 iterations and err_slice@1 falls from |g| = 0.707 to 0.477
        cfg = ExperimentConfig(
            experiment="interval-length",
            d=1,
            T=1.0,
            L=0.5,
            k_range=[1, 2],
            solution="decay",
            epsilon_strategy="plain",
            slice_times=[0.75, 1.0],
        )
        full = replace(cfg, L=1.0)
        for k in cfg.k_range:
            assert solve_backward(full, k)[1].iterations >= 1

    def test_interior_points_order(self):
        sm = unit_interval_mesh(4)
        pts = interior_points(sm)
        assert pts.shape == (3, 1)
        assert np.all((pts > 0.0) & (pts < 1.0))
