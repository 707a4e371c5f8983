"""Regularized least-squares solve of the backward heat problem.

Builds the SPD normal operator

    S v = Bt G_Y B v + M v(T) + reg_epsilon^2 M v(0)

on trial coefficients v, viewed as a (breakpoints x space dofs) array; the
solve keeps the space dofs in the slot order of the level's SpaceStencils,
and solve_level returns dof order. The breakpoints include both ends of the
time interval, so v(0) and v(T) are its first and last rows and the trace
terms act on those rows alone.
S is applied through the space-time energy identity

    Bt G_Y B = K_t x M_mix^T A_test^-1 M_mix + M_t x A
               + (e_T e_T^T - e_0 e_0^T) x M,

so S v = K_t x (M_mix^T A_test^-1 M_mix) v + M_t x A v + 2 M v(T)
+ (reg_epsilon^2 - 1) M v(0), with one A_test solve per breakpoint. K_t and
M_t are the hat stiffness and mass of the uniform time step. The identity
is exact because of two containments. In time, the elementwise Legendre
test space contains the hats and their derivatives, so B's time factors D
(derivative) and N (mass) give DtD = K_t, NtN = M_t and DtN + NtD =
e_T e_T^T - e_0 e_0^T (the integral of (phi_i phi_j)'). In space, P1 lies
in P_{1+l} with the same Dirichlet boundary, so the mixed matrices are
M_test P and A_test P, which gives A_mix^T A_test^-1 A_mix = A and
M_mix^T A_test^-1 A_mix = M. The same containments give the data without
B. The source separates, f = source(t) phi, so it loads on the test space
as t_c x l_test: t_c the Legendre time load of source, l_test the
test-space load of phi. The time Gram of the test space is the identity,
and A_mix^T A_test^-1 l_test is l_P1, the P1 load of phi. So with g_load
the P1 load of the end data g = tau(T) phi (plus any perturbation),
h = Bt G_Y (t_c x l_test) + e_T x g_load and J(0) are

    h = (Dt t_c) x (M_mix^T A_test^-1 l_test) + (Nt t_c) x l_P1 + e_T x g_load,
    J(0) = |t_c|^2 l_test^T A_test^-1 l_test + |g|^2,

from one A_test solve and one sample of phi. The minimizer is found by
preconditioned conjugate residuals stopped once the lifted residual
r(G_X r) is at most min(1, eps)^2 J(x), J the least-squares functional.

At l = 0 a level is solved in the tensor eigenbasis Z x V of Lynch, Rice
and Thomas (1964), Z the time modes (Z^T M_t Z = I, Z^T K_t Z = theta) and
V the space modes (V^T A V = a, V^T M V = m; backsolve.precond): iterates
x = (Z x V) x~ and residuals r~ = (Z x V)^T r. There the G_X lift is
r~ / lam, lam = a + theta x m^2 / a, and S takes x~ to
lam x~ + 2 z_T x m (z_T^T x~) + (reg_epsilon^2 - 1) z_0 x m (z_0^T x~),
z_0 and z_T the first and last rows of Z, products entrywise: PCR runs no
transform. h~ is formed once per level and the iterate mapped back once
per solve; the change of basis keeps every inner product PCR reads (r.z,
x.h, x.r), so the iteration and its stopping rule are the slot-order ones.

Error reporting compares against manufactured solutions, from the
iterate's coefficients alone. With I phi the nodal P1 interpolant of phi
and psi = phi - I phi at the load rule's points, the breakpoint error
D_i = U_i - tau_i phi is E_i - tau_i psi, where E_i = U_i - tau_i I phi is
a P1 coefficient row, so

    (D_i, D_j) = E_i^T M E_j - tau_j E_i.c - tau_i E_j.c + tau_i tau_j q,
    (D_i, phi) = E_i.l_phi - tau_i (psi, phi),

c the P1 load of psi, q = |psi|^2 and l_phi the P1 load of phi. M is exact
for products of P1 functions, as the load rule is, so this is exact
algebra. The gradient Grams are the same with the stiffness A in place of
M. P1 gradients are constant per cell, so grad phi splits into its cell
means and an oscillation orthogonal to every cellwise constant: psi' =
(cell mean of grad phi) - grad I phi and the stiffness loads of psi' and
of the means take the places of psi and l_phi, and the oscillation's
squared norm adds to q, (psi, phi) and (phi, phi). error_terms computes
every term but E once per level; a report forms E, one column E_i per
breakpoint, M E, A E and dot products. interpolation_gap_xnorm reads the
same terms, and D_{i+1} - D_i = (E_{i+1} - E_i) - (tau_{i+1} - tau_i) psi
gives its time-derivative Grams from the differenced rows of E.

The inf-sup constant of the P1 test space against the P2 one comes from
the same operator: at reg_epsilon = 0, S - e_T e_T^T x M is Bt G_Y B, so
each side of the pencil (Bt G_Y,0 B, Bt G_Y,1 B) is a normal operator of
build_system, built from zero data, with its end trace taken back off,
and LOBPCG, preconditioned by the G_X lift, finds the pencil's smallest
eigenvalue matrix-free.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .assembly import (
    QUAD_ORDER,
    _cell_rule,
    fe_gradients_on_cells,
    fe_values_on_cells,
    gradient_load,
    integrate_squared,
    load_vector_f,
    quad_points,
    space_load,
    time_derivative_mixed,
    time_mass_mixed,
    to_hats,
)
from .mesh import (
    SpatialMesh,
    TimeMesh,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from .quadrature import gauss_1d_for_degree
from .operators import (
    # not on the solve path; perfbench's tracer resolves this name
    assemble_B,
    space_factors,
)
from .oracle import mode_perturbation, random_perturbation
from .precond import (
    RieszPreconditioner,
    SpaceStencils,
    _time_modes,
    make_G_X,
    make_G_Y,
    stiffness_solve,
)
from .solutions import ManufacturedSolution, get_solution


@dataclass
class LeastSquaresSystem:
    """SPD normal operator of the regularized least-squares functional.

    Trial coefficients v, rhs and apply's result are in the slot order of
    stencils, the level's SpaceStencils: v.reshape(breakpoints, n_x) has a
    row of slots per breakpoint, v(0) first and v(T) last. apply uses the
    energy identity of the module docstring: the trial mass and stiffness
    act as stencils, K_t and M_t are the tridiagonal hat matrices of the
    uniform time step, and test_part maps rows y to (u, rest) with
    M_mix^T A_test^-1 M_mix y = M u + rest, so that the trace terms join u
    and one stencil pass applies M and A. rhs is h and j_zero is J(0).
    Only the start-trace term reads reg_epsilon, so one system serves
    every epsilon through dataclasses.replace. With modes = (Z, lam, m)
    (in_modes) v, rhs and apply's result are in the tensor eigenbasis of
    the module docstring instead, and in_slots maps v back.
    """

    stencils: SpaceStencils
    step: float
    test_part: Callable
    reg_epsilon: float
    rhs: np.ndarray
    j_zero: float
    modes: tuple | None = None

    def __post_init__(self):
        if self.reg_epsilon < 0.0:
            raise ValueError("reg_epsilon must be nonnegative")

    @property
    def n(self) -> int:
        return self.rhs.size

    def in_slots(self, v: np.ndarray) -> np.ndarray:
        if self.modes is None:
            return v
        z, back = self.modes[0], self.stencils.modes[3]
        return back(z @ v.reshape(z.shape[0], -1)).ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.modes is not None:  # lam x + the trace terms, rank 2 in time
            z, lam, m = self.modes
            x = np.asarray(v, dtype=float).reshape(lam.shape)
            out = lam * x
            out += np.outer(z[-1], 2.0 * m * (z[-1] @ x))
            out += np.outer(z[0], (self.reg_epsilon**2 - 1.0) * m * (z[0] @ x))
            return out.ravel()
        st = self.stencils
        rows = np.asarray(v, dtype=float).reshape(-1, st.slots.size)
        k_rows, m_rows = _hat_products(self.step, rows)
        u, rest = self.test_part(k_rows)
        u[-1] += 2.0 * rows[-1]
        u[0] += (self.reg_epsilon**2 - 1.0) * rows[0]
        out = st.product((st.mass, u), (st.stiffness, m_rows)) + rest
        return out.ravel()


def _hat_products(h: float, rows: np.ndarray) -> tuple:
    """(K_t rows, M_t rows): the hat stiffness and mass of the uniform time
    step h, with (1, -1) / h and h (1/3, 1/6) per element, times rows
    (hats, n_x). Each entry takes the flops of summing two element blocks."""

    def tridiagonal(corner, off):  # diagonal 2 corner, corner at both ends
        out = (2.0 * corner) * rows
        out[0] *= 0.5
        out[-1] *= 0.5
        out[:-1] += off * rows[1:]
        out[1:] += off * rows[:-1]
        return out

    return tridiagonal(1.0 / h, -1.0 / h), tridiagonal(h * (1 / 3), h * (1 / 6))


@dataclass
class SolveReport:
    iterations: int
    residual_history: np.ndarray  # r(G_X r) per iteration, first entry at x=0
    stopping_value: float
    threshold: float
    epsilon: float
    wall_time: float
    converged: bool


@dataclass
class ErrorReport:
    l2_slices: dict  # requested slice time -> L2(Omega) error at snapped time
    l2l2: float
    l2h1: float  # L2-in-time of the H1 seminorm


def choose_epsilon(
    strategy: str,
    dofs: int,
    d: int,
    pert_norm: float = 0.0,
    explicit_value: float | None = None,
) -> float:
    if dofs < 1:
        raise ValueError("dofs must be at least 1")
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if strategy == "plain":
        return dofs ** (-1.0 / d)
    if strategy == "data-aware":
        return pert_norm + dofs ** (-1.0 / d)
    if strategy == "explicit":
        if explicit_value is None:
            raise ValueError("explicit strategy needs a value")
        return float(explicit_value)
    raise ValueError(f"unknown epsilon strategy {strategy!r}")


def manufactured_data(
    time_mesh: TimeMesh,
    space_mesh: SpatialMesh,
    l: int,
    solution: ManufacturedSolution,
    space,
    sample,
    perturbation=None,
):
    """Loads of a manufactured solution's data: (t_c, l_test, l_P1, g_load, g_sq).

    space is the level's space_factors(space_mesh, l) and sample its
    phi_sample. The source
    f = source(t) phi loads on the test space as t_c x l_test (t_c is
    exactly zero for a caloric solution, whose source dtau + d pi^2 tau
    rounds to 0); l_P1 is the P1 load of phi. The end-time
    observation g = tau(T) phi, T the last breakpoint, plus perturbation,
    has P1 load g_load and squared L2 norm g_sq. perturbation is an array
    of nodal trial coefficients (loaded through the mass stencils, exactly)
    or any object with evaluate(points), evaluated at the sample's points.
    P1 loads and coefficients are in the slot order of the level's stencils.
    """
    st = space[0]
    points, phi, _ = sample
    phi_load = st.gather(space_load(space_mesh, 1, phi))
    t_c = load_vector_f(time_mesh, solution.source)
    test_load = space_load(space_mesh, 2, phi) if l else phi_load  # P1 at l = 0

    tau_end = solution.tau(time_mesh.breakpoints[-1])
    g_values = tau_end * phi
    g_load = tau_end * phi_load
    noise_sq = 0.0  # a nodal field's |c|^2 + 2 (g, c), exact through the mass
    if isinstance(perturbation, np.ndarray):
        if perturbation.size != st.slots.size:
            raise ValueError("perturbation field lives on a different space")
        mass_c = st.product((st.mass, perturbation))
        noise_sq = float(perturbation @ mass_c) + 2.0 * float(perturbation @ g_load)
        g_load = g_load + mass_c
    elif perturbation is not None:
        noise = perturbation.evaluate(points)
        g_values = g_values + noise
        g_load = g_load + st.gather(space_load(space_mesh, 1, noise))
    g_sq = integrate_squared(space_mesh, g_values) + noise_sq
    return t_c, test_load, phi_load, g_load, g_sq


def build_system(time_mesh: TimeMesh, l: int, space, data) -> LeastSquaresSystem:
    """Normal operator at reg_epsilon = 0, h and J(0) for data, the
    manufactured_data of a solution.

    space is the level's space_factors(space_mesh, l), and h is in its
    stencils' slot order. h and J(0) come from the identity of the module
    docstring. At l = 0 A_test = A is solved in closed form; at l = 1
    make_G_Y factors the P2 A_test, and M_mix maps slot order to P2 dofs.
    """
    st, m_mix, a_test = space
    t_c, test_load, phi_load, g_load, g_sq = data
    if l:
        test_solve = make_G_Y(a_test)

        def test_part(y):
            return np.zeros_like(y), (m_mix.T @ test_solve(m_mix @ y.T)).T

        solved = test_solve(test_load)
        mixed = m_mix.T @ solved
    else:
        solve = stiffness_solve(st)

        def test_part(y):  # M A^-1 M y: its last M joins the apply's pass
            return solve(st.product((st.mass, y))), 0.0

        solved = solve(test_load)
        mixed = st.product((st.mass, solved))
    rhs = np.outer(to_hats(time_derivative_mixed(time_mesh), t_c), mixed)
    rhs += np.outer(to_hats(time_mass_mixed(time_mesh), t_c), phi_load)
    rhs[-1] += g_load
    j_zero = float(t_c @ t_c) * float(test_load @ solved) + g_sq
    return LeastSquaresSystem(st, time_mesh.step, test_part, 0.0, rhs.ravel(), j_zero)


def in_modes(time_mesh: TimeMesh, system: LeastSquaresSystem) -> tuple:
    """(system in its tensor eigenbasis, the diagonal G_X lift there) of an
    l = 0 build_system (module docstring)."""
    theta, z = _time_modes(time_mesh)
    a, m, forward, _ = system.stencils.modes
    lam = a + np.outer(theta, m * m / a)
    rhs = forward(z.T @ system.rhs.reshape(z.shape[0], -1))
    flat = lam.ravel()
    lift = RieszPreconditioner(lambda r: r / flat)
    return replace(system, rhs=rhs.ravel(), modes=(z, lam, m)), lift


def pcg(system, g_x: RieszPreconditioner, threshold: float | None, max_iter: int):
    """Preconditioned conjugate residual iteration on the normal system.

    Conjugate residuals in the G_X geometry minimize r(G_X r) over the
    Krylov space, so the monitored stopping quantity is monotone. x is
    accepted once r(G_X r) <= min(1, eps)^2 J(x), J(x) = J(0) - x.h - x.r
    (h the right-hand side, r = h - S x), or <= a given positive threshold;
    the report's threshold is that bound at the final iterate.
    """
    if threshold is not None and threshold <= 0.0:
        raise ValueError("threshold must be positive")
    t0 = _time.perf_counter()
    h = system.rhs
    x = np.zeros_like(h)
    apply_s = system.apply
    apply_g = g_x.apply
    weight = min(1.0, system.reg_epsilon) ** 2

    def bound(x, r):  # zero data: J = 0 and r = 0, so x = 0 is accepted
        return threshold or weight * (system.j_zero - float(x @ h) - float(x @ r))

    r = h.copy()
    z = apply_g(r)
    rz = float(r @ z)
    # rounding can take an exact zero a hair below 0; the accept test reads rz
    history = [max(rz, 0.0)]
    iterations = 0
    accept = bound(x, r)
    converged = rz <= accept

    if not converged:
        s_z = apply_s(z)
        z_s_z = float(z @ s_z)
        p = z.copy()
        s_p = s_z.copy()
        for iterations in range(1, max_iter + 1):
            g_s_p = apply_g(s_p)
            denom = float(s_p @ g_s_p)
            if denom <= 0.0 or z_s_z <= 0.0:
                break  # roundoff exhausted; residual no longer decreases
            alpha = z_s_z / denom
            x += alpha * p
            r -= alpha * s_p
            z -= alpha * g_s_p
            rz = float(r @ z)
            history.append(max(rz, 0.0))
            accept = bound(x, r)
            if rz <= accept:
                converged = True
                break
            s_z = apply_s(z)
            z_s_z_next = float(z @ s_z)
            beta = z_s_z_next / z_s_z
            z_s_z = z_s_z_next
            p = z + beta * p
            s_p = s_z + beta * s_p

    report = SolveReport(
        iterations=iterations,
        residual_history=np.asarray(history),
        stopping_value=history[-1],
        threshold=accept,
        epsilon=system.reg_epsilon,
        wall_time=_time.perf_counter() - t0,
        converged=converged,
    )
    return x, report


# LOBPCG in infsup_constant: the bound on the returned eigenpair's residual
# (x normalized in the enriched side's norm), the iteration cap, the block size
INFSUP_TOL = 1e-10
INFSUP_MAX_ITER = 200
INFSUP_BLOCK = 4


def infsup_constant(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> float:
    """Square root of the smallest eigenvalue of the inf-sup pencil (module
    docstring) by LOBPCG in slot order from a seeded start block, drawn in
    dof order; below 5 block sizes scipy solves densely instead. A residual
    above INFSUP_TOL raises RuntimeError."""
    from scipy.sparse.linalg import LinearOperator, lobpcg  # only this study

    st, *_ = space = space_factors(space_mesh, 1)
    n_x = st.slots.size
    t_c, x_load = np.zeros(2 * time_mesh.n_elements), np.zeros(n_x)

    def pencil_side(l, factors):  # Bt G_Y B: apply less its end trace M v(T)
        test_load = np.zeros(factors[1].shape[0]) if l else x_load
        data = t_c, test_load, x_load, x_load, 0.0  # zero data: no rhs, J(0) = 0
        system = build_system(time_mesh, l, factors, data)

        def matvec(v):  # lobpcg's dense path passes an integer identity
            v = np.ravel(np.asarray(v, dtype=float))
            out = system.apply(v)
            out[-n_x:] -= st.product((st.mass, v[-n_x:]))
            return out

        return LinearOperator((system.n, system.n), matvec, dtype=float)

    small, big = pencil_side(0, (st, None, None)), pencil_side(1, space)
    n = small.shape[0]
    g_x = make_G_X(time_mesh, st)  # lifts LOBPCG's blocks whole
    lift = LinearOperator((n, n), matvec=g_x.apply, matmat=g_x.apply, dtype=float)
    start = np.random.default_rng(0).standard_normal((n // n_x, n_x, INFSUP_BLOCK))
    start = start[:, st.slots].reshape(n, INFSUP_BLOCK)
    try:
        vals, vecs = lobpcg(
            small, start, B=big, M=lift, tol=INFSUP_TOL,
            maxiter=INFSUP_MAX_ITER, largest=False,
        )
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "enriched normal matrix is singular: the space-time form lost "
            "injectivity, which points at an assembly bug"
        ) from exc
    x = vecs[:, 0]
    big_x = big @ x
    residual = np.linalg.norm(small @ x - vals[0] * big_x) / math.sqrt(x @ big_x)
    if not residual <= INFSUP_TOL:
        raise RuntimeError(
            f"inf-sup eigensolve with n = {n} trial dofs did not converge in "
            f"{INFSUP_MAX_ITER} iterations: residual {residual:.3e} > {INFSUP_TOL:g}"
        )
    return math.sqrt(max(vals[0], 0.0))


def interior_points(space_mesh: SpatialMesh) -> np.ndarray:
    """Coordinates of the retained (non-Dirichlet) vertices in dof order:
    phi there is the P1 coefficient row of its nodal interpolant."""
    return space_mesh.vertices[~space_mesh.boundary_vertex_flags]


def phi_sample(space_mesh: SpatialMesh, solution: ManufacturedSolution):
    """A level's one sample of phi: (points, phi there, I phi).

    points are quad_points(space_mesh) and I phi is phi at interior_points.
    One phi call takes both point sets; phi acts row by row, so each part
    is what a call on it alone returns.
    """
    points = quad_points(space_mesh)
    values = solution.phi(np.concatenate([points, interior_points(space_mesh)]))
    return points, values[: len(points)], values[len(points) :]


# not on the solve path; perfbench's tracer resolves this name
def nodal_interpolant(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, solution: ManufacturedSolution
) -> np.ndarray:
    """Trial coefficients interpolating the solution at breakpoints/vertices."""
    phi = solution.phi(interior_points(space_mesh))
    return np.concatenate([solution.tau(t) * phi for t in time_mesh.breakpoints])


@dataclass
class ErrorTerms:
    """The epsilon-independent terms of a level's error report (module
    docstring), vectors in the slot order of stencils, the level's
    SpaceStencils. interp is I phi; grams maps "l2" to (M's stencil
    constants, c, q, l_phi, (psi, phi), (phi, phi)) and "h1" to the same
    gradient terms, with A's."""

    stencils: SpaceStencils
    interp: np.ndarray
    grams: dict


def error_terms(space_mesh: SpatialMesh, space, solution, sample, phi_load):
    """ErrorTerms of a level: space is its space_factors, sample its
    phi_sample and phi_load manufactured_data's P1 load of phi, in slot
    order. The other loads and I phi are gathered into slot order here.

    psi is formed at the points: expanding |psi|^2 through phi and I phi
    would lose about 6 digits to cancellation at d=2 k=5, 10 at d=1 k=8.
    """
    points, phi, interp = sample
    st = space[0]
    pts, w = _cell_rule(space_mesh, QUAD_ORDER)
    vol, _ = space_mesh.geometry
    cell_w = vol[:, None] * w
    phi = phi.reshape(cell_w.shape)
    psi = phi - fe_values_on_cells(space_mesh, interp, pts)
    w_psi = cell_w * psi
    l2 = (
        st.mass,
        st.gather(space_load(space_mesh, 1, psi)),
        float(np.vdot(psi, w_psi)),
        phi_load,
        float(np.vdot(phi, w_psi)),
        float(np.vdot(phi, cell_w * phi)),
    )
    grad_phi = solution.grad_phi(points).reshape(*cell_w.shape, -1)
    mean = np.tensordot(w, grad_phi, axes=(0, 1))  # (cells, d)
    osc_sq = float(np.vdot(cell_w, np.sum((grad_phi - mean[:, None]) ** 2, 2)))
    psi_grad = mean - fe_gradients_on_cells(space_mesh, interp, pts[:1])[:, 0]
    v_psi = vol[:, None] * psi_grad
    h1 = (
        st.stiffness,
        st.gather(gradient_load(space_mesh, psi_grad)),
        float(np.vdot(psi_grad, v_psi)) + osc_sq,
        st.gather(gradient_load(space_mesh, mean)),
        float(np.vdot(mean, v_psi)) + osc_sq,
        float(np.vdot(mean, vol[:, None] * mean)) + osc_sq,
    )
    return ErrorTerms(st, st.gather(interp), {"l2": l2, "h1": h1})


def _coefficient_grams(stencils, errs, tau, values, c, q, load, psi_phi, phi_sq):
    """(D_i, D_i), (D_i, D_{i+1}), (D_i, phi), (phi, phi) of D_i = E_i -
    tau_i psi, E_i the rows of errs, from one mode's ErrorTerms."""
    prod = stencils.product((values, errs))
    e_c = errs @ c
    return (
        np.einsum("ij,ij->i", errs, prod) - 2.0 * tau * e_c + tau * tau * q,
        np.einsum("ij,ij->i", errs[1:], prod[:-1])
        - tau[1:] * e_c[:-1] - tau[:-1] * e_c[1:] + tau[:-1] * tau[1:] * q,
        errs @ load - tau * psi_phi,
        phi_sq,
    )


def _error_rows(time_mesh, coeffs, solution, terms):
    """(tau at the breakpoints, the rows E_i = U_i - tau_i I phi) of
    slot-order coeffs and the level's ErrorTerms."""
    tau = np.array([solution.tau(t) for t in time_mesh.breakpoints], dtype=float)
    return tau, coeffs.reshape(tau.size, -1) - np.outer(tau, terms.interp)


def _time_quadrature(time_mesh, solution, tau, grams):
    """Squared space-time errors, one per entry of grams (mode -> the four
    _coefficient_grams, of D_{e+1} - D_e for "dt" and of D_i otherwise),
    tau the time factor at the breakpoints.

    The time Gauss point loop, rearranged exactly: the iterate is linear in
    time, so at local time s of element e

        U - u = (1-s) D_e + s D_{e+1} - rho phi,
        d/dt (U - u) = (D_{e+1} - D_e) / h + sigma phi,

    rho = tau(t) - (1-s) tau_e - s tau_{e+1}, sigma = (tau_{e+1} - tau_e) / h
    - tau'(t), and the Gauss points combine scalars.
    """
    bp = time_mesh.breakpoints
    sq, wq = gauss_1d_for_degree(QUAD_ORDER)
    h = np.diff(bp)[:, None]
    times = (bp[:-1, None] + h * sq).ravel()
    a, b = 1.0 - sq, sq
    tau_t = np.reshape([solution.tau(t) for t in times], (h.size, sq.size))
    rho = tau_t - (a * tau[:-1, None] + b * tau[1:, None])
    totals = []
    for mode, gram in grams.items():
        diag, nxt, cross, phi_sq = (np.asarray(x)[..., None] for x in gram)
        if mode == "dt":
            dtau = np.reshape([solution.dtau(t) for t in times], (h.size, sq.size))
            sigma = np.diff(tau)[:, None] / h - dtau
            err_sq = (diag / h + 2.0 * sigma * cross) / h + sigma**2 * phi_sq
        else:
            err_sq = (
                a * a * diag[:-1] + 2.0 * a * b * nxt + b * b * diag[1:]
                - 2.0 * rho * (a * cross[:-1] + b * cross[1:]) + rho**2 * phi_sq
            )
        # rounding can take an exact zero a hair below 0
        totals.append(max(float(np.sum(h * wq * err_sq)), 0.0))
    return tuple(totals)


# not on the solve path; perfbench's tracer resolves this name
def interpolation_gap_xnorm(
    time_mesh: TimeMesh,
    coeffs: np.ndarray,
    solution: ManufacturedSolution,
    terms: ErrorTerms,
) -> float:
    """Surrogate for the trial-norm distance between coeffs and the solution.

    coeffs and terms are as in error_report; the time derivative reads the
    Grams of the rows of E differenced (module docstring). Its dual-norm part
    is bounded through the smallest Dirichlet eigenvalue of the Laplacian on
    the unit box, which keeps the estimate computable without another
    global solve.
    """
    tau, errs = _error_rows(time_mesh, coeffs, solution, terms)
    st, diffs = terms.stencils, np.diff(errs, axis=0)
    grams = {
        "h1": _coefficient_grams(st, errs, tau, *terms.grams["h1"]),
        "dt": _coefficient_grams(st, diffs, np.diff(tau), *terms.grams["l2"]),
    }
    grad_sq, dt_sq = _time_quadrature(time_mesh, solution, tau, grams)
    return math.sqrt(grad_sq + dt_sq / (solution.dimension * math.pi**2))


def error_report(
    time_mesh: TimeMesh,
    coeffs: np.ndarray,
    solution: ManufacturedSolution,
    terms: ErrorTerms,
    slice_times,
) -> ErrorReport:
    """Errors against the exact solution: time slices and space-time norms.

    coeffs are in the slot order of terms, the level's error_terms, so a
    report forms only E, M E, A E and dot products (module docstring); it
    samples no function and maps no point. A slice error is read at the
    breakpoint nearest the requested time, at most half a step away for a
    time in the mesh's interval.
    """
    tau, errs = _error_rows(time_mesh, coeffs, solution, terms)
    st = terms.stencils
    grams = {m: _coefficient_grams(st, errs, tau, *g) for m, g in terms.grams.items()}
    l2_sq, h1_sq = _time_quadrature(time_mesh, solution, tau, grams)
    slice_sq = grams["l2"][0]
    slices = {}
    for t_req in slice_times:
        idx = int(np.argmin(np.abs(time_mesh.breakpoints - t_req)))
        # the expanded Gram can round an exact zero a hair below 0
        slices[float(t_req)] = math.sqrt(max(slice_sq[idx], 0.0))
    return ErrorReport(slices, math.sqrt(l2_sq), math.sqrt(h1_sq))


def build_meshes(config, k: int) -> tuple[TimeMesh, SpatialMesh]:
    """Level-k mesh pair for an experiment configuration.

    Time: 2^k elements on (T-L, T); the interval-length study instead uses
    the restriction of a 2^(k+3)-element mesh of (0, T), which for dyadic
    L/T is again uniform. Space: d*k bisection sweeps of the initial mesh,
    the uniform meshes whose space modes are in closed form (space_modes),
    so every lift and A solve is a divide in them.
    """
    doublings = k
    if config.experiment == "interval-length":
        log_ratio = math.log2(config.L / config.T)
        if abs(log_ratio % 1.0) > 1e-12:
            raise ValueError("interval-length study needs L/T a power of two")
        doublings = k + 3 + int(round(log_ratio))
        if doublings < 0:
            raise ValueError(
                f"interval-length study at k = {k} with L/T = 2^{round(log_ratio)} "
                f"needs k + 3 + log2(L/T) >= 0 time doublings, got {doublings}"
            )
    initial = unit_square_initial() if config.d == 2 else unit_interval_mesh(1)
    space_mesh = refine_uniform(initial, config.d * k)
    return TimeMesh(config.T - config.L, config.T, doublings), space_mesh


def trial_dofs(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> int:
    """Trial space dimension: breakpoints times interior space vertices."""
    return time_mesh.breakpoints.size * int(
        (~space_mesh.boundary_vertex_flags).sum()
    )


def _perturbation_for(config, stencils):
    if config.experiment == "perturb-random":
        pert = random_perturbation(stencils, config.target_norm, config.seed)
        return pert, config.target_norm
    if config.experiment == "perturb-mode":
        pert = mode_perturbation(config.mode_n, config.T, config.amplitude, config.d)
        return pert, pert.l2_norm()
    return None, 0.0


@dataclass
class Level:
    """The epsilon-independent part of one refinement level: its time mesh,
    the manufactured solution, the perturbation's L2 norm, build_system's
    normal operator at reg_epsilon = 0 (in the tensor eigenbasis at l = 0),
    the G_X lift and the error_terms of its error reports."""

    time_mesh: TimeMesh
    solution: ManufacturedSolution
    pert_norm: float
    system: LeastSquaresSystem
    g_x: RieszPreconditioner
    error_terms: ErrorTerms


def build_level(config, k: int) -> Level:
    """Build level k of a configuration once, for solves at any epsilon.

    The level maps the load rule's points and samples phi once (phi_sample),
    for the data and the error terms, and grad phi once, in error_terms.
    """
    time_mesh, space_mesh = build_meshes(config, k)
    solution = get_solution(config.solution, config.d)
    space = space_factors(space_mesh, config.l)
    perturbation, pert_norm = _perturbation_for(config, space[0])
    sample = phi_sample(space_mesh, solution)
    data = manufactured_data(
        time_mesh, space_mesh, config.l, solution, space, sample, perturbation
    )
    system = build_system(time_mesh, config.l, space, data)
    terms = error_terms(space_mesh, space, solution, sample, data[2])
    if config.l == 0:
        system, g_x = in_modes(time_mesh, system)
    else:
        g_x = make_G_X(time_mesh, system.stencils)
    return Level(time_mesh, solution, pert_norm, system, g_x, terms)


def solve_level(config, k: int, level: Level, strategy: str):
    """Solve a built level k at the epsilon of strategy.

    Returns (coefficients, SolveReport, ErrorReport), the coefficients
    mapped back once from the tensor eigenbasis at l = 0 (in_slots) and
    scattered once from the solve's slot order to dof order. An explicit
    epsilon is the entry of config.epsilon_values at k's place in
    config.k_range.
    """
    explicit = None
    if strategy == "explicit":
        if k not in config.k_range:
            raise ValueError(
                f"explicit epsilon values are per level of k_range "
                f"{config.k_range}; k = {k} is not one of them"
            )
        explicit = config.epsilon_values[config.k_range.index(k)]
    dofs = level.system.n
    eps = choose_epsilon(strategy, dofs, config.d, level.pert_norm, explicit)
    system = replace(level.system, reg_epsilon=eps)
    coeffs, solve_rep = pcg(system, level.g_x, config.threshold, config.max_iter)
    coeffs = system.in_slots(coeffs)
    err_rep = error_report(
        level.time_mesh, coeffs, level.solution, level.error_terms, config.slice_times
    )
    rows = coeffs.reshape(-1, system.stencils.slots.size)
    return system.stencils.scatter(rows).ravel(), solve_rep, err_rep


def solve_backward(config, k: int):
    """End-to-end solve of level k at the config's own epsilon strategy."""
    return solve_level(config, k, build_level(config, k), config.epsilon_strategy)
