"""Regularized least-squares solve of the backward heat problem.

Builds the SPD normal operator

    S v = Bt G_Y B v + M v(T) + reg_epsilon^2 M v(0)

on trial coefficients v, viewed as a (breakpoints x space dofs) array. The
breakpoints include both ends of the time interval, so v(0) and v(T) are
its first and last rows and the trace terms act on those rows alone.
S is applied through the space-time energy identity

    Bt G_Y B = K_t x M_mix^T A_test^-1 M_mix + M_t x A
               + (e_T e_T^T - e_0 e_0^T) x M,

so S v = K_t x (M_mix^T A_test^-1 M_mix) v + M_t x A v + 2 M v(T)
+ (reg_epsilon^2 - 1) M v(0), with one A_test solve per breakpoint. K_t and
M_t are the hat stiffness and mass. The identity is exact because of two
containments. In time, the elementwise Legendre test space contains the
hats and their derivatives, so B's time factors D (derivative) and N
(mass) give DtD = K_t, NtN = M_t and DtN + NtD = e_T e_T^T - e_0 e_0^T
(the integral of (phi_i phi_j)'). In space, P1 lies in P_{1+l} with the
same Dirichlet boundary, so the mixed matrices are M_test P and A_test P,
which gives A_mix^T A_test^-1 A_mix = A and M_mix^T A_test^-1 A_mix = M.
The same containments give the data without B. The source separates,
f = source(t) phi, so it loads on the test space as t_c x l_test: t_c the
Legendre time load of source, l_test the test-space load of phi. The time
Gram of the test space is the identity, and A_mix^T A_test^-1 l_test is
l_P1, the P1 load of phi. So with g_load the P1 load of the end data g =
tau(T) phi (plus any perturbation), h = Bt G_Y (t_c x l_test) + e_T x g_load
and J(0) are

    h = (Dt t_c) x (M_mix^T A_test^-1 l_test) + (Nt t_c) x l_P1 + e_T x g_load,
    J(0) = |t_c|^2 l_test^T A_test^-1 l_test + |g|^2,

from one A_test solve and one sample of phi. The minimizer is found by
preconditioned conjugate residuals stopped once the lifted residual
r(G_X r) is at most min(1, eps)^2 J(x), J the least-squares functional.
Error reporting compares against manufactured solutions.

The inf-sup constant of the P1 test space against the P2 one comes from
the same operator: at reg_epsilon = 0, S - e_T e_T^T x M is Bt G_Y B, so
each side of the pencil (Bt G_Y,0 B, Bt G_Y,1 B) is a normal operator of
build_system with its end trace taken back off, and LOBPCG, preconditioned
by the G_X lift, finds the pencil's smallest eigenvalue matrix-free.
"""

from __future__ import annotations

import math
import time as _time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .assembly import (
    QUAD_ORDER,
    _cell_rule,
    fe_gradients_on_cells,
    fe_values_on_cells,
    integrate_squared,
    load_vector_f,
    quad_points,
    space_load,
    time_derivative_mixed,
    time_mass_mixed,
    time_mass_trial,
    time_stiffness_trial,
)
from .mesh import (
    SpatialMesh,
    TimeMesh,
    refine_uniform,
    uniform_time_mesh,
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
    make_G_X,
    make_G_Y,
    space_stencils,
    stiffness_solve,
)
from .solutions import ManufacturedSolution, get_solution


@dataclass
class LeastSquaresSystem:
    """SPD normal operator of the regularized least-squares functional.

    The end trace v(T) and the start trace v(0) of trial coefficients v are
    the last and first rows of v.reshape(breakpoints, n_x). apply uses the
    energy identity of the module docstring: test_solve solves with A_test,
    time_stiffness and time_mass are the hat stiffness K_t and mass M_t, and
    mass_mix is the mixed (test x trial) space mass. mass_x and stiffness_x
    are the trial space mass and stiffness, rhs is h and j_zero is J(0).
    Only the start-trace term reads reg_epsilon, so one system serves every
    epsilon through dataclasses.replace.
    """

    test_solve: Callable
    time_stiffness: object
    time_mass: object
    mass_mix: object
    mass_x: object
    stiffness_x: object
    reg_epsilon: float
    rhs: np.ndarray
    j_zero: float

    def __post_init__(self):
        if self.reg_epsilon < 0.0:
            raise ValueError("reg_epsilon must be nonnegative")

    @property
    def n(self) -> int:
        return self.rhs.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        rows = np.asarray(v).reshape(-1, self.mass_x.shape[0])
        cols = self.mass_mix @ (self.time_stiffness @ rows).T
        out = (self.mass_mix.T @ self.test_solve(cols)).T
        out += (self.stiffness_x @ (self.time_mass @ rows).T).T
        out[-1] += 2.0 * (self.mass_x @ rows[-1])
        out[0] += (self.reg_epsilon**2 - 1.0) * (self.mass_x @ rows[0])
        return out.ravel()


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
    perturbation=None,
):
    """Loads of a manufactured solution's data: (t_c, l_test, l_P1, g_load, g_sq).

    space is the level's space_factors(space_mesh, l). The source
    f = source(t) phi loads on the test space as t_c x l_test (t_c is
    exactly zero for a caloric solution, whose source dtau + d pi^2 tau
    rounds to 0); l_P1 is the P1 load of phi. The end-time
    observation g = tau(T) phi, T the last breakpoint, plus perturbation,
    has P1 load g_load and squared L2 norm g_sq. perturbation is an array
    of nodal trial coefficients (loaded through the mass matrix, exactly)
    or any object with evaluate(points). phi and the perturbation are
    sampled once, at the load rule's points.
    """
    mass_x = space[0]
    points = quad_points(space_mesh)
    phi = solution.phi(points)
    phi_load = space_load(space_mesh, 1, phi)
    t_c = load_vector_f(time_mesh, solution.source)
    test_load = space_load(space_mesh, 2, phi) if l else phi_load  # P1 at l = 0

    tau_end = solution.tau(time_mesh.breakpoints[-1])
    g_values = tau_end * phi
    g_load = tau_end * phi_load
    noise_sq = 0.0  # a nodal field's |c|^2 + 2 (g, c), exact through the mass
    if isinstance(perturbation, np.ndarray):
        if perturbation.size != mass_x.shape[0]:
            raise ValueError("perturbation field lives on a different space")
        c = perturbation
        noise_sq = float(c @ (mass_x @ c)) + 2.0 * float(c @ g_load)
        g_load = g_load + mass_x @ c
    elif perturbation is not None:
        noise = perturbation.evaluate(points)
        g_values = g_values + noise
        g_load = g_load + space_load(space_mesh, 1, noise)
    g_sq = integrate_squared(space_mesh, g_values) + noise_sq
    return t_c, test_load, phi_load, g_load, g_sq


def build_system(
    time_mesh: TimeMesh,
    space_mesh: SpatialMesh,
    l: int,
    solution: ManufacturedSolution,
    space,
    perturbation,
    stencils,
) -> LeastSquaresSystem:
    """Normal operator at reg_epsilon = 0, h and J(0) for the
    manufactured_data of solution.

    space is the level's space_factors(space_mesh, l). h and J(0) come from
    the identity of the module docstring. At l = 0 A_test is solved in
    closed form from stencils, the level's space_stencils; make_G_Y factors
    it at l = 1.
    """
    mass_x, stiffness_x, m_mix, _, a_test = space
    test_solve = make_G_Y(a_test) if l else stiffness_solve(stencils)
    t_c, test_load, phi_load, g_load, g_sq = manufactured_data(
        time_mesh, space_mesh, l, solution, space, perturbation
    )
    solved = test_solve(test_load)
    d_t = time_derivative_mixed(time_mesh)
    n_t = time_mass_mixed(time_mesh)
    rhs = np.outer(d_t.T @ t_c, m_mix.T @ solved)
    rhs += np.outer(n_t.T @ t_c, phi_load)
    rhs[-1] += g_load
    return LeastSquaresSystem(
        test_solve,
        time_stiffness_trial(time_mesh),
        time_mass_trial(time_mesh),
        m_mix,
        mass_x,
        stiffness_x,
        0.0,
        rhs.ravel(),
        float(t_c @ t_c) * float(test_load @ solved) + g_sq,
    )


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
    docstring) by LOBPCG from a seeded start block; below 5 block sizes scipy
    solves densely instead. A residual above INFSUP_TOL raises RuntimeError."""
    from scipy.sparse.linalg import LinearOperator, lobpcg  # only this study

    m, a, *_ = space = space_factors(space_mesh, 1)
    zero = get_solution("zero", space_mesh.dimension)

    def pencil_side(l, factors):  # Bt G_Y B: apply less its end trace M v(T)
        system = build_system(time_mesh, space_mesh, l, zero, factors, None, stencils)

        def matvec(v):
            out = system.apply(v)
            out[-m.shape[0]:] -= m @ np.ravel(v)[-m.shape[0]:]
            return out

        return LinearOperator((system.n, system.n), matvec, dtype=float)

    stencils = space_stencils(space_mesh, a, m)
    small, big = pencil_side(0, (m, a, m, a, a)), pencil_side(1, space)
    n = small.shape[0]
    g_x = make_G_X(time_mesh, stencils)
    lift = LinearOperator((n, n), g_x.apply, dtype=float)
    start = np.random.default_rng(0).standard_normal((n, INFSUP_BLOCK))
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
    """Coordinates of the retained (non-Dirichlet) vertices in dof order."""
    return space_mesh.vertices[~space_mesh.boundary_vertex_flags]


# not on the solve path; perfbench's tracer resolves this name
def nodal_interpolant(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, solution: ManufacturedSolution
) -> np.ndarray:
    """Trial coefficients interpolating the solution at breakpoints/vertices."""
    phi = solution.phi(interior_points(space_mesh))
    return np.concatenate([solution.tau(t) * phi for t in time_mesh.breakpoints])


def _grams(rows, weight, phi):
    """(R_i, R_i), (R_i, R_{i+1}), (R_i, phi), (phi, phi) for the rows R_i of
    a 3-d array.

    (a, b) sums weight * a * b over the last two axes; each Gram is one
    einsum, with no temporary of the size of rows.
    """
    wphi = weight * phi
    return (
        np.einsum("ijk,jk,ijk->i", rows, weight, rows),
        np.einsum("ijk,jk,ijk->i", rows[1:], weight, rows[:-1]),
        np.einsum("ijk,jk->i", rows, wphi),
        float(np.vdot(phi, wphi)),
    )


def _tensor_error_sq(time_mesh, space_mesh, coeffs, solution, modes):
    """Squared space-time errors by tensor quadrature, one per entry of modes.

    mode "l2": values; "h1": gradients; "dt": time derivatives. Also returns
    the squared L2(Omega) error at each breakpoint (None without "l2").

    The time Gauss point loop, rearranged exactly: the iterate is linear in
    time, so with D_i = U_i - tau(t_i) phi (FE values against phi, or P1
    gradients against grad phi), at local time s of element e

        U - u = (1-s) D_e + s D_{e+1} - rho phi,
        d/dt (U - u) = (D_{e+1} - D_e) / h + sigma phi,

    rho = tau(t) - (1-s) tau_e - s tau_{e+1}, sigma = (tau_{e+1} - tau_e) / h
    - tau'(t). The spatial products of D_i, of D_{e+1} - D_e (formed before
    the product) and of phi are taken once per breakpoint; the Gauss points
    combine scalars. P1 gradients are cellwise constant, so grad phi is split
    into cell means and an oscillation of zero weighted mean per cell (the
    weights sum to 1), orthogonal to cellwise constants: gradient rows run
    over cells, and the oscillation adds its squared norm.
    """
    bp = time_mesh.breakpoints
    mat = coeffs.reshape(bp.size, -1)
    pts, w = _cell_rule(space_mesh, QUAD_ORDER)
    vol, _ = space_mesh.geometry
    cell_w = vol[:, None] * w
    flat = quad_points(space_mesh)
    tau = np.array([solution.tau(t) for t in bp], dtype=float)

    def errors(rows, target):  # D_i, formed in place in the rows
        for row, t in zip(rows, tau):
            row -= t * target
        return rows

    grams = {}
    if "l2" in modes or "dt" in modes:
        vals = fe_values_on_cells(space_mesh, mat, pts)
        phi = solution.phi(flat).reshape(cell_w.shape)
        errs = errors(vals, phi)
        if "l2" in modes:
            grams["l2"] = _grams(errs, cell_w, phi)
        if "dt" in modes:  # a new array: errs stays D_i
            grams["dt"] = _grams(np.diff(errs, axis=0), cell_w, phi)
    if "h1" in modes:
        grads = fe_gradients_on_cells(space_mesh, mat, pts[:1])
        grad_phi = solution.grad_phi(flat).reshape(*cell_w.shape, -1)
        mean = np.tensordot(w, grad_phi, axes=(0, 1))  # (cells, d)
        osc_sq = float(np.vdot(cell_w, np.sum((grad_phi - mean[:, None]) ** 2, 2)))
        g = _grams(errors(grads[:, :, 0], mean), vol[:, None], mean)
        taus = (tau**2, tau[:-1] * tau[1:], -tau, 1.0)
        grams["h1"] = tuple(x + t * osc_sq for x, t in zip(g, taus))

    sq, wq = gauss_1d_for_degree(QUAD_ORDER)
    h = np.diff(bp)[:, None]
    times = (bp[:-1, None] + h * sq).ravel()
    totals = []
    for mode in modes:
        diag, nxt, cross, phi_sq = (np.asarray(x)[..., None] for x in grams[mode])
        if mode == "dt":
            dtau = np.reshape([solution.dtau(t) for t in times], (h.size, sq.size))
            sigma = np.diff(tau)[:, None] / h - dtau
            err_sq = (diag / h + 2.0 * sigma * cross) / h + sigma**2 * phi_sq
        else:
            a, b = 1.0 - sq, sq
            tau_t = np.reshape([solution.tau(t) for t in times], (h.size, sq.size))
            rho = tau_t - (a * tau[:-1, None] + b * tau[1:, None])
            err_sq = (
                a * a * diag[:-1] + 2.0 * a * b * nxt + b * b * diag[1:]
                - 2.0 * rho * (a * cross[:-1] + b * cross[1:]) + rho**2 * phi_sq
            )
        # rounding can take an exact zero a hair below 0
        totals.append(max(float(np.sum(h * wq * err_sq)), 0.0))
    return tuple(totals), grams["l2"][0] if "l2" in modes else None


# not on the solve path; perfbench's tracer resolves this name
def interpolation_gap_xnorm(
    time_mesh: TimeMesh,
    space_mesh: SpatialMesh,
    coeffs: np.ndarray,
    solution: ManufacturedSolution,
) -> float:
    """Surrogate for the trial-norm distance between coeffs and the solution.

    The dual-norm part of the time-derivative term is bounded through the
    smallest Dirichlet eigenvalue of the Laplacian on the unit box, which
    keeps the estimate computable without another global solve.
    """
    lam1 = space_mesh.dimension * math.pi**2
    (grad_sq, dt_sq), _ = _tensor_error_sq(
        time_mesh, space_mesh, coeffs, solution, ("h1", "dt")
    )
    return math.sqrt(grad_sq + dt_sq / lam1)


def error_report(
    time_mesh: TimeMesh,
    space_mesh: SpatialMesh,
    coeffs: np.ndarray,
    solution: ManufacturedSolution,
    slice_times,
) -> ErrorReport:
    """Errors against the exact solution: time slices and space-time norms.

    A slice error is read at the breakpoint nearest the requested time.
    """
    bp = time_mesh.breakpoints
    (l2_sq, h1_sq), slice_sq = _tensor_error_sq(
        time_mesh, space_mesh, coeffs, solution, ("l2", "h1")
    )
    slices = {}
    for t_req in slice_times:
        idx = int(np.argmin(np.abs(bp - t_req)))
        snap = abs(bp[idx] - t_req)
        h_loc = time_mesh.lengths[min(max(idx - 1, 0), time_mesh.n_elements - 1)]
        if snap > 0.5 * h_loc:
            warnings.warn(
                f"slice time {t_req} snapped to breakpoint {bp[idx]} "
                f"(distance {snap:.3g} exceeds half an element)"
            )
        slices[float(t_req)] = math.sqrt(slice_sq[idx])
    return ErrorReport(slices, math.sqrt(l2_sq), math.sqrt(h1_sq))


def build_meshes(config, k: int) -> tuple[TimeMesh, SpatialMesh]:
    """Level-k mesh pair for an experiment configuration.

    Time: 2^k elements on (T-L, T); the interval-length study instead uses
    the restriction of a 2^(k+3)-element mesh of (0, T), which for dyadic
    L/T is again uniform. Space: d*k bisection sweeps of the initial mesh,
    the uniform meshes on which make_G_X solves its lift in closed form.
    """
    t_start = config.T - config.L
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
        time_mesh = uniform_time_mesh(t_start, config.T, doublings)
    else:
        time_mesh = uniform_time_mesh(t_start, config.T, k)
    initial = unit_square_initial() if config.d == 2 else unit_interval_mesh(1)
    space_mesh = refine_uniform(initial, config.d * k)
    return time_mesh, space_mesh


def trial_dofs(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> int:
    """Trial space dimension: breakpoints times interior space vertices."""
    return time_mesh.breakpoints.size * int(
        (~space_mesh.boundary_vertex_flags).sum()
    )


def _perturbation_for(config, mass):
    if config.experiment == "perturb-random":
        pert = random_perturbation(mass, config.target_norm, config.seed)
        return pert, config.target_norm
    if config.experiment == "perturb-mode":
        pert = mode_perturbation(config.mode_n, config.T, config.amplitude, config.d)
        return pert, pert.l2_norm()
    return None, 0.0


@dataclass
class Level:
    """The epsilon-independent part of one refinement level: its meshes, the
    manufactured solution, the perturbation's L2 norm, build_system's normal
    operator at reg_epsilon = 0 and the G_X lift."""

    time_mesh: TimeMesh
    space_mesh: SpatialMesh
    solution: ManufacturedSolution
    pert_norm: float
    system: LeastSquaresSystem
    g_x: RieszPreconditioner


def build_level(config, k: int) -> Level:
    """Build level k of a configuration once, for solves at any epsilon."""
    time_mesh, space_mesh = build_meshes(config, k)
    solution = get_solution(config.solution, config.d)
    space = space_factors(space_mesh, config.l)
    stencils = space_stencils(space_mesh, space[1], space[0])
    perturbation, pert_norm = _perturbation_for(config, space[0])
    system = build_system(
        time_mesh, space_mesh, config.l, solution, space, perturbation, stencils
    )
    g_x = make_G_X(time_mesh, stencils)
    return Level(time_mesh, space_mesh, solution, pert_norm, system, g_x)


def solve_level(config, k: int, level: Level, strategy: str):
    """Solve a built level k at the epsilon of strategy.

    Returns (coefficients, SolveReport, ErrorReport). An explicit epsilon is
    the entry of config.epsilon_values at k's place in config.k_range.
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
    err_rep = error_report(
        level.time_mesh, level.space_mesh, coeffs, level.solution, config.slice_times
    )
    return coeffs, solve_rep, err_rep


def solve_backward(config, k: int):
    """End-to-end solve of level k at the config's own epsilon strategy."""
    return solve_level(config, k, build_level(config, k), config.epsilon_strategy)
