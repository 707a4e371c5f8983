"""Riesz-map preconditioner and the test stiffness factor.

The trial-space lift inverts the full anisotropic Gram by diagonalization
in time: a generalized eigendecomposition of the time pencil, then per
time mode a shifted space solve in closed form. It solves only the
uniform meshes the solver builds. The lift is exact, so the
norm-equivalence constants are 1.

The test-space Gram is the identity in time times the test stiffness
A_test, so no test-space lift is built: make_G_Y factors A_test once, and
the right-hand side, J(0) and the normal operator use its solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import time_mass_trial, time_stiffness_trial
from .mesh import SpatialMesh, TimeMesh
from .operators import sparse_lu


class UnsupportedMeshError(ValueError):
    """The closed-form trial-space lift does not solve this space mesh."""


@dataclass(frozen=True)
class RieszPreconditioner:
    """SPD trial-space lift from functionals to coefficient space."""

    norm = "X"  # not a field; perfbench's tracer names apply spans by it
    _apply: Callable = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(f, dtype=float))


def make_G_Y(a_test: sp.csr_matrix) -> Callable:
    """Solve with a_test, the test space stiffness, factored once with a
    low-fill ordering; the solve takes a vector or the columns of an array.
    """
    return sparse_lu(a_test, "test stiffness").solve


def make_G_X(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, a: sp.csr_matrix, m: sp.csr_matrix
) -> RieszPreconditioner:
    """Exact trial-space Riesz lift by diagonalization in time.

    a and m are the trial space stiffness and mass on space_mesh. The time
    pencil (time stiffness, time mass) gives modes z_j with eigenvalues
    theta_j. On mode j the space part of the inverse is
    V diag(mu / (mu^2 + theta_j)) V^T over the (stiffness, mass) pencil,
    which equals Re[(A + i sqrt(theta_j) M)^-1], solved for every mode in
    closed form (_shifted_space_solve). The only meshes solved are those the
    solver builds: dyadic uniform interval meshes and
    refine_uniform(unit_square_initial(), 2k). Before any other work,
    _stencils checks that a and m are the stencils of such a mesh, else
    UnsupportedMeshError is raised.
    """
    n_t, n_x = time_mesh.n_elements + 1, a.shape[0]
    stencils = _stencils(space_mesh, a, m)
    t_stiff = time_stiffness_trial(time_mesh).toarray()
    t_mass = time_mass_trial(time_mesh).toarray()
    theta, zt = scipy.linalg.eigh(t_stiff, t_mass)
    theta = np.maximum(theta, 0.0)  # constants-in-time give an exact zero
    solve = _shifted_space_solve(stencils, np.sqrt(theta))

    def apply(f: np.ndarray) -> np.ndarray:
        return (zt @ solve(zt.T @ f.reshape(n_t, n_x))).ravel()

    return RieszPreconditioner(apply)


def _stencils(space_mesh: SpatialMesh, a: sp.csr_matrix, m: sp.csr_matrix):
    """(N, grid dofs, centre dofs, stiffness and mass stencil constants).

    A dyadic uniform interval mesh has the N - 1 interior grid points as
    dofs; refine_uniform(unit_square_initial(), 2k), the criss-cross mesh
    of N x N squares, also has the N^2 square centres. The dofs are placed
    on the lattice of spacing 1/(2N) by their coordinates, as index arrays
    in grid order. Per class of entries (grid diagonal, centre diagonal,
    axis neighbours, centre-corner pairs) the constant is read at the
    class's first entry, and a and m must equal their stencil models
    exactly, else UnsupportedMeshError is raised.
    """
    d, n_x = space_mesh.dimension, a.shape[0]
    n = n_x + 1 if d == 1 else (1 + math.isqrt(2 * n_x - 1)) // 2
    unsupported = UnsupportedMeshError(
        f"the trial matrices of this {d}-d mesh with {n_x} dofs are not the "
        "stencils of a dyadic uniform interval mesh or of "
        "refine_uniform(unit_square_initial(), 2k)"
    )
    points = space_mesh.vertices[~space_mesh.boundary_vertex_flags]
    where = np.rint(points * 2 * n).astype(np.int64)  # grid even, centres odd
    if points.shape[0] != n_x or where.min() < 0 or where.max() > 2 * n:
        raise unsupported
    lattice = np.full((2 * n + 1,) * d, -1)
    lattice[tuple(where.T)] = np.arange(n_x)
    grid = lattice[(slice(2, -1, 2),) * d]
    centres = lattice[1::2, 1::2] if d == 2 else lattice[:0]
    slots = np.append(grid, centres)  # each dof must fill one of n_x slots
    if slots.size != n_x or slots.min() < 0:
        raise unsupported

    axes = [np.moveaxis(grid, i, 0) for i in range(d)]
    lo = np.concatenate([x[:-1].ravel() for x in axes])
    hi = np.concatenate([x[1:].ravel() for x in axes])
    corners = lattice[:0]
    if d == 2:  # of each centre's square; boundary corners read -1
        corners = np.stack(
            [lattice[i::2, j::2][:n, :n] for i in (0, 2) for j in (0, 2)]
        )
    inner = corners >= 0
    centre, corner = np.broadcast_to(centres, corners.shape)[inner], corners[inner]
    classes = [
        (grid.ravel(), grid.ravel()),
        (centres.ravel(), centres.ravel()),
        (np.append(lo, hi), np.append(hi, lo)),
        (np.append(centre, corner), np.append(corner, centre)),
    ]

    def constants(mat):
        values = [mat[r[0], c[0]] if r.size else 0.0 for r, c in classes]
        model = sum(
            sp.csr_matrix((np.full(r.size, v), (r, c)), shape=mat.shape)
            for v, (r, c) in zip(values, classes)
        )
        if (mat - model).count_nonzero():
            raise unsupported
        return values

    return n, grid, centres, constants(a), constants(m)


def _box(x: np.ndarray) -> np.ndarray:
    """Sums over each 2 x 2 block of neighbours in the last two axes."""
    return x[..., :-1, :-1] + x[..., :-1, 1:] + x[..., 1:, :-1] + x[..., 1:, 1:]


def _shifted_space_solve(stencils, shifts: np.ndarray) -> Callable:
    """Solve mapping rows w_j to Re[(A + i s_j M)^-1] w_j in closed form.

    With E = tridiag(1, 0, 1) of size N - 1 and P the centre-to-corner
    incidence, the shifted stencils give per shift K_cc = alpha I,
    K_cg = beta P and K_gg = gamma0 I + gamma1 (E x I + I x E) (in d = 1,
    gamma0 I + gamma1 E and no centres, so only Re(1 / lam) of each
    eigenvalue lam reaches the output and the solve is real). Since
    P^T P = (E + 2I) x (E + 2I), condensing the centres leaves the grid
    Schur complement K_gg - (beta^2 / alpha) (E + 2I) x (E + 2I), which the
    orthonormal sine matrix S_pi = sqrt(2/N) sin(p i pi / N) diagonalizes on
    each axis, E's eigenvalues being 2 cos(p pi / N): the tensor-product
    direct method of Lynch, Rice and Thomas (1964), batched over the shifts.
    """
    n, grid, centres, stiff, mass = stencils
    d = grid.ndim
    gamma0, alpha, gamma1, beta = (
        (s + 1j * t * shifts).reshape(-1, *(1,) * d) for s, t in zip(stiff, mass)
    )
    p = np.arange(1, n)
    e = 2.0 * np.cos(np.pi * p / n)
    sine = math.sqrt(2.0 / n) * np.sin(np.pi * np.outer(p, p) / n)
    if d == 1:  # 1 / (Re lam + Im lam^2 / Re lam) = Re(1 / lam)
        lam = gamma0 + gamma1 * e
        lam = lam.real + lam.imag**2 / lam.real
    else:
        ratio = beta / alpha
        lam = gamma0 + gamma1 * np.add.outer(e, e)
        lam -= beta * ratio * np.outer(e + 2.0, e + 2.0)

    def transform(x):  # the sine matrix on each space axis, one GEMM per axis
        rows = math.prod(x.shape[:-1])  # not -1: with N = 1 x is empty
        for _ in range(d):
            x = (x.reshape(rows, n - 1) @ sine).reshape(x.shape)
            if d == 2:  # S X S = ((X S)^T S)^T, S symmetric
                x = x.swapaxes(1, 2)
        return x

    def solve(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        rhs = w[:, grid]
        if d == 2:
            w_c = w[:, centres]
            rhs = rhs - ratio * _box(w_c)
        x = transform(transform(rhs) / lam)
        out[:, grid] = x.real
        if d == 2:
            x_c = (w_c - beta * _box(np.pad(x, ((0, 0), (1, 1), (1, 1))))) / alpha
            out[:, centres] = x_c.real
        return out

    return solve
