"""Riesz-map preconditioners: exact inverses of the space Grams.

The test-space lift inverts (identity x stiffness) with one cached sparse
factorization. The trial-space lift inverts the full anisotropic Gram either
through a double generalized eigendecomposition (time pencil and space
pencil, method "eig") or with an inner CG (method "cg"). Both are exact
realizations, so the norm-equivalence constants are 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu

from .assembly import (
    space_mass,
    space_stiffness,
    time_mass_trial,
    time_stiffness_trial,
)
from .mesh import SpatialMesh, TimeMesh
from .operators import (
    TEST_TIME,
    TRIAL_SPACE,
    check_dense_fits,
    gram_X,
    test_space_spec,
)


@dataclass(frozen=True)
class RieszPreconditioner:
    """SPD lift from functionals to coefficient space."""

    norm: str  # "X" (trial) or "Y" (test)
    realization: str  # "exact-solve" (a multigrid variant would plug in here)
    method: str  # "sparse-lu" | "eig" | "cg"
    _apply: Callable = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(f, dtype=float))


def make_G_Y(time_mesh: TimeMesh, space_mesh: SpatialMesh, l: int) -> RieszPreconditioner:
    """Exact test-space Riesz lift: per time dof, one spatial stiffness solve."""
    a_test = space_stiffness(space_mesh, test_space_spec(l))
    if a_test.shape[0] == 0:
        raise ValueError("test space is empty after boundary elimination")
    try:
        lu = splu(a_test.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"test stiffness factorization failed: {exc}") from exc
    n_t = time_mesh.n_elements * (TEST_TIME.degree + 1)
    n_x = a_test.shape[0]

    def apply(f: np.ndarray) -> np.ndarray:
        mat = f.reshape(n_t, n_x)
        return lu.solve(mat.T).T.ravel()

    return RieszPreconditioner("Y", "exact-solve", "sparse-lu", apply)


def _eig_apply(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> Callable:
    a = space_stiffness(space_mesh, TRIAL_SPACE)
    # dense stiffness and mass, plus the working copies eigh makes of them
    check_dense_fits(a.shape[0], 4, "the eig trial-space lift")
    a = a.toarray()
    m = space_mass(space_mesh, TRIAL_SPACE).toarray()
    mu, vx = scipy.linalg.eigh(a, m)  # vx is m-orthonormal
    t_stiff = time_stiffness_trial(time_mesh).toarray()
    t_mass = time_mass_trial(time_mesh).toarray()
    theta, zt = scipy.linalg.eigh(t_stiff, t_mass)
    theta = np.maximum(theta, 0.0)  # constants-in-time give an exact zero
    denom = mu[None, :] + theta[:, None] / mu[None, :]

    def apply(f: np.ndarray) -> np.ndarray:
        mat = f.reshape(zt.shape[0], vx.shape[0])
        w = (zt.T @ mat @ vx) / denom
        return (zt @ w @ vx.T).ravel()

    return apply


def _cg_apply(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, rtol: float, max_iter: int
) -> Callable:
    gram = gram_X(time_mesh, space_mesh)
    n = gram.shape[0]
    op = spla.LinearOperator((n, n), matvec=gram.apply)
    lu_t = splu(time_mass_trial(time_mesh).tocsc())
    a_x = space_stiffness(space_mesh, TRIAL_SPACE)
    lu_x = splu(a_x.tocsc())
    n_t = time_mesh.breakpoints.size
    n_x = a_x.shape[0]

    def inner_prec(f: np.ndarray) -> np.ndarray:
        # (time mass x stiffness)^{-1}: cheap spectrally-close surrogate
        mat = f.reshape(n_t, n_x)
        return lu_t.solve(lu_x.solve(mat.T).T).ravel()

    prec = spla.LinearOperator((n, n), matvec=inner_prec)

    def apply(f: np.ndarray) -> np.ndarray:
        count = [0]

        def tick(_):
            count[0] += 1

        sol, info = spla.cg(
            op, f, rtol=rtol, atol=0.0, maxiter=max_iter, M=prec, callback=tick
        )
        if info != 0:
            raise RuntimeError(
                f"inner Gram solve did not converge after {count[0]} iterations"
            )
        return sol

    return apply


def make_G_X(
    time_mesh: TimeMesh,
    space_mesh: SpatialMesh,
    method: str = "eig",
    cg_rtol: float = 1e-10,
    cg_max_iter: int = 10000,
) -> RieszPreconditioner:
    """Exact trial-space Riesz lift.

    method "eig" diagonalizes the space pencil (stiffness, mass) and the time
    pencil (time stiffness, time mass) once; every application is then two
    small dense multiplications per side. method "cg" solves the Gram system
    iteratively to relative residual cg_rtol and reports non-convergence with
    the iteration count.
    """
    n_x = space_stiffness(space_mesh, TRIAL_SPACE).shape[0]
    if n_x == 0:
        raise ValueError("trial space is empty after boundary elimination")
    if method == "eig":
        apply = _eig_apply(time_mesh, space_mesh)
    elif method == "cg":
        apply = _cg_apply(time_mesh, space_mesh, cg_rtol, cg_max_iter)
    else:
        raise ValueError(f"unknown method {method!r}")
    return RieszPreconditioner("X", "exact-solve", method, apply)
