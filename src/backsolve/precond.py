"""Riesz-map preconditioners: exact inverses of the space-time Grams.

The test-space lift inverts (identity x stiffness) with one cached sparse
factorization. The trial-space lift inverts the full anisotropic Gram
through a double generalized eigendecomposition of the time pencil and the
space pencil. Both are exact, so the norm-equivalence constants are 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
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
    test_space_spec,
)


@dataclass(frozen=True)
class RieszPreconditioner:
    """SPD lift from functionals to coefficient space."""

    norm: str  # "X" (trial) or "Y" (test)
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

    return RieszPreconditioner("Y", apply)


def make_G_X(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> RieszPreconditioner:
    """Exact trial-space Riesz lift.

    Diagonalizes the space pencil (stiffness, mass) and the time pencil
    (time stiffness, time mass) once; every application is then two small
    dense multiplications per side.
    """
    a = space_stiffness(space_mesh, TRIAL_SPACE)
    if a.shape[0] == 0:
        raise ValueError("trial space is empty after boundary elimination")
    # dense stiffness and mass, plus the working copies eigh makes of them
    check_dense_fits(a.shape[0], 4, "the trial-space lift")
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

    return RieszPreconditioner("X", apply)
