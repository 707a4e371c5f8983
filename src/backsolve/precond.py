"""Riesz-map preconditioners: exact inverses of the space-time Grams.

The test-space lift inverts (identity x stiffness) with one cached sparse
factorization. The trial-space lift inverts the full anisotropic Gram
by diagonalization in time: a generalized eigendecomposition of the time
pencil, then per time mode a shifted space solve (one block-diagonal sparse
factorization), or a dense space eigendecomposition when space is no larger
than time. Both lifts are exact, so the norm-equivalence constants are 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import time_mass_trial, time_stiffness_trial
from .mesh import TimeMesh
from .operators import TEST_TIME


@dataclass(frozen=True)
class RieszPreconditioner:
    """SPD lift from functionals to coefficient space."""

    norm: str  # "X" (trial) or "Y" (test)
    _apply: Callable = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(f, dtype=float))


def make_G_Y(time_mesh: TimeMesh, a_test: sp.csr_matrix) -> RieszPreconditioner:
    """Exact test-space Riesz lift: per time dof, one solve with a_test,
    the test space stiffness."""
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


def make_G_X(
    time_mesh: TimeMesh, a: sp.csr_matrix, m: sp.csr_matrix
) -> RieszPreconditioner:
    """Exact trial-space Riesz lift by diagonalization in time.

    a and m are the trial space stiffness and mass. The time pencil (time
    stiffness, time mass) gives modes z_j with eigenvalues theta_j. On
    mode j the space part of the inverse is
    V diag(mu / (mu^2 + theta_j)) V^T over the (stiffness, mass) pencil,
    which equals Re[(A + i sqrt(theta_j) M)^-1]. With more space dofs than
    time modes, one sparse factorization of the block-diagonal complex
    matrix diag_j(A + i sqrt(theta_j) M) applies every mode in one solve;
    otherwise the space pencil is diagonalized densely, which then holds
    no more entries than a trial vector.
    """
    t_stiff = time_stiffness_trial(time_mesh).toarray()
    t_mass = time_mass_trial(time_mesh).toarray()
    theta, zt = scipy.linalg.eigh(t_stiff, t_mass)
    theta = np.maximum(theta, 0.0)  # constants-in-time give an exact zero
    n_t, n_x = zt.shape[0], a.shape[0]

    if n_x <= n_t:
        mu, vx = scipy.linalg.eigh(a.toarray(), m.toarray())  # vx is m-orthonormal
        denom = mu[None, :] + theta[:, None] / mu[None, :]

        def apply(f: np.ndarray) -> np.ndarray:
            mat = f.reshape(n_t, n_x)
            w = (zt.T @ mat @ vx) / denom
            return (zt @ w @ vx.T).ravel()

        return RieszPreconditioner("X", apply)

    lu = _shifted_space_factor(a, m, np.sqrt(theta))

    def apply(f: np.ndarray) -> np.ndarray:
        w = zt.T @ f.reshape(n_t, n_x)
        w = lu.solve(w.ravel()).real.reshape(n_t, n_x)
        return (zt @ w).ravel()

    return RieszPreconditioner("X", apply)


def _shifted_space_factor(a: sp.csr_matrix, m: sp.csr_matrix, shifts: np.ndarray):
    """Sparse LU of diag_j(A + i shifts_j M), built in CSC form block by block.

    A and M are symmetric with one sparsity pattern, so A's CSR arrays are
    also its CSC arrays and M's values line up with A's entry by entry.
    """
    same = np.array_equal(a.indptr, m.indptr) and np.array_equal(a.indices, m.indices)
    if not same:
        raise ValueError("space stiffness and mass must share one sparsity pattern")
    n_x, nnz = a.shape[0], a.nnz
    blocks = np.arange(shifts.size)[:, None]
    indptr = np.append((a.indptr[:-1] + nnz * blocks).ravel(), nnz * shifts.size)
    indices = (a.indices + n_x * blocks).ravel()
    data = (a.data + 1j * shifts[:, None] * m.data).ravel()
    n = n_x * shifts.size
    mat = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    try:
        # minimum degree on A + A^T keeps each block's fill low; scipy's
        # default ordering and supernode sizes give nearly twice the fill
        # and factor two to three times slower
        return splu(mat, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise RuntimeError(f"shifted space factorization failed: {exc}") from exc
