"""Riesz-map preconditioner and the test stiffness factor.

The trial-space lift inverts the full anisotropic Gram by diagonalization
in time: a generalized eigendecomposition of the time pencil, then per
time mode a shifted space solve (one block-diagonal sparse factorization,
refused with a named error when its predicted size exceeds physical
memory), or a dense space eigendecomposition when space is no larger than
time. The lift is exact, so the norm-equivalence constants are 1.

The test-space Gram is the identity in time times the test stiffness
A_test, so no test-space lift is built: make_G_Y factors A_test once, and
the right-hand side, J(0) and the normal operator use its solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import time_mass_trial, time_stiffness_trial
from .mesh import TimeMesh
from .operators import physical_memory, sparse_lu


class FactorTooLargeError(MemoryError):
    """A sparse factorization would exceed physical memory."""


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
    no more entries than a trial vector. Before the block-diagonal
    factorization, one block is factored alone; if n_t times its size
    exceeds physical memory, FactorTooLargeError is raised.
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

        return RieszPreconditioner(apply)

    shifts = np.sqrt(theta)
    need = n_t * _factor_bytes(_shifted_space_factor(a, m, shifts[:1]))
    have = physical_memory()
    if need > have:
        raise FactorTooLargeError(
            f"trial-space lift with n_x = {n_x} space dofs and n_t = {n_t} "
            f"time modes needs about {need:,} bytes for its factor, more "
            f"than the {have:,} bytes of physical memory"
        )
    lu = _shifted_space_factor(a, m, shifts)

    def apply(f: np.ndarray) -> np.ndarray:
        w = zt.T @ f.reshape(n_t, n_x)
        w = lu.solve(w.ravel()).real.reshape(n_t, n_x)
        return (zt @ w).ravel()

    return RieszPreconditioner(apply)


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
    return sparse_lu(mat, "shifted space")


def _factor_bytes(lu) -> int:
    """Bytes of a complex sparse LU: values and row indices of its nonzeros
    plus the column pointers of L and U."""
    return lu.nnz * (16 + 4) + 2 * 4 * (lu.shape[0] + 1)
