"""Space-time operators composed from 1-d factors, and the inf-sup constant.

A space-time coefficient vector is the row-major flattening of a
(time dofs) x (space dofs) array, so a tensor-product operator acts by
multiplying a reshaped vector from both sides. space_factors assembles a
level's space matrices once. infsup_constant forms the two dense normal
matrices of its pencil through the space-time energy identity, not
through B.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    SpaceBasisSpec,
    TimeBasisSpec,
    space_dof_map,
    space_matrices,
    time_derivative_mixed,
    time_mass_mixed,
    time_mass_trial,
    time_stiffness_trial,
)
from .mesh import SpatialMesh, TimeMesh

TEST_TIME = TimeBasisSpec(1)
TRIAL_SPACE = SpaceBasisSpec(1, dirichlet=True)


def test_space_spec(l: int) -> SpaceBasisSpec:
    if l not in (0, 1):
        raise ValueError("test space enrichment l must be 0 or 1")
    return SpaceBasisSpec(1 + l, dirichlet=True)


def sparse_lu(mat: sp.spmatrix, what: str):
    """Sparse LU with a low-fill ordering; `what` names the matrix in errors.

    Minimum degree on A + A^T keeps the fill of these finite element
    matrices low; scipy's default ordering and supernode sizes give nearly
    twice the fill and factor two to three times slower.
    """
    try:
        return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise RuntimeError(f"{what} factorization failed: {exc}") from exc


class KroneckerOperator:
    """Sum of tensor products (time factor) x (space factor)."""

    def __init__(self, terms):
        if not terms:
            raise ValueError("need at least one term")
        t0, s0 = terms[0]
        for t, s in terms[1:]:
            if t.shape != t0.shape or s.shape != s0.shape:
                raise ValueError("inconsistent factor dimensions across terms")
        self.terms = list(terms)
        self.time_shape = t0.shape
        self.space_shape = s0.shape
        self.shape = (
            t0.shape[0] * s0.shape[0],
            t0.shape[1] * s0.shape[1],
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        mat = np.asarray(v).reshape(self.time_shape[1], self.space_shape[1])
        out = np.zeros((self.time_shape[0], self.space_shape[0]))
        for t, s in self.terms:
            out += np.asarray(s @ np.asarray(t @ mat).T).T
        return out.ravel()

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        mat = np.asarray(v).reshape(self.time_shape[0], self.space_shape[0])
        out = np.zeros((self.time_shape[1], self.space_shape[1]))
        for t, s in self.terms:
            out += np.asarray(s.T @ np.asarray(t.T @ mat).T).T
        return out.ravel()


def space_factors(space_mesh: SpatialMesh, l: int) -> tuple[sp.csr_matrix, ...]:
    """Space matrices of the operators at test enrichment l.

    Returns (M, A, M_mix, A_mix, A_test): trial mass and stiffness, mixed
    (test x trial) mass and stiffness, and test stiffness. When the test
    space is the trial space the last three are M, A and A themselves, so
    one assembly pass serves every operator. The test space contains the
    trial space, so it is nonempty whenever the trial space is.
    """
    m, a = space_matrices(space_mesh, TRIAL_SPACE, TRIAL_SPACE)
    if a.shape[0] == 0:
        raise ValueError("trial space is empty after boundary elimination")
    test = test_space_spec(l)
    if test == TRIAL_SPACE:
        return m, a, m, a, a
    m_mix, a_mix = space_matrices(space_mesh, test, TRIAL_SPACE)
    _, a_test = space_matrices(space_mesh, test, test)
    return m, a, m_mix, a_mix, a_test


# no solve or study applies B; tests/reference.py builds its B route from it,
# and perfbench's tracer resolves this name
def assemble_B(
    time_mesh: TimeMesh, m_mix: sp.csr_matrix, a_mix: sp.csr_matrix
) -> KroneckerOperator:
    """Discrete parabolic form: time derivative against mass plus stiffness.

    Maps trial coefficients (hats x P1) to duals of the test space
    (elementwise orthonormal Legendre x P_{1+l}); m_mix and a_mix are the
    mixed space mass and stiffness of space_factors.
    """
    d_t = time_derivative_mixed(time_mesh, TEST_TIME)
    n_t = time_mass_mixed(time_mesh, TEST_TIME)
    return KroneckerOperator([(d_t, m_mix), (n_t, a_mix)])


class DenseTooLargeError(MemoryError):
    """A dense n x n float64 working set would exceed physical memory."""


def physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_dense_fits(n: int, arrays: int, what: str) -> None:
    """Raise DenseTooLargeError before `arrays` dense n x n float64 arrays
    are allocated if together they exceed the machine's physical memory."""
    need = arrays * n * n * 8
    have = physical_memory()
    if need > have:
        raise DenseTooLargeError(
            f"{what} needs {arrays} dense {n} x {n} arrays, {need:,} bytes, "
            f"more than the {have:,} bytes of physical memory"
        )


def _normal_matrices_dense(time_mesh: TimeMesh, space) -> tuple[np.ndarray, ...]:
    """Dense Bt G_Y B at l = 0 and at l = 1 through the energy identity

        Bt G_Y B = K_t x M_mix^T A_test^-1 M_mix + M_t x A
                   + (e_T e_T^T - e_0 e_0^T) x M

    of backsolve.solver. Only the first term depends on l; at l = 0 the
    test space is P1, so M_mix = M and A_test = A. space is
    space_factors(space_mesh, 1), whose P1 pair serves l = 0. At most three
    dense n x n arrays are alive at once; desk-scale meshes only.
    """
    m, a, m_mix, _, a_test = space
    k_t = time_stiffness_trial(time_mesh).toarray()
    shared = np.kron(time_mass_trial(time_mesh).toarray(), a.toarray())
    n_t, n_x = k_t.shape[0], m.shape[0]
    blocks = shared.reshape(n_t, n_x, n_t, n_x)  # (time, space) x (time, space)
    blocks[-1, :, -1] += m.toarray()
    blocks[0, :, 0] -= m.toarray()
    normal = []
    for mass, stiffness in ((m, a), (m_mix, a_test)):
        solved = sparse_lu(stiffness, "test stiffness").solve(mass.toarray())
        normal.append(np.kron(k_t, mass.T @ solved))
        normal[-1] += shared
    return tuple(normal)


def infsup_constant(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, l_small: int, l_big: int
) -> float:
    """Stability constant of the small test space relative to the enriched one.

    Square root of the smallest generalized eigenvalue of the pencil formed by
    the two normal matrices, both from the energy identity. Dense
    eigensolve; diagnostic, not runtime.
    """
    if l_small > l_big:
        raise ValueError("l_small must not exceed l_big")
    if l_small == l_big:
        return 1.0
    if (l_small, l_big) != (0, 1):
        raise ValueError("test space enrichment l must be 0 or 1")
    # the two normal matrices, plus the working copies eigh makes of them
    n = time_mesh.breakpoints.size * space_dof_map(space_mesh, TRIAL_SPACE).n_dofs
    check_dense_fits(n, 4, "infsup_constant")
    small, big = _normal_matrices_dense(time_mesh, space_factors(space_mesh, 1))
    try:
        eigvals = scipy.linalg.eigh(small, big, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            "enriched normal matrix is singular: the space-time form lost "
            "injectivity, which points at an assembly bug"
        ) from exc
    return float(np.sqrt(max(eigvals[0], 0.0)))

