"""Space-time operators composed from 1-d factors, applied matrix-free.

A space-time coefficient vector is the row-major flattening of a
(time dofs) x (space dofs) array, so a tensor-product operator acts by
multiplying a reshaped vector from both sides. Dense materialization is a
test/oracle facility only; runtime code must use apply().
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


def _to_dense(factor) -> np.ndarray:
    if hasattr(factor, "toarray"):
        return factor.toarray()
    if hasattr(factor, "to_dense"):
        return factor.to_dense()
    return np.asarray(factor)


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


class MassSolveMass:
    """Symmetric spatial factor M A^{-1} M with a cached factorization of A."""

    def __init__(self, mass: sp.spmatrix, stiffness: sp.spmatrix):
        if mass.shape != stiffness.shape:
            raise ValueError("mass/stiffness shape mismatch")
        self.shape = mass.shape
        self._mass = mass.tocsr()
        self._lu = sparse_lu(stiffness, "stiffness")

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        w = self._lu.solve(np.asarray(self._mass @ other))
        return self._mass @ w

    @property
    def T(self) -> "MassSolveMass":
        return self

    def to_dense(self) -> np.ndarray:
        return self @ np.eye(self.shape[1])


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

    def to_dense(self) -> np.ndarray:
        """Materialized matrix; test/oracle use only (it is dense and large)."""
        out = np.zeros(self.shape)
        for t, s in self.terms:
            out += np.kron(_to_dense(t), _to_dense(s))
        return out


class GramOperator(KroneckerOperator):
    """KroneckerOperator that realizes an inner product (SPD on its space)."""

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.asarray(u) @ self.apply(v))


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


def gram_Y(time_mesh: TimeMesh, space_mesh: SpatialMesh, l: int) -> GramOperator:
    """Test-space Gram: identity in time (orthonormal basis) x stiffness."""
    a_test = space_factors(space_mesh, l)[4]
    eye_t = sp.identity(
        time_mesh.n_elements * (TEST_TIME.degree + 1), format="csr"
    )
    return GramOperator([(eye_t, a_test)])


def gram_X(time_mesh: TimeMesh, space_mesh: SpatialMesh) -> GramOperator:
    """Trial-space Gram: L2-in-time x H1_0 plus H1-in-time x dual-H1 factor."""
    m, a = space_factors(space_mesh, 0)[:2]
    return GramOperator(
        [
            (time_mass_trial(time_mesh), a),
            (time_stiffness_trial(time_mesh), MassSolveMass(m, a)),
        ]
    )


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


def _normal_matrix_dense(time_mesh: TimeMesh, m_mix, a_mix, a_test) -> np.ndarray:
    """Dense Bt G_Y B on the trial space via the tensor identity

        sum_{a,b} (T_a^T T_b) kron (S_a^T A_test^{-1} S_b),

    which never forms the (much larger) test-space matrices as a Kronecker
    product. Space matrices as from space_factors; desk-scale meshes only.
    """
    b_op = assemble_B(time_mesh, m_mix, a_mix)
    lu = sparse_lu(a_test, "test stiffness")
    space_parts = [s.toarray() for _, s in b_op.terms]
    solved = [lu.solve(s) for s in space_parts]
    time_factors = [t.toarray() for t, _ in b_op.terms]
    n = b_op.shape[1]
    out = np.zeros((n, n))
    for ta, sa in zip(time_factors, space_parts):
        for tb, sb in zip(time_factors, solved):
            out += np.kron(ta.T @ tb, sa.T @ sb)
    return out


def infsup_constant(
    time_mesh: TimeMesh, space_mesh: SpatialMesh, l_small: int, l_big: int
) -> float:
    """Stability constant of the small test space relative to the enriched one.

    Square root of the smallest generalized eigenvalue of the pencil formed by
    the two normal matrices. Dense eigensolve; diagnostic, not runtime.
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
    # the l = 1 factors hold the P1 pair that the l = 0 test space uses
    m, a, m_mix, a_mix, a_test = space_factors(space_mesh, 1)
    small = _normal_matrix_dense(time_mesh, m, a, a)
    big = _normal_matrix_dense(time_mesh, m_mix, a_mix, a_test)
    try:
        eigvals = scipy.linalg.eigh(small, big, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            "enriched normal matrix is singular: the space-time form lost "
            "injectivity, which points at an assembly bug"
        ) from exc
    return float(np.sqrt(max(eigvals[0], 0.0)))


def dense_from_apply(apply, n_cols: int) -> np.ndarray:
    """Materialize a linear map column-by-column; test/oracle helper."""
    cols = []
    eye = np.eye(n_cols)
    for j in range(n_cols):
        cols.append(apply(eye[:, j]))
    return np.stack(cols, axis=1)
