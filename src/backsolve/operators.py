"""Space-time operators composed from 1-d factors.

A space-time coefficient vector is the row-major flattening of a
(time dofs) x (space dofs) array, so a tensor-product operator acts by
multiplying a reshaped vector from both sides. space_factors assembles a
level's space matrices once, for the solve and the inf-sup study alike.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .assembly import space_matrices, time_derivative_mixed, time_mass_mixed
from .mesh import SpatialMesh, TimeMesh


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
    """Space matrices of the operators at test enrichment l, 0 or 1: the
    trial space is P1 and the test space P_{1+l}.

    Returns (M, A, M_mix, A_mix, A_test): trial mass and stiffness, mixed
    (test x trial) mass and stiffness, and test stiffness. At l = 0 the
    last three are M, A and A themselves, so one assembly pass serves every
    operator. The test space contains the trial space, so it is nonempty
    whenever the trial space is.
    """
    if l not in (0, 1):
        raise ValueError(f"test space enrichment l must be 0 or 1, got {l}")
    m, a = space_matrices(space_mesh, 1, 1)
    if a.shape[0] == 0:
        raise ValueError(
            f"the {space_mesh.dimension}-d mesh with {space_mesh.n_vertices} "
            "vertices has no interior vertex"
        )
    if l == 0:
        return m, a, m, a, a
    m_mix, a_mix = space_matrices(space_mesh, 2, 1)
    _, a_test = space_matrices(space_mesh, 2, 2)
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
    d_t = time_derivative_mixed(time_mesh)
    n_t = time_mass_mixed(time_mesh)
    return KroneckerOperator([(d_t, m_mix), (n_t, a_mix)])
