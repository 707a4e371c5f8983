"""Space-time operators composed from 1-d factors.

A space-time coefficient vector is the row-major flattening of a
(time dofs) x (space dofs) array, so a tensor-product operator acts by
multiplying a reshaped vector from both sides. space_factors gives a
level's space factors once, for the solve and the inf-sup study alike: the
trial mass and stiffness as closed-form stencils, and at l = 1 the P2
matrices, assembled. Only those and assemble_B, which no solve runs,
import scipy.
"""

from __future__ import annotations

import numpy as np

from .assembly import space_matrices, time_derivative_mixed, time_mass_mixed
from .mesh import SpatialMesh, TimeMesh
from .precond import space_stencils


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


def space_factors(space_mesh: SpatialMesh, l: int) -> tuple:
    """Space factors of the operators at test enrichment l, 0 or 1: the
    trial space is P1 and the test space P_{1+l}.

    Returns (stencils, M_mix, A_test): the space_stencils of the trial mass
    and stiffness, in closed form, then the mixed (test x trial) mass with
    its P1 columns in slot order and the test stiffness, scipy CSR matrices
    from one assembly pass each, at l = 1; at l = 0, where they are M and
    A, None. The test space contains the trial space, so it is nonempty
    whenever the trial space is.
    """
    if l not in (0, 1):
        raise ValueError(f"test space enrichment l must be 0 or 1, got {l}")
    if space_mesh.boundary_vertex_flags.all():
        raise ValueError(
            f"the {space_mesh.dimension}-d mesh with {space_mesh.n_vertices} "
            "vertices has no interior vertex"
        )
    stencils = space_stencils(space_mesh)
    if l == 0:
        return stencils, None, None
    m_mix = space_matrices(space_mesh, 2, 1)[0][:, stencils.slots]
    return stencils, m_mix, space_matrices(space_mesh, 2, 2)[1]


def _element_scatter(local: np.ndarray, row_stride: int):
    """Sum element blocks local (elements, rows, 2) into a scipy CSR matrix
    on the hats.

    Block e fills rows e*row_stride onward and the trial columns e, e+1 of
    its two hats; with row_stride 1 neighbouring blocks overlap.
    """
    import scipy.sparse as sp  # only assemble_B, which no solve runs

    n, rows, _ = local.shape
    e, i, j = np.indices(local.shape)
    return sp.coo_matrix(
        (local.ravel(), ((e * row_stride + i).ravel(), (e + j).ravel())),
        shape=((n - 1) * row_stride + rows, n + 1),
    ).tocsr()


# no solve or study applies B; tests/reference.py builds its B route from it,
# and perfbench's tracer resolves this name
def assemble_B(time_mesh: TimeMesh, m_mix, a_mix) -> KroneckerOperator:
    """Discrete parabolic form: time derivative against mass plus stiffness.

    Maps trial coefficients (hats x P1) to duals of the test space
    (elementwise orthonormal Legendre x P_{1+l}); m_mix and a_mix are the
    mixed space mass and stiffness, in any one order of the P1 dofs.
    """
    d_t = _element_scatter(time_derivative_mixed(time_mesh), 2)
    n_t = _element_scatter(time_mass_mixed(time_mesh), 2)
    return KroneckerOperator([(d_t, m_mix), (n_t, a_mix)])
