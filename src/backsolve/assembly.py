"""Temporal and spatial finite element assembly.

Builds every 1-d matrix the space-time operators are composed of: hat mass,
derivative and stiffness matrices in time, mixed matrices against the
element-wise degree-1 Legendre test basis, Lagrange P1/P2 mass and stiffness
on simplicial meshes, and load vectors. A space is named by its Lagrange
degree p, 1 or 2, and always lies in H_0^1: its boundary dofs are
eliminated, not penalized. Intervals and triangles share one reference
simplex, in barycentric coordinates. Space loads integrate values sampled
once at the points of the QUAD_ORDER cell rule (quad_points), not a
function.

The time test basis has degree 1, the least that holds the hats and their
derivatives, as the energy identity of backsolve.solver needs (DtD = K_t,
NtN = M_t, DtN + NtD = e_T e_T^T - e_0 e_0^T). Its dofs are element-major:
dof = 2*element + n, n the local degree. Spatial P2 numbering lists retained
vertex dofs first, then retained edge (2d) or element-midpoint (1d) dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import legvander

from .mesh import SpatialMesh, TimeMesh
from .quadrature import gauss_1d_for_degree, triangle_rule

QUAD_ORDER = 5  # exactness degree of the data loads and the error quadrature


# ---------------------------------------------------------------- time ----


def _element_scatter(local: np.ndarray, row_stride: int) -> sp.csr_matrix:
    """Sum element blocks local (elements, rows, 2) into a matrix on the hats.

    Block e fills rows e*row_stride onward and the trial columns e, e+1 of
    its two hats; with row_stride 1 neighbouring blocks overlap.
    """
    n, rows, _ = local.shape
    e, i, j = np.indices(local.shape)
    return sp.coo_matrix(
        (local.ravel(), ((e * row_stride + i).ravel(), (e + j).ravel())),
        shape=((n - 1) * row_stride + rows, n + 1),
    ).tocsr()


def time_mass_trial(mesh: TimeMesh) -> sp.csr_matrix:
    """Mass matrix of the continuous piecewise linear hats."""
    ref = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    return _element_scatter(mesh.lengths[:, None, None] * ref, 1)


def time_stiffness_trial(mesh: TimeMesh) -> sp.csr_matrix:
    ref = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _element_scatter(ref / mesh.lengths[:, None, None], 1)


def test_basis_values(s: np.ndarray, h) -> np.ndarray:
    """Values of the element test basis at local coordinates s in (0,1).

    Returns shape (..., 2, len(s)) for element lengths h of shape (...):
    Legendre polynomials of degrees 0 and 1 scaled to unit L2 norm on an
    element of length h, so the time Gram of the test space is the identity.
    Degree 1 is fixed: the least that holds the hats (module docstring).
    """
    v = legvander(2.0 * np.asarray(s) - 1.0, 1).T
    scale = np.sqrt(np.array([1.0, 3.0]) / np.asarray(h)[..., None])  # 2n + 1, n = 0, 1
    return v * scale[..., None]


def time_mass_mixed(mesh: TimeMesh) -> sp.csr_matrix:
    """N_t[i][j] = integral of trial hat j against test function i."""
    sq, wq = gauss_1d_for_degree(2)
    hats = np.stack([1.0 - sq, sq])  # (2, q)
    psi = test_basis_values(sq, mesh.lengths)
    local = mesh.lengths[:, None, None] * np.einsum("q,eiq,jq->eij", wq, psi, hats)
    return _element_scatter(local, 2)


def time_derivative_mixed(mesh: TimeMesh) -> sp.csr_matrix:
    """D_t[i][j] = integral of (trial hat j)' against test function i."""
    sq, wq = gauss_1d_for_degree(1)
    h = mesh.lengths[:, None]
    # integral of each test function over its element
    ints = (h[:, :, None] * test_basis_values(sq, mesh.lengths)) @ wq
    slopes = np.stack([-1.0 / h, 1.0 / h], axis=2)  # (elements, 1, 2)
    return _element_scatter(slopes * ints[:, :, None], 2)


# --------------------------------------------------------------- space ----


@dataclass(frozen=True)
class DofMap:
    """Cell -> global dof table; -1 marks an eliminated (Dirichlet) slot."""

    n_dofs: int
    cell_dofs: np.ndarray


def ref_shapes(degree: int, bary: np.ndarray):
    """Shape values (q, nloc) and reference gradients (q, nloc, d) at
    barycentric points (q, d + 1); the P2 edge dofs follow the vertex dofs,
    on the local edges (01), or (01, 12, 20) on a triangle."""
    lam = np.asarray(bary)
    q, n = lam.shape
    dlam = np.vstack([-np.ones(n - 1), np.eye(n - 1)])  # constant grad lambda_i
    if degree == 1:
        return lam.copy(), np.broadcast_to(dlam, (q, n, n - 1)).copy()
    edges = [(i, (i + 1) % n) for i in range(n * (n - 1) // 2)]
    vals = np.empty((q, n + len(edges)))
    grads = np.empty((q, n + len(edges), n - 1))
    for i in range(n):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[:, i] = (4.0 * lam[:, i, None] - 1.0) * dlam[i]
    for k, (i, j) in enumerate(edges):
        vals[:, n + k] = 4.0 * lam[:, i] * lam[:, j]
        grads[:, n + k] = 4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])
    return vals, grads


def space_dof_map(mesh: SpatialMesh, p: int) -> DofMap:
    """Dofs of the degree-p Lagrange space with the boundary dofs eliminated."""
    if p not in (1, 2):
        raise ValueError(f"only Lagrange degrees 1 and 2 are supported, got {p}")
    keep_v = ~mesh.boundary_vertex_flags
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vdof[keep_v] = np.arange(keep_v.sum())
    n = int(keep_v.sum())
    if p == 1:
        return DofMap(n, vdof[mesh.cells])
    if mesh.dimension == 1:
        mids = n + np.arange(mesh.n_cells)
        cd = np.column_stack([vdof[mesh.cells], mids])
        return DofMap(n + mesh.n_cells, cd)
    facets, cell_facets, counts = mesh.facets
    keep_e = counts == 2  # interior facets
    edof = np.full(len(facets), -1, dtype=np.int64)
    edof[keep_e] = n + np.arange(keep_e.sum())
    # local edges (01, 12, 20) are the facets opposite local vertices (2, 0, 1)
    edge_cols = cell_facets[:, [2, 0, 1]]
    cd = np.column_stack([vdof[mesh.cells], edof[edge_cols]])
    return DofMap(n + int(keep_e.sum()), cd)


def _cell_rule(mesh: SpatialMesh, degree: int):
    """Barycentric points (q, d + 1) and weights summing to 1, so that
    integral = |cell| * sum(w * f); the interval's Gauss points s are the
    rows (1 - s, s)."""
    if mesh.dimension == 1:
        s, w = gauss_1d_for_degree(degree)
        return np.column_stack([1.0 - s, s]), w
    return triangle_rule(degree)


def quad_points_physical(mesh: SpatialMesh, pts: np.ndarray) -> np.ndarray:
    """Map barycentric rule points to all cells: (nc, q, d)."""
    return np.einsum("qi,cid->cqd", np.asarray(pts), mesh.vertices[mesh.cells])


def _accumulate(rows_t, cols_t, local, shape):
    r = np.broadcast_to(rows_t[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols_t[:, None, :], local.shape).ravel()
    v = local.ravel()
    keep = (r >= 0) & (c >= 0)
    return sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=shape).tocsr()


def space_matrices(
    mesh: SpatialMesh, test: int, trial: int
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Mass and stiffness, shape (dim test) x (dim trial), in one pass; test
    and trial are Lagrange degrees.

    Both share the dof maps and the cell geometry; each integrates with a
    rule exact for its own integrand degree.
    """
    dm_test = space_dof_map(mesh, test)
    dm_trial = dm_test if trial == test else space_dof_map(mesh, trial)
    shape = (dm_test.n_dofs, dm_trial.n_dofs)
    vol, jinv = mesh.geometry

    pts, w = _cell_rule(mesh, test + trial)
    te_v, _ = ref_shapes(test, pts)
    tr_v, _ = ref_shapes(trial, pts)
    k_ref = np.einsum("q,qi,qj->ij", w, te_v, tr_v)
    local = vol[:, None, None] * k_ref[None]
    mass = _accumulate(dm_test.cell_dofs, dm_trial.cell_dofs, local, shape)

    pts, w = _cell_rule(mesh, max(1, test + trial - 2))
    _, te_g = ref_shapes(test, pts)
    _, tr_g = ref_shapes(trial, pts)
    gte = np.einsum("qie,ced->cqid", te_g, jinv)
    gtr = np.einsum("qje,ced->cqjd", tr_g, jinv)
    local = vol[:, None, None] * np.einsum("q,cqid,cqjd->cij", w, gte, gtr)
    stiffness = _accumulate(dm_test.cell_dofs, dm_trial.cell_dofs, local, shape)
    return mass, stiffness


def quad_points(mesh: SpatialMesh) -> np.ndarray:
    """Physical points (cells * q, d), cell-major, of the QUAD_ORDER cell
    rule: space_load and integrate_squared take values sampled there."""
    pts, _ = _cell_rule(mesh, QUAD_ORDER)
    return quad_points_physical(mesh, pts).reshape(-1, mesh.dimension)


def space_load(mesh: SpatialMesh, p: int, values) -> np.ndarray:
    """Vector of integrals f * basis_i over the degree-p space, f sampled at
    quad_points(mesh)."""
    dm = space_dof_map(mesh, p)
    pts, w = _cell_rule(mesh, QUAD_ORDER)
    vol, _ = mesh.geometry
    vals, _ = ref_shapes(p, pts)
    fq = np.reshape(values, (vol.size, w.size))
    cell_load = vol[:, None] * np.einsum("q,cq,qi->ci", w, fq, vals)
    return _scatter_load(dm, cell_load)


def gradient_load(mesh: SpatialMesh, field) -> np.ndarray:
    """Vector of integrals field . grad(eta_i) over the P1 space, field
    constant per cell: (cells, d)."""
    dm = space_dof_map(mesh, 1)
    vol, jinv = mesh.geometry
    _, grads = ref_shapes(1, np.eye(mesh.dimension + 1)[:1])  # constant: any point
    # physical gradients contract jinv on its first index, as in
    # fe_gradients_on_cells: (cells, local slots, d)
    phys = np.einsum("ie,ced->cid", grads[0], jinv)
    return _scatter_load(dm, vol[:, None] * np.einsum("cid,cd->ci", phys, field))


def _scatter_load(dm: DofMap, cell_load: np.ndarray) -> np.ndarray:
    """Sum cell loads (cells, local slots) into the dofs of dm."""
    slots = dm.cell_dofs.ravel()  # bincount sums a dof's slots in cell order
    keep = slots >= 0  # eliminated (-1) slots drop out
    return np.bincount(slots[keep], cell_load.ravel()[keep], minlength=dm.n_dofs)


def integrate_squared(mesh: SpatialMesh, values) -> float:
    """Quadrature of f^2 over the mesh, f sampled at quad_points(mesh)."""
    _, w = _cell_rule(mesh, QUAD_ORDER)
    vol, _ = mesh.geometry
    fq = np.reshape(values, (vol.size, w.size))
    return float(np.einsum("c,q,cq->", vol, w, fq**2))


def load_vector_f(time_mesh: TimeMesh, source) -> np.ndarray:
    """Time load t_c[(e,n)] = h_e sum_q w_q source(t_eq) psi_{e,n}(s_q).

    The source separates, f(t, x) = source(t) phi(x), and source takes a
    scalar t. Under the tensor rule the load of f against psi_{e,n} eta_j
    is exactly t_c[(e,n)] times the space load of phi against eta_j.
    """
    sq, wq = gauss_1d_for_degree(QUAD_ORDER)
    h = time_mesh.lengths
    t = time_mesh.breakpoints[:-1, None] + h[:, None] * sq
    # source at scalar t: numpy's array t**3 can differ from the scalar by an ulp
    ct = np.array([source(ti) for ti in t.ravel()]).reshape(t.shape)
    psi = test_basis_values(sq, h)  # (elements, 2, q)
    return (h[:, None] * (psi @ (wq * ct)[:, :, None])[..., 0]).ravel()


def _slot_coeffs(dm: DofMap, coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Gather coeffs along axis to (cells, local slots); eliminated slots read 0."""
    pad = [(0, 0)] * coeffs.ndim
    pad[axis] = (0, 1)  # slot -1 picks the appended zero
    return np.take(np.pad(coeffs, pad), dm.cell_dofs, axis=axis)


def fe_values_on_cells(
    mesh: SpatialMesh, coeffs: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """P1 values at rule points of every cell: (..., nc, q). Eliminated dofs are 0.

    coeffs is (..., n_dofs); leading axes (say, one row per time
    breakpoint) are kept in the result.
    """
    dm = space_dof_map(mesh, 1)
    vals, _ = ref_shapes(1, pts)
    c = _slot_coeffs(dm, coeffs, -1)
    return (c.reshape(-1, c.shape[-1]) @ vals.T).reshape(*c.shape[:-1], -1)


def fe_gradients_on_cells(
    mesh: SpatialMesh, coeffs: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """P1 gradients at rule points of every cell: (..., nc, q, d).

    coeffs is (..., n_dofs), batched as in fe_values_on_cells.
    """
    dm = space_dof_map(mesh, 1)
    _, grads = ref_shapes(1, pts)
    _, jinv = mesh.geometry
    # (nc, q, d, nloc): physical gradients of the local shape functions
    phys = jinv.transpose(0, 2, 1)[:, None] @ grads.transpose(0, 2, 1)
    lead = coeffs.shape[:-1]
    rows = coeffs.reshape(int(np.prod(lead)), -1).T  # (n_dofs, batch)
    out = phys.reshape(phys.shape[0], -1, phys.shape[3]) @ _slot_coeffs(dm, rows, 0)
    return np.moveaxis(out, -1, 0).reshape(*lead, *phys.shape[:3])
