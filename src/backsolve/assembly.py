"""Temporal and spatial finite element assembly.

Builds the matrices the space-time operators are composed of: mixed time
matrices of the hats against the element-wise degree-1 Legendre test
basis, as element blocks with their transposed product (the hats' own mass
and stiffness are the uniform step's, in backsolve.solver); Lagrange P1/P2
mass and stiffness on simplicial meshes, as scipy CSR matrices; and load
vectors. Only the l = 1 solve and the tests assemble space matrices, the
one use of scipy here: the solve takes the P1 pair as closed-form stencils
(backsolve.precond.space_stencils). A space is named by its Lagrange
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
from numpy.polynomial.legendre import legvander

from .mesh import SpatialMesh, TimeMesh
from .quadrature import gauss_1d_for_degree, triangle_rule

QUAD_ORDER = 5  # exactness degree of the data loads and the error quadrature


# ---------------------------------------------------------------- time ----


def to_hats(blocks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The transpose of a mixed time matrix, by its element blocks
    (elements, 2, 2), times a test vector t: block e's row i is test
    function 2e + i and its column j hat e + j."""
    loc = np.einsum("eij,ei->ej", blocks, t.reshape(-1, 2))
    out = np.zeros(loc.shape[0] + 1)
    out[:-1] += loc[:, 0]
    out[1:] += loc[:, 1]
    return out


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


def time_mass_mixed(mesh: TimeMesh) -> np.ndarray:
    """Element blocks (elements, 2, 2) of N_t[i][j] = integral of trial hat
    j against test function i."""
    sq, wq = gauss_1d_for_degree(2)
    hats = np.stack([1.0 - sq, sq])  # (2, q)
    psi = test_basis_values(sq, mesh.lengths)
    return mesh.lengths[:, None, None] * np.einsum("q,eiq,jq->eij", wq, psi, hats)


def time_derivative_mixed(mesh: TimeMesh) -> np.ndarray:
    """Element blocks (elements, 2, 2) of D_t[i][j] = integral of
    (trial hat j)' against test function i."""
    sq, wq = gauss_1d_for_degree(1)
    h = mesh.lengths[:, None]
    # integral of each test function over its element
    ints = (h[:, :, None] * test_basis_values(sq, mesh.lengths)) @ wq
    slopes = np.stack([-1.0 / h, 1.0 / h], axis=2)  # (elements, 1, 2)
    return slopes * ints[:, :, None]


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
    """Map barycentric rule points to all cells: (nc, q, d), summed over
    the vertices in order, with the cells on the fastest axis."""
    pts, v = np.asarray(pts), mesh.vertices.T[:, mesh.cells.T]  # (d, d + 1, nc)
    out = pts[:, 0, None, None] * v[:, 0]  # (q, d, nc)
    for i in range(1, pts.shape[1]):
        out += pts[:, i, None, None] * v[:, i]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def space_matrices(mesh: SpatialMesh, test: int, trial: int) -> list:
    """Mass and stiffness as scipy CSR matrices, shape (dim test) x (dim
    trial), in one pass; test and trial are Lagrange degrees.

    Both share the dof maps, the cell geometry and one sorted table of
    entry keys r * n + c; each integrates with a rule exact for its own
    integrand degree, and np.bincount sums each key's cell entries in cell
    order. Eliminated (-1) slots drop out.
    """
    import scipy.sparse as sp  # only the l = 1 solve and the tests assemble

    dm_test = space_dof_map(mesh, test)
    dm_trial = dm_test if trial == test else space_dof_map(mesh, trial)
    vol, jinv = mesh.geometry

    pts, w = _cell_rule(mesh, test + trial)
    te_v, _ = ref_shapes(test, pts)
    tr_v, _ = ref_shapes(trial, pts)
    k_ref = np.einsum("q,qi,qj->ij", w, te_v, tr_v)
    mass = vol[:, None, None] * k_ref[None]

    pts, w = _cell_rule(mesh, max(1, test + trial - 2))
    _, te_g = ref_shapes(test, pts)
    _, tr_g = ref_shapes(trial, pts)
    gte = np.einsum("qie,ced->cqid", te_g, jinv)
    gtr = np.einsum("qje,ced->cqjd", tr_g, jinv)
    stiffness = vol[:, None, None] * np.einsum("q,cqid,cqjd->cij", w, gte, gtr)

    shape = (dm_test.n_dofs, dm_trial.n_dofs)
    r = np.broadcast_to(dm_test.cell_dofs[:, :, None], mass.shape).ravel()
    c = np.broadcast_to(dm_trial.cell_dofs[:, None, :], mass.shape).ravel()
    keep = (r >= 0) & (c >= 0)
    keys, slot = np.unique(r[keep] * shape[1] + c[keep], return_inverse=True)
    rows, cols = np.divmod(keys, shape[1])
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return [
        sp.csr_matrix(
            (np.bincount(slot, v.ravel()[keep], keys.size), cols, indptr), shape
        )
        for v in (mass, stiffness)
    ]


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
    # summed over the points in order, with the cells on the fastest axis
    wf = np.multiply(np.reshape(values, (vol.size, w.size)).T, w[:, None], order="C")
    cell_load = vals[0, :, None] * wf[0]  # (local slots, cells)
    for q in range(1, w.size):
        cell_load += vals[q, :, None] * wf[q]
    cell_load *= vol
    return _scatter_load(dm, cell_load.T)


def gradient_load(mesh: SpatialMesh, field) -> np.ndarray:
    """Vector of integrals field . grad(eta_i) over the P1 space, field
    constant per cell: (cells, d)."""
    vol, _ = mesh.geometry
    grads = mesh.bary_gradients
    cell_load = grads[..., 0] * field[:, :1]  # summed over the d components in order
    for e in range(1, mesh.dimension):
        cell_load += grads[..., e] * field[:, e, None]
    cell_load *= vol[:, None]
    return _scatter_load(space_dof_map(mesh, 1), cell_load)


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
    # source at scalar t, a Python float: numpy's array t**3 can differ from
    # the scalar by an ulp, and a numpy scalar's arithmetic is slower
    ct = np.array([source(ti) for ti in t.ravel().tolist()]).reshape(t.shape)
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

    coeffs is (..., n_dofs), batched as in fe_values_on_cells. A P1
    gradient is constant per cell: the local coefficients times the
    barycentric gradients, summed over the local slots in order, at each
    of the len(pts) points.
    """
    c = _slot_coeffs(space_dof_map(mesh, 1), coeffs, -1)[..., None]
    grads = mesh.bary_gradients
    out = c[..., 0, :] * grads[:, 0]
    for i in range(1, grads.shape[1]):
        out += c[..., i, :] * grads[:, i]
    return np.repeat(out[..., None, :], len(pts), axis=-2)
