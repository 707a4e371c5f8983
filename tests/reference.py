"""References the solver and the studies do not run, to check them against.

src/backsolve holds what a solve or a study runs. This module holds what
only the tests call: the B route of the data and the functional (B applied
to coefficients, and the test-space Riesz lift, which inverts the test Gram,
identity in time x A_test), the dense inf-sup pencil through B and through
the energy identity, the trial and test Grams as Kronecker operators with
their dense forms, scipy sparse forms of the matrices the solver applies
without scipy (the COO sum of the space matrices, the hat mass and
stiffness by element blocks, the assembled space matrices in dof order,
and the entries of each stencil class of the P1 pair, which the solver
takes in closed form), the maps between dof order and the solve's slot
order, a graded time mesh, the conformity check of a mesh, the log-log
rate fit and the CSV reader.
"""

import csv
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from backsolve import assembly
from backsolve.assembly import space_matrices
from backsolve.operators import KroneckerOperator, _element_scatter, assemble_B
from backsolve.operators import space_factors
from backsolve.precond import make_G_Y
from backsolve.solver import (
    build_system,
    error_report,
    error_terms,
    manufactured_data,
    phi_sample,
)


def space_mass(mesh, p):
    return space_matrices(mesh, p, p)[0]


def space_stiffness(mesh, p):
    return space_matrices(mesh, p, p)[1]


def stencil_classes(stencils):
    """(rows, cols), in dof order, of each class of entries of the trial
    mass and stiffness on the mesh of stencils (a SpaceStencils), in the
    order of its constants: grid diagonal, centre diagonal, axis
    neighbours, centre-corner pairs."""
    grid, centres, n = stencils.grid, stencils.centres, stencils.n
    axes = [np.moveaxis(grid, i, 0) for i in range(grid.ndim)]
    lo = np.concatenate([x[:-1].ravel() for x in axes])
    hi = np.concatenate([x[1:].ravel() for x in axes])
    corners = centres  # d = 1: none
    if centres.size:  # of each centre's square; boundary corners read -1
        framed = np.pad(grid, 1, constant_values=-1)
        corners = np.stack(
            [framed[i : i + n, j : j + n] for i in (0, 1) for j in (0, 1)]
        )
    inner = corners >= 0
    centre, corner = np.broadcast_to(centres, corners.shape)[inner], corners[inner]
    return [
        (grid.ravel(), grid.ravel()),
        (centres.ravel(), centres.ravel()),
        (np.append(lo, hi), np.append(hi, lo)),
        (np.append(centre, corner), np.append(corner, centre)),
    ]


def coo_sum(rows_t, cols_t, local, shape):
    """The scipy route of a space matrix: cell matrices local (cells, test
    slots, trial slots) on the dofs rows_t x cols_t, eliminated (-1) slots
    dropped, summed by coo_matrix(...).tocsr()."""
    r = np.broadcast_to(rows_t[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols_t[:, None, :], local.shape).ravel()
    v = local.ravel()
    keep = (r >= 0) & (c >= 0)
    return sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=shape).tocsr()


def space_csr(mesh, l):
    """(M, A, M_mix, A_mix, A_test) at test enrichment l as scipy CSR
    matrices in dof order: trial mass and stiffness, mixed (P_{1+l} x P1)
    mass and stiffness, test stiffness; at l = 0 the last three are M, A, A."""
    m, a = space_matrices(mesh, 1, 1)
    if l == 0:
        return m, a, m, a, a
    m_mix, a_mix = space_matrices(mesh, 2, 1)
    return m, a, m_mix, a_mix, space_stiffness(mesh, 2)


def dof_order(stencils, fn):
    """fn, which maps slot-order rows of stencils (a SpaceStencils) to
    slot-order rows, on a vector or the columns of an array in dof order."""
    return lambda w: stencils.scatter(fn(stencils.gather(w.T))).T


def to_slots(stencils, v):
    """Space-time coefficients v, a row of dofs per breakpoint, in the
    solve's slot order of stencils."""
    return stencils.gather(np.reshape(v, (-1, stencils.slots.size))).ravel()


def to_dofs(stencils, v):
    """Space-time coefficients v in slot order back in dof order."""
    return stencils.scatter(np.reshape(v, (-1, stencils.slots.size))).ravel()


def dof_apply(system):
    """system.apply, a LeastSquaresSystem's, on coefficients in dof order."""
    st = system.stencils
    return lambda v: to_dofs(st, system.apply(to_slots(st, v)))


def time_mass_trial(mesh):
    """Element blocks (elements, 2, 2) of the continuous piecewise linear
    hats' mass matrix on any time mesh."""
    ref = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    return mesh.lengths[:, None, None] * ref


def time_stiffness_trial(mesh):
    """Element blocks (elements, 2, 2) of the hats' stiffness matrix."""
    ref = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return ref / mesh.lengths[:, None, None]


def hat_matrix(blocks):
    """Scipy CSR matrix of a hat matrix's element blocks (time_mass_trial,
    time_stiffness_trial)."""
    return _element_scatter(blocks, 1)


def mixed_matrix(blocks):
    """Scipy CSR matrix of a mixed time matrix's element blocks
    (time_mass_mixed, time_derivative_mixed)."""
    return _element_scatter(blocks, 2)


# ------------------------------------------------ Grams and dense forms ----


class MassSolveMass:
    """Symmetric spatial factor M A^{-1} M with a cached factorization of A."""

    def __init__(self, mass, stiffness):
        if mass.shape != stiffness.shape:
            raise ValueError("mass/stiffness shape mismatch")
        self.shape = mass.shape
        self._mass = mass.tocsr()
        self._solve = make_G_Y(stiffness)

    def __matmul__(self, other):
        w = self._solve(np.asarray(self._mass @ other))
        return self._mass @ w

    @property
    def T(self):
        return self

    def to_dense(self):
        return self @ np.eye(self.shape[1])


def gram_Y(time_mesh, space_mesh, l):
    """Test-space Gram: identity in time (orthonormal basis) x stiffness."""
    a_test = space_csr(space_mesh, l)[4]
    eye_t = sp.identity(2 * time_mesh.n_elements, format="csr")
    return KroneckerOperator([(eye_t, a_test)])


def gram_X(time_mesh, space_mesh):
    """Trial-space Gram: L2-in-time x H1_0 plus H1-in-time x dual-H1 factor."""
    m, a = space_mass(space_mesh, 1), space_stiffness(space_mesh, 1)
    return KroneckerOperator(
        [
            (hat_matrix(time_mass_trial(time_mesh)), a),
            (hat_matrix(time_stiffness_trial(time_mesh)), MassSolveMass(m, a)),
        ]
    )


def dense(op):
    """Materialized matrix of a KroneckerOperator: the sum of its np.kron terms.

    Time factors are sparse; a space factor is sparse or a MassSolveMass.
    """
    out = np.zeros(op.shape)
    for t, s in op.terms:
        s_dense = s.to_dense() if isinstance(s, MassSolveMass) else s.toarray()
        out += np.kron(t.toarray(), s_dense)
    return out


def dense_from_apply(apply, n_cols):
    """Materialize a linear map column by column."""
    return np.stack([apply(col) for col in np.eye(n_cols)], axis=1)


def normal_matrix_b_route(time_mesh, m_mix, a_mix, a_test):
    """Dense Bt G_Y B on the trial space via the tensor identity

        sum_{a,b} (T_a^T T_b) kron (S_a^T A_test^{-1} S_b),

    which never forms the (much larger) test-space matrices as a Kronecker
    product. Space matrices as from space_csr; desk-scale meshes only.
    """
    b_op = assemble_B(time_mesh, m_mix, a_mix)
    solve = make_G_Y(a_test)
    space_parts = [s.toarray() for _, s in b_op.terms]
    solved = [solve(s) for s in space_parts]
    time_factors = [t.toarray() for t, _ in b_op.terms]
    n = b_op.shape[1]
    out = np.zeros((n, n))
    for ta, sa in zip(time_factors, space_parts):
        for tb, sb in zip(time_factors, solved):
            out += np.kron(ta.T @ tb, sa.T @ sb)
    return out


def normal_matrices_dense(time_mesh, space):
    """Dense Bt G_Y B at l = 0 and at l = 1 through the energy identity

        Bt G_Y B = K_t x M_mix^T A_test^-1 M_mix + M_t x A
                   + (e_T e_T^T - e_0 e_0^T) x M

    of backsolve.solver, in dof order. Only the first term depends on l; at
    l = 0 the test space is P1, so M_mix = M and A_test = A. space is
    space_csr(space_mesh, 1), whose P1 pair serves l = 0. At most three
    dense n x n arrays are alive at once; desk-scale meshes only.
    """
    m, a, m_mix, _, a_test = space
    k_t = hat_matrix(time_stiffness_trial(time_mesh)).toarray()
    shared = np.kron(hat_matrix(time_mass_trial(time_mesh)).toarray(), a.toarray())
    n_t, n_x = k_t.shape[0], m.shape[0]
    blocks = shared.reshape(n_t, n_x, n_t, n_x)  # (time, space) x (time, space)
    blocks[-1, :, -1] += m.toarray()
    blocks[0, :, 0] -= m.toarray()
    normal = []
    for mass, stiffness in ((m, a), (m_mix, a_test)):
        solved = make_G_Y(stiffness)(mass.toarray())
        normal.append(np.kron(k_t, mass.T @ solved))
        normal[-1] += shared
    return tuple(normal)


# ------------------------------------------------------ the B route data ----


def y_lift(a_test):
    """Exact test-space Riesz lift: one a_test solve per time dof."""
    solve = make_G_Y(a_test)

    def apply(f):
        return solve(np.reshape(f, (-1, a_test.shape[0])).T).T.ravel()

    return apply


def level_data(time_mesh, space_mesh, l, solution, space=None, perturbation=None):
    """manufactured_data with the level's space_factors (unless given) and
    phi_sample, as build_level passes them."""
    space = space_factors(space_mesh, l) if space is None else space
    sample = phi_sample(space_mesh, solution)
    return manufactured_data(
        time_mesh, space_mesh, l, solution, space, sample, perturbation
    )


def level_system(time_mesh, space_mesh, l, solution, space=None, perturbation=None):
    """build_system with the level's space_factors (unless given) and
    level_data, as build_level passes them."""
    space = space_factors(space_mesh, l) if space is None else space
    data = level_data(time_mesh, space_mesh, l, solution, space, perturbation)
    return build_system(time_mesh, l, space, data)


def system_data(time_mesh, space_mesh, l, solution, perturbation=None):
    """(f_load, g_load, g_sq) of build_system's data in dof order; f_load =
    t_c x l_test. A nodal perturbation is in slot order, as build_level
    passes it."""
    space = space_factors(space_mesh, l)
    t_c, test_load, _, g_load, g_sq = level_data(
        time_mesh, space_mesh, l, solution, space, perturbation
    )
    st = space[0]
    if l == 0:
        test_load = st.scatter(test_load)
    return np.outer(t_c, test_load).ravel(), st.scatter(g_load), g_sq


def level_error_terms(space_mesh, solution):
    """error_terms as build_level makes them, for any space mesh and solution."""
    sample = phi_sample(space_mesh, solution)
    space = space_factors(space_mesh, 0)
    phi_load = space[0].gather(assembly.space_load(space_mesh, 1, sample[1]))
    return error_terms(space_mesh, space, solution, sample, phi_load)


def level_error_report(time_mesh, space_mesh, coeffs, solution, slice_times):
    """error_report with the level_error_terms of space_mesh and solution,
    of coefficients in dof order."""
    terms = level_error_terms(space_mesh, solution)
    coeffs = to_slots(terms.stencils, coeffs)
    return error_report(time_mesh, coeffs, solution, terms, slice_times)


class BRoute:
    """rhs = Bt G_Y f_load + e_T x g_load, j_zero = J(0) and the functional J.

    f_load is the source's test-space load, g_load the end data's P1 load
    and g_sq their squared L2 norm.
    """

    def __init__(self, time_mesh, space_mesh, l, reg_epsilon, f_load, g_load, g_sq):
        self.mass, _, m_mix, a_mix, a_test = space_csr(space_mesh, l)
        self.b_op = assemble_B(time_mesh, m_mix, a_mix)
        self.lift = y_lift(a_test)
        self.reg_epsilon = reg_epsilon
        self.f_load, self.g_load, self.g_sq = f_load, g_load, g_sq
        lifted = self.lift(f_load)
        self.j_zero = float(f_load @ lifted) + g_sq
        rows = self._rows(self.b_op.apply_transpose(lifted))
        rows[-1] += g_load
        self.rhs = rows.ravel()

    def _rows(self, v):
        return np.asarray(v).reshape(-1, self.mass.shape[0])

    def functional(self, v):
        """Value of the least-squares functional at trial coefficients v."""
        res = self.b_op.apply(v) - self.f_load
        val = float(res @ self.lift(res))
        rows = self._rows(v)
        z_end, z0 = rows[-1], rows[0]
        val += float(z_end @ (self.mass @ z_end) - 2.0 * z_end @ self.g_load)
        val += self.g_sq
        val += self.reg_epsilon**2 * float(z0 @ (self.mass @ z0))
        return val


def b_route(time_mesh, space_mesh, l, reg_epsilon, solution, perturbation=None):
    """BRoute of the data build_system reads from solution and perturbation."""
    data = system_data(time_mesh, space_mesh, l, solution, perturbation)
    return BRoute(time_mesh, space_mesh, l, reg_epsilon, *data)


# ------------------------------------------------ meshes, rates, results ----


def graded_time_mesh(breakpoints):
    """A time mesh of any increasing breakpoints, for the code that reads
    each element's length (the mixed time matrices, to_hats, the time loads
    and the error quadrature); a backsolve TimeMesh is uniform."""
    bp = np.asarray(breakpoints, dtype=float)
    return SimpleNamespace(breakpoints=bp, lengths=np.diff(bp), n_elements=bp.size - 1)


def check_conforming(mesh):
    """Every facet must bound one cell (boundary) or exactly two (interior)."""
    counts = mesh.facets[2]
    bad = np.logical_or(counts < 1, counts > 2)
    if np.any(bad):
        raise ValueError(f"non-conforming mesh: facets with counts {counts[bad]}")


def fit_rate(dofs, errors):
    """Log-log least-squares slope of error against degrees of freedom."""
    dofs = np.asarray(dofs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if dofs.size < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if np.any(dofs <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("rate fit needs positive dofs and errors")
    return float(np.polyfit(np.log(dofs), np.log(errors), 1)[0])


def _parse_cell(cell):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_results(path):
    """Parse a results file back into (header, rows); exact float round-trip."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, map(_parse_cell, line))) for line in reader]
    return header, rows
