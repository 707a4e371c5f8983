"""The least-squares data the long way: through B and the test-space lift.

The solver builds its right-hand side and J(0) from one time load and one
test stiffness solve, and never forms the functional. This module keeps the
route they replaced, as the reference to check them against: the discrete
form B applied to coefficients, and the test-space Riesz lift, which
inverts the test Gram (identity in time x test stiffness A_test).
"""

import numpy as np

from backsolve.operators import assemble_B, sparse_lu, space_factors
from backsolve.solver import manufactured_data


def y_lift(a_test):
    """Exact test-space Riesz lift: one a_test solve per time dof."""
    lu = sparse_lu(a_test, "test stiffness")

    def apply(f):
        return lu.solve(np.reshape(f, (-1, a_test.shape[0])).T).T.ravel()

    return apply


def system_data(time_mesh, space_mesh, l, solution, perturbation=None):
    """(f_load, g_load, g_sq) of build_system's data; f_load = t_c x l_test."""
    t_c, test_load, _, g_load, g_sq = manufactured_data(
        time_mesh, space_mesh, l, solution, space_factors(space_mesh, l), perturbation
    )
    return np.outer(t_c, test_load).ravel(), g_load, g_sq


class BRoute:
    """rhs = Bt G_Y f_load + e_T x g_load, j_zero = J(0) and the functional J.

    f_load is the source's test-space load, g_load the end data's P1 load
    and g_sq their squared L2 norm.
    """

    def __init__(self, time_mesh, space_mesh, l, reg_epsilon, f_load, g_load, g_sq):
        self.mass, _, m_mix, a_mix, a_test = space_factors(space_mesh, l)
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
