"""Riesz-map preconditioner and the test stiffness solve.

The trial-space lift inverts the full anisotropic Gram by diagonalization
in time: the time pencil's modes are known cosines on the time mesh,
uniform by type (backsolve.mesh), and per time mode a shifted space solve
is done in closed form. It solves only the uniform space meshes the solver
builds. The lift is exact, so the norm-equivalence constants are 1. At
d = 1 the space pencil's eigenvalues are in closed form too (space_modes),
and the l = 0 solve runs in the tensor eigenbasis (backsolve.solver).

The test-space Gram is the identity in time times the test stiffness
A_test, so no test-space lift is built: the right-hand side, J(0) and the
normal operator use an A_test solve. At l = 0 A_test is the trial
stiffness, solved by the same closed form at shift 0 (stiffness_solve);
at l = 1 make_G_Y factors the P2 stiffness once, the only use of scipy
here. The solves take the trial stiffness and mass as stencils, four
constants each, known in closed form on the only meshes the solver builds
(space_stencils, which checks the mesh and assembles nothing); the
stencils also apply them (SpaceStencils.product), in the stencils' slot
order, the order of every vector of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .mesh import SpatialMesh, TimeMesh


class UnsupportedMeshError(ValueError):
    """The closed-form solves do not solve this mesh."""


@dataclass(frozen=True)
class RieszPreconditioner:
    """SPD trial-space lift from functionals to coefficient space."""

    norm = "X"  # not a field; perfbench's tracer names apply spans by it
    _apply: Callable = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(f, dtype=float))


def make_G_Y(a_test) -> Callable:
    """Solve with a_test, the test space stiffness, factored once by SuperLU;
    the solve takes a vector or the columns of an array. a_test is a scipy
    sparse matrix.

    Minimum degree on A + A^T keeps the fill of these finite element
    matrices low; scipy's default ordering and supernode sizes give nearly
    twice the fill and factor two to three times slower.
    """
    from scipy.sparse.linalg import splu  # only l = 1 and the inf-sup study

    try:
        lu = splu(a_test.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise RuntimeError(f"test stiffness factorization failed: {exc}") from exc
    return lu.solve


def stiffness_solve(stencils: SpaceStencils) -> Callable:
    """Solve with the trial stiffness A in closed form: _shifted_space_solve
    at shift 0, for the space_stencils of A. It takes a vector or rows
    (..., n_x) in slot order.
    """
    solve = _shifted_space_solve(stencils, np.zeros(1))
    return lambda w: solve(np.atleast_2d(w)).reshape(w.shape)


def make_G_X(time_mesh: TimeMesh, stencils: SpaceStencils) -> RieszPreconditioner:
    """Exact trial-space Riesz lift by diagonalization in time.

    stencils are the space_stencils of the trial space stiffness and mass
    (A, M). The time pencil (time stiffness, time mass) has modes z_j with
    eigenvalues theta_j, in closed form (_time_modes). On mode j the space
    part of the inverse is V diag(mu / (mu^2 + theta_j)) V^T over the
    (stiffness, mass) pencil, which equals Re[(A + i sqrt(theta_j) M)^-1],
    solved for every mode in closed form (_shifted_space_solve).

    The lift takes a slot-order vector or a block of them as columns (n, k);
    a block runs one time transform and one batch of shifted solves, with
    the columns on a leading axis.
    """
    theta, zt = _time_modes(time_mesh)
    solve = _shifted_space_solve(stencils, np.sqrt(theta))

    def apply(f: np.ndarray) -> np.ndarray:
        block = f.shape[1:]  # () for a vector, (k,) for k columns
        modes = zt.T @ f.T.reshape(*block, theta.size, -1)
        return (zt @ solve(modes)).reshape(*block, -1).T

    return RieszPreconditioner(apply)


def _time_modes(time_mesh: TimeMesh):
    """(theta, Z): the time pencil's eigenvalues, ascending, and its modes
    as columns, Z^T M_t Z = I, in closed form on the uniform time mesh.

    With n elements of length h, K_t = tridiag(-1, 2, -1) / h and
    M_t = h tridiag(1, 4, 1) / 6, each halved in its two corners. With
    c_j = cos(j pi / n), the cosines z_j(i) = cos(i j pi / n), j = 0..n, give
    K_t z_j = theta_j M_t z_j, theta_j = (6 / h^2)(1 - c_j) / (2 + c_j), and
    M_t z_j = (h / 3)(2 + c_j) W z_j, W = diag(1/2, 1, ..., 1, 1/2). Under
    W the cosines are orthogonal with squared norms n / 2, doubled at j = 0
    and j = n (the DCT-I). 1 - c_j is taken as 2 sin^2(j pi / 2n), so the
    small theta_j keep their relative accuracy, and i j is reduced mod 2n
    before it is scaled by pi / n.
    """
    bp = time_mesh.breakpoints
    n, span = bp.size - 1, bp[-1] - bp[0]
    j = np.arange(n + 1)
    c = np.cos(np.pi * j / n)
    theta = (12.0 * (n / span) ** 2) * np.sin(np.pi * j / (2 * n)) ** 2 / (2.0 + c)
    sq_norms = span / 6.0 * (2.0 + c) * np.where((j == 0) | (j == n), 2.0, 1.0)
    return theta, np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n) / np.sqrt(sq_norms)


def space_modes(stencils: SpaceStencils):
    """(a, m): at d = 1, the eigenvalues of the trial stiffness and mass on
    the columns of stencils.sine, in _shifted_space_solve's sigma form
    (c0 + 2 c1) - c1 sigma_p for A, M = c0 I + c1 E. The stiffness's constant
    term is exactly 0, so its smallest eigenvalues keep their relative
    accuracy, which c0 + c1 2 cos(p pi / N) loses to cancellation.
    """
    sigma = _sigma(stencils.n)
    return tuple(
        (c0 + 2.0 * c1) - c1 * sigma
        for c0, _, c1, _ in (stencils.stiffness, stencils.mass)
    )


class SpaceStencils(NamedTuple):
    """The trial dofs of a supported mesh on their lattice, and the stencil
    constants of the trial stiffness and mass (space_stencils).

    Slot order lists the grid dofs, row-major, then in d = 2 the square
    centres: slots[s] is the dof in slot s and rank its inverse. gather
    takes rows (..., n_x) from dof to slot order and scatter back; parts
    views slot-order rows as grid (..., N - 1[, N - 1]) and centre
    (..., N, N) arrays. The constants are one per class of entries: grid
    diagonal, centre diagonal, axis neighbours, centre-corner pairs.
    """

    n: int
    grid: np.ndarray
    centres: np.ndarray
    stiffness: tuple
    mass: tuple
    sine: np.ndarray
    slots: np.ndarray
    rank: np.ndarray

    def gather(self, x: np.ndarray) -> np.ndarray:
        return np.take(x, self.slots, axis=-1)  # C order, where x[..., slots] is not

    def scatter(self, y: np.ndarray) -> np.ndarray:
        return np.take(y, self.rank, axis=-1)

    def parts(self, y: np.ndarray):
        lead, split = y.shape[:-1], self.grid.size
        return (
            y[..., :split].reshape(*lead, *self.grid.shape),
            y[..., split:].reshape(*lead, *self.centres.shape),
        )

    def product(self, *terms) -> np.ndarray:
        """The sum over terms (values, y) of the trial matrix of stencil
        constants values, A's or M's, times slot-order rows y (..., n_x):
        per grid dof its diagonal, its axis neighbours and, in d = 2, the
        centres of its four squares; per centre its diagonal and its
        square's corners. Each class's weighted sum of the terms' rows is
        formed once, then added at the class's neighbours."""
        split = [(values, *self.parts(y)) for values, y in terms]

        def weighted(cls, side, out=None):  # sum of values[cls] * part[side]
            (values, *part), *rest = split
            total = np.multiply(values[cls], part[side], out=out)
            for values, *part in rest:
                total += values[cls] * part[side]
            return total

        out = np.empty_like(terms[0][1])
        out_g, out_c = self.parts(out)
        weighted(0, 0, out_g)
        axis = weighted(2, 0)
        for i in range(1, self.grid.ndim + 1):  # each space axis, from the last
            lo = (Ellipsis, slice(None, -1)) + (slice(None),) * (i - 1)
            hi = (Ellipsis, slice(1, None)) + (slice(None),) * (i - 1)
            out_g[hi] += axis[lo]
            out_g[lo] += axis[hi]
        if out_c.size:
            out_g += _box(weighted(3, 1))
            weighted(1, 1, out_c)
            out_c += _box(_bordered(weighted(3, 0)))
        return out


def space_stencils(space_mesh: SpatialMesh) -> SpaceStencils:
    """SpaceStencils of the trial stiffness and mass of space_mesh, in
    closed form: with h = 1/N, A = (2/h, 0, -1/h, 0) and
    M = (2h/3, 0, h/6, 0) on a dyadic uniform interval mesh of N cells, and
    A = (4, 4, 0, -1) and M = (h^2/3, h^2/6, h^2/24, h^2/24) on
    refine_uniform(unit_square_initial(), 2k), the criss-cross mesh of
    N x N squares. The solver builds no other space mesh.

    The guard checks the mesh, and any other mesh raises
    UnsupportedMeshError: N, from the cell count, is a power of two, every
    vertex lies on the lattice of spacing 1/(2N), and the cells are the N
    intervals of one grid step or the 4N^2 distinct triangles of a square's
    centre and two corners that share a side. A cell's vertex sum is d + 1
    times its centroid, which lies inside it, so distinct cells of these
    shapes have distinct sums. The dofs, the interior vertices, are placed
    on the lattice as index arrays in grid order: the N - 1 interior grid
    points per axis and, in d = 2, the N^2 square centres.
    """
    d, n_cells = space_mesh.dimension, space_mesh.n_cells
    interior = ~space_mesh.boundary_vertex_flags
    n_x = int(interior.sum())
    unsupported = UnsupportedMeshError(
        f"the trial matrices of this {d}-d mesh with {n_x} dofs are not the "
        "stencils of a dyadic uniform interval mesh or of "
        "refine_uniform(unit_square_initial(), 2k)"
    )
    n = n_cells if d == 1 else math.isqrt(n_cells) // 2
    if n < 1 or n & (n - 1) or n_cells != (n if d == 1 else 4 * n * n):
        raise unsupported
    scaled = space_mesh.vertices * (2 * n)  # exact: 2N is a power of two
    where = np.rint(scaled).astype(np.int64)  # grid even, centres odd
    if np.any(where != scaled) or where.min() < 0 or where.max() > 2 * n:
        raise unsupported
    # per cell (last axis) its lattice points (d, d + 1, cells), its sorted
    # squared sides in lattice units, its number of odd (centre) points and
    # its vertex sum; cells last keeps the small axes' reductions contiguous
    v = where.T[:, space_mesh.cells.T]
    sides = np.sort(((v - np.roll(v, 1, axis=1)) ** 2).sum(axis=0), axis=0)
    odd = (v % 2).all(axis=0).sum(axis=0)
    sums = np.sort(np.ravel_multi_index(v.sum(axis=1), (6 * n + 1,) * d))
    want_sides, want_odd = ([4, 4], 0) if d == 1 else ([2, 2, 4], 1)
    shaped = np.all(sides == np.array(want_sides)[:, None], axis=0) & (odd == want_odd)
    # sorted, not np.unique, which imports numpy.ma on a first plain call
    if not shaped.all() or np.any(sums[1:] == sums[:-1]):
        raise unsupported

    lattice = np.full((2 * n + 1,) * d, -1)
    lattice[tuple(where[interior].T)] = np.arange(n_x)
    grid = lattice[(slice(2, -1, 2),) * d]
    centres = lattice[1::2, 1::2] if d == 2 else lattice[:0]
    slots = np.append(grid, centres)  # each dof must fill one of n_x slots
    if slots.size != n_x or np.any(slots < 0):
        raise unsupported
    h = 1.0 / n  # exact, as are 2/h, -1/h and h^2
    if d == 1:
        stiffness, mass = (2 / h, 0.0, -1 / h, 0.0), (2 * h / 3, 0.0, h / 6, 0.0)
    else:
        stiffness = (4.0, 4.0, 0.0, -1.0)
        mass = (h * h / 3, h * h / 6, h * h / 24, h * h / 24)
    rank = np.argsort(slots)
    return SpaceStencils(n, grid, centres, stiffness, mass, _sine(n), slots, rank)


def _box(x: np.ndarray) -> np.ndarray:
    """Sums over each 2 x 2 block of neighbours in the last two axes, added
    left to right into one array."""
    out = x[..., :-1, :-1] + x[..., :-1, 1:]
    out += x[..., 1:, :-1]
    out += x[..., 1:, 1:]
    return out


def _bordered(x: np.ndarray) -> np.ndarray:
    """x with a border of zeros on its last two axes; np.pad does the same
    at about 0.1 ms of Python per call."""
    out = np.zeros((*x.shape[:-2], x.shape[-2] + 2, x.shape[-1] + 2), x.dtype)
    out[..., 1:-1, 1:-1] = x
    return out


def _sine(n: int) -> np.ndarray:
    """The orthonormal sine matrix sqrt(2/N) sin(p i pi / N), p, i = 1..N-1,
    with p i reduced mod 2N before it is scaled by pi / N."""
    p = np.arange(1, n)
    return math.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(p, p) % (2 * n)) / n)


def _sigma(n: int) -> np.ndarray:
    """2 - eig(E), E = tridiag(1, 0, 1) of size N - 1, on the columns of
    _sine(N): sigma_p = 4 sin^2(p pi / 2N), p = 1..N-1."""
    return 4.0 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2


def _shifted_space_solve(stencils: SpaceStencils, shifts: np.ndarray) -> Callable:
    """Solve mapping rows w_j to Re[(A + i s_j M)^-1] w_j in closed form;
    the rows are in slot order, (..., shifts, n_x), and any leading axes
    are a batch.

    With E = tridiag(1, 0, 1) of size N - 1 and P the centre-to-corner
    incidence, the shifted stencils give per shift K_cc = alpha I,
    K_cg = beta P and K_gg = gamma0 I + gamma1 (E x I + I x E) (in d = 1,
    gamma0 I + gamma1 E and no centres, so only Re(1 / lam) of each
    eigenvalue lam reaches the output and the solve is real). Since
    P^T P = (E + 2I) x (E + 2I), condensing the centres leaves the grid
    Schur complement K_gg - (beta^2 / alpha) (E + 2I) x (E + 2I), which the
    orthonormal sine matrix S_pi = sqrt(2/N) sin(p i pi / N) diagonalizes on
    each axis, E's eigenvalues being 2 - sigma_p, sigma_p = 4 sin^2(p pi / 2N):
    the tensor-product direct method of Lynch, Rice and Thomas (1964),
    batched over the shifts. The eigenvalues are polynomials in sigma whose
    constant terms, formed from the stencil sums, are exactly 0 for the
    stiffness at shift 0, so the smallest keep their relative accuracy.
    """
    n, d = stencils.n, stencils.grid.ndim
    scale = 1j * shifts if shifts.any() else shifts  # all shifts 0: real
    gamma0, alpha, gamma1, beta = (
        (s + t * scale).reshape(-1, *(1,) * d)
        for s, t in zip(stencils.stiffness, stencils.mass)
    )
    sigma = _sigma(n)
    if d == 1:  # 1 / (Re lam + Im lam^2 / Re lam) = Re(1 / lam)
        lam = (gamma0 + 2.0 * gamma1) - gamma1 * sigma
        lam = lam.real + lam.imag**2 / lam.real
    else:
        ratio = beta / alpha
        b_r = beta * ratio
        lam = gamma0 + 4.0 * gamma1 - 16.0 * b_r - b_r * np.outer(sigma, sigma)
        lam -= (gamma1 - 4.0 * b_r) * np.add.outer(sigma, sigma)

    def transform(x):  # the sine matrix on each space axis, one GEMM per axis
        rows = math.prod(x.shape[:-1])  # not -1: with N = 1 x is empty
        for _ in range(d):
            x = (x.reshape(rows, n - 1) @ stencils.sine).reshape(x.shape)
            if d == 2:  # S X S = ((X S)^T S)^T, S symmetric
                x = x.swapaxes(-1, -2)
        return x

    def solve(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        rhs, w_c = stencils.parts(w)
        out_g, out_c = stencils.parts(out)
        if d == 2:
            rhs = rhs - ratio * _box(w_c)
        x = transform(transform(rhs) / lam)
        out_g[...] = x.real
        if d == 2:
            out_c[...] = ((w_c - beta * _box(_bordered(x))) / alpha).real
        return out

    return solve
