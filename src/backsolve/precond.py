"""Riesz-map preconditioner and the test stiffness solve.

The trial stiffness and mass are stencils, four constants each, known in
closed form on the only meshes the solver builds (space_stencils, which
checks the mesh and assembles nothing). The stencils apply them in slot
order, the order of every vector of the solve (SpaceStencils.product),
and carry their common eigenbasis, also in closed form (space_modes). So
the exact trial-space lift (make_G_X) and the l = 0 A_test solve
(stiffness_solve) are transforms, a divide and the transforms back, and
the l = 0 solve runs in these modes (backsolve.solver). The test-space
Gram is the identity in time times A_test, so no test-space lift is built;
at l = 1 make_G_Y factors the P2 A_test once, the only use of scipy here.
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
    """Solve with the trial stiffness A, back(forward(w) / a) in the space
    modes of stencils, on a vector or rows (..., n_x) in slot order."""
    a, _, forward, back = stencils.modes
    return lambda w: back(forward(w) / a)


def make_G_X(time_mesh: TimeMesh, stencils: SpaceStencils) -> RieszPreconditioner:
    """Exact trial-space Riesz lift in the tensor modes Z x V, Z the time
    modes (_time_modes) and V the space modes of stencils (space_modes):
    there the Gram M_t x A + K_t x M A^-1 M is lam = a + theta x m^2 / a,
    so the lift transforms, divides by lam and transforms back. It takes a
    slot-order vector or a block of them as columns (n, k); a block runs
    one batch of transforms, with the columns on a leading axis.
    """
    theta, zt = _time_modes(time_mesh)
    a, m, forward, back = stencils.modes
    lam = a + np.outer(theta, m * m / a)

    def apply(f: np.ndarray) -> np.ndarray:
        block = f.shape[1:]  # () for a vector, (k,) for k columns
        modes = zt.T @ f.T.reshape(*block, theta.size, -1)
        return (zt @ back(forward(modes) / lam)).reshape(*block, -1).T

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
    """(a, m, forward, back): the trial A and M in one eigenbasis V, in
    closed form: V^T A V = diag(a), V^T M V = diag(m); forward maps
    slot-order rows y (..., n_x) to V^T y, back maps mode rows x to V x.

    The sine matrix S (_sine) takes E = tridiag(1, 0, 1) of size N - 1 to
    2 - sigma_p, sigma_p = 4 sin^2(p pi / 2N): at d = 1 V = S, and A or M,
    c0 I + c1 E, has the eigenvalues (c0 + 2 c1) - c1 sigma_p. At d = 2 A or
    M is gamma0 I + gamma1 (E x I + I x E) on the grid, alpha I on the
    centres and beta P between, P the centre-to-corner incidence. S on each
    grid axis and the DST-II C (_dst2) on each centre axis leave one 2 x 2
    block [[g, b], [b, alpha]] per mode (p, q), p, q < N, with g = gamma0 +
    gamma1 (4 - sigma_p - sigma_q) and b = 4 beta cos(p pi / 2N)
    cos(q pi / 2N), and a 1 x 1 block alpha per centre mode with p or q = N
    (Lynch, Rice and Thomas, 1964). The 2 x 2 determinant, (gamma0 alpha +
    4 gamma1 alpha - 16 beta^2) - (gamma1 alpha - 4 beta^2)(sigma_p +
    sigma_q) - beta^2 sigma_p sigma_q, has a constant term exactly 0 for A.
    Of each pencil the larger eigenvalue is the quadratic formula's and the
    smaller det_A / (det_M larger), so the small ones keep their relative
    accuracy. The vectors, read off a row of A - lam M, are normalized in M
    (m = 1); mode (p, q)'s smaller eigenvalue takes its grid slot, the
    larger its centre slot.
    """
    n, sine = stencils.n, _sine(stencils.n)
    sigma = 4.0 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    if stencils.grid.ndim == 1:
        def transform(y):  # S is symmetric: forward and back, one GEMM
            rows = math.prod(y.shape[:-1])  # not -1: with N = 1 y is empty
            return (y.reshape(rows, n - 1) @ sine).reshape(y.shape)

        pair = (stencils.stiffness, stencils.mass)
        a, m = ((c0 + 2.0 * c1) - c1 * sigma for c0, _, c1, _ in pair)
        return a, m, transform, transform

    s_sum, s_prod = np.add.outer(sigma, sigma), np.outer(sigma, sigma)
    cos = np.cos(np.pi * np.arange(1, n) / (2 * n))

    def block(g0, alpha, g1, beta):  # (g, b, alpha, det) of A's or M's blocks
        const = g0 * alpha + 4.0 * g1 * alpha - 16.0 * beta**2
        det = const - (g1 * alpha - 4.0 * beta**2) * s_sum - beta**2 * s_prod
        return (g0 + 4.0 * g1) - g1 * s_sum, 4.0 * beta * np.outer(cos, cos), alpha, det

    g_a, b_a, al_a, det_a = block(*stencils.stiffness)
    g_m, b_m, al_m, det_m = block(*stencils.mass)
    trace = g_a * al_m + g_m * al_a - 2.0 * b_a * b_m
    big = (trace + np.sqrt(trace * trace - 4.0 * det_m * det_a)) / (2.0 * det_m)
    small = det_a / (det_m * big)
    # grid parts u and centre parts v of the vectors (smaller, larger),
    # normal to the second row of A - small M and the first of A - big M
    u = np.array([al_a - small * al_m, big * b_m - b_a])
    v = np.array([small * b_m - b_a, g_a - big * g_m])
    norm = np.sqrt(g_m * u * u + 2.0 * b_m * u * v + al_m * v * v)
    # C scaled by alpha_M^(-1/4) on each axis gives the centre modes unit M
    # norm, so the 1 x 1 blocks need no scaling and v is taken in them
    (lo_g, hi_g), (lo_c, hi_c) = u / norm, v * (math.sqrt(al_m) / norm)
    dst2 = _dst2(n) * al_m**-0.25
    a = np.append(small, np.pad(big, (0, 1), constant_values=al_a / al_m))

    def forward(y):  # the transforms, then each block's V^T
        grid, centres = stencils.parts(y)
        grid, centres = sine @ grid @ sine, dst2 @ centres @ dst2.T
        pair = centres[..., :-1, :-1].copy()
        centres[..., :-1, :-1] = hi_g * grid + hi_c * pair
        return _joined(lo_g * grid + lo_c * pair, centres)

    def back(x):  # each block's V, then the transforms back
        x_g, x_c = stencils.parts(x)
        pair, centres = x_c[..., :-1, :-1], x_c.copy()
        centres[..., :-1, :-1] = lo_c * x_g + hi_c * pair
        grid = lo_g * x_g + hi_g * pair
        return _joined(sine @ grid @ sine, dst2.T @ centres @ dst2)

    return a, np.ones_like(a), forward, back


class SpaceStencils(NamedTuple):
    """The trial dofs of a supported mesh on their lattice, and the stencil
    constants of the trial stiffness and mass (space_stencils).

    Slot order lists the grid dofs, row-major, then in d = 2 the square
    centres: slots[s] is the dof in slot s and rank its inverse. gather
    takes rows (..., n_x) from dof to slot order and scatter back; parts
    views slot-order rows as grid (..., N - 1[, N - 1]) and centre
    (..., N, N) arrays. The constants are one per class of entries: grid
    diagonal, centre diagonal, axis neighbours, centre-corner pairs; modes
    is their space_modes, built once per stencils.
    """

    n: int
    grid: np.ndarray
    centres: np.ndarray
    stiffness: tuple
    mass: tuple
    modes: tuple
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
    stencils = SpaceStencils(n, grid, centres, stiffness, mass, (), slots, rank)
    return stencils._replace(modes=space_modes(stencils))


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


def _dst2(n: int) -> np.ndarray:
    """The orthonormal DST-II matrix sqrt(2/N) sin(p (2c + 1) pi / 2N),
    p = 1..N, c = 0..N-1, its row N scaled by 1/sqrt(2), with p (2c + 1)
    reduced mod 4N before it is scaled by pi / 2N."""
    odd = np.outer(np.arange(1, n + 1), 2 * np.arange(n) + 1) % (4 * n)
    table = math.sqrt(2.0 / n) * np.sin(np.pi * odd / (2 * n))
    table[-1] *= math.sqrt(0.5)
    return table


def _joined(grid: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Slot-order rows of their grid and centre parts (SpaceStencils.parts)."""
    lead = centres.shape[:-2]
    return np.concatenate([grid.reshape(*lead, -1), centres.reshape(*lead, -1)], -1)
