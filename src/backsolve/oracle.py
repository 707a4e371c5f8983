"""Exact sine-series heat solutions on the unit box, used as ground truth.

Everything here is closed-form: evolution multiplies coefficients by
exponentials, norms are weighted coefficient sums. The checks quantify the
conditional stability statements (log-convexity of the slice norm, the 1/t
smoothing bound, fractional-order bounds and their decay rates) so the
finite element side of the package can be tested against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # loaded here, not inside a study's run

_EXP_LIMIT = math.log(1e300)


@dataclass(frozen=True)
class SpectralField:
    """Finite sine series sum_k c_k prod_i sin(k_i pi x_i) on (0,1)^d.

    coeffs may carry a leading stack axis: shape (count, m) holds count
    series on the one mode set, validated once. Every function here then
    answers per series, and the checks take the maximum over series too.
    """

    dimension: int
    modes: np.ndarray  # (m, d) integer multi-indices, entries >= 1
    coeffs: np.ndarray  # (m,), or (count, m) for a stack of series

    def __post_init__(self):
        modes = np.atleast_2d(np.asarray(self.modes, dtype=np.int64))
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        m = modes.shape[0]
        shape_ok = modes.shape[1] == self.dimension and coeffs.shape[-1] == m
        if not shape_ok or coeffs.ndim > 2 or coeffs.size == 0:
            raise ValueError(
                f"modes/coeffs shape mismatch: {modes.shape} modes, "
                f"{coeffs.shape} coeffs; want (m,) or a (count, m) stack"
            )
        if np.any(modes < 1):
            raise ValueError("mode indices must be >= 1")
        rows = modes[np.lexsort(modes.T)]  # np.unique would load numpy.ma
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("duplicate modes break the Parseval bookkeeping")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def eigenvalues(self) -> np.ndarray:
        return math.pi**2 * np.sum(self.modes.astype(float) ** 2, axis=1)

    def l2_norm(self):
        """Parseval norm: a float, or one per series of a stack."""
        return hbeta_norm(self, 0.0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(self.coeffs.shape[:-1] + (x.shape[0],))
        for k, c in zip(self.modes, self.coeffs.T):
            basis = np.prod(np.sin(math.pi * k[None, :] * x), axis=1)
            out += np.multiply.outer(c, basis)
        return out


def _per_series(field: SpectralField, values):
    """values hold one leading entry per series; a single field (1-D
    coeffs) gets its one entry back, as a float when that is a scalar."""
    if field.coeffs.ndim > 1:
        return values
    return float(values[0]) if np.ndim(values) == 1 else values[0]


def _decay_table(field: SpectralField, times) -> np.ndarray:
    """(times, modes) table exp(-2 lambda t) of squared decay factors, every
    entry in [0, 1] for t >= 0; built once per check for the whole stack."""
    return np.exp(np.multiply.outer(times, -2.0 * field.eigenvalues))


def _evolved_norms(field: SpectralField, table, weights=None) -> np.ndarray:
    """(series, times) norms sqrt(sum_k w_k c_k^2 exp(-2 lambda_k t) / 2^d).

    einsum's own loop, not BLAS: an entry's summation order does not depend
    on the stack's size, so a stack's norms are its series' norms bit for
    bit, at any BLAS thread count.
    """
    sq = np.atleast_2d(field.coeffs) ** 2
    if weights is not None:
        sq *= weights
    norms = np.einsum("sm,tm->st", sq, table)
    norms /= 2**field.dimension
    return np.sqrt(norms, out=norms)


def heat_evolve(field: SpectralField, dt: float) -> SpectralField:
    """Semigroup action: forward for dt >= 0, backward (amplifying) for dt < 0."""
    coeffs = field.coeffs.copy()
    # exp(log|c|) does not round-trip, so dt = 0 keeps the coefficients exactly
    if dt != 0.0:
        # work in log magnitude: exp(-lam*dt) alone may overflow even when
        # the scaled coefficient is representable; a zero coefficient has
        # log magnitude -inf and stays exactly zero
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(coeffs)) - field.eigenvalues * dt
        if np.any(log_mag > _EXP_LIMIT):
            raise OverflowError("backward evolution blew a coefficient past 1e300")
        coeffs = np.exp(log_mag) * np.sign(coeffs)
    return SpectralField(field.dimension, field.modes, coeffs)


def time_derivative(field: SpectralField) -> SpectralField:
    return SpectralField(
        field.dimension, field.modes, -field.eigenvalues * field.coeffs
    )


def hbeta_norm(field: SpectralField, beta: float):
    """Spectral fractional Sobolev norm (sum of lambda^beta c^2 / 2^d)^(1/2):
    a float, or one per series of a stack."""
    if beta < 0.0 or beta > 2.0:
        raise ValueError("beta must lie in [0, 2]")
    sq = np.sum(field.eigenvalues**beta * np.atleast_2d(field.coeffs) ** 2, axis=1)
    return _per_series(field, np.sqrt(sq / 2**field.dimension))


@dataclass(frozen=True)
class StabilityCheckResult:
    """For a stack, bound_values and actual_values gain a leading series
    axis, constant_m holds one value per series, and the maxima run over
    series and samples."""

    max_violation: float  # max over samples of actual - bound
    max_ratio: float  # max over samples of actual / bound
    sample_times: np.ndarray
    omega: np.ndarray  # omega(t) = t/T at the samples
    bound_values: np.ndarray
    actual_values: np.ndarray
    elliptic_regularity_gain: float  # the (1 + gain) exponent; 2 on the box
    beta: float
    constant_m: float


def _check_horizon(T: float) -> None:
    """The checks sample (0, T] forward in time; T <= 0 would evolve
    backward or divide by zero."""
    if not T > 0.0:
        raise ValueError(f"T must be positive, got T = {T:g}")


def _start_norms(field: SpectralField, norms=None) -> np.ndarray:
    """(series, 1) column of ||u(0)||, l2_norm's unless norms are given; an
    all-zero series has no bound to check, and one whose norm underflows
    to 0 would divide by it."""
    zero = ~np.any(np.atleast_2d(field.coeffs) != 0.0, axis=1)
    if np.any(zero):
        where = f" (series {int(np.argmax(zero))})" if field.coeffs.ndim > 1 else ""
        raise ValueError(f"field is identically zero{where}")
    norms = np.atleast_1d(field.l2_norm() if norms is None else norms)
    if np.any(norms == 0.0):
        raise ValueError("||u(0)|| underflows to 0; scale the coefficients up")
    return norms[:, None]


def _end_norms(field: SpectralField, T: float, norms=None) -> np.ndarray:
    """(series, 1) column of ||u(T)||, heat_evolve's unless norms are given;
    one that underflows to 0 would turn the bounds into false violations or
    NaN ratios, so it raises."""
    norms = np.atleast_1d(heat_evolve(field, T).l2_norm() if norms is None else norms)
    if np.any(norms == 0.0):
        raise ValueError(f"||u(T)|| underflows to 0 at T = {T:g}; take a shorter T")
    return norms[:, None]


def _stability_result(field, times, omega, bounds, actuals, gain, beta, m_const):
    return StabilityCheckResult(
        max_violation=float(np.max(actuals - bounds)),
        max_ratio=float(np.max(actuals / bounds)),
        sample_times=times,
        omega=omega,
        bound_values=_per_series(field, bounds),
        actual_values=_per_series(field, actuals),
        elliptic_regularity_gain=gain,
        beta=beta,
        constant_m=_per_series(field, m_const[:, 0]),
    )


def check_log_convexity(
    field: SpectralField, T: float, n_samples: int = 200
) -> StabilityCheckResult:
    """Interpolation bound for slice norms of a homogeneous evolution.

    Verifies ||u(t)|| <= ||u(0)||^(1-t/T) ||u(T)||^(t/T) at sampled times;
    a single mode saturates it, multi-mode fields satisfy it strictly.
    ||u(0)|| and ||u(T)|| are the first and last sampled norms, so the bound
    holds with equality, bit for bit, at both ends.
    """
    _check_horizon(T)
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    times = np.linspace(0.0, T, n_samples)
    actuals = _evolved_norms(field, _decay_table(field, times))
    norm0 = _start_norms(field, actuals[:, 0])
    norm_t = _end_norms(field, T, actuals[:, -1])
    omega = times / T
    bounds = norm0 ** (1.0 - omega) * norm_t**omega
    m_const = np.maximum(norm0, norm_t + 1.0)
    return _stability_result(field, times, omega, bounds, actuals, 2.0, 0.0, m_const)


@dataclass(frozen=True)
class SmoothingReport:
    constant: float  # sup over samples (and series) of t ||u'(t)|| / ||u(0)||
    t_at_max: float
    sample_times: np.ndarray
    values: np.ndarray  # (series, samples) for a stack


def _sample_times_with_critical(field: SpectralField, T: float, n: int) -> np.ndarray:
    # log-spaced sweep plus each mode's critical time 1/lambda, where the
    # per-mode envelope t*lambda*exp(-lambda t) peaks
    sweep = np.geomspace(1e-8 * T, T, n)
    crit = 1.0 / field.eigenvalues
    times = np.sort(np.concatenate([sweep, crit[crit <= T]]))
    return times[np.append(True, times[1:] != times[:-1])]  # np.unique's values


def check_smoothing(field: SpectralField, T: float, n_samples: int = 400) -> SmoothingReport:
    """Parabolic smoothing: t ||du/dt(t)|| stays below ||u(0)|| / e.

    Per mode the envelope t*lambda*exp(-lambda*t) peaks at exactly 1/e, so
    the measured constant is 1/e for a single mode and never exceeds 1/e.
    """
    _check_horizon(T)
    norm0 = _start_norms(field)
    times = _sample_times_with_critical(field, T, n_samples)
    table = _decay_table(field, times)
    values = times * _evolved_norms(time_derivative(field), table) / norm0
    best = int(np.argmax(values))
    return SmoothingReport(
        float(values.flat[best]),
        float(times[best % times.size]),
        times,
        _per_series(field, values),
    )


def check_hbeta_stability(
    field: SpectralField, T: float, beta: float, n_samples: int = 400
) -> StabilityCheckResult:
    """Fractional-norm conditional stability with the M-normalized bound

        bound(t) = t^(-beta/2) * M * (||u(T)||/M)^((1 - beta/2) t/T),

    M = max(||u(0)||, ||u(T)||+1). The implied constant of the estimate is
    reported as the measured supremum of actual/bound; for a single mode
    with ||u(0)|| >= ||u(T)|| + 1 (so that M = ||u(0)||) that supremum
    equals exp(-beta/2) in closed form, attained at t = 1/lambda.
    """
    _check_horizon(T)
    if beta < 0.0 or beta >= 2.0:
        raise ValueError("beta must lie in [0, 2)")
    norm0 = _start_norms(field)
    gain = 2.0  # (1 + epsilon)-regularity exponent of the unit box
    times = _sample_times_with_critical(field, T, n_samples)
    norm_t = _end_norms(field, T)
    m_const = np.maximum(norm0, norm_t + 1.0)
    omega = times / T
    bounds = (
        times ** (-beta / gain)
        * m_const
        * (norm_t / m_const) ** ((1.0 - beta / gain) * omega)
    )
    actuals = _evolved_norms(field, _decay_table(field, times), field.eigenvalues**beta)
    return _stability_result(field, times, omega, bounds, actuals, gain, beta, m_const)


def single_mode_hbeta_ratio_exact(beta: float) -> float:
    """Closed-form sup of actual/bound for one mode: exp(-beta/2).

    Requires ||u(0)|| >= ||u(T)|| + 1 so the normalization constant in
    check_hbeta_stability reduces to ||u(0)||, and 1/lambda <= T so the
    maximizing time lies inside the window.
    """
    return math.exp(-beta / 2.0)


def decay_rate_fit(
    beta: float, mode_numbers, T: float = 1.0, d: int = 1
) -> tuple[float, np.ndarray, np.ndarray]:
    """Fit the decay of the space-time fractional norm against -log||u(T)||.

    For unit-coefficient single modes the squared norm over (0,T) is
    lambda^(beta-1) (1 - exp(-2 lambda T)) / 2^(d+1); as the end-time norm
    goes to zero the log-log slope should approach -(1-beta)/2 (linear
    omega, full regularity gain). Returns (slope, x, y) with
    x = -log||u(T)|| and y the space-time norms.
    """
    xs, ys = [], []
    for n in mode_numbers:
        mode = np.full((1, d), int(n))
        field = SpectralField(d, mode, np.ones(1))
        lam = float(field.eigenvalues[0])
        # -log||u(T)|| computed in closed form; evolving the field and
        # taking the norm would underflow once lam*T passes ~350
        log_end = math.log(field.l2_norm()) - lam * T
        if log_end >= 0.0:
            raise ValueError(f"mode {n}: end-time norm has not decayed yet")
        norm_sq = lam ** (beta - 1.0) * (1.0 - math.exp(-2.0 * lam * T)) / 2 ** (d + 1)
        xs.append(-log_end)
        ys.append(math.sqrt(norm_sq))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return slope, xs, ys


def random_spectral_fields(count: int, d: int, n_max: int, seed) -> SpectralField:
    """Seeded stack of count dense-spectrum series on the n_max^d modes, with
    uniform(-1,1) coefficients: one draw, row for row the count draws of
    one series each."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rng = default_rng(seed)
    axes = [np.arange(1, n_max + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return SpectralField(d, grid, rng.uniform(-1.0, 1.0, (count, grid.shape[0])))


def mode_perturbation(n: int, T: float, amplitude: float, d: int) -> SpectralField:
    """End-time footprint of the diagonal mode that decays backward in time.

    The returned field on (0,1)^d is amplitude * w(T, .) where w is the
    caloric field with w(1, .) the unit-coefficient (n, ..., n) sine mode;
    its source-time coefficient exp(d (n pi)^2 (1 - T)) is what makes small
    end-time noise catastrophic for the reconstruction.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    exponent = d * (n * math.pi) ** 2 * (1.0 - T)
    if exponent > _EXP_LIMIT:
        raise OverflowError("perturbation coefficient exceeds 1e300")
    coeff = amplitude * math.exp(exponent)
    return SpectralField(d, np.array([[n] * d]), np.array([coeff]))


def random_perturbation(stencils, target_norm: float, seed) -> np.ndarray:
    """Nodal coefficients of a random field rescaled to an exact L2(Omega)
    norm, in the slot order of stencils, the space's SpaceStencils: drawn
    in dof order, gathered, and normalized through the mass stencils."""
    if target_norm <= 0.0:
        raise ValueError("target_norm must be positive")
    rng = default_rng(seed)
    coeffs = stencils.gather(rng.uniform(-1.0, 1.0, stencils.slots.size))
    nrm = math.sqrt(float(coeffs @ stencils.product((stencils.mass, coeffs))))
    return coeffs * (target_norm / nrm)
