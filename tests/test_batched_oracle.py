"""Batched stability-oracle checks against the per-sample loops they replaced.

The reference helpers below are the earlier implementations, kept as the
definition of the quantities: one `heat_evolve` (a fresh SpectralField) per
sample time, reduced by `l2_norm` or `hbeta_norm`. `heat_evolve` must
reproduce the reference evolution bit for bit. The checks square a decay
table exp(-2 lambda t) where the reference squares exp(log|c| - lambda t),
so they agree with the reference to within ULPS units in the last place,
entry by entry (at most 31 over the suites below). A check of a stacked
field must reproduce the checks of its series one by one, bit for bit.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from backsolve import oracle
from backsolve.oracle import (
    SpectralField,
    _sample_times_with_critical,
    check_hbeta_stability,
    check_log_convexity,
    check_smoothing,
    hbeta_norm,
    heat_evolve,
    random_spectral_fields,
    time_derivative,
)


def _ref_heat_evolve(field, dt):
    if dt == 0.0:
        return SpectralField(field.dimension, field.modes, field.coeffs.copy())
    lam = field.eigenvalues
    out = np.zeros_like(field.coeffs)
    nz = field.coeffs != 0.0
    log_mag = np.log(np.abs(field.coeffs[nz])) - lam[nz] * dt
    if np.any(log_mag > oracle._EXP_LIMIT):
        raise OverflowError("backward evolution blew a coefficient past 1e300")
    out[nz] = np.sign(field.coeffs[nz]) * np.exp(log_mag)
    return SpectralField(field.dimension, field.modes, out)


def _ref_log_convexity(field, T, n_samples=200):
    times = np.linspace(0.0, T, n_samples)
    norm0 = field.l2_norm()
    norm_t = _ref_heat_evolve(field, T).l2_norm()
    omega = times / T
    bounds = norm0 ** (1.0 - omega) * norm_t**omega
    actuals = np.array([_ref_heat_evolve(field, t).l2_norm() for t in times])
    return bounds, actuals, max(norm0, norm_t + 1.0)


def _ref_smoothing(field, T, n_samples=400):
    times = _sample_times_with_critical(field, T, n_samples)
    norm0 = field.l2_norm()
    ddt = time_derivative(field)
    values = np.array(
        [t * _ref_heat_evolve(ddt, t).l2_norm() / norm0 for t in times]
    )
    best = int(np.argmax(values))
    return float(values[best]), float(times[best]), values


def _ref_hbeta(field, T, beta, n_samples=400):
    gain = 2.0
    times = _sample_times_with_critical(field, T, n_samples)
    norm0 = field.l2_norm()
    norm_t = _ref_heat_evolve(field, T).l2_norm()
    m_const = max(norm0, norm_t + 1.0)
    omega = times / T
    bounds = (
        times ** (-beta / gain)
        * m_const
        * (norm_t / m_const) ** ((1.0 - beta / gain) * omega)
    )
    actuals = np.array(
        [hbeta_norm(_ref_heat_evolve(field, t), beta) for t in times]
    )
    return bounds, actuals, m_const


def _suite(d, n_max, seed=3):
    field = random_spectral_fields(1, d=d, n_max=n_max, seed=seed)
    # the same series with zero coefficients: they must stay exactly zero
    c = field.coeffs[0].copy()
    c[::3] = 0.0
    return SpectralField(d, field.modes, np.vstack([field.coeffs, c]))


def _series(stack):
    """The series of a stacked field, each as a field of its own."""
    return [SpectralField(stack.dimension, stack.modes, c) for c in stack.coeffs]


SUITES = [(d, n_max) for d in (1, 2) for n_max in (3, 8, 20)]

ULPS = 64


def _assert_ulps(got, want):
    """Entry by entry, got is within ULPS units in the last place of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.abs(got - want)
    assert np.all(err <= ULPS * np.finfo(float).eps * np.abs(want)), np.max(err)


def _assert_result(res, bounds, actuals, m_const):
    """A StabilityCheckResult against the reference's arrays, its maxima
    against its own arrays."""
    _assert_ulps(res.bound_values, bounds)
    _assert_ulps(res.actual_values, actuals)
    _assert_ulps(res.constant_m, m_const)
    assert res.max_violation == float(np.max(res.actual_values - res.bound_values))
    assert res.max_ratio == float(np.max(res.actual_values / res.bound_values))


@pytest.mark.parametrize("d,n_max", SUITES)
@pytest.mark.parametrize("T", [0.1, 1.0, 2.0])
class TestChecksAgainstReference:
    def test_log_convexity(self, d, n_max, T):
        for f in _series(_suite(d, n_max)):
            res = check_log_convexity(f, T)
            _assert_result(res, *_ref_log_convexity(f, T))

    def test_smoothing(self, d, n_max, T):
        for f in _series(_suite(d, n_max)):
            constant, t_at_max, values = _ref_smoothing(f, T)
            rep = check_smoothing(f, T)
            _assert_ulps(rep.values, values)
            _assert_ulps(rep.constant, constant)
            assert rep.t_at_max == t_at_max

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    def test_hbeta(self, d, n_max, T, beta):
        for f in _series(_suite(d, n_max)):
            res = check_hbeta_stability(f, T, beta)
            _assert_result(res, *_ref_hbeta(f, T, beta))


@pytest.mark.parametrize("d,n_max", SUITES)
@pytest.mark.parametrize("dt", [-0.005, -0.0, 0.0, 1e-8, 0.3, 2.0])
def test_heat_evolve_bitwise(d, n_max, dt):
    for f in _series(_suite(d, n_max)):
        want = _ref_heat_evolve(f, dt).coeffs
        assert np.array_equal(heat_evolve(f, dt).coeffs, want)


def test_batched_rows_are_single_evolutions():
    stack = _suite(2, 5)
    zero = stack.coeffs == 0.0
    for t in (0.0, -1e-3, 0.02, 1.0):
        rows = heat_evolve(stack, t).coeffs
        assert rows.shape == stack.coeffs.shape
        for row, f in zip(rows, _series(stack)):
            assert np.array_equal(row, _ref_heat_evolve(f, t).coeffs)
        assert np.all(rows[zero] == 0.0)
    assert np.array_equal(heat_evolve(stack, 0.0).coeffs, stack.coeffs)


def test_end_norm_underflow_names_T():
    # ||u(T)|| = 2 exp(-2 pi^2 T) squares below the smallest double at T = 30
    one_mode = SpectralField(2, np.array([[1, 1]]), np.array([4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"underflows to 0 at T = 30"):
            check_log_convexity(one_mode, 30.0)
        with pytest.raises(ValueError, match=r"underflows to 0 at T = 30"):
            check_hbeta_stability(one_mode, 30.0, 0.5)
    # at T = 1 nothing underflows and both checks agree with the reference
    res = check_log_convexity(one_mode, 1.0)
    _assert_result(res, *_ref_log_convexity(one_mode, 1.0))
    res = check_hbeta_stability(one_mode, 1.0, 0.5)
    _assert_result(res, *_ref_hbeta(one_mode, 1.0, 0.5))


@pytest.mark.parametrize("T", [0.0, -0.5])
@pytest.mark.parametrize(
    "check",
    [check_log_convexity, check_smoothing, lambda f, T: check_hbeta_stability(f, T, 0.5)],
    ids=["log_convexity", "smoothing", "hbeta"],
)
def test_nonpositive_T_raises(check, T):
    # T = 0 divided by zero and T < 0 evolved backward, reporting a pass
    field = _suite(2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"T must be positive, got T = {T:g}$"):
            check(field, T)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
def test_log_convexity_bound_is_exact_at_both_ends(T):
    # ||u(0)|| and ||u(T)|| are read from the sampled norms themselves, so
    # a strictly convex suite's largest violation is exactly 0
    stack = random_spectral_fields(100, d=2, n_max=8, seed=7)
    res = check_log_convexity(stack, T)
    ends = [0, -1]
    assert np.array_equal(res.bound_values[:, ends], res.actual_values[:, ends])
    assert res.max_violation == 0.0


def test_log_convexity_needs_both_ends():
    # ||u(0)|| and ||u(T)|| are the first and last samples
    with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
        check_log_convexity(_suite(1, 3), 1.0, n_samples=1)


@pytest.mark.parametrize(
    "check", [check_log_convexity, check_smoothing], ids=["log_convexity", "smoothing"]
)
def test_start_norm_underflow_raises(check):
    # the coefficient is nonzero, but its square underflows
    tiny = SpectralField(1, np.array([[1]]), np.array([1e-170]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|\|u\(0\)\|\| underflows to 0"):
            check(tiny, 1.0)


def test_batched_overflow_names_the_limit():
    # lambda = 100 pi^2: at dt = -0.7 the unit series passes 1e300 and the
    # tiny one stays finite, so the stack raises for the one series
    stack = SpectralField(1, np.array([[10]]), np.array([[1.0], [1e-300]]))
    tiny = _series(stack)[1]
    assert np.isfinite(heat_evolve(tiny, -0.7).coeffs[0])
    with pytest.raises(OverflowError, match="past 1e300"):
        heat_evolve(stack, -0.7)
    # the guard looks at evolved rows only: t = 0 returns the field as is
    huge = SpectralField(1, np.array([[1]]), np.array([1e305]))
    assert math.log(1e305) > oracle._EXP_LIMIT
    assert heat_evolve(huge, 0.0).coeffs[0] == 1e305
    with pytest.raises(OverflowError):
        heat_evolve(huge, 1e-12)


CHECKS = pytest.mark.parametrize(
    "check",
    [
        lambda f, n: check_log_convexity(f, 1.0, n_samples=n),
        lambda f, n: check_smoothing(f, 1.0, n_samples=n),
        lambda f, n: check_hbeta_stability(f, 1.0, 0.5, n_samples=n),
    ],
    ids=["log_convexity", "smoothing", "hbeta"],
)


class TestEvolutionCallCount:
    """Each check builds one times-by-modes decay table and evolves its
    field at most once, whatever n_samples and whatever the stack's size,
    and does its mode-only work once per stack."""

    @CHECKS
    def test_independent_of_samples(self, record_calls, check):
        field = random_spectral_fields(1, d=2, n_max=4, seed=1)
        tables = record_calls(oracle, "_decay_table")
        evolved = record_calls(oracle, "heat_evolve")
        counts = []
        for n in (10, 1000):
            tables.clear()
            evolved.clear()
            check(field, n)
            counts.append((len(tables), len(evolved)))
        assert counts[0] == counts[1]
        assert counts[0][0] == 1 and counts[0][1] <= 1

    @CHECKS
    @pytest.mark.parametrize("count", [1, 100])
    def test_mode_only_work_runs_once_per_stack(self, record_calls, check, count):
        sampled = record_calls(oracle, "_sample_times_with_critical")
        tables = record_calls(oracle, "_decay_table")
        evolved = record_calls(oracle, "heat_evolve")
        check(random_spectral_fields(count, d=2, n_max=8, seed=0), 400)
        assert len(sampled) <= 1
        assert len(tables) == 1
        assert len(evolved) <= 1

    @CHECKS
    def test_no_evolved_array_exceeds_times_by_modes(self, monkeypatch, check):
        count = 100
        stack = random_spectral_fields(count, d=2, n_max=8, seed=0)
        n_modes = stack.modes.shape[0]
        n_times = _sample_times_with_critical(stack, 1.0, 400).size
        tables = []
        decay_table = oracle._decay_table

        def sized(field, times):
            table = decay_table(field, times)
            tables.append(table.size)
            return table

        monkeypatch.setattr(oracle, "_decay_table", sized)
        tracemalloc.start()
        try:
            check(stack, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tables) == 1
        assert tables[0] <= n_times * n_modes
        # a few times-by-modes tables and a few (count, times) norm arrays;
        # one (count, times, modes) array alone would be count tables
        assert peak <= 8 * 10 * (n_times * n_modes + count * n_times)


def _assert_stacked(res, singles):
    """A stacked StabilityCheckResult against the results of its series."""
    assert np.array_equal(res.actual_values, [r.actual_values for r in singles])
    assert np.array_equal(res.bound_values, [r.bound_values for r in singles])
    assert np.array_equal(res.constant_m, [r.constant_m for r in singles])
    assert res.max_violation == max(r.max_violation for r in singles)
    assert res.max_ratio == max(r.max_ratio for r in singles)
    for r in singles:
        assert type(r.constant_m) is float and r.actual_values.ndim == 1


@pytest.mark.parametrize("d,n_max", SUITES)
class TestStackedChecks:
    """A check of a stacked field is the checks of its series, bit for bit."""

    def test_log_convexity(self, d, n_max):
        stack = _suite(d, n_max)
        res = check_log_convexity(stack, 1.0)
        _assert_stacked(res, [check_log_convexity(f, 1.0) for f in _series(stack)])

    def test_hbeta(self, d, n_max):
        stack = _suite(d, n_max)
        res = check_hbeta_stability(stack, 1.0, 0.5)
        singles = [check_hbeta_stability(f, 1.0, 0.5) for f in _series(stack)]
        _assert_stacked(res, singles)

    def test_smoothing(self, d, n_max):
        stack = _suite(d, n_max)
        rep = check_smoothing(stack, 1.0)
        singles = [check_smoothing(f, 1.0) for f in _series(stack)]
        assert np.array_equal(rep.values, [r.values for r in singles])
        assert np.array_equal(rep.sample_times, singles[0].sample_times)
        worst = max(singles, key=lambda r: r.constant)
        assert rep.constant == worst.constant
        assert rep.t_at_max == worst.t_at_max

    def test_field_functions(self, d, n_max):
        stack = _suite(d, n_max)
        series = _series(stack)
        assert np.array_equal(stack.l2_norm(), [f.l2_norm() for f in series])
        assert np.array_equal(
            hbeta_norm(stack, 1.5), [hbeta_norm(f, 1.5) for f in series]
        )
        for dt in (0.0, 0.3, -1e-3):
            evolved = heat_evolve(stack, dt).coeffs
            assert np.array_equal(evolved, [heat_evolve(f, dt).coeffs for f in series])
        ddt = time_derivative(stack).coeffs
        assert np.array_equal(ddt, [time_derivative(f).coeffs for f in series])
        x = np.linspace(0.05, 0.95, 2 * d).reshape(2, d)
        assert np.array_equal(stack.evaluate(x), [f.evaluate(x) for f in series])
        assert type(series[0].l2_norm()) is float


def test_stacked_draw_is_the_sequential_draws():
    stack = random_spectral_fields(7, d=2, n_max=5, seed=11)
    rng = np.random.default_rng(11)
    sequential = [rng.uniform(-1.0, 1.0, 25) for _ in range(7)]
    assert np.array_equal(stack.coeffs, sequential)
