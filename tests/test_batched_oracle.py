"""Batched stability-oracle checks against the per-sample loops they replaced.

The reference helpers below are the earlier implementations, kept as the
definition of the quantities: one `heat_evolve` (a fresh SpectralField) per
sample time, reduced by `l2_norm` or `hbeta_norm`. The batched checks must
reproduce them bit for bit.
"""

import math

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
    (field,) = random_spectral_fields(1, d=d, n_max=n_max, seed=seed)
    # the same field with zero coefficients: they must stay exactly zero
    c = field.coeffs.copy()
    c[::3] = 0.0
    return [field, SpectralField(d, field.modes, c)]


SUITES = [(d, n_max) for d in (1, 2) for n_max in (3, 8, 20)]


@pytest.mark.parametrize("d,n_max", SUITES)
@pytest.mark.parametrize("T", [0.1, 1.0, 2.0])
class TestChecksBitwise:
    def test_log_convexity(self, d, n_max, T):
        for f in _suite(d, n_max):
            bounds, actuals, m_const = _ref_log_convexity(f, T)
            res = check_log_convexity(f, T)
            assert np.array_equal(res.bound_values, bounds)
            assert np.array_equal(res.actual_values, actuals)
            assert res.max_violation == float(np.max(actuals - bounds))
            assert res.max_ratio == float(np.max(actuals / bounds))
            assert res.constant_m == m_const

    def test_smoothing(self, d, n_max, T):
        for f in _suite(d, n_max):
            constant, t_at_max, values = _ref_smoothing(f, T)
            rep = check_smoothing(f, T)
            assert np.array_equal(rep.values, values)
            assert rep.constant == constant
            assert rep.t_at_max == t_at_max

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    def test_hbeta(self, d, n_max, T, beta):
        for f in _suite(d, n_max):
            bounds, actuals, m_const = _ref_hbeta(f, T, beta)
            res = check_hbeta_stability(f, T, beta)
            assert np.array_equal(res.bound_values, bounds)
            assert np.array_equal(res.actual_values, actuals)
            assert res.max_violation == float(np.max(actuals - bounds))
            assert res.max_ratio == float(np.max(actuals / bounds))
            assert res.constant_m == m_const


@pytest.mark.parametrize("d,n_max", SUITES)
@pytest.mark.parametrize("dt", [-0.005, -0.0, 0.0, 1e-8, 0.3, 2.0])
def test_heat_evolve_bitwise(d, n_max, dt):
    for f in _suite(d, n_max):
        want = _ref_heat_evolve(f, dt).coeffs
        assert np.array_equal(heat_evolve(f, dt).coeffs, want)


def test_batched_rows_are_single_evolutions():
    f = _suite(2, 5)[-1]
    times = np.array([0.0, -1e-3, 0.02, 0.0, 1.0])
    rows = oracle._evolve_coeffs(f, times)
    assert rows.shape == (times.size, f.coeffs.size)
    for t, row in zip(times, rows):
        assert np.array_equal(row, _ref_heat_evolve(f, t).coeffs)
    assert np.array_equal(rows[0], f.coeffs) and np.array_equal(rows[3], f.coeffs)
    assert np.all(rows[:, f.coeffs == 0.0] == 0.0)


def test_batched_overflow_names_the_limit():
    f = SpectralField(1, np.array([[10]]), np.array([1.0]))
    with pytest.raises(OverflowError, match="past 1e300"):
        oracle._evolve_coeffs(f, [0.0, 0.5, -10.0])
    # the guard looks at evolved rows only: t = 0 returns the field as is
    huge = SpectralField(1, np.array([[1]]), np.array([1e305]))
    assert math.log(1e305) > oracle._EXP_LIMIT
    assert heat_evolve(huge, 0.0).coeffs[0] == 1e305
    with pytest.raises(OverflowError):
        heat_evolve(huge, 1e-12)


class TestEvolutionCallCount:
    """Each check evolves its field a fixed number of times, whatever n_samples."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"n": 0}
        batched = oracle._evolve_coeffs

        def counting(field, times):
            counter["n"] += 1
            return batched(field, times)

        monkeypatch.setattr(oracle, "_evolve_coeffs", counting)
        return counter

    @pytest.mark.parametrize(
        "check",
        [
            lambda f, n: check_log_convexity(f, 1.0, n_samples=n),
            lambda f, n: check_smoothing(f, 1.0, n_samples=n),
            lambda f, n: check_hbeta_stability(f, 1.0, 0.5, n_samples=n),
        ],
        ids=["log_convexity", "smoothing", "hbeta"],
    )
    def test_independent_of_samples(self, calls, check):
        field = random_spectral_fields(1, d=2, n_max=4, seed=1)[0]
        counts = []
        for n in (10, 1000):
            calls["n"] = 0
            check(field, n)
            counts.append(calls["n"])
        assert counts[0] == counts[1] <= 2
