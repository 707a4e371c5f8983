"""Quadrature rules: Gauss-Legendre on (0,1) and symmetric simplex rules.

Triangle rules return barycentric points and weights summing to 1, so
integral over a cell K = area(K) * sum(w * f(x)). Tabulated symmetric rules
cover degree <= 5, the highest any assembly or quadrature asks for; a
higher degree is refused.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.cache
def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on (0,1); exact through degree 2n-1.

    leggauss is an eigen-solve, so each rule is computed once and shared:
    the points and weights are read-only.
    """
    if n < 1:
        raise ValueError("need at least one point")
    x, w = leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_1d_for_degree(degree: int) -> tuple[np.ndarray, np.ndarray]:
    return gauss_1d(max(1, degree // 2 + 1))


def _orbit3(a: float) -> np.ndarray:
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _build_triangle_table():
    t = {}
    t[1] = (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0]))
    t[2] = (_orbit3(1 / 6), np.full(3, 1 / 3))
    pts = np.vstack([_orbit3(0.445948490915965), _orbit3(0.091576213509771)])
    w = np.concatenate(
        [np.full(3, 0.223381589678011), np.full(3, 0.109951743655322)]
    )
    t[4] = (pts, w)
    pts = np.vstack(
        [
            np.array([[1 / 3, 1 / 3, 1 / 3]]),
            _orbit3(0.470142064105115),
            _orbit3(0.101286507323456),
        ]
    )
    w = np.concatenate(
        [
            np.array([0.225]),
            np.full(3, 0.132394152788506),
            np.full(3, 0.125939180544827),
        ]
    )
    t[5] = (pts, w)
    t[3] = t[4]
    return t


_TRIANGLE_TABLE = _build_triangle_table()


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule exact for total polynomial degree `degree` on a triangle."""
    if degree < 1:
        degree = 1
    if degree not in _TRIANGLE_TABLE:
        raise ValueError(
            f"no triangle rule of degree {degree}; the highest tabulated "
            f"degree is {max(_TRIANGLE_TABLE)}"
        )
    return _TRIANGLE_TABLE[degree]
