"""Triangle rules: exactness of each tabulated rule, refusal above the table;
the Gauss-Legendre rules: computed once per point count."""

from math import factorial

import numpy as np
import pytest

from backsolve import quadrature
from backsolve.quadrature import gauss_1d, triangle_rule


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_tabulated_rule_integrates_its_monomials_exactly(degree):
    # on the triangle (0,0), (1,0), (0,1), of area 1/2, x and y are the last
    # two barycentric coordinates and x^a y^b integrates to a! b! / (a+b+2)!
    bary, w = triangle_rule(degree)
    x, y = bary[:, 1], bary[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = 0.5 * np.sum(w * x**a * y**b)
            assert got == pytest.approx(exact, rel=1e-13), (a, b)


def test_degree_above_table_refused():
    # no assembly or quadrature asks for degree 6 or more
    with pytest.raises(ValueError, match="degree 6; the highest tabulated degree is 5"):
        triangle_rule(6)


def test_gauss_rule_computed_once_and_read_only(record_calls):
    gauss_1d.cache_clear()
    solved = record_calls(quadrature, "leggauss")
    first = gauss_1d(4)
    second = gauss_1d(4)
    assert len(solved) == 1
    assert all(a is b for a, b in zip(first, second))
    x, w = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(first[0], 0.5 * (x + 1.0))
    assert np.array_equal(first[1], 0.5 * w)
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    gauss_1d(5)
    assert len(solved) == 2
