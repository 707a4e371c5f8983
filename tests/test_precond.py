"""Riesz lifts: exact inverses of the trial and test space Gram operators."""

import numpy as np
import pytest

from backsolve.mesh import (
    refine_uniform,
    uniform_time_mesh,
    unit_interval_mesh,
    unit_square_initial,
)
from backsolve.operators import gram_X, gram_Y
from backsolve.precond import make_G_X, make_G_Y


def mesh_pair_1d():
    return uniform_time_mesh(0.0, 1.0, 1), unit_interval_mesh(4)


def mesh_pair_2d():
    return (
        uniform_time_mesh(0.0, 1.0, 1),
        refine_uniform(unit_square_initial(), 2),
    )


class TestGYLift:
    @pytest.mark.parametrize("l", [0, 1])
    def test_inverts_gram(self, l):
        tm, sm = mesh_pair_2d()
        G = gram_Y(tm, sm, l)
        lift = make_G_Y(tm, sm, l)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(G.shape[1])
            got = lift.apply(G.apply(v))
            assert np.max(np.abs(got - v)) <= 1e-12 * max(
                1.0, np.max(np.abs(v))
            )

    def test_dual_norm_matches_dense_solve(self):
        # f(G_Y f) is the squared dual norm sup (f v)^2 / ||v||_Y^2,
        # computed independently by a dense linear solve
        tm, sm = mesh_pair_1d()
        Y = gram_Y(tm, sm, 0).to_dense()
        lift = make_G_Y(tm, sm, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.standard_normal(Y.shape[0])
            assert f @ lift.apply(f) == pytest.approx(
                f @ np.linalg.solve(Y, f), rel=1e-10
            )

    def test_zero_maps_to_zero(self):
        tm, sm = mesh_pair_1d()
        lift = make_G_Y(tm, sm, 0)
        out = lift.apply(np.zeros(gram_Y(tm, sm, 0).shape[0]))
        assert np.array_equal(out, np.zeros_like(out))

    def test_metadata(self):
        tm, sm = mesh_pair_1d()
        lift = make_G_Y(tm, sm, 0)
        assert lift.norm == "Y"


class TestGXLift:
    def test_inverts_gram(self):
        tm, sm = mesh_pair_2d()
        G = gram_X(tm, sm)
        lift = make_G_X(tm, sm)
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(G.shape[1])
            got = lift.apply(G.apply(v))
            assert np.max(np.abs(got - v)) <= 1e-8 * max(1.0, np.max(np.abs(v)))

    def test_positive_on_functionals(self):
        tm, sm = mesh_pair_1d()
        lift = make_G_X(tm, sm)
        n = gram_X(tm, sm).shape[0]
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(n)
            assert f @ lift.apply(f) > 0.0

    def test_deterministic(self):
        tm, sm = mesh_pair_1d()
        rng = np.random.default_rng(5)
        f = rng.standard_normal(gram_X(tm, sm).shape[0])
        first = make_G_X(tm, sm).apply(f)
        again_same_lift = make_G_X(tm, sm).apply(f)
        assert np.array_equal(first, again_same_lift)

    def test_norm_equivalence_is_identity(self):
        # exact lift: the preconditioned Rayleigh quotient sits at 1
        tm, sm = mesh_pair_1d()
        G = gram_X(tm, sm)
        lift = make_G_X(tm, sm)
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(G.shape[1])
            ratio = G.inner(v, lift.apply(G.apply(v))) / G.inner(v, v)
            assert ratio == pytest.approx(1.0, abs=1e-8)
