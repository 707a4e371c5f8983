"""Manufactured solutions of the heat equation on (0,1)^d.

Each solution knows its value, time derivative, gradient, source term
f = u_t - laplace(u), and the exact L2(Omega) norm of a time slice. All
callables take a scalar time and an (m, d) point array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ManufacturedSolution:
    name: str
    dimension: int
    u: Callable
    du_dt: Callable
    grad: Callable
    f: Callable
    f_is_zero: bool
    l2_at: Callable  # t -> exact ||u(t, .)||_{L2(Omega)}


def _sin_product(x: np.ndarray) -> np.ndarray:
    # a fold over the columns: the same products as np.prod(axis=1), whose
    # reduce over d <= 2 entries per row is several times slower
    return functools.reduce(np.multiply, np.sin(np.pi * x).T)


def _grad_sin_product(x: np.ndarray) -> np.ndarray:
    if x.shape[1] > 2:
        raise ValueError("manufactured solutions are defined for d <= 2")
    px = np.pi * x
    out = np.pi * np.cos(px)
    if x.shape[1] == 2:
        # multiply in the other factor instead of dividing (sin can vanish)
        out *= np.sin(px[:, ::-1])
    return out


def _cubic(d: int) -> ManufacturedSolution:
    lam = d * np.pi**2  # first Dirichlet eigenvalue of -laplace on (0,1)^d

    def u(t, x):
        return (1.0 + t**3) * _sin_product(x)

    def du_dt(t, x):
        return 3.0 * t**2 * _sin_product(x)

    def grad(t, x):
        return (1.0 + t**3) * _grad_sin_product(x)

    def f(t, x):
        return (3.0 * t**2 + lam * (1.0 + t**3)) * _sin_product(x)

    return ManufacturedSolution(
        "cubic", d, u, du_dt, grad, f, False,
        lambda t: abs(1.0 + t**3) * 2.0 ** (-d / 2.0),
    )


def _decay(d: int) -> ManufacturedSolution:
    # caloric: exponent matches the eigenvalue, so f vanishes identically
    lam = d * np.pi**2

    def u(t, x):
        return np.exp(lam * (1.0 - t)) * _sin_product(x)

    def du_dt(t, x):
        return -lam * np.exp(lam * (1.0 - t)) * _sin_product(x)

    def grad(t, x):
        return np.exp(lam * (1.0 - t)) * _grad_sin_product(x)

    def f(t, x):
        return np.zeros(x.shape[0])

    return ManufacturedSolution(
        "decay", d, u, du_dt, grad, f, True,
        lambda t: np.exp(lam * (1.0 - t)) * 2.0 ** (-d / 2.0),
    )


def _zero(d: int) -> ManufacturedSolution:
    z1 = lambda t, x: np.zeros(x.shape[0])  # noqa: E731
    zd = lambda t, x: np.zeros_like(x)  # noqa: E731
    return ManufacturedSolution("zero", d, z1, z1, zd, z1, True, lambda t: 0.0)


_REGISTRY = {"cubic": _cubic, "decay": _decay, "zero": _zero}


def get_solution(name: str, d: int) -> ManufacturedSolution:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown solution {name!r}; available: {sorted(_REGISTRY)}"
        )
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    return _REGISTRY[name](d)
