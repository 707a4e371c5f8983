"""Manufactured solutions of the heat equation on (0,1)^d.

Every solution is u(t, x) = tau(t) phi(x), where phi = prod_i sin(pi x_i) is
the first Dirichlet eigenfunction of -laplace on (0,1)^d, with eigenvalue
d pi^2. So a solution is its time factor tau and the derivative dtau, and
its source f = u_t - laplace(u) = source(t) phi separates too, with the
time factor source = dtau + d pi^2 tau. tau, dtau and source take a scalar
time; phi and grad_phi take an (m, d) point array, so callers evaluate them
once per point set and scale them per time.
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
    tau: Callable  # scalar t -> time factor of u
    dtau: Callable  # scalar t -> its derivative

    @staticmethod
    def phi(x: np.ndarray) -> np.ndarray:
        # a fold over the columns: the same products as np.prod(axis=1), whose
        # reduce over d <= 2 entries per row is several times slower
        return functools.reduce(np.multiply, np.sin(np.pi * x).T)

    @staticmethod
    def grad_phi(x: np.ndarray) -> np.ndarray:
        if x.shape[1] > 2:
            raise ValueError("manufactured solutions are defined for d <= 2")
        px = np.pi * x
        out = np.pi * np.cos(px)
        if x.shape[1] == 2:
            # multiply in the other factor instead of dividing (sin can
            # vanish); sin runs on contiguous px, then the columns swap
            out *= np.sin(px)[:, ::-1]
        return out

    def source(self, t):
        """Time factor of the source: f(t, x) = source(t) phi(x)."""
        lam = self.dimension * np.pi**2
        return self.dtau(t) + lam * self.tau(t)


def _cubic(d: int) -> ManufacturedSolution:
    return ManufacturedSolution("cubic", d, lambda t: 1.0 + t**3, lambda t: 3.0 * t**2)


def _decay(d: int) -> ManufacturedSolution:
    # caloric: exponent matches the eigenvalue, so f vanishes identically;
    # dtau is -lam times the same float as tau, so source rounds to exactly 0
    lam = d * np.pi**2
    return ManufacturedSolution(
        "decay",
        d,
        lambda t: np.exp(lam * (1.0 - t)),
        lambda t: -lam * np.exp(lam * (1.0 - t)),
    )


def _zero(d: int) -> ManufacturedSolution:
    return ManufacturedSolution("zero", d, lambda t: 0.0, lambda t: 0.0)


_REGISTRY = {"cubic": _cubic, "decay": _decay, "zero": _zero}


def get_solution(name: str, d: int) -> ManufacturedSolution:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown solution {name!r}; available: {sorted(_REGISTRY)}"
        )
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    return _REGISTRY[name](d)
