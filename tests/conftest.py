"""Shared fixtures."""

import functools
import sys

import pytest

from backsolve.mesh import SpatialMesh


def _computations(monkeypatch, name):
    """List that receives the mesh of every computation of the cached
    SpatialMesh property name.

    The property is computed on first access and then kept on the mesh, so
    each entry is one computation, not one access.
    """
    computed = []
    compute = vars(SpatialMesh)[name].func

    def counted(mesh):
        computed.append(mesh)
        return compute(mesh)

    prop = functools.cached_property(counted)
    prop.__set_name__(SpatialMesh, name)
    monkeypatch.setattr(SpatialMesh, name, prop)
    return computed


@pytest.fixture
def geometry_computations(monkeypatch):
    """List that receives the mesh of every cell geometry computation."""
    return _computations(monkeypatch, "geometry")


@pytest.fixture
def facet_computations(monkeypatch):
    """List that receives the mesh of every facet table computation."""
    return _computations(monkeypatch, "facets")


@pytest.fixture
def record_calls(monkeypatch):
    """Wrapper maker: record_calls(owner, name) returns a list that receives
    the positional arguments of every later call to owner.name.

    owner is a module, a class (static methods stay static) or any object
    with the attribute. A module function is also swapped in every
    backsolve module that copied it with `from .x import name`.
    """

    def record(owner, name):
        fn = getattr(owner, name)
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        static = isinstance(vars(owner).get(name), staticmethod)
        monkeypatch.setattr(owner, name, staticmethod(recorded) if static else recorded)
        for key, module in list(sys.modules.items()):
            if key.partition(".")[0] != "backsolve" or module is None:
                continue
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, recorded)
        return calls

    return record
