"""Shared fixtures."""

import functools

import pytest

from backsolve.mesh import SpatialMesh


@pytest.fixture
def geometry_computations(monkeypatch):
    """List that receives the mesh of every cell geometry computation.

    SpatialMesh.geometry is computed on first access and then kept on the
    mesh, so each entry is one computation, not one access.
    """
    computed = []
    compute = SpatialMesh.geometry.func

    def counted(mesh):
        computed.append(mesh)
        return compute(mesh)

    prop = functools.cached_property(counted)
    prop.__set_name__(SpatialMesh, "geometry")
    monkeypatch.setattr(SpatialMesh, "geometry", prop)
    return computed
