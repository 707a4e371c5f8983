"""Shared fixtures."""

import functools
import os

import pytest

from backsolve.mesh import SpatialMesh


@pytest.fixture
def physical_memory(monkeypatch):
    """Setter that makes the machine report nbytes of physical memory,
    rounded up to whole pages."""
    real = os.sysconf
    page = real("SC_PAGE_SIZE")

    def report(nbytes):
        pages = -(-nbytes // page)
        monkeypatch.setattr(
            os,
            "sysconf",
            lambda name: pages if name == "SC_PHYS_PAGES" else real(name),
        )

    return report


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
