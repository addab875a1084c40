"""Shared fixtures: canonical parameter points and cached meshes.

The heavy objects (48x48 mesh + plaquette field) are session-scoped because
they are pure functions of the parameters and several test modules reuse them.
``riemann_sum`` is the continuum cross-check of the lattice totals.
"""
import math

import pytest

from stratachern import ModelParams, build_mesh, plaquette_curvature, qgt_sample_arrays
from stratachern.mesh import _sum, _total
from stratachern.model import RECIPROCAL, mesh_kpoints

SQRT3 = math.sqrt(3.0)
#: Area of the reciprocal unit cell |g1 x g2| = 8 pi^2 / (3 sqrt 3).
CELL_AREA = abs(RECIPROCAL[0, 0] * RECIPROCAL[1, 1] - RECIPROCAL[0, 1] * RECIPROCAL[1, 0])


def riemann_sum(p, n, field, theta=0.0):
    """sum field * dA of a ``GeometrySamples`` field over the n x n mesh points (the plaquette base
    corners) at witness phase theta, with dA = CELL_AREA / n^2, summed per leaf of ``mesh._total``.

    The integrand is smooth and periodic, so the sum converges spectrally in n: of F_xy to 2pi C,
    of Im QS_xy to -pi times the graded response.  Unlike the plaquette total it is not an integer.
    """
    values = getattr(qgt_sample_arrays(mesh_kpoints(n, n).reshape(-1, 2), p, theta), field)
    return _total(lambda lo, hi: [_sum(values[lo:hi] * (CELL_AREA / (n * n)))], values.size)[0]


@pytest.fixture(scope="session")
def p_default():
    """Topological point used throughout: t1=1, t2=1/3, phi=pi/2, M=0."""
    return ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.0)


@pytest.fixture(scope="session")
def p_half(p_default):
    """Same phase, staggered mass M=0.5 (the worked-example point)."""
    return ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)


@pytest.fixture(scope="session")
def mesh24(p_default):
    return build_mesh(p_default, 24, 24)


@pytest.fixture(scope="session")
def curv24(mesh24):
    return plaquette_curvature(mesh24)


@pytest.fixture(scope="session")
def mesh48(p_default):
    return build_mesh(p_default, 48, 48)


@pytest.fixture(scope="session")
def mesh48_half(p_half):
    return build_mesh(p_half, 48, 48)


@pytest.fixture(scope="session")
def curv48_half(mesh48_half):
    return plaquette_curvature(mesh48_half)
