"""Torus mesh construction, link variables, plaquette field, lattice invariant."""
import dataclasses
import math

import numpy as np
import pytest

from stratachern import (
    CurvatureField,
    DegenerateOverlap,
    DVector,
    GaplessMesh,
    ModelParams,
    NonIntegerTotal,
    OnWall,
    analytic_chern,
    build_mesh,
    chern_number,
    link_variable,
    min_gap_on_mesh,
    plaquette_curvature,
    valence_state,
)
from stratachern.model import RECIPROCAL

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


# --- build_mesh ---------------------------------------------------------------

def test_build_mesh_layout(p_half):
    mesh = build_mesh(p_half, 4, 4)
    assert mesh.kpoints.shape == (4, 4, 2)
    # fractional coordinates m/nx, n/ny in the reciprocal basis
    want = (2.0 / 4.0) * RECIPROCAL[0] + (3.0 / 4.0) * RECIPROCAL[1]
    np.testing.assert_allclose(mesh.kpoints[2, 3], want, atol=1e-15)
    s = mesh.state(1, 2)
    assert s.vA == mesh.vA[1, 2]
    assert s.vB == mesh.vB[1, 2]
    assert s.coherence == mesh.coherence[1, 2]


def test_build_mesh_refuses_gapless():
    # On the wall the zone corner is gapless, and 3 | 24 puts it on the mesh.
    p = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3)
    with pytest.raises(GaplessMesh):
        build_mesh(p, 24, 24)


def test_min_norm_matches_min_gap(p_half, mesh48_half):
    np.testing.assert_allclose(
        2.0 * mesh48_half.min_norm, min_gap_on_mesh(p_half, mesh48_half), atol=1e-15)


# --- link_variable ------------------------------------------------------------

def test_link_variable_identity(mesh24):
    for m, n in ((0, 0), (5, 17), (23, 1)):
        s = mesh24.state(m, n)
        np.testing.assert_allclose(link_variable(s, s), 1.0 + 0.0j, atol=1e-14)


def test_link_variable_gauge_covariance(mesh24):
    s1 = mesh24.state(3, 4)
    s2 = mesh24.state(3, 5)
    base = link_variable(s1, s2)
    chi1, chi2 = 0.8, -2.3
    r1 = dataclasses.replace(
        s1, vA=s1.vA * np.exp(1j * chi1), vB=s1.vB * np.exp(1j * chi1))
    r2 = dataclasses.replace(
        s2, vA=s2.vA * np.exp(1j * chi2), vB=s2.vB * np.exp(1j * chi2))
    np.testing.assert_allclose(
        link_variable(r1, r2), np.exp(1j * (chi2 - chi1)) * base, atol=1e-14)


def test_link_variable_orthogonal_states():
    north = valence_state(DVector(0.0, 0.0, 0.0, 1.0))
    south = valence_state(DVector(0.0, 0.0, 0.0, -1.0))
    with pytest.raises(DegenerateOverlap):
        link_variable(north, south)


# --- plaquette_curvature / chern_number ----------------------------------------

def test_plaquette_field_trivial_phase():
    mesh = build_mesh(ModelParams(1.0, 0.0, 0.0, 2.0), 12, 12)
    F = plaquette_curvature(mesh)
    assert abs(F.total) <= 1e-12
    assert chern_number(F) == 0


def test_plaquette_field_topological_phase(mesh24, curv24):
    assert chern_number(curv24) == -1
    np.testing.assert_allclose(curv24.total, -TWO_PI, atol=1e-12)


def test_plaquette_field_gauge_invariance(mesh24, curv24):
    rng = np.random.default_rng(21)
    chi = rng.uniform(0.0, TWO_PI, size=(24, 24))
    F2 = plaquette_curvature(mesh24.rephased(chi))
    np.testing.assert_allclose(F2.F, curv24.F, atol=1e-13)


def test_chern_number_rejects_non_integer_total():
    with pytest.raises(NonIntegerTotal):
        chern_number(CurvatureField(F=np.full((8, 8), 0.01)))


def test_invariant_is_mesh_independent(p_default):
    for n in (12, 24, 48):
        F = plaquette_curvature(build_mesh(p_default, n, n))
        assert chern_number(F) == -1
        total = F.total / TWO_PI
        assert abs(total - round(total)) <= 1e-12


def test_lattice_matches_sign_formula_on_grid():
    # small off-wall parameter grid; the full 7x7 version is the acceptance run
    for m_stag in (-3.0, -1.5, 0.0, 1.5, 3.0):
        for phi in (math.pi / 2.0, math.pi / 4.0, 0.3, -math.pi / 4.0, -math.pi / 2.0):
            p = ModelParams(1.0, 1.0 / 3.0, phi, m_stag)
            mu = chern_number(plaquette_curvature(build_mesh(p, 12, 12)))
            assert mu == analytic_chern(p), (m_stag, phi)
