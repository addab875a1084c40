"""Torus mesh construction, link variables, plaquette field, lattice invariant."""
import math

import numpy as np
import pytest

from stratachern import (
    CurvatureField,
    DegenerateOverlap,
    GaplessMesh,
    ModelParams,
    NonIntegerTotal,
    TorusMesh,
    analytic_chern,
    build_mesh,
    chern_number,
    coherence_matrix,
    min_gap_on_mesh,
    multiorbital_bounds,
    plaquette_curvature,
)
from stratachern.mesh import _normalized_links
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


def test_build_mesh_refuses_gapless():
    # On the wall the zone corner K = (2/3) g1 + (1/3) g2 is gapless, and
    # 3 | nx, 3 | ny put it on the mesh at (m, n) = (2 nx/3, ny/3).
    p = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3)
    for nx, ny in [(24, 24), (18, 27)]:
        with pytest.raises(GaplessMesh, match=rf"\(m, n\) = \({2 * nx // 3}, {ny // 3}\)"):
            build_mesh(p, nx, ny)


def test_min_norm_matches_min_gap(p_half, mesh48_half):
    np.testing.assert_allclose(
        2.0 * mesh48_half.min_norm, min_gap_on_mesh(p_half, mesh48_half), atol=1e-15)


@pytest.mark.parametrize("p, size", [
    (ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5), (48, 48)),
    (ModelParams(0.8, 0.2, -2.0, 0.1), (17, 33)),
    (ModelParams(1.0, 0.3, 0.7, -0.4), (24, 36)),
])
def test_build_gap_is_the_scanned_gap_exactly(p, size):
    # `stratachern chern` reports 2 * min_norm from the build as its gap, so
    # the build and the scan must use one |d| formula, bit for bit.
    mesh = build_mesh(p, *size)
    assert min_gap_on_mesh(p, mesh) == 2.0 * mesh.min_norm
    assert min_gap_on_mesh(p, size) == 2.0 * mesh.min_norm


# --- link variables -------------------------------------------------------------

def _constant_mesh(vA, vB):
    """A 4x4 mesh holding the same state (vA, vB) at every point."""
    shape = (4, 4)
    return TorusMesh(
        nx=4, ny=4, kpoints=np.zeros(shape + (2,)),
        vA=np.full(shape, vA, dtype=complex), vB=np.full(shape, vB, dtype=complex),
        nz=np.full(shape, abs(vB) ** 2 - abs(vA) ** 2),
        coherence=np.full(shape, vA * np.conj(vB), dtype=complex),
    )


def test_link_variable_identity(mesh24):
    for m, n in ((0, 0), (5, 17), (23, 1)):
        ux, uy = _normalized_links(_constant_mesh(mesh24.vA[m, n], mesh24.vB[m, n]), 1e-10)
        np.testing.assert_allclose(ux, 1.0 + 0.0j, atol=1e-14)
        np.testing.assert_allclose(uy, 1.0 + 0.0j, atol=1e-14)


def test_rephasing_leaves_outputs_unchanged(mesh48_half, curv48_half):
    # links pick up exp(i(chi' - chi)), which cancels around every plaquette
    # and in every product vA conj(vB)
    rng = np.random.default_rng(22)
    rephased = mesh48_half.rephased(rng.uniform(0.0, 2.0 * math.pi, size=(48, 48)))
    F2 = plaquette_curvature(rephased)
    np.testing.assert_allclose(F2.F, curv48_half.F, atol=1e-13)
    x = np.array([0.6, 0.8j])
    y = np.array([0.8, -0.6])
    np.testing.assert_allclose(
        coherence_matrix(rephased, F2, x, y).JF,
        coherence_matrix(mesh48_half, curv48_half, x, y).JF, atol=1e-13)
    before = multiorbital_bounds(mesh48_half, curv48_half, x, y, 0.4, samples=500, seed=3)
    after = multiorbital_bounds(rephased, F2, x, y, 0.4, samples=500, seed=3)
    np.testing.assert_allclose(after.nu, before.nu, atol=1e-13)
    np.testing.assert_allclose(after.nu_bound, before.nu_bound, atol=1e-13)
    for name, slack in before.max_slack.items():
        np.testing.assert_allclose(after.max_slack[name], slack, atol=1e-13, err_msg=name)


def test_link_variable_orthogonal_states():
    # the m = 0 row holds the north pole and every other row the south pole,
    # so the +x link from (0, n) to (1, n) joins two orthogonal states
    vA = np.ones((4, 4), dtype=complex)
    vB = np.zeros((4, 4), dtype=complex)
    vA[0], vB[0] = 0.0, -1.0
    mesh = TorusMesh(
        nx=4, ny=4, kpoints=np.zeros((4, 4, 2)), vA=vA, vB=vB,
        nz=abs(vB) ** 2 - abs(vA) ** 2, coherence=vA * np.conj(vB),
    )
    with pytest.raises(DegenerateOverlap, match=r"x-link overlap 0\.000e\+00 .* at \(m, n\) = \(0, 0\)"):
        plaquette_curvature(mesh)


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
