"""Closed-form Bloch vector, its gradients, valence gauge, and the sign formula."""
import math

import numpy as np
import pytest

from stratachern import (
    DVector,
    GaplessPoint,
    ModelParams,
    OnWall,
    ValidationError,
    analytic_chern,
    d_derivatives,
    d_vector,
    dirac_masses,
    min_gap_on_mesh,
    sweep_mass,
    valence_state,
)
from stratachern.model import K_PLUS, bloch_vector_fields, valence_amplitudes

SQRT3 = math.sqrt(3.0)


# --- ModelParams --------------------------------------------------------------

@pytest.mark.parametrize("field", ["t1", "t2", "phi", "M"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_params_reject_non_finite(field, bad):
    values = dict(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
    values[field] = bad
    with pytest.raises(ValidationError, match=rf"ModelParams\.{field} must be finite") as excinfo:
        ModelParams(**values)
    assert excinfo.value.exit_code == 2


def test_sweep_rejects_non_finite_mass(p_half):
    with pytest.raises(ValidationError, match="ModelParams.M"):
        sweep_mass(p_half, [0.5, math.nan], (8, 8))


# --- d_vector ---------------------------------------------------------------

def test_d_vector_at_gamma():
    # At k=0 every NN phase is 1 and every NNN sine vanishes.
    p = ModelParams(t1=0.7, t2=0.2, phi=0.9, M=1.3)
    d = d_vector(np.zeros(2), p)
    np.testing.assert_allclose(d.dx, 3.0 * p.t1, atol=1e-15)
    np.testing.assert_allclose(d.dy, 0.0, atol=1e-15)
    np.testing.assert_allclose(d.d0, 6.0 * p.t2 * math.cos(p.phi), atol=1e-15)
    np.testing.assert_allclose(d.dz, p.M, atol=1e-15)


def test_d_vector_at_dirac_point(p_half):
    # The NN sum cancels at the zone corner and dz reduces to the Dirac mass.
    d = d_vector(K_PLUS, p_half)
    assert abs(d.dx + 1j * d.dy) <= 1e-14
    m_k, _ = dirac_masses(p_half)
    np.testing.assert_allclose(d.dz, m_k, atol=1e-14)


def test_d_vector_hopping_free():
    p = ModelParams(t1=0.0, t2=0.0, phi=0.4, M=1.3)
    for k in (np.array([0.1, -2.0]), np.array([1.7, 0.3])):
        d = d_vector(k, p)
        np.testing.assert_allclose([d.d0, d.dx, d.dy], 0.0, atol=1e-15)
        np.testing.assert_allclose(d.dz, 1.3, atol=1e-15)


# --- d_derivatives ----------------------------------------------------------

def test_d_derivatives_vanish_at_gamma():
    # k=0 is an extremum of every component: all eight partials are zero
    # (the NN/NNN displacement sets each sum to zero).
    p = ModelParams(t1=0.9, t2=0.27, phi=0.6, M=0.8)
    dkx, dky = d_derivatives(np.zeros(2), p)
    for dd in (dkx, dky):
        np.testing.assert_allclose([dd.d0, dd.dx, dd.dy, dd.dz], 0.0, atol=1e-14)


def test_d_derivatives_match_finite_differences():
    p = ModelParams(t1=0.9, t2=0.27, phi=0.6, M=0.8)
    rng = np.random.default_rng(11)
    h = 1e-5
    for k in rng.uniform(-math.pi, math.pi, size=(100, 2)):
        dkx, dky = d_derivatives(k, p)
        for axis, dd in ((0, dkx), (1, dky)):
            step = np.zeros(2)
            step[axis] = h
            dp = d_vector(k + step, p)
            dm = d_vector(k - step, p)
            fd = (np.array([dp.d0, dp.dx, dp.dy, dp.dz])
                  - np.array([dm.d0, dm.dx, dm.dy, dm.dz])) / (2.0 * h)
            np.testing.assert_allclose(
                [dd.d0, dd.dx, dd.dy, dd.dz], fd, atol=1e-8)


def test_d_derivatives_without_nnn_hopping():
    p = ModelParams(t1=1.0, t2=0.0, phi=0.7, M=0.5)
    for k in (np.array([0.3, 1.1]), np.array([-2.0, 0.4])):
        for dd in d_derivatives(k, p):
            assert dd.d0 == 0.0
            assert dd.dz == 0.0


# --- valence_state ----------------------------------------------------------

def test_valence_state_north_pole():
    s = valence_state(DVector(0.0, 0.0, 0.0, 1.0))
    np.testing.assert_allclose(abs(s.vA) ** 2, 0.0, atol=1e-15)
    np.testing.assert_allclose(s.vB, -1.0, atol=1e-15)
    assert s.nz == 1.0
    assert s.coherence == 0.0


def test_valence_state_south_pole():
    s = valence_state(DVector(0.0, 0.0, 0.0, -1.0))
    np.testing.assert_allclose(s.vA, 1.0, atol=1e-15)
    np.testing.assert_allclose(s.vB, 0.0, atol=1e-15)
    assert s.nz == -1.0


def test_valence_state_equator_x():
    s = valence_state(DVector(0.0, 1.0, 0.0, 0.0))
    np.testing.assert_allclose(s.coherence, -0.5, atol=1e-15)


def test_valence_state_equator_y():
    s = valence_state(DVector(0.0, 0.0, 1.0, 0.0))
    np.testing.assert_allclose(s.coherence, 0.5j, atol=1e-15)


def test_valence_state_invariants():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        v = rng.normal(size=3)
        nrm = np.linalg.norm(v)
        if nrm < 0.2:
            continue
        checked += 1
        s = valence_state(DVector(rng.normal(), *v))
        spinor = np.array([s.vA, s.vB])
        np.testing.assert_allclose(np.vdot(spinor, spinor).real, 1.0, atol=1e-13)
        np.testing.assert_allclose(s.vA * np.conj(s.vB), s.coherence, atol=1e-14)
        n = v / nrm
        np.testing.assert_allclose(s.coherence, (-n[0] + 1j * n[1]) / 2.0, atol=1e-13)
        np.testing.assert_allclose(s.nz, n[2], atol=1e-14)
        # spinor is the exact lower eigenvector of the traceless part
        h = np.array([[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]])
        np.testing.assert_allclose(h @ spinor, -nrm * spinor, atol=1e-12)


# For p_half, K_PLUS maps to the south pole of the Bloch sphere and -K_PLUS to
# the north pole; the offsets put n within 1e-9 of the pole (1 - |nz| ~ 1e-11).
DU_POINTS = [
    (0.3, 0.7),                                  # north, nz = 0.25
    (2.0, 1.3),                                  # north, nz = 0.56
    (-0.9, 2.2),                                 # south, nz = -0.92
    (1.8, 0.2),                                  # south, nz = -0.60
    tuple(K_PLUS),                               # south pole
    tuple(K_PLUS + np.array([1e-5, 0.0])),
    tuple(K_PLUS + np.array([-3e-6, 4e-6])),
    tuple(-K_PLUS),                              # north pole
    tuple(-K_PLUS + np.array([0.0, 1e-5])),
    tuple(-K_PLUS + np.array([4e-6, -3e-6])),
]


@pytest.mark.parametrize("k", DU_POINTS)
def test_valence_amplitudes_derivative_matches_finite_differences(p_half, k):
    k = np.asarray(k, dtype=float)
    n, dn, _ = bloch_vector_fields(k, p_half)
    vA, vB, dvA, dvB = valence_amplitudes(n, dn)
    u = np.array([vA, vB])
    h = 1e-6
    for a in range(2):
        step = h * np.eye(2)[a]
        plus = np.array(valence_amplitudes(bloch_vector_fields(k + step, p_half)[0]))
        minus = np.array(valence_amplitudes(bloch_vector_fields(k - step, p_half)[0]))
        np.testing.assert_allclose(np.array([dvA[a], dvB[a]]), (plus - minus) / (2.0 * h),
                                   atol=1e-8)
    n_sigma = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    np.testing.assert_allclose(n_sigma @ u, -u, atol=1e-15)
    np.testing.assert_allclose(np.vdot(u, u).real, 1.0, atol=1e-15)


def test_valence_amplitudes_exact_at_poles():
    vA, vB = valence_amplitudes(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert vA.tolist() == [0.0, 1.0]
    assert vB.tolist() == [-1.0, 0.0]


def test_valence_state_gapless_point():
    with pytest.raises(GaplessPoint):
        valence_state(DVector(0.3, 0.0, 0.0, 0.0))


# --- dirac_masses / analytic_chern -------------------------------------------

def test_dirac_masses_default_point(p_default):
    m_k, m_kp = dirac_masses(p_default)
    np.testing.assert_allclose([m_k, m_kp], [-SQRT3, SQRT3], atol=1e-14)


def test_dirac_masses_time_reversal_symmetric():
    p = ModelParams(t1=1.0, t2=0.3, phi=0.0, M=0.8)
    np.testing.assert_allclose(dirac_masses(p), [0.8, 0.8], atol=1e-15)


def test_dirac_masses_at_wall():
    p = ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=SQRT3)
    m_k, _ = dirac_masses(p)
    np.testing.assert_allclose(m_k, 0.0, atol=1e-15)


def test_analytic_chern_values(p_default):
    assert analytic_chern(p_default) == -1
    assert analytic_chern(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 10.0)) == 0
    assert analytic_chern(ModelParams(1.0, 0.0, 0.0, 1.0)) == 0
    # sign of phi flips the invariant
    assert analytic_chern(ModelParams(1.0, 1.0 / 3.0, -math.pi / 2.0, 0.0)) == 1


def test_analytic_chern_on_wall_raises():
    with pytest.raises(OnWall):
        analytic_chern(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3))
    # just off the wall (beyond the 1e-12 tolerance) is decidable again
    assert analytic_chern(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3 + 1e-6)) == 0
    assert analytic_chern(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3 - 1e-6)) == -1


# --- min_gap_on_mesh ---------------------------------------------------------

def test_min_gap_vanishes_on_wall():
    # 3 | 24, so the zone corner where the gap closes lies on the mesh.
    p = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3)
    assert min_gap_on_mesh(p, (24, 24)) <= 1e-12


def test_min_gap_massive_lower_bound():
    # With t2=0 the gap is 2*sqrt(|f|^2 + M^2) >= 2|M|, met exactly at the corner.
    p = ModelParams(1.0, 0.0, 0.0, 2.0)
    gap = min_gap_on_mesh(p, (24, 24))
    assert gap >= 2.0 * abs(p.M) - 1e-12
    np.testing.assert_allclose(gap, 4.0, atol=1e-12)


def test_min_gap_stable_under_refinement(p_half):
    g24 = min_gap_on_mesh(p_half, (24, 24))
    g48 = min_gap_on_mesh(p_half, (48, 48))
    assert abs(g24 - g48) <= 0.01 * g24
