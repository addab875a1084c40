"""Closed-form Bloch vector, its gradients, valence gauge, and the sign formula."""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from stratachern import (
    GaplessMesh,
    GaplessPoint,
    ModelParams,
    OnWall,
    ValidationError,
    analytic_chern,
    build_mesh,
    dirac_masses,
    sweep_mass,
)
from stratachern.model import (
    K_PLUS,
    NN_VECTORS,
    NNN_VECTORS,
    _NNN_P,
    _NNN_Q,
    _mesh_tables,
    bloch_vector_fields,
    d_component_gradients,
    d_components,
    mesh_kpoints,
)

from test_geometry import valence_amplitudes, valence_section_derivatives

SQRT3 = math.sqrt(3.0)

_spec = importlib.util.spec_from_file_location(
    "oracle_reference", Path(__file__).parent / "oracles" / "oracle_reference.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def oracle_gap(p, nx, ny):
    """Smallest gap of the oracle's dense spectrum over the points of an nx-by-ny mesh."""
    e = np.linalg.eigvalsh(oracle.hamiltonian(oracle.mesh_k(nx, ny), p.t1, p.t2, p.phi, p.M))
    return float((e[..., 1] - e[..., 0]).min())


# --- ModelParams --------------------------------------------------------------

@pytest.mark.parametrize("field", ["t1", "t2", "phi", "M"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_model_params_reject_non_finite(field, bad):
    values = dict(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
    values[field] = bad
    with pytest.raises(ValidationError, match=rf"ModelParams\.{field} must be finite") as excinfo:
        ModelParams(**values)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("field", ["t1", "t2", "phi", "M"])
@pytest.mark.parametrize("bad", [None, "1", 1 + 0j])
def test_model_params_reject_non_real(field, bad):
    values = dict(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
    values[field] = bad
    with pytest.raises(ValidationError, match=rf"ModelParams\.{field} must be a real number") as excinfo:
        ModelParams(**values)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.array(0.5)],
                         ids=["int", "int64", "float32", "0-d-array"])
def test_model_params_store_each_coupling_as_a_float(value):
    p = ModelParams(value, value, value, value)
    assert all(type(getattr(p, f)) is float for f in ("t1", "t2", "phi", "M"))
    assert p == ModelParams(*[float(value)] * 4) and hash(p) == hash(ModelParams(*[float(value)] * 4))


def test_float32_mass_is_read_at_double_precision():
    # float32(sqrt 3) is 3.1e-8 below the wall; float32 arithmetic would put it on the wall (mK = 0.0)
    p = ModelParams(1, 1 / 3, math.pi / 2, np.float32(SQRT3))
    assert dirac_masses(p)[0] < 0.0
    assert analytic_chern(p) == -1


def test_sweep_rejects_non_finite_mass(p_half):
    with pytest.raises(ValidationError, match="ModelParams.M"):
        sweep_mass(p_half, [0.5, math.nan], (8, 8))


# --- d_components ------------------------------------------------------------

def test_d_vector_at_gamma():
    # At k=0 every NN phase is 1 and every NNN sine vanishes.
    p = ModelParams(t1=0.7, t2=0.2, phi=0.9, M=1.3)
    dx, dy, dz = d_components(np.zeros(2), p)
    np.testing.assert_allclose(dx, 3.0 * p.t1, atol=1e-15)
    np.testing.assert_allclose(dy, 0.0, atol=1e-15)
    np.testing.assert_allclose(dz, p.M, atol=1e-15)
    # d0 drops out of n = d/|d| and is not evaluated by the package; the
    # oracle's h(k) keeps it, as trace/2.
    h = oracle.hamiltonian(np.zeros(2), p.t1, p.t2, p.phi, p.M)
    np.testing.assert_allclose(np.trace(h).real / 2.0, 6.0 * p.t2 * math.cos(p.phi), atol=1e-15)


def test_d_vector_at_dirac_point(p_half):
    # The NN sum cancels at the zone corner and dz reduces to the Dirac mass.
    dx, dy, dz = d_components(K_PLUS, p_half)
    assert abs(dx + 1j * dy) <= 1e-14
    m_k, _ = dirac_masses(p_half)
    np.testing.assert_allclose(dz, m_k, atol=1e-14)


def test_d_vector_hopping_free():
    p = ModelParams(t1=0.0, t2=0.0, phi=0.4, M=1.3)
    dx, dy, dz = d_components(np.array([[0.1, -2.0], [1.7, 0.3]]), p)
    np.testing.assert_allclose([dx, dy], 0.0, atol=1e-15)
    np.testing.assert_allclose(dz, 1.3, atol=1e-15)


# --- mesh d-field from 1-D phase tables ---------------------------------------

@pytest.mark.parametrize("p", [
    ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5),
    ModelParams(0.8, 0.0, -2.0, 0.1),
])
@pytest.mark.parametrize("size", [(4, 4), (17, 33), (48, 48), (129, 131)])
def test_mesh_d_field_matches_pointwise(p, size):
    table = np.stack(d_components(_mesh_tables(*(np.arange(n) / n for n in size)), p))
    pointwise = np.stack(d_components(mesh_kpoints(*size), p))
    assert table.shape == (3,) + size
    assert np.abs(table - pointwise).max() <= 4e-15


def test_nnn_vectors_are_nn_differences():
    # the mesh path builds exp(i k.b_j) as exp(i k.delta_p) conj(exp(i k.delta_q))
    assert np.array_equal(NN_VECTORS[_NNN_P] - NN_VECTORS[_NNN_Q], NNN_VECTORS)


# --- d_component_gradients ------------------------------------------------------
# It returns (ddx, ddy, ddz), each a (kx, ky) derivative pair of arrays.

def test_d_derivatives_vanish_at_gamma():
    # k=0 is an extremum of every component: all six partials are zero
    # (the NN/NNN displacement sets each sum to zero).
    p = ModelParams(t1=0.9, t2=0.27, phi=0.6, M=0.8)
    np.testing.assert_allclose(d_component_gradients(np.zeros(2), p), 0.0, atol=1e-14)


def test_d_derivatives_match_finite_differences():
    p = ModelParams(t1=0.9, t2=0.27, phi=0.6, M=0.8)
    rng = np.random.default_rng(11)
    h = 1e-5
    k = rng.uniform(-math.pi, math.pi, size=(100, 2))
    ddx, ddy, ddz = d_component_gradients(k, p)
    exact = np.stack([ddx, ddy, ddz])                # (component, axis, point)
    for axis in (0, 1):
        step = h * np.eye(2)[axis]
        fd = (np.stack(d_components(k + step, p))
              - np.stack(d_components(k - step, p))) / (2.0 * h)
        np.testing.assert_allclose(exact[:, axis], fd, atol=1e-8)


def test_d_derivatives_without_nnn_hopping():
    p = ModelParams(t1=1.0, t2=0.0, phi=0.7, M=0.5)
    _, _, ddz = d_component_gradients(np.array([[0.3, 1.1], [-2.0, 0.4]]), p)
    assert np.all(np.array(ddz) == 0.0)


# --- valence_amplitudes -----------------------------------------------------------

def test_valence_state_north_pole():
    vA, vB = valence_amplitudes(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(abs(vA) ** 2, 0.0, atol=1e-15)
    np.testing.assert_allclose(vB, -1.0, atol=1e-15)
    assert abs(vB) ** 2 - abs(vA) ** 2 == 1.0   # nz
    assert vA * np.conj(vB) == 0.0              # coherence


def test_valence_state_south_pole():
    vA, vB = valence_amplitudes(np.array([0.0, 0.0, -1.0]))
    np.testing.assert_allclose(vA, 1.0, atol=1e-15)
    np.testing.assert_allclose(vB, 0.0, atol=1e-15)
    assert abs(vB) ** 2 - abs(vA) ** 2 == -1.0  # nz


def test_valence_state_equator_x():
    vA, vB = valence_amplitudes(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(vA * np.conj(vB), -0.5, atol=1e-15)


def test_valence_state_equator_y():
    vA, vB = valence_amplitudes(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(vA * np.conj(vB), 0.5j, atol=1e-15)


def test_valence_state_invariants():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(400, 3))
    v = v[np.linalg.norm(v, axis=-1) >= 0.2][:200]
    assert len(v) == 200
    nrm = np.linalg.norm(v, axis=-1)
    n = v / nrm[:, None]
    vA, vB = valence_amplitudes(n)
    np.testing.assert_allclose(abs(vA) ** 2 + abs(vB) ** 2, 1.0, atol=1e-13)
    np.testing.assert_allclose(vA * np.conj(vB), (-n[:, 0] + 1j * n[:, 1]) / 2.0, atol=1e-13)
    np.testing.assert_allclose(abs(vB) ** 2 - abs(vA) ** 2, n[:, 2], atol=1e-14)
    # the spinor is the exact lower eigenvector of the traceless part
    h = np.array([[v[:, 2], v[:, 0] - 1j * v[:, 1]],
                  [v[:, 0] + 1j * v[:, 1], -v[:, 2]]]).transpose(2, 0, 1)
    spinor = np.stack([vA, vB], axis=-1)
    np.testing.assert_allclose(
        np.einsum("pij,pj->pi", h, spinor), -nrm[:, None] * spinor, atol=1e-12)


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


# valence_section_derivatives is the spinor-route reference that
# test_geometry.py checks the projector-form QS against.
@pytest.mark.parametrize("k", DU_POINTS)
def test_valence_amplitudes_derivative_matches_finite_differences(p_half, k):
    k = np.asarray(k, dtype=float)
    n, dn = (np.stack(v, axis=-1) for v in bloch_vector_fields(k, p_half)[:2])
    vA, vB = valence_amplitudes(n)
    dvA, dvB = valence_section_derivatives(n, dn)
    u = np.array([vA, vB])
    h = 1e-6
    for a in range(2):
        step = h * np.eye(2)[a]
        plus = np.array(valence_amplitudes(np.stack(bloch_vector_fields(k + step, p_half)[0], axis=-1)))
        minus = np.array(valence_amplitudes(np.stack(bloch_vector_fields(k - step, p_half)[0], axis=-1)))
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
    # t1 = t2 = 0 and M = 0: d vanishes identically
    with pytest.raises(GaplessPoint):
        bloch_vector_fields(np.array([[0.3, 0.1]]), ModelParams(0.0, 0.0, 0.0, 0.0))


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


# --- the mesh gap 2 * min_norm ----------------------------------------------------

def test_min_gap_vanishes_on_wall():
    # 3 | nx and 3 | ny, so the zone corner where the gap closes lies on the mesh,
    # and the build's refusal reports |d| there
    p = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3)
    for size in [(24, 24), (18, 27)]:
        with pytest.raises(GaplessMesh, match=r"\|d\| = \S+$") as info:
            build_mesh(p, *size)
        assert float(str(info.value).rsplit(" ", 1)[1]) <= 1e-12


def test_min_gap_massive_lower_bound():
    # With t2=0 the gap is 2*sqrt(|f|^2 + M^2) >= 2|M|, met exactly at the corner.
    p = ModelParams(1.0, 0.0, 0.0, 2.0)
    gap = 2.0 * build_mesh(p, 24, 24).min_norm
    assert gap >= 2.0 * abs(p.M) - 1e-12
    np.testing.assert_allclose(gap, 4.0, atol=1e-12)


def test_min_gap_stable_under_refinement(p_half):
    g24 = 2.0 * build_mesh(p_half, 24, 24).min_norm
    g48 = 2.0 * build_mesh(p_half, 48, 48).min_norm
    assert abs(g24 - g48) <= 0.01 * g24
