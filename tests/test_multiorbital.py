"""Probe embedding, coherence matrix, reconstruction, invariance, Levi typing."""
import dataclasses
import math

import numpy as np
import pytest

from stratachern import (
    CurvatureField,
    MissingProbe,
    ModelParams,
    NonIntegerTotal,
    NonUnitary,
    NonUnitProbe,
    NotPartialIsometry,
    ValidationError,
    build_mesh,
    coherence_matrix,
    levi_type,
    multiorbital_bounds,
    plaquette_curvature,
    qgt_sample_arrays,
    reconstruct_JF,
    sector_response_multi,
    sector_responses,
    tomography_reconstruct,
    unitary_invariance_check,
    witness_block,
)
from stratachern.model import mesh_kpoints
from stratachern.multiorbital import THETA_IMAG, THETA_REAL

from test_model import oracle


def _unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def jf_matrix(mesh48_half, curv48_half):
    """2x2 weighted-coherence matrix for one fixed seeded probe pair."""
    rng = np.random.default_rng(2024)
    x, y = _unit(rng, 2), _unit(rng, 2)
    return x, y, coherence_matrix(mesh48_half, curv48_half, x, y)


# --- product embedding a = vA x, b = vB y -----------------------------------------

def _spinors(mesh):
    """Valence spinor (vA, vB) at every mesh point, from the oracle's eigh (arbitrary gauge)."""
    u = oracle.valence(mesh_kpoints(mesh.nx, mesh.ny), *dataclasses.astuple(mesh.params))
    return u[..., 0], u[..., 1]


def _embed(mesh, x, y):
    vA, vB = _spinors(mesh)
    return vA[..., None] * np.asarray(x), vB[..., None] * np.asarray(y)


def test_embed_state_scalar_reduction(mesh48_half, curv48_half):
    # with one-orbital probes the embedded amplitudes are (vA, vB) themselves
    jf = coherence_matrix(mesh48_half, curv48_half, [1.0], [1.0])
    vA, vB = _spinors(mesh48_half)
    want = (curv48_half.F * vA * np.conj(vB)).sum() / (2.0 * math.pi)
    np.testing.assert_allclose(jf[0, 0], want, atol=1e-15)


def test_embed_state_norm_product_is_half_concurrence(p_half, mesh48_half):
    rng = np.random.default_rng(6)
    a, b = _embed(mesh48_half, _unit(rng, 3), _unit(rng, 2))
    c = qgt_sample_arrays(mesh_kpoints(48, 48).reshape(-1, 2), p_half, 0.0).C
    np.testing.assert_allclose(
        (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)).ravel(), c / 2.0, atol=1e-14)


def test_embed_state_pole():
    # t1 = 0 and M > 0 put every state at the north pole: vA = 0, |vB| = 1
    mesh = build_mesh(ModelParams(0.0, 1.0 / 3.0, math.pi / 2.0, 4.0), 4, 4)
    a, b = _embed(mesh, [1.0, 0.0], [0.0, 1.0])
    assert np.all(np.linalg.norm(a, axis=-1) == 0.0)
    np.testing.assert_allclose(np.linalg.norm(b, axis=-1), 1.0, atol=1e-15)
    jf = coherence_matrix(mesh, plaquette_curvature(mesh), [1.0, 0.0], [0.0, 1.0])
    assert np.all(jf == 0.0)


def test_embed_state_rejects_non_unit_probe(mesh48_half, curv48_half):
    with pytest.raises(NonUnitProbe):
        coherence_matrix(mesh48_half, curv48_half, [0.5], [1.0])
    with pytest.raises(NonUnitProbe):
        multiorbital_bounds(mesh48_half, curv48_half, [0.5], [1.0], 0.0, 10, 1)


# --- coherence_matrix -------------------------------------------------------------

def test_coherence_matrix_scalar_reduction(mesh48_half, curv48_half):
    jf = coherence_matrix(mesh48_half, curv48_half, [1.0], [1.0])
    assert jf.shape == (1, 1)
    rep = sector_responses(mesh48_half, curv48_half, 0.0)
    np.testing.assert_allclose(jf[0, 0], rep.JF, atol=1e-13)


def test_coherence_matrix_zero_component_zeroes_row(mesh48_half, curv48_half):
    rng = np.random.default_rng(7)
    jf = coherence_matrix(mesh48_half, curv48_half, [0.0, 1.0], _unit(rng, 2))
    np.testing.assert_allclose(jf[0], 0.0, atol=1e-15)


def test_coherence_matrix_is_scalar_times_dyad(jf_matrix, mesh48_half, curv48_half):
    x, y, jf = jf_matrix
    scalar = sector_responses(mesh48_half, curv48_half, 0.0).JF
    np.testing.assert_allclose(jf, scalar * np.outer(x, np.conj(y)), atol=1e-13)


def _mesh8_probes():
    """8x8 mesh at (1, 1/3, pi/2, 0.5), its curvature, and the probes x = e1, y = e2."""
    mesh = build_mesh(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5), 8, 8)
    return mesh, plaquette_curvature(mesh), np.array([1.0, 0.0]), np.array([0.0, 1.0])


def test_coherence_matrix_refuses_a_field_of_another_shape():
    # the (1, 8) first row of F used to broadcast over the mesh and give
    # JF[0, 1] = 0.0887-0.0377i, where the whole field gives 0.0919-0.0532i
    mesh, F, x, y = _mesh8_probes()
    np.testing.assert_allclose(coherence_matrix(mesh, F, x, y)[0, 1],
                               0.09192377985106608 - 0.05321061951352951j, atol=1e-15)
    with pytest.raises(ValidationError, match=r"shape \(1, 8\) does not match mesh \(8, 8\)") as info:
        coherence_matrix(mesh, CurvatureField(F=F.F[:1]), x, y)
    assert info.value.exit_code == 2


def test_coherence_matrix_refuses_a_non_integer_total():
    mesh, _, x, y = _mesh8_probes()
    with pytest.raises(NonIntegerTotal):
        coherence_matrix(mesh, CurvatureField(F=np.full((8, 8), 0.01)), x, y)


def test_multiorbital_bounds_refuses_a_field_of_another_shape():
    # an all-zero (1, 8) field used to pass with nu = nu_bound = 0
    mesh, _, x, y = _mesh8_probes()
    with pytest.raises(ValidationError, match=r"shape \(1, 8\) does not match mesh \(8, 8\)") as info:
        multiorbital_bounds(mesh, CurvatureField(F=np.zeros((1, 8))), x, y, 0.3, 20, 1)
    assert info.value.exit_code == 2
    with pytest.raises(NonIntegerTotal):
        multiorbital_bounds(mesh, CurvatureField(F=np.full((8, 8), 0.01)), x, y, 0.3, 20, 1)


# --- sector_response_multi ----------------------------------------------------------

def test_orthogonal_probe_sees_no_coherence(jf_matrix):
    x, y, jf = jf_matrix
    # rotate x by 90 degrees in its plane: x_perp is a unit probe with x_perp . x = 0
    x_perp = np.array([-np.conj(x[1]), np.conj(x[0])])
    nu_minus, nu = sector_response_multi(jf, -1, x_perp, y, 0.3)
    np.testing.assert_allclose(nu_minus, -0.5, atol=1e-13)
    np.testing.assert_allclose(nu, 0.0, atol=1e-13)


def test_sector_response_multi_scalar_reduction(mesh48_half, curv48_half):
    jf = coherence_matrix(mesh48_half, curv48_half, [1.0], [1.0])
    rep = sector_responses(mesh48_half, curv48_half, 0.4)
    nu_minus, nu = sector_response_multi(jf, rep.mu, [1.0], [1.0], 0.4)
    np.testing.assert_allclose(nu_minus, rep.nu_minus, atol=1e-13)
    np.testing.assert_allclose(nu, rep.nu_S, atol=1e-13)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_sector_response_multi_rejects_non_finite_theta(jf_matrix, theta):
    x, y, jf = jf_matrix
    with pytest.raises(ValidationError, match="witness theta must be finite") as excinfo:
        sector_response_multi(jf, -1, x, y, theta)
    assert excinfo.value.exit_code == 2


def test_sector_response_multi_sinusoid(jf_matrix):
    x, y, jf = jf_matrix
    pairing = complex(np.conj(x) @ jf @ y)
    for theta in np.linspace(-3.0, 3.0, 7):
        _, nu = sector_response_multi(jf, -1, x, y, theta)
        want = -2.0 * abs(pairing) * math.cos(theta + np.angle(pairing))
        np.testing.assert_allclose(nu, want, atol=1e-14)


# --- reconstruct_JF ------------------------------------------------------------------

def _basis_responses(jf, mu, m, n):
    responses = {}
    for i in range(m):
        for j in range(n):
            x = np.zeros(m, complex)
            y = np.zeros(n, complex)
            x[i] = 1.0
            y[j] = 1.0
            for theta in (THETA_REAL, THETA_IMAG):
                responses[(i, j, theta)] = sector_response_multi(jf, mu, x, y, theta)[0]
    return responses


def test_reconstruct_jf_zero_responses():
    responses = {(i, j, th): -0.5
                 for i in range(2) for j in range(2)
                 for th in (THETA_REAL, THETA_IMAG)}
    rec = reconstruct_JF(responses, 2, 2, -1)
    np.testing.assert_allclose(rec, 0.0, atol=1e-15)


def test_reconstruct_jf_scalar_reduction(mesh48_half, curv48_half):
    jf = coherence_matrix(mesh48_half, curv48_half, [1.0], [1.0])
    responses = _basis_responses(jf, -1, 1, 1)
    rec = reconstruct_JF(responses, 1, 1, -1)
    want = tomography_reconstruct(
        responses[(0, 0, THETA_REAL)], responses[(0, 0, THETA_IMAG)], -1)
    np.testing.assert_allclose(rec[0, 0], want, atol=1e-15)


def test_reconstruct_jf_roundtrip(jf_matrix):
    _, _, jf = jf_matrix
    rec = reconstruct_JF(_basis_responses(jf, -1, 2, 2), 2, 2, -1)
    np.testing.assert_allclose(rec, jf, atol=1e-12)


def test_reconstruct_jf_missing_probe(jf_matrix):
    _, _, jf = jf_matrix
    responses = _basis_responses(jf, -1, 2, 2)
    del responses[(1, 0, THETA_IMAG)]
    with pytest.raises(MissingProbe):
        reconstruct_JF(responses, 2, 2, -1)


# --- unitary invariance ----------------------------------------------------------------

def test_unitary_invariance_identity(jf_matrix):
    x, y, jf = jf_matrix
    assert unitary_invariance_check(jf, x, y, np.eye(2), np.eye(2)) <= 1e-15


def test_unitary_invariance_diagonal_phases(jf_matrix):
    x, y, jf = jf_matrix
    ua = np.diag(np.exp(1j * np.array([0.3, -1.1])))
    ub = np.diag(np.exp(1j * np.array([2.0, 0.7])))
    assert unitary_invariance_check(jf, x, y, ua, ub) <= 1e-14


def test_unitary_invariance_random_pairs(jf_matrix):
    x, y, jf = jf_matrix
    rng = np.random.default_rng(13)
    for _ in range(10):
        ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert unitary_invariance_check(jf, x, y, ua, ub) <= 1e-12


def test_unitary_invariance_rejects_non_unitary(jf_matrix):
    x, y, jf = jf_matrix
    with pytest.raises(NonUnitary):
        unitary_invariance_check(jf, x, y, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


# --- levi_type ------------------------------------------------------------------

def test_levi_type_unit_dyad():
    rng = np.random.default_rng(17)
    for m, n in ((1, 1), (2, 2), (3, 2)):
        y_block = np.outer(_unit(rng, m), np.conj(_unit(rng, n)))
        lt = levi_type(y_block)
        assert (lt.r_plus, lt.r_minus, lt.r_zero) == (1, 1, m + n - 2)


def test_levi_type_zero_block():
    lt = levi_type(np.zeros((2, 3)))
    assert (lt.r_plus, lt.r_minus, lt.r_zero) == (0, 0, 5)


def test_levi_type_rejects_partial_strength():
    rng = np.random.default_rng(18)
    y_block = 0.5 * np.outer(_unit(rng, 2), np.conj(_unit(rng, 2)))
    with pytest.raises(NotPartialIsometry):
        levi_type(y_block)


# --- witness_block / expectation -------------------------------------------------------------

def test_witness_block_form():
    rng = np.random.default_rng(19)
    x, y = _unit(rng, 2), _unit(rng, 3)
    theta = 0.8
    block = witness_block(x, y, theta)
    np.testing.assert_allclose(
        block, np.exp(-1j * theta) * np.outer(x, np.conj(y)), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(block, 2), 1.0, atol=1e-14)


def test_expectation_scalar_reduction_is_sign_average(p_half, mesh48_half):
    # -2 Re(a^dagger Y b) with one-orbital probes is minus the geometry eta
    rng = np.random.default_rng(23)
    kpts = mesh_kpoints(48, 48).reshape(-1, 2)
    vA, vB = _spinors(mesh48_half)
    for theta in rng.uniform(-math.pi, math.pi, size=20):
        block = witness_block([1.0], [1.0], theta)[0, 0]
        val = -2.0 * np.real(np.conj(vA) * block * vB)
        eta = qgt_sample_arrays(kpts, p_half, theta).eta
        np.testing.assert_allclose(val.ravel(), -eta, atol=1e-14)


def test_expectation_operator_norm_bound(jf_matrix, mesh48_half, curv48_half):
    # |<S'>| <= 2 ||Y|| ||a|| ||b|| at every sampled mesh point
    x, y, _ = jf_matrix
    report = multiorbital_bounds(mesh48_half, curv48_half, x, y, 0.4, samples=50, seed=29)
    assert report.max_slack["witness_expectation"] <= 1e-12


def test_sector_response_multi_refuses_mismatched_jf():
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValidationError, match=r"JF has shape \(2, 2\), expected \(3, 1\)") as excinfo:
        sector_response_multi(np.eye(2), 1, x, [1.0], 0.3)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("m, n, name", [(-1, 2, "m"), (0, 2, "m"), (2.0, 2, "m"), (2, "2", "n"), (2, True, "n")])
def test_reconstruct_jf_refuses_bad_sizes(m, n, name):
    with pytest.raises(ValidationError, match=f"^{name} must be") as excinfo:
        reconstruct_JF({}, m, n, 0)
    assert excinfo.value.exit_code == 2
