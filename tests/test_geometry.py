"""Quantum geometric tensor, sign-filtered variant, QFI, and inequality suite."""
import dataclasses
import math

import numpy as np
import pytest

from stratachern import (
    GeometrySamples,
    ModelParams,
    ValidationError,
    ViolationFound,
    alpha_field,
    curvature_riemann_total,
    filtered_chern_from_qgt,
    inequality_suite,
    multiorbital_bounds,
    qgt_sample_arrays,
    reference_phase,
    saturation_case,
    sector_responses,
)
from stratachern.model import K_PLUS, bloch_vector_fields, valence_amplitudes

SQRT3 = math.sqrt(3.0)

# finite-difference spot values at M=0.5 (projector differences, h=1e-5;
# frozen from the eigh-based reference implementation, so tolerances are
# limited by the h^2 truncation error, not by this package)
FD_SPOTS = [
    # k, theta, g00, g01, g11, Fxy, eta
    ((0.3, 0.7), 0.4,
     0.010947368651, 0.011950112797, 0.016770760877, -0.012773489111,
     -0.889552717860),
    ((1.1, -0.6), -1.2,
     0.034691722835, 0.029602862353, 0.131062967525, -0.121168819154,
     -0.454182126612),
    ((-0.4, 2.0), 2.9,
     1.088997796197, -0.091991124788, 0.948264850301, -2.024051348309,
     0.761731121254),
]

P_FLAT = ModelParams(t1=0.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=4.0)


def valence_section_derivatives(n, dn):
    """Exact k-derivatives (dvA, dvB), each (..., 2), of the valence section
    ``valence_amplitudes(n)`` given dn[..., a, c] = d n_c / d k_a.

    This spinor route is the matrix-form reference for the projector-form QS:
    it differentiates each hemisphere chart of the gauge-fixed section.
    """
    n = np.asarray(n, dtype=float)
    dn = np.asarray(dn, dtype=float)
    nz = n[..., 2]
    w = n[..., 0] + 1j * n[..., 1]
    dw = dn[..., 0] + 1j * dn[..., 1]         # (..., 2)
    dnz = dn[..., 2]
    dvA = np.empty(dw.shape, dtype=complex)
    dvB = np.empty(dw.shape, dtype=complex)

    s = nz <= 0.0                             # south chart (a, -w/2a)
    m = ~s                                    # north chart (conj(w)/2b, -b)
    a = np.sqrt(0.5 * (1.0 - nz[s]))[..., None]
    b = np.sqrt(0.5 * (1.0 + nz[m]))[..., None]
    da = -dnz[s] / (4.0 * a)
    dvA[s] = da
    dvB[s] = -dw[s] / (2.0 * a) + w[s, None] * da / (2.0 * a**2)
    db = dnz[m] / (4.0 * b)
    dvA[m] = np.conj(dw[m]) / (2.0 * b) - np.conj(w[m])[:, None] * db / (2.0 * b**2)
    dvB[m] = -db
    return dvA, dvB


def sign_operator_matrix(theta) -> np.ndarray:
    """Compressed witness on the two-level Bloch space:
    S' = -(cos(theta) sx + sin(theta) sy) = [[0, -e^{-i t}], [-e^{i t}, 0]].
    Accepts a scalar or a batch of phases; returns (..., 2, 2)."""
    th = np.asarray(theta, dtype=float)
    phase = np.exp(1j * th)
    out = np.zeros(th.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = -np.conj(phase)
    out[..., 1, 0] = -phase
    return out


# --- metric and curvature -------------------------------------------------------------

def test_qgt_vanishes_without_nn_hopping():
    # with t1=0 the Bloch vector never leaves the pole: no geometry at all
    arr = qgt_sample_arrays([(0.2, 0.4), (1.0, -2.0)], P_FLAT, 0.0)
    np.testing.assert_allclose(arr.g, 0.0, atol=1e-15)
    np.testing.assert_allclose(arr.Fxy, 0.0, atol=1e-15)


def test_qgt_determinant_curvature_identity(p_half):
    # two-band purity: det g = Fxy^2 / 4 pointwise
    rng = np.random.default_rng(31)
    arr = qgt_sample_arrays(rng.uniform(-math.pi, math.pi, size=(100, 2)), p_half, 0.0)
    g = arr.g
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    want = arr.Fxy * arr.Fxy / 4.0
    assert np.all(np.abs(det - want) <= 1e-10 * np.maximum(np.abs(want), 1e-30))


def test_qgt_frozen_finite_difference_spots(p_half):
    k, theta, g00, g01, g11, fxy, eta = (np.array(c) for c in zip(*FD_SPOTS))
    arr = qgt_sample_arrays(k, p_half, theta)
    np.testing.assert_allclose(
        [arr.g[:, 0, 0], arr.g[:, 0, 1], arr.g[:, 1, 1], arr.Fxy], [g00, g01, g11, fxy],
        atol=5e-8)
    np.testing.assert_allclose(arr.eta, eta, atol=1e-11)


def test_riemann_total_recovers_invariant(p_half):
    # the closed-form plaquette-corner sum reproduces mu to well under 5/N^2
    total = curvature_riemann_total(p_half, 48)
    np.testing.assert_allclose(total, -1.0, atol=5.0 / 48 ** 2)


# --- Fisher information FQ = 4 d.g.d ----------------------------------------------------

def test_qfi_zero_metric():
    assert qgt_sample_arrays([0.3, 0.1], P_FLAT, 0.0, (1.0, 0.0)).FQ[0] == 0.0


def test_qfi_direction_scaling(p_half):
    k = [(0.9, -0.2), (0.9, -0.2)]
    fq = qgt_sample_arrays(k, p_half, 0.0, [(0.6, -1.1), (2.1, -3.85)]).FQ
    np.testing.assert_allclose(fq[1], 3.5 ** 2 * fq[0], rtol=1e-13)


def test_qfi_grows_as_dirac_mass_shrinks():
    # fixed offset from the zone corner; the Dirac mass there is M - sqrt(3)
    k = K_PLUS + np.array([0.05, 0.0])
    values = []
    for mass in (0.5, 0.1):
        p = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3 - mass)
        values.append(qgt_sample_arrays(k, p, 0.0, (1.0, 0.0)).FQ[0])
    np.testing.assert_allclose(
        values, [8.503698890572737, 103.64272878149912], rtol=1e-12)
    assert values[1] > values[0]


# --- eta / concurrence ------------------------------------------------------------

def test_eta_zero_coherence():
    # polar state, coherence 0
    assert qgt_sample_arrays([0.3, 0.1], P_FLAT, 0.7).eta[0] == 0.0


def test_eta_matches_weight(p_half, mesh48_half):
    rng = np.random.default_rng(37)
    m, n = rng.integers(0, 48, size=(2, 1000))
    theta = rng.uniform(-math.pi, math.pi, size=1000)
    eta = qgt_sample_arrays(mesh48_half.kpoints[m, n], p_half, theta).eta
    alpha = np.array([alpha_field(mesh48_half, t)[i, j] for i, j, t in zip(m, n, theta)])
    np.testing.assert_allclose(eta, 2.0 * alpha - 1.0, atol=1e-14)


def test_concurrence_values(p_half):
    pole = qgt_sample_arrays([0.3, 0.1], P_FLAT, 0.0)
    assert pole.C[0] == 0.0
    equator = qgt_sample_arrays(np.zeros(2), ModelParams(1.0, 0.0, 0.0, 0.0), 0.0)
    np.testing.assert_allclose(equator.C, 1.0, atol=1e-15)
    rng = np.random.default_rng(41)
    arr = qgt_sample_arrays(rng.uniform(-math.pi, math.pi, size=(50, 2)), p_half, 0.0)
    np.testing.assert_allclose(arr.C, np.sqrt(np.maximum(0.0, 1.0 - arr.nz ** 2)), atol=1e-13)
    np.testing.assert_allclose(arr.C, 2.0 * np.abs(arr.coherence), atol=1e-13)


def test_coherence_gradient_matches_finite_differences(p_half):
    rng = np.random.default_rng(43)
    h = 1e-5
    k = rng.uniform(-math.pi, math.pi, size=(20, 2))
    grad = qgt_sample_arrays(k, p_half, 0.0).dcoherence
    for axis in (0, 1):
        step = h * np.eye(2)[axis]
        fd = (qgt_sample_arrays(k + step, p_half, 0.0).coherence
              - qgt_sample_arrays(k - step, p_half, 0.0).coherence) / (2.0 * h)
        np.testing.assert_allclose(grad[:, axis], fd, atol=1e-7)


# --- filtered tensor -----------------------------------------------------------------

def test_sign_operator_matrix():
    theta = 0.3
    s_op = sign_operator_matrix(theta)
    want = -np.array([[0.0, np.exp(-1j * theta)], [np.exp(1j * theta), 0.0]])
    np.testing.assert_allclose(s_op, want, atol=1e-15)
    np.testing.assert_allclose(s_op, s_op.conj().T, atol=1e-15)
    np.testing.assert_allclose(s_op @ s_op, np.eye(2), atol=1e-15)
    batched = sign_operator_matrix(np.array([0.0, 1.0, -2.0]))
    assert batched.shape == (3, 2, 2)
    np.testing.assert_allclose(batched[1], sign_operator_matrix(1.0), atol=1e-15)


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5),  # p_half
    ModelParams(0.8, 0.2, -2.0, 0.1),
    P_FLAT,  # every point a pole
], ids=["p_half", "p_other", "poles"])
def test_insertion_form_matches_matrix_form(p):
    # reference: the 2x2 matrix form <da u| Pperp S' Pperp |db u>, point by point
    rng = np.random.default_rng(61)
    k = rng.uniform(-math.pi, math.pi, size=(200, 2))
    theta = rng.uniform(-math.pi, math.pi, size=200)
    arr = qgt_sample_arrays(k, p, theta)

    n, dn, _ = bloch_vector_fields(k, p)
    vA, vB = valence_amplitudes(n)
    dvA, dvB = valence_section_derivatives(n, dn)
    u = np.stack([vA, vB], axis=-1)                  # (P, 2)
    du = np.stack([dvA, dvB], axis=-1)               # (P, 2, 2) [point, direction, component]
    perp = np.eye(2)[None] - u[:, :, None] * np.conj(u[:, None, :])
    want = np.einsum("pai,pij,pbj->pab", np.conj(du), perp @ sign_operator_matrix(theta) @ perp, du)

    np.testing.assert_allclose(arr.QS, want, rtol=0.0, atol=1e-14)
    assert np.all(arr.dual_dev <= 1e-10)
    assert np.array_equal(arr.g, 0.25 * np.einsum("pac,pbc->pab", dn, dn))


def test_filtered_tensor_vanishes_at_perpendicular_phase(p_half):
    k = np.array([0.4, 1.3])
    theta = math.pi / 2.0 - np.angle(qgt_sample_arrays(k, p_half, 0.0).coherence[0])  # eta = 0
    sample = qgt_sample_arrays(k, p_half, theta)
    assert abs(sample.eta[0]) <= 1e-14
    assert np.max(np.abs(sample.QS)) <= 1e-10


def test_filtered_tensor_imaginary_part(p_half):
    rng = np.random.default_rng(47)
    draws = [(rng.uniform(-math.pi, math.pi, size=2), rng.uniform(-math.pi, math.pi))
             for _ in range(50)]
    k, theta = (np.array(c) for c in zip(*draws))
    arr = qgt_sample_arrays(k, p_half, theta)
    np.testing.assert_allclose(arr.im_qs_xy, 0.5 * arr.eta * arr.Fxy, atol=1e-12)
    assert np.all(arr.dual_dev <= 1e-10)


def test_qgt_sample_arrays_matches_pointwise(p_half):
    # a batch gives each point what a one-point call gives it
    rng = np.random.default_rng(53)
    k = rng.uniform(-math.pi, math.pi, size=(10, 2))
    theta = rng.uniform(-math.pi, math.pi, size=10)
    direction = rng.normal(size=(10, 2))
    arr = qgt_sample_arrays(k, p_half, theta, direction)
    for i in range(10):
        one = qgt_sample_arrays(k[i], p_half, theta[i], direction[i])
        np.testing.assert_allclose(arr.g[i], one.g[0], atol=1e-14)
        np.testing.assert_allclose(arr.Fxy[i], one.Fxy[0], atol=1e-14)
        np.testing.assert_allclose(arr.eta[i], one.eta[0], atol=1e-14)
        np.testing.assert_allclose(arr.QS[i], one.QS[0], atol=1e-14)
        np.testing.assert_allclose(arr.FQ[i], one.FQ[0], atol=1e-13)
        np.testing.assert_allclose(arr.FQS[i], one.FQS[0], atol=1e-13)


def test_empty_batch_gives_empty_fields(p_half):
    arr = qgt_sample_arrays(np.zeros((0, 2)), p_half, 0.1)
    assert arr.g.shape == (0, 2, 2) and arr.QS.shape == (0, 2, 2)
    for name in ("nz", "coherence", "Fxy", "eta", "C", "dual_dev", "FQ", "FQS", "theta"):
        assert getattr(arr, name).shape == (0,), name
    assert arr.dcoherence.shape == (0, 2) and arr.direction.shape == (0, 2)


@pytest.mark.parametrize("call, name", [
    (lambda p: qgt_sample_arrays(np.zeros((2, 3)), p, 0.1), "k"),
    (lambda p: qgt_sample_arrays([], p, 0.1), "k"),
    (lambda p: qgt_sample_arrays(np.zeros((3, 2)), p, [0.1, 0.2]), "theta"),
    (lambda p: qgt_sample_arrays(np.zeros((3, 2)), p, 0.1, np.ones((2, 2))), "direction"),
])
def test_mismatched_input_shapes_are_refused_before_any_work(p_half, monkeypatch, call, name):
    def no_work(*args, **kwargs):
        raise AssertionError("geometry evaluated before the shape check")

    monkeypatch.setattr("stratachern.geometry.bloch_vector_fields", no_work)
    with pytest.raises(ValidationError, match=rf"^{name} ") as excinfo:
        call(p_half)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_refused(p_half, mesh48_half, curv48_half, theta):
    for call in (
        lambda: qgt_sample_arrays([(0.3, 0.7)], p_half, theta),
        lambda: qgt_sample_arrays([(0.3, 0.7), (1.1, -0.6)], p_half, [0.0, theta]),
        lambda: filtered_chern_from_qgt(p_half, theta, 8),
        lambda: inequality_suite(p_half, theta, 8, samples=10, seed=1),
        lambda: multiorbital_bounds(mesh48_half, curv48_half, [1.0], [1.0], theta, 10, 1),
    ):
        with pytest.raises(ValidationError, match="witness theta must be finite") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


def test_filtered_sum_without_nn_hopping():
    assert filtered_chern_from_qgt(P_FLAT, 0.7, 24) == 0.0


def test_filtered_sum_tracks_graded_response(p_half, mesh48_half, curv48_half):
    theta = reference_phase(mesh48_half)
    est = filtered_chern_from_qgt(p_half, theta, 48)
    nu_s = sector_responses(mesh48_half, curv48_half, theta).nu_S
    assert abs(est - nu_s) <= 10.0 / 48 ** 2


# --- saturation -----------------------------------------------------------------------

def test_saturation_case_default():
    sample = saturation_case()
    assert isinstance(sample, GeometrySamples) and sample.k.shape == (1, 2)
    np.testing.assert_allclose(sample.FQ, 0.21794124959757002, rtol=1e-12)
    np.testing.assert_allclose(sample.FQS, sample.FQ, atol=1e-12)
    np.testing.assert_allclose(sample.eta, 1.0, atol=1e-13)
    np.testing.assert_allclose(sample.C, 1.0, atol=1e-13)


def test_saturation_case_rejects_off_equator(p_half):
    with pytest.raises(ValidationError):
        saturation_case(p_half)  # nz != 0 at the default k for M=0.5


# --- inequality suites ------------------------------------------------------------------

def test_inequality_suite_clean(p_half):
    report = inequality_suite(p_half, 0.4, (24, 24), samples=2000, seed=7)
    assert report.violations == 0
    assert report.samples == 2000
    for name, slack in report.max_slack.items():
        assert slack <= 1e-12, name
    assert abs(report.nu_S) <= report.nu_S_bound
    payload = report.to_dict()
    assert payload["violations"] == 0
    assert set(payload["max_slack"]) == set(report.max_slack)


def test_inequality_suite_separable_limit():
    # t1=0 keeps every state at a pole: all filtered quantities collapse to zero
    report = inequality_suite(P_FLAT, 0.0, (12, 12), samples=200, seed=11)
    assert report.violations == 0
    np.testing.assert_allclose(report.nu_S, 0.0, atol=1e-15)


def test_inequality_suite_negative_margin_flags(p_half):
    # an impossible margin must trip the failure path, proving it is exercised
    with pytest.raises(ViolationFound) as excinfo:
        inequality_suite(p_half, 0.4, (12, 12), samples=50, seed=1, slack=-1.0)
    assert excinfo.value.report.violations > 0


def test_multiorbital_bounds_clean(mesh48_half, curv48_half):
    rng = np.random.default_rng(59)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    x /= np.linalg.norm(x)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    y /= np.linalg.norm(y)
    report = multiorbital_bounds(
        mesh48_half, curv48_half, x, y, theta=0.4, samples=500, seed=3)
    assert report.violations == 0
    np.testing.assert_allclose(report.y_operator_norm, 1.0, atol=1e-12)
    assert abs(report.nu) <= report.nu_bound
    for name, slack in report.max_slack.items():
        assert slack <= 1e-12, name


def test_multiorbital_bounds_scalar_reduction(mesh48_half, curv48_half):
    report = multiorbital_bounds(
        mesh48_half, curv48_half, [1.0], [1.0], theta=0.4, samples=100, seed=5)
    scalar = sector_responses(mesh48_half, curv48_half, 0.4)
    np.testing.assert_allclose(report.nu, scalar.nu_S, atol=1e-13)


@pytest.mark.parametrize("samples", [0, -3])
def test_bound_suites_refuse_empty_sample_batches(p_half, mesh48_half, curv48_half, samples):
    for call in (
        lambda: inequality_suite(p_half, 0.1, 8, samples, 1),
        lambda: multiorbital_bounds(mesh48_half, curv48_half, [1.0], [1.0], 0.1, samples, 1),
    ):
        with pytest.raises(ValidationError, match="samples") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


def test_multiorbital_bounds_requires_model(mesh48_half, curv48_half):
    bare = dataclasses.replace(mesh48_half, params=None)
    with pytest.raises(ValidationError):
        multiorbital_bounds(bare, curv48_half, [1.0], [1.0], 0.0, 10, 1)
