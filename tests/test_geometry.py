"""Quantum geometric tensor, sign-filtered variant, QFI, and inequality suite."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stratachern import (
    GeometrySamples,
    ModelParams,
    OnWall,
    ValidationError,
    ViolationFound,
    alpha_field,
    build_mesh,
    curvature_riemann_total,
    filtered_chern_from_qgt,
    inequality_suite,
    multiorbital_bounds,
    plaquette_curvature,
    qgt_sample_arrays,
    reference_phase,
    saturation_case,
    sector_responses,
)
from stratachern import geometry
from stratachern import mesh as mesh_module
from stratachern.mesh import _BLOCK_POINTS
from stratachern.model import K_PLUS, RECIPROCAL, bloch_vector_fields, mesh_kpoints

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


def valence_amplitudes(n):
    """Valence spinor (vA, vB) for unit Bloch vectors n of shape (..., 3).

    A smooth local section of the valence line on each hemisphere, with
    a = sqrt((1 - nz)/2), b = sqrt((1 + nz)/2), w = nx + i*ny,

        south (nz <= 0):  (vA, vB) = (a, -w/(2a))
        north (nz > 0):   (vA, vB) = (conj(w)/(2b), -b)

    Both are exact eigenvectors of n.sigma with eigenvalue -1, neither divides
    by a small number on its own hemisphere, and the poles need no special
    case: the south pole gives (1, 0) and the north pole (0, -1).  The two
    charts differ by the phase conj(w)/|w| on the equator; that mismatch is
    what the Chern number counts.  The package itself needs no section (it
    works with the projector); this two-chart gauge is the spinor route of the
    matrix-form QS reference below.
    """
    n = np.asarray(n, dtype=float)
    nz = n[..., 2]
    w = n[..., 0] + 1j * n[..., 1]
    vA = np.empty(nz.shape, dtype=complex)
    vB = np.empty(nz.shape, dtype=complex)

    s = nz <= 0.0
    m = ~s
    a = np.sqrt(0.5 * (1.0 - nz[s]))
    vA[s] = a
    vB[s] = -w[s] / (2.0 * a)
    b = np.sqrt(0.5 * (1.0 + nz[m]))
    vA[m] = np.conj(w[m]) / (2.0 * b)
    vB[m] = -b
    return vA, vB


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
    eta = qgt_sample_arrays(mesh_kpoints(48, 48)[m, n], p_half, theta).eta
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
    # d_dir(vA vB*) = (1/2) (-d_dir(n_x) + i d_dir(n_y)), read from the gradient triple as the ladder reads it
    rng = np.random.default_rng(43)
    h = 1e-5
    k = rng.uniform(-math.pi, math.pi, size=(20, 2))
    psi = rng.uniform(0.0, 2.0 * math.pi, size=20)
    dirs = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    along_x, along_y = (dirs[:, 0] * cx + dirs[:, 1] * cy for cx, cy in qgt_sample_arrays(k, p_half, 0.0).dn[:2])
    step = h * dirs
    fd = (qgt_sample_arrays(k + step, p_half, 0.0).coherence
          - qgt_sample_arrays(k - step, p_half, 0.0).coherence) / (2.0 * h)
    np.testing.assert_allclose(0.5 * (-along_x + 1j * along_y), fd, rtol=0.0, atol=1e-9)


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
    n, dn = np.stack(n, axis=-1), np.stack([np.stack(c, axis=-1) for c in dn], axis=-1)  # (P, 3), (P, 2, 3)
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


#: Every stored field of a batch, then the two formed when read.
SAMPLE_FIELDS = tuple(f.name for f in dataclasses.fields(GeometrySamples)) + ("g", "QS")


def _sample_row(arr, name, i):
    """Sample i's part of field ``name``: a row, or for the gradient triple its (3, 2) column."""
    value = getattr(arr, name)
    return np.array(value)[..., i] if name == "dn" else value[i]


def test_qgt_sample_arrays_matches_pointwise(p_half):
    # a batch gives each point what a one-point call gives it, to the last bit
    rng = np.random.default_rng(53)
    k = rng.uniform(-math.pi, math.pi, size=(10, 2))
    theta = rng.uniform(-math.pi, math.pi, size=10)
    direction = rng.normal(size=(10, 2))
    arr = qgt_sample_arrays(k, p_half, theta, direction)
    for i in range(10):
        one = qgt_sample_arrays(k[i], p_half, theta[i], direction[i])
        for name in SAMPLE_FIELDS:
            assert _sample_row(arr, name, i).tobytes() == _sample_row(one, name, 0).tobytes(), (i, name)
    # one 2-vector probe is every point's probe
    shared = qgt_sample_arrays(k, p_half, theta, direction[3])
    assert shared.FQ.tobytes() == qgt_sample_arrays(k, p_half, theta, np.tile(direction[3], (10, 1))).FQ.tobytes()


def test_saturation_case_is_a_point_of_a_larger_batch(p_default):
    # the one-point probe and sample carry the bits of k = (0, 1) inside a two-point batch
    sample = saturation_case(p_default)
    pair = qgt_sample_arrays([geometry._EQUATOR_K, (0.3, 0.7)], p_default, [0.0, 0.1])
    assert sample.theta[0] == -np.angle(pair.coherence[0])
    pair = qgt_sample_arrays([geometry._EQUATOR_K, (0.3, 0.7)], p_default, [sample.theta[0], 0.1])
    for name in SAMPLE_FIELDS:
        assert _sample_row(sample, name, 0).tobytes() == _sample_row(pair, name, 0).tobytes(), name


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5),  # p_half
    ModelParams(0.8, 0.2, -2.0, 0.1),
    P_FLAT,  # every point a pole
], ids=["p_half", "p_other", "poles"])
@pytest.mark.parametrize("count", [0, 500])
def test_fq_is_four_d_g_d(p, count):
    # FQ = |d_dir(n)|^2 is the metric read along the probe, 4 d.g.d
    rng = np.random.default_rng(67)
    k = rng.uniform(-math.pi, math.pi, size=(count, 2))
    direction = rng.normal(size=(count, 2))
    arr = qgt_sample_arrays(k, p, 0.3, direction)
    want = 4.0 * np.einsum("pa,pab,pb->p", direction, arr.g, direction)
    assert arr.FQ.shape == want.shape == (count,)
    if p == P_FLAT:
        # n sits at a pole, so both vanish up to dn's rounding residue (about 1e-16 a component)
        assert np.all(arr.FQ <= 1e-30) and np.all(np.abs(want) <= 1e-30)
    else:
        # d.g.d sums terms of size |d|^2 tr g, so where d_dir(n) cancels it carries their rounding
        scale = 4.0 * np.einsum("pa,pa->p", direction, direction) * np.trace(arr.g, axis1=1, axis2=2)
        assert np.all(np.abs(arr.FQ - want) <= 1e-13 * np.abs(want) + 1e-15 * scale)


def test_empty_batch_gives_empty_fields(p_half):
    arr = qgt_sample_arrays(np.zeros((0, 2)), p_half, 0.1)
    assert arr.g.shape == (0, 2, 2) and arr.QS.shape == (0, 2, 2)
    for name in ("nz", "coherence", "Fxy", "eta", "C", "dual_dev", "FQ", "FQS", "theta"):
        assert getattr(arr, name).shape == (0,), name
    assert [c.shape for pair in arr.dn for c in pair] == [(0,)] * 6
    assert qgt_sample_arrays(np.zeros((0, 2)), p_half, 0.1, (0.6, 0.8)).FQ.shape == (0,)


@pytest.mark.parametrize("call, name", [
    (lambda p: qgt_sample_arrays(np.zeros((2, 3)), p, 0.1), "k"),
    (lambda p: qgt_sample_arrays([], p, 0.1), "k"),
    (lambda p: qgt_sample_arrays(np.zeros((3, 2)), p, [0.1, 0.2]), "theta"),
    (lambda p: qgt_sample_arrays(np.zeros((3, 2)), p, 0.1, np.ones((2, 2))), "direction"),
    *(pytest.param(lambda p, bad=bad: qgt_sample_arrays([[0.3, 0.7], [bad, 0.0]], p, 0.1), "k",
                   id=f"k-{bad}") for bad in (math.nan, math.inf, -math.inf)),
    *(pytest.param(lambda p, bad=bad: qgt_sample_arrays([[0.3, 0.7]], p, 0.1, (1.0, bad)), "direction",
                   id=f"direction-{bad}") for bad in (math.nan, math.inf, -math.inf)),
    *(pytest.param(lambda p, bad=bad: qgt_sample_arrays(np.zeros((2, 2)), p, 0.1, [[1.0, 0.0], [bad, 1.0]]),
                   "direction", id=f"per-point-direction-{bad}") for bad in (math.nan, math.inf, -math.inf)),
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

def test_saturation_case_default(p_default):
    sample = saturation_case(p_default)
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
    payload = dataclasses.asdict(report)
    assert payload["violations"] == 0
    assert set(payload["max_slack"]) == set(report.max_slack)


def test_inequality_suite_separable_limit():
    # t1=0 keeps every state at a pole: all filtered quantities collapse to zero
    report = inequality_suite(P_FLAT, 0.0, (12, 12), samples=200, seed=11)
    assert report.violations == 0
    np.testing.assert_allclose(report.nu_S, 0.0, atol=1e-15)


def test_inequality_suite_negative_margin_flags(p_half, monkeypatch):
    # an impossible margin must trip the failure path, proving it is exercised
    monkeypatch.setattr(geometry, "BOUND_SLACK", -1.0)
    with pytest.raises(ViolationFound) as excinfo:
        inequality_suite(p_half, 0.4, (12, 12), samples=50, seed=1)
    assert excinfo.value.report.violations > 0


def test_inequality_suite_is_the_same_across_blocks(p_half, monkeypatch):
    # three blocks, cut at samples that are not multiples of a SIMD width, against one block
    samples = 2 * _BLOCK_POINTS + 1234
    sizes, fields = [], []  # per engine call: its sample count and the fields the checks read
    engine = geometry.qgt_sample_arrays

    def recorded(k, *args):
        arr = engine(k, *args)
        sizes.append(len(k))
        fields.append([arr.nz, arr.coherence, np.array(arr.dn).T, arr.Fxy, arr.eta, arr.im_qs_xy, arr.FQ, arr.FQS])
        return arr

    monkeypatch.setattr(geometry, "qgt_sample_arrays", recorded)

    def run(block, slack=geometry.BOUND_SLACK):
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_BLOCK_POINTS", block)
            patch.setattr(geometry, "BOUND_SLACK", slack)
            try:
                return inequality_suite(p_half, 0.4, 12, samples, 7), None
            except ViolationFound as err:
                return err.report, str(err)

    (blocked, _), (whole, _) = run(_BLOCK_POINTS), run(samples + 1)
    assert len(sizes) == 4 and sum(sizes[:3]) == samples == sizes[3]
    assert blocked.violations == 0
    assert {n: v.hex() for n, v in blocked.max_slack.items()} == {n: v.hex() for n, v in whole.max_slack.items()}
    # 44 blocks below 5462 samples, the size from which numpy would elide an in-place NNN
    # phase product; every sample's fields are the whole batch's, to the last bit
    small, _ = run(777)
    assert len(sizes) == 4 + 44 and max(sizes[4:]) < 5462
    assert {n: v.hex() for n, v in small.max_slack.items()} == {n: v.hex() for n, v in whole.max_slack.items()}
    for cut, one in zip(zip(*fields[4:]), fields[3]):
        assert np.concatenate(cut).tobytes() == one.tobytes()
    del fields[:]

    # the sample at the largest |FQS| - C FQ lies in the second block; a slack just below
    # it makes that sample the first offender, named by its global index and its own k
    k = np.random.Generator(np.random.Philox(7)).random((samples, 2)) @ RECIPROCAL
    for slack in (-1.0, np.nextafter(whole.max_slack["abs_fqs_le_c_fq"], -np.inf)):
        (report, message), (want, want_message) = run(_BLOCK_POINTS, slack), run(samples + 1, slack)
        assert report == want and message == want_message and report.violations > 0
        assert run(777, slack) == (want, want_message)  # the offenders' lhs and rhs, to the last bit
        i = int(message.split(" at sample ")[1].split(":")[0])
        assert f"(k = {k[i]}, theta = 0.4)" in message
    assert sizes[0] < i and " first: abs_fqs_le_c_fq at sample " in message


def test_inequality_suite_never_forms_the_metric(p_half, monkeypatch):
    # FQ is read along the probe: the ladder reads no (P, 2, 2) g, in any of its blocks
    def no_metric(self):
        raise AssertionError("the inequality ladder formed g")

    monkeypatch.setattr(GeometrySamples, "g", property(no_metric))
    report = inequality_suite(p_half, 0.4, 12, 2 * _BLOCK_POINTS + 1234, 7)
    assert report.violations == 0 and report.samples == 2 * _BLOCK_POINTS + 1234
    with pytest.raises(AssertionError, match="formed g"):
        saturation_case(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.0)).QS


def test_inequality_suite_counts_every_violation(monkeypatch):
    # at a slack of -1, 1866 to 2000 of the 2000 samples fail each pointwise bound, and the global one fails
    monkeypatch.setattr(geometry, "BOUND_SLACK", -1.0)
    with pytest.raises(ViolationFound, match="^9803 bound violation[(]s[)]; first: ") as excinfo:
        inequality_suite(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5), 0.4, 12, 2000, 1)
    assert excinfo.value.report.violations == 9803
    # and a multi-orbital report counts more than the three offenders per bound its message keeps
    mesh = build_mesh(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5), 12, 12)
    with pytest.raises(ViolationFound) as excinfo:
        multiorbital_bounds(mesh, plaquette_curvature(mesh), [1.0], [1.0], 0.4, 200, 1)
    report = excinfo.value.report
    assert report.violations > 3 * len(report.max_slack) and str(excinfo.value).startswith(f"{report.violations} ")


def test_inequality_suite_refuses_an_on_wall_model(monkeypatch):
    # M = sqrt(3) closes the gap at K; no point of a 17 x 33 mesh lands there
    on_wall = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, SQRT3)
    with pytest.raises(ValidationError, match="^samples "):
        inequality_suite(on_wall, 0.3, (17, 33), 0, 1)  # argument checks come first

    def no_work(*args, **kwargs):
        raise AssertionError("sampled before the on-wall check")

    monkeypatch.setattr(geometry, "qgt_sample_arrays", no_work)
    monkeypatch.setattr(geometry, "build_mesh", no_work)
    with pytest.raises(OnWall) as excinfo:
        inequality_suite(on_wall, 0.3, (17, 33), 200, 1)
    assert excinfo.value.exit_code == 4


def test_inequality_suite_global_bound_matches_the_oracle(p_half):
    # (1/2pi) sqrt(sum |F|) sqrt(sum C^2 |F|) from the oracle's link curvature, with
    # C^2 = 1 - nz^2 and nz = |uA|^2 - |uB|^2 of its own eigh valence states
    from test_model import oracle  # here: test_model imports this module
    args = dataclasses.astuple(p_half)
    absf = np.abs(oracle.fhs_curvature(*args, 24, 24))
    u = oracle.valence(oracle.mesh_k(24, 24), *args)
    nz = np.abs(u[..., 0]) ** 2 - np.abs(u[..., 1]) ** 2
    want = math.sqrt(absf.sum()) * math.sqrt(((1.0 - nz * nz) * absf).sum()) / (2.0 * math.pi)
    report = inequality_suite(p_half, 0.4, (24, 24), samples=10, seed=1)
    assert abs(report.nu_S_bound - want) <= 1e-13


def test_inequality_suite_peak_memory_is_the_stream_plus_a_few_blocks(p_half):
    # the k (16 bytes) and angle (8 bytes) stream plus block temporaries, about 7 MiB at
    # 16384-point blocks; one whole-batch pass held about 24 MiB at this sample count
    samples = 4 * _BLOCK_POINTS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inequality_suite(p_half, 0.4, 12, samples, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * samples + 96 * 8 * _BLOCK_POINTS


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


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10"])
def test_bound_suites_refuse_empty_sample_batches(p_half, mesh48_half, curv48_half, samples):
    for call in (
        lambda: inequality_suite(p_half, 0.1, 8, samples, 1),
        lambda: multiorbital_bounds(mesh48_half, curv48_half, [1.0], [1.0], 0.1, samples, 1),
    ):
        with pytest.raises(ValidationError, match="samples") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("seed", [-1, 2.5, True, None, "7"])
def test_bound_suites_refuse_non_integer_seeds(p_half, mesh48_half, curv48_half, seed):
    for call in (
        lambda: inequality_suite(p_half, 0.1, 8, 10, seed),
        lambda: multiorbital_bounds(mesh48_half, curv48_half, [1.0], [1.0], 0.1, 10, seed),
    ):
        with pytest.raises(ValidationError, match="^seed ") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


def test_multiorbital_bounds_requires_model(mesh48_half, curv48_half):
    bare = dataclasses.replace(mesh48_half, params=None)
    with pytest.raises(ValidationError):
        multiorbital_bounds(bare, curv48_half, [1.0], [1.0], 0.0, 10, 1)
