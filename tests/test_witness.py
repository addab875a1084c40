"""Witness weights, reference phase, sector responses, tomography, mass sweep."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stratachern import (
    DegeneratePhase,
    ModelParams,
    NonIntegerTotal,
    ValidationError,
    WitnessSpec,
    alpha_field,
    chern_number,
    coherence_matrix,
    inequality_suite,
    multiorbital_bounds,
    plaquette_curvature,
    build_mesh,
    qgt_sample_arrays,
    reference_phase,
    sector_response_multi,
    sector_responses,
    sweep_mass,
    theta_grid,
    theta_scan,
    tomography_reconstruct,
    witness_block,
)
from stratachern import mesh as mesh_module
from stratachern import witness
from stratachern.mesh import _BLOCK_POINTS
from stratachern.model import mesh_kpoints

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# mesh-averaged conjugated coherence angle, 48x48 (frozen from the eigh-based
# reference implementation; agreement there was 9e-16)
THETA_REF_M0 = 2.6275156287440726
THETA_REF_M05 = 2.62783005327028

# 48x48 sector responses at M=0.5, theta=0.4 (frozen from the same reference)
SECTOR_M05 = dict(
    mu=-1,
    nu_minus=-0.4830139155624809,
    nu_plus=-0.5169860844375191,
    nu_S=-0.03397216887503827,
    JF=0.016221169462454305 - 0.00525244382792986j,
)


def _mesh_of_state(mesh, n):
    """``mesh`` with the valence state of the unit Bloch vector n at every point."""
    coherence = (-n[0] + 1j * n[1]) / 2.0  # P_AB of P = (1 - n.sigma)/2
    return dataclasses.replace(mesh, coherence=np.full(mesh.coherence.shape, coherence))


def _equator(angle):
    """Unit Bloch vector whose state has coherence exp(-i*angle)/2."""
    return (-math.cos(angle), -math.sin(angle), 0.0)


# --- alpha_field ----------------------------------------------------------------

def test_weight_alpha_zero_coherence(mesh24):
    north = _mesh_of_state(mesh24, (0.0, 0.0, 1.0))
    for theta in (0.0, 0.7, -2.0):
        alpha = alpha_field(north, theta)
        assert np.all(alpha == 0.5)
        assert np.all(1.0 - 2.0 * alpha == 0.0)


def test_weight_alpha_aligned_phase(mesh24):
    theta = 0.7
    alpha = alpha_field(_mesh_of_state(mesh24, _equator(theta)), theta)
    np.testing.assert_allclose(alpha, 1.0, atol=1e-14)
    np.testing.assert_allclose(1.0 - 2.0 * alpha, -1.0, atol=1e-14)


def test_weight_alpha_antialigned_phase(mesh24):
    alpha = alpha_field(_mesh_of_state(mesh24, (1.0, 0.0, 0.0)), 0.0)  # coherence -1/2
    np.testing.assert_allclose(alpha, 0.0, atol=1e-14)
    np.testing.assert_allclose(1.0 - 2.0 * alpha, 1.0, atol=1e-14)


def test_weight_alpha_range_and_identity(mesh24):
    # the witness expectation <S> = 1 - 2 alpha is minus the geometry eta
    rng = np.random.default_rng(3)
    kpts = mesh_kpoints(24, 24).reshape(-1, 2)
    for theta in rng.uniform(-math.pi, math.pi, size=50):
        alpha = alpha_field(mesh24, theta)
        assert np.all((-1e-15 <= alpha) & (alpha <= 1.0 + 1e-15))
        eta = qgt_sample_arrays(kpts, mesh24.params, theta).eta
        np.testing.assert_allclose(1.0 - 2.0 * alpha.ravel(), -eta, atol=1e-15)


# --- reference_phase ----------------------------------------------------------

def test_reference_phase_constant_field(mesh24):
    synth = dataclasses.replace(
        mesh24, coherence=np.full((24, 24), -0.5 + 0.0j))
    np.testing.assert_allclose(reference_phase(synth), math.pi, atol=1e-15)


def test_reference_phase_degenerate(mesh24):
    synth = dataclasses.replace(mesh24, coherence=np.zeros((24, 24), complex))
    with pytest.raises(DegeneratePhase):
        reference_phase(synth)


def test_reference_phase_frozen(mesh48, mesh48_half):
    np.testing.assert_allclose(reference_phase(mesh48), THETA_REF_M0, atol=1e-12)
    np.testing.assert_allclose(reference_phase(mesh48_half), THETA_REF_M05, atol=1e-12)


# --- sector_responses ----------------------------------------------------------

def test_sector_responses_zero_coherence(mesh24, curv24):
    # alpha = 1/2 everywhere, so both sectors carry exactly half the invariant
    synth = dataclasses.replace(mesh24, coherence=np.zeros((24, 24), complex))
    rep = sector_responses(synth, curv24, theta=0.9)
    assert rep.mu == -1
    np.testing.assert_allclose(rep.nu_minus, -0.5, atol=1e-13)
    np.testing.assert_allclose(rep.nu_plus, -0.5, atol=1e-13)
    np.testing.assert_allclose(rep.nu_S, 0.0, atol=1e-13)
    np.testing.assert_allclose(rep.JF, 0.0, atol=1e-15)


def test_sector_responses_frozen(mesh48_half, curv48_half):
    rep = sector_responses(mesh48_half, curv48_half, theta=0.4)
    assert rep.mu == SECTOR_M05["mu"]
    np.testing.assert_allclose(rep.nu_minus, SECTOR_M05["nu_minus"], atol=1e-12)
    np.testing.assert_allclose(rep.nu_plus, SECTOR_M05["nu_plus"], atol=1e-12)
    np.testing.assert_allclose(rep.nu_S, SECTOR_M05["nu_S"], atol=1e-12)
    np.testing.assert_allclose(rep.JF, SECTOR_M05["JF"], atol=1e-12)


def test_sector_identities_at_reference_phase(mesh48_half, curv48_half):
    theta = reference_phase(mesh48_half)
    rep = sector_responses(mesh48_half, curv48_half, theta)
    assert rep.r_mu <= 1e-12
    assert rep.r_nu <= 1e-12
    np.testing.assert_allclose(
        rep.nu_minus, rep.mu / 2.0 + (np.exp(1j * theta) * rep.JF).real, atol=1e-13)
    np.testing.assert_allclose(
        rep.nu_S, -2.0 * (np.exp(1j * theta) * rep.JF).real, atol=1e-13)


def test_graded_response_is_sinusoidal(mesh48_half, curv48_half):
    thetas = theta_grid(64)
    scan = theta_scan(mesh48_half, curv48_half, thetas)
    jf = SECTOR_M05["JF"]
    want = -2.0 * abs(jf) * np.cos(thetas + np.angle(jf))
    np.testing.assert_allclose(scan, want, atol=1e-12)


def test_opposite_phases_sum_to_invariant(mesh48_half, curv48_half):
    rng = np.random.default_rng(9)
    for theta in rng.uniform(-math.pi, math.pi, size=5):
        a = sector_responses(mesh48_half, curv48_half, theta)
        b = sector_responses(mesh48_half, curv48_half, theta + math.pi)
        np.testing.assert_allclose(a.nu_minus + b.nu_minus, a.mu, atol=1e-13)


def test_theta_grid_midpoints():
    grid = theta_grid(64)
    assert grid.shape == (64,)
    np.testing.assert_allclose(grid[0], -math.pi + math.pi / 64.0, atol=1e-15)
    np.testing.assert_allclose(np.diff(grid), 2.0 * math.pi / 64.0, atol=1e-15)
    assert grid.max() < math.pi


@pytest.mark.parametrize("count", [0, -3, 2.5, True, "8", None])
def test_theta_grid_refuses_non_counts(count):
    with pytest.raises(ValidationError, match="^count ") as excinfo:
        theta_grid(count)
    assert excinfo.value.exit_code == 2


# --- tomography -----------------------------------------------------------------

def test_tomography_reconstruct_trivial():
    assert tomography_reconstruct(-0.5, -0.5, -1) == 0.0
    np.testing.assert_allclose(
        tomography_reconstruct(-0.5 + 0.3, -0.5 - 0.1, -1), 0.3 + 0.1j, atol=1e-15)


def test_tomography_recovers_weighted_coherence(mesh48_half, curv48_half):
    r0 = sector_responses(mesh48_half, curv48_half, 0.0)
    r90 = sector_responses(mesh48_half, curv48_half, math.pi / 2.0)
    rec = tomography_reconstruct(r0.nu_minus, r90.nu_minus, r0.mu)
    np.testing.assert_allclose(rec, r0.JF, atol=1e-12)


def test_two_phase_reconstruction_matches_direct_scan(mesh48_half, curv48_half):
    r0 = sector_responses(mesh48_half, curv48_half, 0.0)
    r90 = sector_responses(mesh48_half, curv48_half, math.pi / 2.0)
    rec = tomography_reconstruct(r0.nu_minus, r90.nu_minus, r0.mu)
    thetas = theta_grid(64)
    direct = theta_scan(mesh48_half, curv48_half, thetas)
    reconstructed = -2.0 * (np.exp(1j * thetas) * rec).real
    assert np.max(np.abs(direct - reconstructed)) <= 1e-12


# --- theta_scan -----------------------------------------------------------------

SCAN_THETAS = [-math.pi, math.pi, 3.0 * math.pi, 1e6, 0.0, *theta_grid(64)]


def _bits(values):
    """The float64 bytes of values; unlike ==, this tells -0.0 from 0.0, as the CSV writer does."""
    return np.asarray(values, dtype=float).tobytes()


def test_theta_scan_equals_sector_path_bit_for_bit(mesh48_half, curv48_half):
    scan = theta_scan(mesh48_half, curv48_half, SCAN_THETAS)
    direct = [sector_responses(mesh48_half, curv48_half, t).nu_S for t in SCAN_THETAS]
    assert scan.tobytes() == _bits(direct)


@pytest.mark.parametrize("nx, ny", [(17, 33), (129, _BLOCK_POINTS // 128 + 3)])
def test_theta_scan_equals_sector_path_on_rectangular_meshes(nx, ny):
    # 17 x 33 fits in one short block; the second mesh (129 x 131 at 16384-point
    # blocks) spans two, the second ragged
    mesh = build_mesh(ModelParams(0.8, 0.2, -2.0, 0.1), nx, ny)
    F = plaquette_curvature(mesh)
    scan = theta_scan(mesh, F, SCAN_THETAS)
    assert scan.tobytes() == _bits([sector_responses(mesh, F, t).nu_S for t in SCAN_THETAS])


def _leaf_sums(values):
    """Each fixed flat leaf's ``.sum()`` of a whole-mesh array, as the test's own cut."""
    flat = values.reshape(-1)
    return [flat[lo:lo + _BLOCK_POINTS].sum() for lo in range(0, flat.size, _BLOCK_POINTS)]


def _fsum(sums):
    """math.fsum of real leaf sums; of complex ones, a numpy complex of the part totals."""
    if np.iscomplexobj(sums[0]):
        return np.complex128(complex(math.fsum(np.real(sums)), math.fsum(np.imag(sums))))
    return math.fsum(sums)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 16384, 16385, 32761, 65539])
def test_totals_are_the_fsum_of_fixed_flat_leaves(dtype, n):
    # values spread over 60 binary orders, so that a total that depended on the
    # order in which leaves combine would show it
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n)) * np.exp2(rng.integers(-30, 30, (2, n)))
    x = (x[0] + 1j * x[1]) if dtype is np.complex128 else x[0]
    cuts = []

    def terms(lo, hi):
        cuts.append((lo, hi))
        return x[lo:hi]

    if dtype is np.complex128:
        got = witness._complex_total(terms, n)
    else:
        got = mesh_module._total(lambda lo, hi: [terms(lo, hi).sum()], n)[0]
    assert cuts == [(lo, min(lo + _BLOCK_POINTS, n)) for lo in range(0, n, _BLOCK_POINTS)]
    sums = _leaf_sums(x)
    for order in (sums, sums[::-1], [sums[i] for i in rng.permutation(len(sums))]):
        assert np.asarray(_fsum(order)).tobytes() == np.asarray(got).tobytes()
    if n <= _BLOCK_POINTS:  # one leaf: numpy's own whole-array sum, so a 48 x 48 mesh sums as it always did
        assert np.asarray(got).tobytes() == np.add.reduce(x).tobytes()


@pytest.fixture(scope="module")
def mesh181():
    # 181 x 181 = 32761 points: a full 16384-point leaf and a ragged one of 16377
    mesh = build_mesh(ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5), 181, 181)
    return mesh, plaquette_curvature(mesh)


def test_lattice_totals_are_the_fsum_of_their_leaf_sums(mesh181, monkeypatch):
    mesh, F = mesh181
    # each sector sum, JF and the theta scan
    for theta in (0.4, *theta_grid(8)):
        alpha = alpha_field(mesh, theta)
        terms = (alpha * F, (1.0 - alpha) * F, (1.0 - 2.0 * alpha) * F)
        want = [_fsum(_leaf_sums(t)) / TWO_PI for t in terms]
        rep = sector_responses(mesh, F, theta)
        assert _bits([rep.nu_minus, rep.nu_plus, rep.nu_S]) == _bits(want)
        assert theta_scan(mesh, F, [theta]).tobytes() == _bits([rep.nu_S])
        jf = complex(_fsum(_leaf_sums(F * mesh.coherence)) / TWO_PI)  # numpy's complex quotient
        assert np.asarray(rep.JF).tobytes() == np.asarray(jf).tobytes()
    # the reference phase: the mean of the conjugated coherence, as np.mean divides
    mean = np.conj(_fsum(_leaf_sums(mesh.coherence))) / F.size
    assert reference_phase(mesh).hex() == float(np.angle(complex(mean))).hex()
    # the global bound sums of both bound families
    c_sq = np.clip(1.0 - mesh.nz * mesh.nz, 0.0, None)
    bound = math.sqrt(_fsum(_leaf_sums(np.abs(F)))) * math.sqrt(_fsum(_leaf_sums(c_sq * np.abs(F)))) / TWO_PI
    assert inequality_suite(mesh.params, 0.4, 181, 10, 1).nu_S_bound.hex() == bound.hex()
    x, y = [0.6, 0.8j], [0.8, -0.6]
    multi = multiorbital_bounds(mesh, F, x, y, 0.4, 10, 1)
    want = multi.y_operator_norm * _fsum(_leaf_sums(np.sqrt(c_sq) * np.abs(F))) / TWO_PI
    assert multi.nu_bound.hex() == want.hex()
    # the flux total, which a NonIntegerTotal message shows when no deviation is tolerated
    monkeypatch.setattr(mesh_module, "INTEGER_TOL", -1.0)
    with pytest.raises(NonIntegerTotal) as excinfo:
        chern_number(F)
    assert str(excinfo.value).startswith(f"sum(F)/2pi = {_fsum(_leaf_sums(F)) / (2.0 * np.pi)!r} ")


def test_a_zero_total_is_positive_zero(mesh181):
    # the CSV writer prints -0.0 and 0.0 apart; leaf sums of -0.0, which numpy's .sum() may give, total +0.0
    mesh, F = mesh181
    assert _bits(mesh_module._total(lambda lo, hi: [-0.0, -0.0], 2 * _BLOCK_POINTS + 1)) == _bits([0.0, 0.0])
    zero = np.full_like(F, -0.0)
    rep = sector_responses(mesh, zero, 0.4)
    assert rep.mu == 0 and _bits([rep.nu_minus, rep.nu_plus, rep.nu_S]) == _bits([0.0] * 3)
    assert np.asarray(rep.JF).tobytes() == np.asarray(0j).tobytes()
    assert theta_scan(mesh, zero, [0.4, -2.0]).tobytes() == _bits([0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda mesh, F: theta_scan(mesh, F, theta_grid(64)),
    lambda mesh, F: sector_responses(mesh, F, 0.4),
    lambda mesh, F: coherence_matrix(mesh, F, [0.6, 0.8j], [0.8, -0.6]),
], ids=["theta_scan", "sector_responses", "coherence_matrix"])
def test_witness_sums_hold_no_mesh_sized_temporary(p_half, call):
    # block-sized buffers only (about 0.4 MiB at 16384-point blocks); the
    # whole-mesh passes held 2.3 (theta_scan) and 6.1 MiB at 512^2
    mesh = build_mesh(p_half, 512, 512)
    F = plaquette_curvature(mesh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(mesh, F)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * _BLOCK_POINTS < F.nbytes


@pytest.mark.parametrize("make", [
    lambda F: F.tolist(), lambda F: F.astype(np.float32), lambda F: F.astype(int), lambda F: F.reshape(-1),
], ids=["list", "float32", "int", "flat"])
def test_curvature_must_be_a_float64_array_of_the_mesh_shape(mesh48_half, curv48_half, make):
    # the curvature is caller input: anything but the (nx, ny) float64 array is refused
    bad = make(curv48_half)
    for call in (
        lambda: chern_number(bad),
        lambda: sector_responses(mesh48_half, bad, 0.4),
        lambda: theta_scan(mesh48_half, bad, [0.4]),
        lambda: coherence_matrix(mesh48_half, bad, [1.0], [1.0]),
        lambda: multiorbital_bounds(mesh48_half, bad, [1.0], [1.0], 0.4, 20, 1),
    ):
        with pytest.raises(ValidationError, match="curvature") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


def test_theta_scan_empty_grid(mesh48_half, curv48_half):
    scan = theta_scan(mesh48_half, curv48_half, [])
    assert scan.shape == (0,)
    assert scan.dtype == float


def test_theta_scan_rejects_mismatched_curvature(mesh24, curv48_half):
    with pytest.raises(ValidationError, match="does not match mesh"):
        theta_scan(mesh24, curv48_half, theta_grid(8))


#: Sequences of phases that hold a bool, which numpy alone would upcast to 1.0.
_BOOL_SEQUENCES = {"bool-in-list": [0.0, True], "bool-in-tuple": (True, 0.5), "nested-bool": [[0.1], [False]]}


@pytest.mark.parametrize("theta, problem", [
    *(pytest.param(bad, "finite", id=str(bad)) for bad in (math.nan, math.inf, -math.inf)),
    *(pytest.param(bad, "a real number", id=name) for name, bad in (
        ("text", "abc"), ("numeric-text", "0.3"), ("complex", 1j), ("none", None),
        ("sequence", [0.1, 0.2]), *_BOOL_SEQUENCES.items())),
])
def test_non_finite_theta_is_refused(mesh48_half, curv48_half, theta, problem):
    # theta_scan takes a sequence, so it sees a sequence theta as a ragged element;
    # a sequence that holds a bool it is also given whole
    scans = [[0.0, theta]] + [theta] * any(theta is bad for bad in _BOOL_SEQUENCES.values())
    for call in (
        lambda: alpha_field(mesh48_half, theta),
        lambda: sector_responses(mesh48_half, curv48_half, theta),
        *(lambda scan=scan: theta_scan(mesh48_half, curv48_half, scan) for scan in scans),
        lambda: WitnessSpec(theta=theta),
        lambda: sector_response_multi(np.ones((1, 1)), 1, [1.0], [1.0], theta),
        lambda: witness_block([1.0], [1.0], theta),
    ):
        with pytest.raises(ValidationError, match=f"^witness theta must be {problem}") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


def test_bool_theta_is_refused(mesh48_half, curv48_half):
    # a bool given alone has dtype bool; one in a list of floats is upcast by numpy
    for call in (
        lambda: alpha_field(mesh48_half, True),
        lambda: sector_responses(mesh48_half, curv48_half, True),
        lambda: theta_scan(mesh48_half, curv48_half, np.array([True, False])),
        lambda: theta_scan(mesh48_half, curv48_half, [10**30, True]),
        lambda: WitnessSpec(theta=False),
        lambda: sector_response_multi(np.ones((1, 1)), 1, [1.0], [1.0], True),
        lambda: witness_block([1.0], [1.0], True),
    ):
        with pytest.raises(ValidationError, match="^witness theta must be a real number") as excinfo:
            call()
        assert excinfo.value.exit_code == 2


# --- sweep_mass -----------------------------------------------------------------

def test_sweep_detects_both_walls(p_default):
    reports, jumps = sweep_mass(
        p_default, np.linspace(-3.0, 3.0, 25), (24, 24))
    assert [r.mu for r in reports] == [0] * 6 + [-1] * 13 + [0] * 6
    assert all(max(r.r_mu, r.r_nu) <= 1e-12 for r in reports)
    assert len(jumps) == 2
    np.testing.assert_allclose(
        [j.wall_location for j in jumps], [-SQRT3, SQRT3], atol=1e-12)
    assert [j.delta_mu for j in jumps] == [-1, 1]
    assert sum(j.delta_mu for j in jumps) == 0
    assert [j.delta_nu_S for j in jumps] == [reports[6].nu_S - reports[5].nu_S,
                                              reports[19].nu_S - reports[18].nu_S]


def test_sweep_without_walls():
    # phi=0 has no topological phase; an even step count keeps M=0 (the
    # degenerate point where both Dirac masses vanish) off the grid.
    p = ModelParams(1.0, 1.0 / 3.0, 0.0, 0.0)
    reports, jumps = sweep_mass(p, np.linspace(-3.0, 3.0, 24), (12, 12))
    assert jumps == []
    assert all(r.mu == 0 for r in reports)


def test_sweep_worker_count_does_not_change_results(p_default):
    m_values = np.linspace(-2.5, 2.5, 9)
    serial, _ = sweep_mass(p_default, m_values, (12, 12), workers=1)
    pooled, _ = sweep_mass(p_default, m_values, (12, 12), workers=3)
    for a, b in zip(serial, pooled):
        assert (a.mu, a.nu_minus, a.nu_plus, a.nu_S, a.JF, a.theta) == \
               (b.mu, b.nu_minus, b.nu_plus, b.nu_S, b.JF, b.theta)


def test_sweep_fixed_phase_policy(p_default):
    reports, _ = sweep_mass(
        p_default, np.linspace(-1.0, 1.0, 3), (12, 12), theta_policy=0.4)
    assert all(r.theta == 0.4 for r in reports)


@pytest.mark.parametrize("change, name", [
    (dict(mesh_size=[0.5]), "mesh size"),
    (dict(mesh_size=(8, 8, 8)), "mesh size"),
    (dict(mesh_size=(8, 3)), "mesh size"),
    (dict(workers="2"), "workers"),
    (dict(workers=2.5), "workers"),
    (dict(workers=0), "workers"),
    (dict(M_values=[0.5, "x"]), "ModelParams.M"),
    (dict(M_values=["0.5"]), "ModelParams.M"),
])
def test_sweep_refuses_bad_arguments_before_any_work(p_default, monkeypatch, change, name):
    def no_work(*args, **kwargs):
        raise AssertionError("mesh built or pool started before the argument check")

    monkeypatch.setattr("stratachern.witness.build_mesh", no_work)
    monkeypatch.setattr("stratachern.witness.ThreadPoolExecutor", no_work)
    args = {"M_values": [0.5, 1.0], "mesh_size": (8, 8), "workers": 2, **change}
    with pytest.raises(ValidationError, match=name) as excinfo:
        sweep_mass(p_default, args["M_values"], args["mesh_size"], workers=args["workers"])
    assert excinfo.value.exit_code == 2


def test_sweep_takes_one_side_for_a_square_mesh(p_default):
    m_values = [-2.0, 0.5, 2.0]
    assert sweep_mass(p_default, m_values, 12) == sweep_mass(p_default, m_values, (12, 12))
    assert sweep_mass(p_default, m_values, np.array([12, 12])) == sweep_mass(p_default, m_values, (12, 12))


def test_sweep_rejects_unknown_phase_policy(p_default):
    with pytest.raises(ValidationError, match="sideways"):
        sweep_mass(p_default, [0.5], (8, 8), theta_policy="sideways")


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 10**400])
def test_witness_theta_must_be_finite(p_default, theta):
    with pytest.raises(ValidationError, match="witness theta must be finite") as excinfo:
        WitnessSpec(theta=theta)
    assert excinfo.value.exit_code == 2
    with pytest.raises(ValidationError, match="witness theta must be finite"):
        sweep_mass(p_default, [0.5], (8, 8), theta_policy=theta)
