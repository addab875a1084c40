"""Property checks of the geometry and mesh engines against the independent oracle.

Hypothesis draws model couplings away from the phase walls, then a k-point and
a witness phase, and compares ``qgt_sample_arrays`` with the oracle's central
differences of the band projector (``tests/oracles/oracle_reference.py``),
which uses eigh states and the trace identities, not the closed forms.  On
drawn meshes it compares the Bloch-vector plaquette field and the sector
responses with the oracle's link products of eigh states, and checks two
symmetries, the sector identities and the theta scan, which need no oracle.
The CSV writer is checked against its per-cell rule on columns drawn from
small value pools, so that both of its encodings are reached, alone and as
leading cells shared by several files.
"""
import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratachern import (
    ModelParams,
    alpha_field,
    build_mesh,
    chern_number,
    dirac_masses,
    plaquette_curvature,
    qgt_sample_arrays,
    sector_responses,
    theta_scan,
)
from stratachern import mesh as mesh_module
from stratachern.harness import _BLOCK_ROWS, _write_csv
from stratachern.mesh import OVERLAP_FLOOR
from test_harness import DICT_FLOATS, DICT_INTS, _reference_csv

_spec = importlib.util.spec_from_file_location(
    "oracle_reference", Path(__file__).parent / "oracles" / "oracle_reference.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

#: Both Dirac masses stay at least this far from 0, which bounds |d| below
#: (d vanishes only at the Dirac points) and so the projector's derivatives.
MIN_MASS = 0.2
#: Central differences with h = 1e-5 carry an O(h^2) truncation error; the
#: worst of the draws below is about 1.5e-10.
FD_TOL = 1e-8

#: The mesh checks compare sums of at most 40 x 40 plaquettes.
MESH_TOL = 1e-12

_angle = st.floats(-math.pi, math.pi)
_couplings = dict(t1=st.floats(0.5, 1.5), t2=st.floats(0.0, 0.5), phi=_angle, M=st.floats(-3.0, 3.0))
_mesh_side = st.integers(4, 40)


def _off_walls(t1, t2, phi, M):
    p = ModelParams(t1, t2, phi, M)
    assume(min(abs(m) for m in dirac_masses(p)) >= MIN_MASS)
    return p


def _oracle_min_overlap(p, nx, ny):
    """Smallest x- or y-link overlap modulus of the oracle's eigh states."""
    u = oracle.valence(oracle.mesh_k(nx, ny), p.t1, p.t2, p.phi, p.M)
    return min(np.abs(np.einsum("ijc,ijc->ij", np.conj(u), np.roll(u, -1, axis=axis))).min()
               for axis in (0, 1))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    t1=st.floats(0.5, 1.5),
    t2=st.floats(0.0, 0.5),
    phi=_angle,
    M=st.floats(-3.0, 3.0),
    k=st.tuples(st.floats(-2.0 * math.pi, 2.0 * math.pi), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    theta=_angle,
)
def test_qgt_sample_arrays_matches_projector_differences(t1, t2, phi, M, k, theta):
    p = ModelParams(t1, t2, phi, M)
    assume(min(abs(m) for m in dirac_masses(p)) >= MIN_MASS)
    arr = qgt_sample_arrays([k], p, theta)
    g, fxy, qs, eta, coherence = oracle.filtered_qgt_fd(k, t1, t2, phi, M, theta)

    np.testing.assert_allclose(arr.g[0], g, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.Fxy[0], fxy, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.QS[0], qs, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.eta[0], eta, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.coherence[0], coherence, rtol=0.0, atol=FD_TOL)
    assert arr.dual_dev[0] <= 1e-10


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side)
def test_plaquette_curvature_matches_oracle_links(t1, t2, phi, M, nx, ny):
    p = _off_walls(t1, t2, phi, M)
    assume(_oracle_min_overlap(p, nx, ny) > OVERLAP_FLOOR)
    F = plaquette_curvature(build_mesh(p, nx, ny))
    np.testing.assert_allclose(F, oracle.fhs_curvature(t1, t2, phi, M, nx, ny), rtol=0.0, atol=MESH_TOL)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side, theta=_angle)
def test_sector_report_matches_oracle(t1, t2, phi, M, nx, ny, theta):
    p = _off_walls(t1, t2, phi, M)
    assume(_oracle_min_overlap(p, nx, ny) > OVERLAP_FLOOR)
    mesh = build_mesh(p, nx, ny)
    rep = sector_responses(mesh, plaquette_curvature(mesh), theta)
    mu, nu_minus, nu_plus, nu_s, jf = oracle.sector(t1, t2, phi, M, nx, ny, theta)
    assert rep.mu == mu
    for got, want in ((rep.nu_minus, nu_minus), (rep.nu_plus, nu_plus), (rep.nu_S, nu_s), (rep.JF, jf)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=MESH_TOL)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side)
def test_curvature_unchanged_under_t1_sign(t1, t2, phi, M, nx, ny):
    # t1 -> -t1 negates nx and ny exactly, a rotation by pi about z that
    # leaves every dot and triple product of the corner vectors bit for bit
    p = _off_walls(t1, t2, phi, M)
    F = plaquette_curvature(build_mesh(p, nx, ny))
    F_neg = plaquette_curvature(build_mesh(ModelParams(-t1, t2, phi, M), nx, ny))
    assert np.array_equal(F, F_neg)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(**_couplings, nx=st.integers(5, 40), ny=st.integers(5, 40))
def test_chern_number_flips_under_phi_sign(t1, t2, phi, M, nx, ny):
    # phi -> -phi is time reversal.  Meshes 4 points wide are left out: there
    # one side can be refused (MeshTooCoarse) where its flux totals a wrong
    # integer, as the oracle's link product does too; tests/test_mesh.py::
    # test_four_point_wide_mesh_is_right_or_refused_under_phi_sign pins its 40 x 4 case.
    p = _off_walls(t1, t2, phi, M)
    c = chern_number(plaquette_curvature(build_mesh(p, nx, ny)))
    c_flip = chern_number(plaquette_curvature(build_mesh(ModelParams(t1, t2, -phi, M), nx, ny)))
    assert c_flip == -c


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side, theta=_angle)
def test_sector_identities_hold_at_drawn_theta(t1, t2, phi, M, nx, ny, theta):
    p = _off_walls(t1, t2, phi, M)
    mesh = build_mesh(p, nx, ny)
    rep = sector_responses(mesh, plaquette_curvature(mesh), theta)
    np.testing.assert_allclose(rep.nu_plus + rep.nu_minus, rep.mu, rtol=0.0, atol=MESH_TOL)
    np.testing.assert_allclose(rep.nu_S, -2.0 * (np.exp(1j * theta) * rep.JF).real, rtol=0.0, atol=MESH_TOL)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side, thetas=st.lists(_angle, min_size=1, max_size=4))
def test_theta_scan_equals_sector_path_on_drawn_meshes(t1, t2, phi, M, nx, ny, thetas):
    p = _off_walls(t1, t2, phi, M)
    mesh = build_mesh(p, nx, ny)
    F = plaquette_curvature(mesh)
    sector = [sector_responses(mesh, F, theta).nu_S for theta in thetas]
    assert theta_scan(mesh, F, thetas).tobytes() == np.array(sector).tobytes()


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(**_couplings, nx=_mesh_side, ny=_mesh_side, theta=_angle, leaf=st.integers(1, 600))
def test_witness_sums_are_whole_mesh_sums_at_any_leaf_size(t1, t2, phi, M, nx, ny, theta, leaf):
    # bytes, not ==, so that -0.0 and 0.0 (which the CSV writer prints apart) differ
    p = _off_walls(t1, t2, phi, M)
    mesh = build_mesh(p, nx, ny)
    F = plaquette_curvature(mesh)
    alpha = alpha_field(mesh, theta)
    want = []
    for terms in (alpha * F, (1.0 - alpha) * F, (1.0 - 2.0 * alpha) * F, F * mesh.coherence):
        # each flat leaf [0, leaf), [leaf, 2 leaf), ... summed by numpy, the leaf sums by math.fsum
        sums = [s.sum() for s in np.split(terms.reshape(-1), range(leaf, terms.size, leaf))]
        total = np.complex128(complex(math.fsum(np.real(sums)), math.fsum(np.imag(sums))))
        want.append((total if terms.dtype == complex else total.real) / (2.0 * math.pi))  # as the library divides
    with mock.patch.object(mesh_module, "_BLOCK_POINTS", leaf):
        rep = sector_responses(mesh, F, theta)
        scan = theta_scan(mesh, F, [theta])
    got = [rep.nu_minus, rep.nu_plus, rep.nu_S, rep.JF]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert scan.tobytes() == np.array([rep.nu_S]).tobytes()


_csv_column = st.tuples(st.sampled_from([DICT_INTS, DICT_FLOATS]), st.integers(1, len(DICT_FLOATS)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(count=st.integers(0, 2 * _BLOCK_ROWS + 3), specs=st.lists(_csv_column, min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_write_csv_matches_per_cell_reference_on_pooled_columns(tmp_path_factory, count, specs, seed):
    # each column draws `count` cells from the first `distinct` values of a pool
    rng = np.random.default_rng(seed)
    columns = [rng.choice(np.array(pool)[:distinct], count) for pool, distinct in specs]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "pooled.csv"
    _write_csv([], [], [(path, header, columns)])
    assert path.read_bytes() == _reference_csv(header, zip(*columns))


_any_column = st.one_of(_csv_column, st.tuples(st.sampled_from([DICT_INTS, DICT_FLOATS]), st.none()))


def _drawn(pool, distinct, count, rng):
    """`count` cells drawn from the pool's first `distinct` values or, for distinct None, about one
    distinct value per row with every third cell drawn from the whole pool (-0.0, nan, +-inf, +-2^62)."""
    pool = np.array(pool)
    if distinct is not None:
        return rng.choice(pool[:distinct], count)
    wide = (rng.integers(-(2**62), 2**62, count) if pool.dtype.kind == "i"
            else rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count))
    wide[::3] = rng.choice(pool, len(wide[::3]))
    return wide


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(count=st.one_of(st.sampled_from([_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]), st.integers(0, 2 * _BLOCK_ROWS + 3)),
       shared=st.lists(_any_column, max_size=3),
       own=st.lists(st.lists(_any_column, min_size=1, max_size=2), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_write_csv_shared_cells_match_per_cell_reference_in_every_file(tmp_path_factory, count, shared, own, seed):
    # the shared leading cells, gathered or formatted row by row, are written once per
    # block into every file, and each file reads as if its columns were written alone
    rng = np.random.default_rng(seed)
    lead = [_drawn(*spec, count, rng) for spec in shared]
    header = [f"s{i}" for i in range(len(lead))]
    root = tmp_path_factory.mktemp("csv")
    files = [(root / f"f{i}.csv", [f"v{i}_{j}" for j in range(len(specs))], [_drawn(*spec, count, rng) for spec in specs])
             for i, specs in enumerate(own)]
    _write_csv(header, lead, files)
    for path, names, cols in files:
        assert path.read_bytes() == _reference_csv(header + names, zip(*lead, *cols)), path.name
