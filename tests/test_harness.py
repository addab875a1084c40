"""Panel pipeline: thread cap, CSV emission, workspace caching, run_all summary."""
import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from stratachern import (
    OnWall,
    ValidationError,
    Workspace,
    alpha_field,
    config_from_dict,
    reference_phase,
    run_all,
)
from stratachern.harness import _BLOCK_ROWS, PANEL_IDS, _run_panel, _write_csv, default_probe_pair, thread_cap
from stratachern.model import mesh_kpoints

SQRT3 = math.sqrt(3.0)


def _small_cfg(tmp_path, **model):
    doc = {
        "model": {"M": 0.5, **model},
        "mesh": {"nx": 12, "ny": 12},
        "qfi_scan": {"samples": 200, "seed": 42},
        "output_dir": str(tmp_path / "out"),
    }
    return config_from_dict(doc)


# --- thread_cap -----------------------------------------------------------------

def test_thread_cap_default():
    assert 1 <= thread_cap() <= 4


# --- workspace ------------------------------------------------------------------

def test_workspace_theta_policies(tmp_path):
    cfg = _small_cfg(tmp_path)
    ws = Workspace(cfg)
    np.testing.assert_allclose(ws.theta, reference_phase(ws.mesh), atol=1e-15)
    fixed = config_from_dict({**{"witness": {"theta": 0.4}},
                              "mesh": {"nx": 12, "ny": 12}})
    assert Workspace(fixed).theta == 0.4


def test_workspace_probe_pair_precedence(tmp_path):
    cfg = _small_cfg(tmp_path)
    x, y = Workspace(cfg).probe_pair
    x2, y2 = default_probe_pair(2, 2, cfg.qfi_scan.seed)
    np.testing.assert_allclose(x, x2, atol=0.0)
    np.testing.assert_allclose(y, y2, atol=0.0)
    np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-14)
    explicit = config_from_dict({
        "multi": {"m": 1, "n": 1, "probes": [[[[1.0, 0.0]], [[0.0, 1.0]]]]},
        "mesh": {"nx": 12, "ny": 12},
    })
    ex, ey = Workspace(explicit).probe_pair
    np.testing.assert_allclose(ex, [1.0], atol=0.0)
    np.testing.assert_allclose(ey, [1.0j], atol=0.0)


def test_workspace_tomography(tmp_path):
    ws = Workspace(_small_cfg(tmp_path))
    thetas, direct, reconstructed, max_err = ws.tomography
    assert thetas.shape == direct.shape == reconstructed.shape == (64,)
    assert max_err <= 1e-12


# --- _run_panel -----------------------------------------------------------------

def test_run_panel_curvature_csv(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = _run_panel(Workspace(cfg), "a")
    assert out.panel == "a"
    assert out.rows == 144
    with open(out.path, "rb") as fh:
        blob = fh.read()
    assert hashlib.sha256(blob).hexdigest() == out.sha256
    assert blob.endswith(b"\n") and b"\r" not in blob
    with open(out.path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first = next(reader)
    assert header == ["m", "n", "k_x", "k_y", "F"]
    # float cells use shortest-exact formatting: parsing them recovers the value
    ws = Workspace(cfg)
    np.testing.assert_allclose(float(first[4]), ws.curvature[0, 0], atol=0.0)
    assert dataclasses.asdict(out)["sha256"] == out.sha256


def test_run_panel_deterministic(tmp_path):
    cfg = _small_cfg(tmp_path)
    first = {pid: _run_panel(Workspace(cfg), pid).sha256 for pid in PANEL_IDS}
    second = {pid: _run_panel(Workspace(cfg), pid).sha256 for pid in PANEL_IDS}
    assert first == second


def test_run_panel_rejects_unknown(tmp_path):
    with pytest.raises(ValidationError):
        _run_panel(Workspace(_small_cfg(tmp_path)), "z")


# --- CSV writer -----------------------------------------------------------------
# The reference is the original per-cell rule, applied one row at a time: the
# column-wise writer must reproduce its bytes exactly.

HEADERS = {
    "a": ["m", "n", "k_x", "k_y", "F"],
    "b": ["m", "n", "k_x", "k_y", "alpha"],
    "c": ["m", "n", "k_x", "k_y", "density"],
    "d": ["M", "mu", "nu_plus", "nu_minus", "nu_S"],
    "e": ["M", "r_mu", "r_nu"],
    "f": ["theta", "nu_direct", "nu_reconstructed"],
    "g": ["i", "j", "theta", "nu_minus"],
    "h": ["FQ", "FQS", "k_x", "k_y", "theta"],
}

EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.1, -1e308, -5e-324]
EDGE_INTS = [np.int64(-7), 2**62, 0, np.int64(-(2**62))]


def _reference_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_rows(ws, panel):
    """Each panel's rows built cell by cell from the workspace, in file order."""
    if panel in "abc":
        alpha = alpha_field(ws.mesh, ws.theta)
        values = {
            "a": ws.curvature,
            "b": alpha,
            "c": (1.0 - 2.0 * alpha) * ws.curvature / (2.0 * math.pi),
        }[panel]
        k = mesh_kpoints(ws.mesh.nx, ws.mesh.ny)
        return [(i, j, *k[i, j], values[i, j])
                for i in range(ws.mesh.nx) for j in range(ws.mesh.ny)]
    if panel in "de":
        reports, _ = ws.sweep
        masses = ws.cfg.sweep.values()
        if panel == "d":
            return [(m, r.mu, r.nu_plus, r.nu_minus, r.nu_S) for m, r in zip(masses, reports)]
        return [(m, r.r_mu, r.r_nu) for m, r in zip(masses, reports)]
    if panel == "f":
        thetas, direct, reconstructed, _ = ws.tomography
        return list(zip(thetas, direct, reconstructed))
    if panel == "g":
        return [(i, j, theta, nu) for (i, j, theta), nu in ws.probe_responses.items()]
    arr = ws.qfi_samples
    return list(zip(arr.FQ, arr.FQS, arr.k[:, 0], arr.k[:, 1], arr.theta))


def test_panels_match_per_cell_reference(tmp_path):
    cfg = config_from_dict({
        "model": {"M": 0.5},
        "mesh": {"nx": 5, "ny": 7},
        "qfi_scan": {"samples": 200, "seed": 42},
        "output_dir": str(tmp_path / "out"),
    })
    ws = Workspace(cfg)
    for panel in PANEL_IDS:
        rows = _reference_rows(ws, panel)
        out = _run_panel(ws, panel)
        blob = (tmp_path / "out" / f"panel_{panel}.csv").read_bytes()
        assert blob == _reference_csv(HEADERS[panel], rows), panel
        assert out.rows == len(rows)
        assert out.sha256 == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("count", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
def test_write_csv_matches_per_cell_reference_across_blocks(tmp_path, count):
    rng = np.random.default_rng(count)
    ints = rng.integers(-(2**62), 2**62, size=count)
    floats = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, size=count)
    ints[0::2] = np.resize(np.array(EDGE_INTS, dtype=np.int64), len(ints[0::2]))
    floats[0::2] = np.resize(EDGE_FLOATS, len(floats[0::2]))
    path = tmp_path / "block.csv"
    rows, checksum = _write_csv(path, ["i", "x", "y"], [ints, floats, floats[::-1]])
    blob = path.read_bytes()
    assert blob == _reference_csv(["i", "x", "y"], zip(ints, floats, floats[::-1]))
    assert rows == count
    assert checksum == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("bad", [
    np.array([True, False]),
    np.array([1 + 2j, 0j]),
    np.array([1, "x"], dtype=object),
    np.arange(3.0),
    np.zeros((2, 1)),
])
def test_write_csv_refuses_unencodable_columns(tmp_path, bad):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError) as excinfo:
        _write_csv(path, ["ok", "bad"], [np.arange(2), bad])
    assert excinfo.value.exit_code == 2
    assert not path.exists()


# A column with at most one distinct value per four rows is formatted once per
# value and gathered by index.  Its float keys are bit patterns, so 0.0 and -0.0
# (equal as floats) must still come out as different cells.
DICT_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 0.1]
DICT_INTS = [2**62, -(2**62), 0, -7]


def _drawn_column(pool, distinct, count, rng):
    """`count` cells with exactly min(distinct, count) distinct values: the
    pool's first, then the integers from len(pool) on."""
    pool = np.asarray(pool)
    values = np.concatenate([pool, len(pool) + np.arange(distinct, dtype=pool.dtype)])[:distinct]
    if count <= distinct:
        return values[:count]
    return rng.permutation(np.concatenate([values, rng.choice(values, count - distinct)]))


@pytest.mark.parametrize("count", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
def test_write_csv_dictionary_columns_match_per_cell_reference(tmp_path, count):
    rng = np.random.default_rng(count)
    inside = max(count // 4, 1)  # 4 * distinct <= rows, as far as the length allows
    columns = [
        _drawn_column(DICT_INTS, len(DICT_INTS), count, rng),
        _drawn_column(DICT_FLOATS, len(DICT_FLOATS), count, rng),
        _drawn_column(DICT_FLOATS, inside, count, rng),
        _drawn_column(DICT_FLOATS, inside + 1, count, rng),
        _drawn_column(DICT_INTS, inside + 1, count, rng),
    ]
    header = ["i", "x", "inside", "outside", "j"]
    path = tmp_path / "dict.csv"
    rows, checksum = _write_csv(path, header, columns)
    blob = path.read_bytes()
    assert blob == _reference_csv(header, zip(*columns))
    assert rows == count
    assert checksum == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("header, columns", [
    (["x"], [np.arange(2), np.arange(2.0)]),
    (["x", "y"], [np.arange(2)]),
    ([], []),
])
def test_write_csv_refuses_header_column_mismatch(tmp_path, header, columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError) as excinfo:
        _write_csv(path, header, columns)
    assert excinfo.value.exit_code == 2
    assert not path.exists()


# --- run_all --------------------------------------------------------------------

def test_run_all_summary(tmp_path):
    cfg = _small_cfg(tmp_path)
    summary = run_all(cfg)
    assert list(summary) == [
        "chern_fhs", "chern_analytic", "residual_max", "tomography_max_err",
        "inequality_violations", "jump_records", "seed", "mesh", "version",
        "panels",
    ]
    assert summary["chern_fhs"] == summary["chern_analytic"] == -1
    assert summary["residual_max"] <= 1e-12
    assert summary["tomography_max_err"] <= 1e-12
    assert summary["inequality_violations"] == 0
    walls = [rec["wall_location"] for rec in summary["jump_records"]]
    np.testing.assert_allclose(walls, [-SQRT3, SQRT3], atol=1e-12)
    assert sorted(summary["panels"]) == list(PANEL_IDS)
    on_disk = json.loads(
        (tmp_path / "out" / "summary.json").read_text())
    assert on_disk == summary


def test_run_all_byte_identical(tmp_path):
    doc = {
        "model": {"M": 0.5},
        "mesh": {"nx": 12, "ny": 12},
        "qfi_scan": {"samples": 200, "seed": 42},
    }
    blobs = []
    for sub in ("one", "two"):
        cfg = config_from_dict({**doc, "output_dir": str(tmp_path / sub)})
        run_all(cfg)
        root = tmp_path / sub
        blobs.append({f.name: f.read_bytes() for f in sorted(root.iterdir())})
    assert blobs[0] == blobs[1]


def test_run_all_fails_fast_on_wall(tmp_path):
    cfg = _small_cfg(tmp_path, M=SQRT3)
    with pytest.raises(OnWall):
        run_all(cfg)
    assert not (tmp_path / "out" / "summary.json").exists()
