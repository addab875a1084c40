"""Panel pipeline: CSV emission, workspace caching, run_all summary and its serial sweep."""
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
    sweep_mass,
)
from stratachern.harness import (
    _BLOCK_ROWS,
    PANEL_IDS,
    _encoding,
    _run_panel,
    _run_panels,
    _write_csv,
    default_probe_pair,
)
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
    [(rows, checksum)] = _write_csv([], [], [(path, ["i", "x", "y"], [ints, floats, floats[::-1]])])
    blob = path.read_bytes()
    assert blob == _reference_csv(["i", "x", "y"], zip(ints, floats, floats[::-1]))
    assert rows == count
    assert checksum == hashlib.sha256(blob).hexdigest()


#: Columns refused next to two-row ones: bool, complex, object, wrong length, 2-D.
BAD_COLUMNS = [
    np.array([True, False]),
    np.array([1 + 2j, 0j]),
    np.array([1, "x"], dtype=object),
    np.arange(3.0),
    np.zeros((2, 1)),
]


@pytest.mark.parametrize("bad", BAD_COLUMNS)
def test_write_csv_refuses_unencodable_columns(tmp_path, bad):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError) as excinfo:
        _write_csv([], [], [(path, ["ok", "bad"], [np.arange(2), bad])])
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
    [(rows, checksum)] = _write_csv([], [], [(path, header, columns)])
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
        _write_csv([], [], [(path, header, columns)])
    assert excinfo.value.exit_code == 2
    assert not path.exists()


# Files whose rows begin with the same cells: the shared cells are encoded and
# joined once per block, and each file must still read as if written alone.

@pytest.mark.parametrize("count", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
def test_write_csv_shared_columns_match_per_cell_reference(tmp_path, count):
    rng = np.random.default_rng(count)
    ints = rng.integers(-(2**62), 2**62, size=count)
    floats = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, size=count)
    ints[0::2] = np.resize(np.array(EDGE_INTS, dtype=np.int64), len(ints[0::2]))
    floats[0::2] = np.resize(DICT_FLOATS, len(floats[0::2]))  # -0.0, nan, +-inf among them
    # two dictionary-encoded shared columns and two formatted row by row
    shared = [_drawn_column(DICT_INTS, len(DICT_INTS), count, rng),
              _drawn_column(DICT_FLOATS, max(count // 4, 1), count, rng), ints, floats]
    if count >= 64:
        assert [_encoding(c)(0, 0)[0] for c in shared] == ["%s", "%s", "%d", "%.17g"]
    own = [[floats[::-1]],
           [_drawn_column(DICT_FLOATS, len(DICT_FLOATS), count, rng), ints[::-1]],
           [rng.standard_normal(count)]]
    files = [(tmp_path / f"f{i}.csv", [f"v{i}_{j}" for j in range(len(cols))], cols) for i, cols in enumerate(own)]
    written = _write_csv(["i", "x", "j", "y"], shared, files)
    assert len(written) == len(files)
    for (path, names, cols), (rows, checksum) in zip(files, written):
        blob = path.read_bytes()
        assert blob == _reference_csv(["i", "x", "j", "y", *names], zip(*shared, *cols)), path.name
        assert rows == count
        assert checksum == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("slot", [None, 0, 2], ids=["shared", "first-file", "last-file"])
@pytest.mark.parametrize("bad", BAD_COLUMNS + [None])
def test_write_csv_refuses_a_bad_file_before_creating_any(tmp_path, slot, bad):
    # a refused column (bad None: a header name with no column) in the shared part or in
    # one file refuses the whole set, and none of the files exists
    header, shared = ["s"], [np.arange(2)]
    files = [(tmp_path / f"f{i}.csv", ["x"], [np.arange(2.0)]) for i in range(3)]
    extra = [] if bad is None else [bad]
    if slot is None:
        header, shared = header + ["bad"], shared + extra
    else:
        path, names, cols = files[slot]
        files[slot] = (path, names + ["bad"], cols + extra)
    with pytest.raises(ValidationError) as excinfo:
        _write_csv(header, shared, files)
    assert excinfo.value.exit_code == 2
    assert not any(path.exists() for path, _, _ in files)


@pytest.mark.parametrize("nx, ny", [(5, 7), (24, 24), (48, 48)])
def test_run_panel_writes_the_bytes_of_run_all(tmp_path, nx, ny):
    # a field panel alone is the one-file case of run_all's one pass over a-c; the
    # shared k_y column has 35, 222 and 558 distinct values, so it is formatted row
    # by row at 5 x 7 and 24 x 24 and gathered at 48 x 48
    doc = {"model": {"M": 0.5}, "mesh": {"nx": nx, "ny": ny}, "qfi_scan": {"samples": 200, "seed": 42}}
    summary = run_all(config_from_dict({**doc, "output_dir": str(tmp_path / "all")}))
    ws = Workspace(config_from_dict({**doc, "output_dir": str(tmp_path / "one")}))
    k_y = mesh_kpoints(nx, ny)[..., 1].ravel()
    assert _encoding(k_y)(0, 0)[0] == ("%s" if nx == 48 else "%.17g")
    for panel in "abc":
        out = _run_panel(ws, panel)
        blob = (tmp_path / "one" / f"panel_{panel}.csv").read_bytes()
        assert blob == (tmp_path / "all" / f"panel_{panel}.csv").read_bytes(), panel
        assert out.sha256 == summary["panels"][panel]["sha256"] == hashlib.sha256(blob).hexdigest()
        assert out.rows == summary["panels"][panel]["rows"] == nx * ny


def test_run_all_attempts_every_panel(tmp_path, monkeypatch):
    # a failing alpha field fails panels b and c; a and d-h are still written,
    # b and c leave no file, and the first error carries the failure list
    def no_alpha(*args):
        raise ValidationError("no alpha")

    monkeypatch.setattr("stratachern.harness.alpha_field", no_alpha)
    cfg = _small_cfg(tmp_path)
    with pytest.raises(ValidationError) as excinfo:
        run_all(cfg)
    assert str(excinfo.value) == "no alpha [failed panels: panel b: ValidationError; panel c: ValidationError]"
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [f"panel_{p}.csv" for p in "adefgh"]


def test_run_all_builds_alpha_once(tmp_path, monkeypatch):
    # panels b and c read one alpha field, and the workspace keeps none after them
    calls = []

    def counted(*args):
        calls.append(args)
        return alpha_field(*args)

    monkeypatch.setattr("stratachern.harness.alpha_field", counted)
    ws = Workspace(_small_cfg(tmp_path))
    _run_panels(ws, PANEL_IDS)
    assert len(calls) == 1 and "_alpha" not in vars(ws)


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


def test_run_all_sweeps_serially_with_the_pool_results(tmp_path, monkeypatch):
    # 129 x 131 is two row blocks, whose sums the mesh grid holds; run_all starts no
    # thread pool, and its sweep equals sweep_mass on a two-worker pool, field for field
    cfg = config_from_dict({"model": {"M": 0.5}, "mesh": {"nx": 129, "ny": 131},
                            "sweep": {"steps": 6}, "qfi_scan": {"samples": 200, "seed": 42},
                            "output_dir": str(tmp_path / "out")})
    swept = []

    def no_pool(*args, **kwargs):
        raise AssertionError("run_all started a thread pool")

    def recorded(*args, **kwargs):
        swept.append(sweep_mass(*args, **kwargs))
        return swept[-1]

    with monkeypatch.context() as patch:
        patch.setattr("stratachern.witness.ThreadPoolExecutor", no_pool)
        patch.setattr("stratachern.harness.sweep_mass", recorded)
        run_all(cfg)
    pooled = sweep_mass(cfg.model, cfg.sweep.values(), (129, 131), theta_policy=cfg.witness.theta, workers=2)
    assert len(swept) == 1 and len(pooled[0]) == 6
    assert swept[0][0] == pooled[0] and swept[0][1] == pooled[1]  # reports and jumps, every field compared


def test_run_all_fails_fast_on_wall(tmp_path):
    cfg = _small_cfg(tmp_path, M=SQRT3)
    with pytest.raises(OnWall):
        run_all(cfg)
    assert not (tmp_path / "out" / "summary.json").exists()
