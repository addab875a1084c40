"""End-to-end CLI contract: subcommands, exit codes, stderr format, determinism."""
import json
import math
import shutil
import subprocess
import sys

import pytest

from stratachern import (
    DegenerateOverlap,
    DegeneratePhase,
    GaplessMesh,
    GaplessPoint,
    MeshTooCoarse,
    MissingProbe,
    NonIntegerTotal,
    NonUnitProbe,
    NotPartialIsometry,
    OnWall,
    ParseError,
    ValidationError,
    ViolationFound,
    load_config,
)
from stratachern import cli, geometry

from test_model import oracle_gap

SQRT3 = math.sqrt(3.0)


def _run(*args, cwd=None):
    exe = shutil.which("stratachern")
    cmd = [exe] + list(args) if exe else [sys.executable, "-m", "stratachern.cli"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def _write_cfg(tmp_path, name="run.json", **doc):
    base = {"model": {"M": 0.5}, "mesh": {"nx": 12, "ny": 12},
            "qfi_scan": {"samples": 200, "seed": 42}}
    base.update(doc)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def test_exit_code_map():
    # the CLI contract: 2 = validation, 3 = numerical contract, 4 = gapless
    assert ParseError("").exit_code == 2
    assert ValidationError("").exit_code == 2
    assert NonUnitProbe("").exit_code == 2
    assert MissingProbe("").exit_code == 2
    assert DegenerateOverlap("").exit_code == 3
    assert NonIntegerTotal("").exit_code == 3
    assert MeshTooCoarse("").exit_code == 3
    assert DegeneratePhase("").exit_code == 3
    assert NotPartialIsometry("").exit_code == 3
    assert ViolationFound("").exit_code == 3
    assert GaplessPoint("").exit_code == 4
    assert GaplessMesh("").exit_code == 4
    assert OnWall("").exit_code == 4


def test_chern_subcommand(tmp_path):
    res = _run("chern", "--config", _write_cfg(tmp_path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["chern_fhs"] == payload["chern_analytic"] == -1
    assert payload["match"] is True
    assert payload["min_gap"] > 0.0


@pytest.mark.parametrize("mesh", [(12, 12), (17, 33)])
def test_chern_min_gap_equals_mesh_scan(tmp_path, mesh):
    # the reported gap comes from the mesh build; it must equal the gap of
    # the oracle's dense spectrum over the same points to rounding
    path = _write_cfg(tmp_path)
    res = _run("chern", "--config", path, "--mesh", f"{mesh[0]}x{mesh[1]}")
    assert res.returncode == 0, res.stderr
    gap = oracle_gap(load_config(path).model, *mesh)
    assert json.loads(res.stdout)["min_gap"] == pytest.approx(gap, rel=0, abs=1e-13)


def test_mesh_flag_overrides_config(tmp_path):
    res = _run("chern", "--config", _write_cfg(tmp_path), "--mesh", "24x24")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["mesh"] == {"nx": 24, "ny": 24}


def test_bad_mesh_flag(tmp_path):
    res = _run("chern", "--config", _write_cfg(tmp_path), "--mesh", "24")
    assert res.returncode == 2
    assert res.stderr.startswith("ValidationError:")


def test_mesh_flag_below_minimum_names_the_field(tmp_path):
    res = _run("chern", "--config", _write_cfg(tmp_path), "--mesh", "3x8")
    assert res.returncode == 2
    assert res.stderr == "ValidationError: mesh.nx must be >= 4, got 3\n"


def test_mesh_too_large_for_an_array_index(tmp_path):
    # checked before anything is allocated
    res = _run("chern", "--config", _write_cfg(tmp_path, mesh={"nx": 10**400, "ny": 12}))
    assert res.returncode == 2
    assert res.stderr.startswith("ValidationError: mesh.nx * mesh.ny must be <= ")
    assert res.stderr.count("\n") == 1


def test_unknown_config_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nope": 1}))
    res = _run("chern", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("ValidationError: unknown key nope")


def test_malformed_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    res = _run("chern", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("ParseError:")


def test_config_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"output_dir": "\xff"}')
    res = _run("chern", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("ParseError:")
    assert res.stderr.count("\n") == 1


def test_thin_mesh_with_a_wrong_lattice_count_is_refused(tmp_path):
    # on 40 x 4 this model's flux totals C = 0 against the Dirac-mass count -1
    cfg = _write_cfg(tmp_path, model={"t1": 1.0144, "t2": 0.3729, "phi": 1.5786, "M": -0.9736})
    res = _run("chern", "--config", cfg, "--mesh", "40x4")
    assert res.returncode == 3
    assert res.stderr.startswith("MeshTooCoarse:")
    assert res.stdout == ""


def test_on_wall_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, model={"M": SQRT3})
    res = _run("chern", "--config", cfg)
    assert res.returncode == 4
    assert res.stderr.startswith("OnWall:")


@pytest.mark.parametrize("command, code", [
    *(([name], 4) for name in ("tomography", "inequalities", "multiorbital")),
    *((["figure", panel], 4) for panel in "abcfg"),
    (["qgt"], 0), (["figure", "h"], 0), (["sweep"], 0),
], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_on_wall_mesh_readers_refuse_at_any_mesh_size(tmp_path, capsys, command, code):
    # no point of a 17x33 mesh is the gapless zone corner, so the mesh builds; every
    # mesh reader refuses first (OnWall), and what reads no mesh still runs
    cfg = _write_cfg(tmp_path, model={"M": SQRT3})
    assert cli.main([*command, "--config", cfg, "--mesh", "17x33", "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("OnWall: Dirac mass on a wall") if code else err == ""
    if command[0] == "figure":
        assert (tmp_path / "out").exists() == (code == 0)  # a refused panel makes no output directory


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep_out"
    res = _run("sweep", "--config", _write_cfg(tmp_path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["residual_max"] <= 1e-12
    assert payload["total_delta_mu"] == 0
    assert len(payload["jump_records"]) == 2
    assert (out / "panel_d.csv").exists() and (out / "panel_e.csv").exists()


def test_tomography_subcommand(tmp_path):
    res = _run("tomography", "--config", _write_cfg(tmp_path),
               "--out", str(tmp_path / "tomo"))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["theta_points"] == 64
    assert payload["tomography_max_err"] <= 1e-12


def test_multiorbital_subcommand(tmp_path):
    res = _run("multiorbital", "--config", _write_cfg(tmp_path),
               "--out", str(tmp_path / "multi"))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["reconstruction_max_err"] <= 1e-12
    assert payload["levi_type"] == [1, 1, 2]
    bounds = payload["bounds"]
    assert (bounds["samples"], bounds["seed"], bounds["violations"]) == (200, 42, 0)
    assert set(bounds["max_slack"]) == {"witness_expectation", "im_qs", "fqs_le_4g", "global_nu"}


def test_multiorbital_bound_violation_exit_code(tmp_path, monkeypatch, capsys):
    # an impossible slack makes every bound fail
    monkeypatch.setattr(geometry, "BOUND_SLACK", -1.0)
    code = cli.main(["multiorbital", "--config", _write_cfg(tmp_path),
                     "--out", str(tmp_path / "multi")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ViolationFound:") and err.count("\n") == 1


def test_all_names_its_failed_panels_and_writes_no_summary(tmp_path, capsys):
    # a probe of norm sqrt(2) fails panel g alone: every other panel is written,
    # the summary is not, and the first failure's error carries the list
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh": {"nx": 12, "ny": 12},
                               "multi": {"probes": [[[[1, 0], [1, 0]], [[1, 0], [0, 0]]]]}}))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err == (f"NonUnitProbe: probe x has norm {math.sqrt(2.0)!r}, expected 1 within 1e-12 "
                       "[failed panels: panel g: NonUnitProbe]\n")
    assert sorted(f.name for f in out.iterdir()) == [f"panel_{p}.csv" for p in "abcdefh"]


def test_qgt_subcommand_with_saturation(tmp_path):
    cfg = _write_cfg(tmp_path, model={"M": 0.0})
    res = _run("qgt", "--config", cfg, "--out", str(tmp_path / "qgt"))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["max_dual_path_deviation"] <= 1e-10
    sat = payload["saturation"]
    assert abs(sat["FQ"] - sat["FQS"]) <= 1e-12


def test_qgt_subcommand_off_equator_has_no_saturation(tmp_path):
    res = _run("qgt", "--config", _write_cfg(tmp_path),
               "--out", str(tmp_path / "qgt2"))
    assert res.returncode == 0, res.stderr
    assert "saturation" not in json.loads(res.stdout)


def test_inequalities_subcommand(tmp_path):
    res = _run("inequalities", "--config", _write_cfg(tmp_path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["violations"] == 0
    assert payload["samples"] == 200


def test_figure_subcommand_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    digests = []
    for sub in ("f1", "f2"):
        out = tmp_path / sub
        res = _run("figure", "h", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        digests.append((out / "panel_h.csv").read_bytes())
    assert digests[0] == digests[1]


def test_seed_flag_changes_sampled_panel(tmp_path):
    cfg = _write_cfg(tmp_path)
    blobs = []
    for seed, sub in ((42, "s1"), (43, "s2")):
        out = tmp_path / sub
        res = _run("figure", "h", "--config", cfg, "--seed", str(seed),
                   "--out", str(out))
        assert res.returncode == 0, res.stderr
        blobs.append((out / "panel_h.csv").read_bytes())
    assert blobs[0] != blobs[1]


def test_all_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "all_out"
    res = _run("all", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["inequality_violations"] == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == [f"panel_{p}.csv" for p in "abcdefgh"] + ["summary.json"]
