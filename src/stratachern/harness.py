"""Deterministic figure-data pipeline: panels a-h as CSV plus a run summary.

Every panel is a plain CSV (comma separators, LF line endings, header row)
whose floats are written with 17 significant digits so a read-back reproduces
the binary values to <= 1e-15 relative.  Given the same configuration and
seed the bytes are identical run to run; sha256 checksums are reported so
callers can verify that cheaply.

Panels:
    a  plaquette curvature field          (m, n, k_x, k_y, F)
    b  negative-sector weight field       (m, n, k_x, k_y, alpha)
    c  graded response density <S>F/2pi   (m, n, k_x, k_y, density)
    d  stagger-mass sweep responses       (M, mu, nu_plus, nu_minus, nu_S)
    e  sweep identity residuals           (M, r_mu, r_nu)
    f  witness-phase tomography           (theta, nu_direct, nu_reconstructed)
    g  multi-orbital basis-probe scan     (i, j, theta, nu_minus)
    h  seeded filtered-QFI samples        (FQ, FQS, k_x, k_y, theta)
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import StrataChernError, ValidationError
from .geometry import inequality_suite, multiorbital_bounds, qgt_sample_arrays
from .mesh import build_mesh, plaquette_curvature
from .model import RECIPROCAL, analytic_chern, mesh_kpoints
from .multiorbital import coherence_matrix, sector_response_multi, THETA_IMAG, THETA_REAL
from .witness import (
    TWO_PI,
    WitnessSpec,
    alpha_field,
    sector_responses,
    sweep_mass,
    theta_grid,
    theta_scan,
    tomography_reconstruct,
)

VERSION = "v0.1.0"


@dataclass(frozen=True)
class PanelOutput:
    """One written panel: id, file path, row count, sha256 of the bytes."""

    panel: str
    path: str
    rows: int
    sha256: str


#: Rows formatted, written and hashed together by `_write_csv`.
_BLOCK_ROWS = 4096


def _write_csv(path: Path, header, columns) -> tuple[int, str]:
    """Write a header and equal-length 1-D columns as CSV; return (rows, sha256).

    The encoding is set per column by its dtype: integers as ``str(v)``,
    floats as ``"%.17g" % v`` (the digits of ``format(v, ".17g")``, so every
    float64 reads back exactly).  Any other dtype (bool, complex, object)
    has no encoding here and raises ValidationError, as do no columns or a
    header of another length.  A column with at most one distinct value per
    four rows (by one ``np.unique``) formats each distinct value once and
    gathers the strings by index; any other is formatted row by row.  Both
    give the same bytes.  Float keys are float64 bit patterns: float equality
    would merge ``-0.0`` into ``0.0``.  Rows are written and hashed in blocks
    of _BLOCK_ROWS, so the text in memory stays flat in the panel length.
    """
    cols = [np.asarray(c) for c in columns]
    if not cols or len(header) != len(cols):
        raise ValidationError(f"CSV needs one header name per column and at least one column, "
                              f"got {len(header)} names for {len(cols)} columns")
    if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
        raise ValidationError(f"CSV columns must be 1-D and of one length, got shapes {[c.shape for c in cols]}")
    count = len(cols[0])
    encoders, sources = [], []
    for c in cols:
        if c.dtype.kind in "iu":
            fmt, keys = str, c
        elif c.dtype.kind == "f":
            c = np.ascontiguousarray(c, dtype=np.float64)
            fmt, keys = "%.17g".__mod__, c.view(np.int64)
        else:
            raise ValidationError(f"{c.dtype} columns have no CSV encoding here")
        distinct, index = np.unique(keys, return_inverse=True)
        if 4 * len(distinct) <= count:
            # few distinct cells: format each once, gather the strings by index
            table = np.array(list(map(fmt, distinct.view(c.dtype).tolist())), dtype=object)
            encoders.append(lambda block, table=table: table[block].tolist())
            sources.append(index)
        else:
            encoders.append(lambda block, fmt=fmt: map(fmt, block.tolist()))
            sources.append(c)
    head = (",".join(header) + "\n").encode("utf-8")
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, count, _BLOCK_ROWS):
            cells = [enc(s[start:start + _BLOCK_ROWS]) for enc, s in zip(encoders, sources)]
            data = ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")
            fh.write(data)
            digest.update(data)
    return count, digest.hexdigest()


def default_probe_pair(m: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic unit probe pair used when the config lists none."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


class Workspace:
    """Shared, lazily computed state for one configuration.

    Panels share the mesh, curvature field, resolved witness phase, sweep and
    tomography results, so `run_all` never recomputes them.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def analytic(self) -> int:
        return analytic_chern(self.cfg.model)

    @cached_property
    def mesh(self):
        self.analytic  # an on-wall model is OnWall at every mesh size, never a mesh
        return build_mesh(self.cfg.model, self.cfg.mesh.nx, self.cfg.mesh.ny)

    @cached_property
    def curvature(self):
        return plaquette_curvature(self.mesh)

    @cached_property
    def theta(self) -> float:
        return WitnessSpec.from_policy(self.cfg.witness.theta).resolve(self.mesh)

    @cached_property
    def sector(self):
        return sector_responses(self.mesh, self.curvature, self.theta)

    @cached_property
    def sweep(self):
        return sweep_mass(
            self.cfg.model,
            self.cfg.sweep.values(),
            (self.cfg.mesh.nx, self.cfg.mesh.ny),
            theta_policy=self.cfg.witness.theta,
        )

    @cached_property
    def inequalities(self):
        """Sampled bound checks with the configured sample count and seed."""
        cfg = self.cfg
        return inequality_suite(
            cfg.model,
            self.theta,
            (cfg.mesh.nx, cfg.mesh.ny),
            cfg.qfi_scan.samples,
            cfg.qfi_scan.seed,
        )

    @cached_property
    def residual_max(self) -> float:
        """Worst sector-identity residual max(r_mu, r_nu) along the sweep."""
        reports, _ = self.sweep
        return max((max(r.r_mu, r.r_nu) for r in reports), default=0.0)

    @cached_property
    def tomography(self):
        """(thetas, nu_direct, nu_reconstructed, max_err) on the 64-point grid."""
        thetas = theta_grid(64)
        direct = theta_scan(self.mesh, self.curvature, thetas)
        mu = self.sector.mu
        r0 = sector_responses(self.mesh, self.curvature, 0.0)
        r90 = sector_responses(self.mesh, self.curvature, math.pi / 2.0)
        rec = tomography_reconstruct(r0.nu_minus, r90.nu_minus, mu)
        reconstructed = -2.0 * np.real(np.exp(1j * thetas) * rec)
        max_err = float(np.abs(direct - reconstructed).max())
        return thetas, direct, reconstructed, max_err

    @cached_property
    def probe_pair(self) -> tuple[np.ndarray, np.ndarray]:
        if self.cfg.multi.probes:
            x, y = self.cfg.multi.probes[0]
            return np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        return default_probe_pair(self.cfg.multi.m, self.cfg.multi.n, self.cfg.qfi_scan.seed)

    @cached_property
    def multi_jf(self):
        x, y = self.probe_pair
        return coherence_matrix(self.mesh, self.curvature, x, y)

    @cached_property
    def multi_bounds(self):
        """Operator-norm bound checks for the configured probe pair, with the
        configured sample count and seed."""
        x, y = self.probe_pair
        scan = self.cfg.qfi_scan
        return multiorbital_bounds(
            self.mesh, self.curvature, x, y, self.theta, scan.samples, scan.seed
        )

    @cached_property
    def probe_responses(self) -> dict:
        """Basis-probe scan (i, j, theta) -> nu_minus for every basis pair
        (e_i, f_j) at theta in (THETA_REAL, THETA_IMAG), in that row order."""
        mu = self.sector.mu
        m, n = self.cfg.multi.m, self.cfg.multi.n
        eye_m, eye_n = np.eye(m, dtype=complex), np.eye(n, dtype=complex)
        return {
            (i, j, theta): sector_response_multi(self.multi_jf, mu, eye_m[i], eye_n[j], theta)[0]
            for i in range(m)
            for j in range(n)
            for theta in (THETA_REAL, THETA_IMAG)
        }

    @cached_property
    def qfi_samples(self):
        """Geometry fields (GeometrySamples) of a seeded (k, theta, direction) batch.

        Draw order is fixed (k fractions, then theta, then direction angle)
        so the stream, and hence panel h, is byte-stable for a given seed.
        """
        scan = self.cfg.qfi_scan
        rng = np.random.Generator(np.random.Philox(scan.seed))
        uv = rng.random((scan.samples, 2))
        th = -math.pi + TWO_PI * rng.random(scan.samples)
        psi = TWO_PI * rng.random(scan.samples)
        k = uv @ RECIPROCAL
        dirs = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        return qgt_sample_arrays(k, self.cfg.model, th, dirs)


# ---------------------------------------------------------------------------
# Panel builders: each returns (header, list of equal-length 1-D columns).
# ---------------------------------------------------------------------------

def _field_panel(ws: Workspace, name: str, values: np.ndarray):
    m, n = np.indices(values.shape).reshape(2, -1)
    k = mesh_kpoints(ws.mesh.nx, ws.mesh.ny).reshape(-1, 2)
    return ["m", "n", "k_x", "k_y", name], [m, n, k[:, 0], k[:, 1], values.ravel()]


def _panel_a(ws: Workspace):
    return _field_panel(ws, "F", ws.curvature)


def _panel_b(ws: Workspace):
    return _field_panel(ws, "alpha", alpha_field(ws.mesh, ws.theta))


def _panel_c(ws: Workspace):
    alpha = alpha_field(ws.mesh, ws.theta)
    return _field_panel(ws, "density", (1.0 - 2.0 * alpha) * ws.curvature / TWO_PI)


def _sweep_panel(ws: Workspace, *fields: str):
    reports, _ = ws.sweep
    # one field per column, so the integer mu stays an integer column
    columns = [np.array([getattr(r, name) for r in reports]) for name in fields]
    return ["M", *fields], [ws.cfg.sweep.values(), *columns]


def _panel_d(ws: Workspace):
    return _sweep_panel(ws, "mu", "nu_plus", "nu_minus", "nu_S")


def _panel_e(ws: Workspace):
    return _sweep_panel(ws, "r_mu", "r_nu")


def _panel_f(ws: Workspace):
    thetas, direct, reconstructed, _ = ws.tomography
    return ["theta", "nu_direct", "nu_reconstructed"], [thetas, direct, reconstructed]


def _panel_g(ws: Workspace):
    i, j, theta = map(np.array, zip(*ws.probe_responses))
    return ["i", "j", "theta", "nu_minus"], [i, j, theta, np.array(list(ws.probe_responses.values()))]


def _panel_h(ws: Workspace):
    arr = ws.qfi_samples
    return ["FQ", "FQS", "k_x", "k_y", "theta"], [arr.FQ, arr.FQS, arr.k[:, 0], arr.k[:, 1], arr.theta]


_PANELS = {
    "a": _panel_a,
    "b": _panel_b,
    "c": _panel_c,
    "d": _panel_d,
    "e": _panel_e,
    "f": _panel_f,
    "g": _panel_g,
    "h": _panel_h,
}
PANEL_IDS = "".join(_PANELS)


def _run_panel(ws: Workspace, panel: str) -> PanelOutput:
    if panel not in _PANELS:
        raise ValidationError(f"unknown panel {panel!r}; expected one of {PANEL_IDS}")
    header, columns = _PANELS[panel](ws)
    outdir = Path(ws.cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"panel_{panel}.csv"
    count, sha256 = _write_csv(path, header, columns)
    return PanelOutput(panel=panel, path=str(path), rows=count, sha256=sha256)


def run_all(cfg: RunConfig) -> dict:
    """All panels plus summary.json; returns the summary dictionary.

    The analytic invariant is evaluated first so a gap-closing configuration
    fails fast (OnWall) before any file is written.  Each panel is attempted
    even if an earlier one failed; the first error is re-raised with the full
    failure list appended to its message.  The inequality suite runs with the
    configured sample count and seed, and any bound violation propagates as
    ViolationFound (nonzero exit), so a zero exit certifies a violation-free
    run.
    """
    ws = Workspace(cfg)
    ws.analytic

    outputs: dict[str, PanelOutput] = {}
    failures: list[tuple[str, StrataChernError]] = []
    for panel in PANEL_IDS:
        try:
            outputs[panel] = _run_panel(ws, panel)
        except StrataChernError as exc:
            failures.append((panel, exc))
    if failures:
        names = "; ".join(f"panel {p}: {type(e).__name__}" for p, e in failures)
        first = failures[0][1]
        detail = first.args[0] if first.args else ""
        first.args = (f"{detail} [failed panels: {names}]",)
        raise first

    summary = {
        "chern_fhs": ws.sector.mu,
        "chern_analytic": ws.analytic,
        "residual_max": ws.residual_max,
        "tomography_max_err": ws.tomography[3],
        "inequality_violations": ws.inequalities.violations,
        "jump_records": [asdict(j) for j in ws.sweep[1]],
        "seed": cfg.qfi_scan.seed,
        "mesh": {"nx": cfg.mesh.nx, "ny": cfg.mesh.ny},
        "version": VERSION,
        "panels": {
            p: {"csv": Path(o.path).name, "rows": o.rows, "sha256": o.sha256}
            for p, o in outputs.items()
        },
    }
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    return summary
