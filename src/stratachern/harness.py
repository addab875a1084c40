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
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import StrataChernError, ValidationError
from .geometry import inequality_suite, qgt_sample_arrays
from .mesh import build_mesh, plaquette_curvature
from .model import RECIPROCAL, analytic_chern
from .multiorbital import coherence_matrix, sector_response_multi, THETA_IMAG, THETA_REAL
from .witness import (
    WitnessSpec,
    alpha_field,
    sector_responses,
    sweep_mass,
    theta_grid,
    theta_scan,
    tomography_reconstruct,
)

VERSION = "v0.1.0"

PANEL_IDS = "abcdefgh"

TWO_PI = 2.0 * math.pi

#: Environment variable capping the sweep thread pool.
THREADS_ENV = "STRATA_CHERN_THREADS"


def thread_cap() -> int:
    """Worker cap for parallel sections, from STRATA_CHERN_THREADS.

    Unset or empty means min(4, cpu count).  Anything that is not a positive
    integer is a configuration error, not something to guess around.
    """
    raw = os.environ.get(THREADS_ENV)
    if raw is None or not raw.strip():
        return max(1, min(4, os.cpu_count() or 1))
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"{THREADS_ENV} must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True)
class PanelOutput:
    """One written panel: id, file path, row count, sha256 of the bytes."""

    panel: str
    path: str
    rows: int
    checksum: str

    def to_dict(self) -> dict:
        return {
            "panel": self.panel,
            "path": self.path,
            "rows": self.rows,
            "sha256": self.checksum,
        }


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError("booleans have no CSV encoding here")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header, rows) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        line = ",".join(header) + "\n"
        fh.write(line)
        digest.update(line.encode("utf-8"))
        for row in rows:
            line = ",".join(_fmt(v) for v in row) + "\n"
            fh.write(line)
            digest.update(line.encode("utf-8"))
            count += 1
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
        return build_mesh(self.cfg.model, self.cfg.mesh.nx, self.cfg.mesh.ny)

    @cached_property
    def curvature(self):
        return plaquette_curvature(self.mesh)

    @cached_property
    def theta(self) -> float:
        raw = self.cfg.witness.theta
        if isinstance(raw, str):
            spec = WitnessSpec(mode="auto")
        else:
            spec = WitnessSpec(theta=float(raw), mode="fixed")
        return spec.resolve(self.mesh)

    @cached_property
    def sector(self):
        return sector_responses(self.mesh, self.curvature, self.theta)

    @cached_property
    def sweep(self):
        policy = self.cfg.witness.theta if not isinstance(self.cfg.witness.theta, str) else "auto"
        return sweep_mass(
            self.cfg.model,
            self.cfg.sweep.values(),
            (self.cfg.mesh.nx, self.cfg.mesh.ny),
            theta_policy=policy,
            workers=thread_cap(),
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
        """Seeded (k, theta, direction) batch with its geometry fields.

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
        arr = qgt_sample_arrays(k, self.cfg.model, th, dirs)
        return k, th, arr


# ---------------------------------------------------------------------------
# Panel builders: each returns (header, row iterable).
# ---------------------------------------------------------------------------

def _field_rows(ws: Workspace, values: np.ndarray):
    mesh = ws.mesh
    for i in range(mesh.nx):
        for j in range(mesh.ny):
            kx, ky = mesh.kpoints[i, j]
            yield (i, j, kx, ky, values[i, j])


def _panel_a(ws: Workspace):
    return ["m", "n", "k_x", "k_y", "F"], _field_rows(ws, ws.curvature.F)


def _panel_b(ws: Workspace):
    alpha = alpha_field(ws.mesh, ws.theta)
    return ["m", "n", "k_x", "k_y", "alpha"], _field_rows(ws, alpha)


def _panel_c(ws: Workspace):
    alpha = alpha_field(ws.mesh, ws.theta)
    density = (1.0 - 2.0 * alpha) * ws.curvature.F / TWO_PI
    return ["m", "n", "k_x", "k_y", "density"], _field_rows(ws, density)


def _panel_d(ws: Workspace):
    reports, _ = ws.sweep
    rows = (
        (mval, r.mu, r.nu_plus, r.nu_minus, r.nu_S)
        for mval, r in zip(ws.cfg.sweep.values(), reports)
    )
    return ["M", "mu", "nu_plus", "nu_minus", "nu_S"], rows


def _panel_e(ws: Workspace):
    reports, _ = ws.sweep
    rows = (
        (mval, r.r_mu, r.r_nu)
        for mval, r in zip(ws.cfg.sweep.values(), reports)
    )
    return ["M", "r_mu", "r_nu"], rows


def _panel_f(ws: Workspace):
    thetas, direct, reconstructed, _ = ws.tomography
    rows = zip(thetas, direct, reconstructed)
    return ["theta", "nu_direct", "nu_reconstructed"], rows


def _panel_g(ws: Workspace):
    rows = ((i, j, theta, nu) for (i, j, theta), nu in ws.probe_responses.items())
    return ["i", "j", "theta", "nu_minus"], rows


def _panel_h(ws: Workspace):
    k, th, arr = ws.qfi_samples
    rows = zip(arr.FQ, arr.FQS, k[:, 0], k[:, 1], th)
    return ["FQ", "FQS", "k_x", "k_y", "theta"], rows


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


def _run_panel(ws: Workspace, panel: str) -> PanelOutput:
    if panel not in _PANELS:
        raise ValidationError(f"unknown panel {panel!r}; expected one of {PANEL_IDS}")
    header, rows = _PANELS[panel](ws)
    outdir = Path(ws.cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"panel_{panel}.csv"
    count, checksum = _write_csv(path, header, rows)
    return PanelOutput(panel=panel, path=str(path), rows=count, checksum=checksum)


def run_panel(cfg: RunConfig, panel: str) -> PanelOutput:
    """Compute and write one panel CSV under cfg.output_dir."""
    return _run_panel(Workspace(cfg), panel)


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
        "jump_records": [j.to_dict() for j in ws.sweep[1]],
        "seed": cfg.qfi_scan.seed,
        "mesh": {"nx": cfg.mesh.nx, "ny": cfg.mesh.ny},
        "version": VERSION,
        "panels": {
            p: {"csv": Path(o.path).name, "rows": o.rows, "sha256": o.checksum}
            for p, o in outputs.items()
        },
    }
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    return summary
