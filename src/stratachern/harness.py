"""Deterministic figure-data pipeline: panels a-h as CSV plus a run summary.

Every panel is a plain CSV (comma separators, LF line endings, header row)
whose floats are written with 17 significant digits so a read-back reproduces
the binary values to <= 1e-15 relative.  Given the same configuration and
seed the bytes are identical run to run; sha256 checksums are reported so
callers can verify that cheaply.  `run_all` writes panels a-c in one pass that
formats their shared m, n, k_x, k_y cells once; a panel alone has the same bytes.

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
from contextlib import ExitStack
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


def _encoding(c: np.ndarray):
    """Encoder (lo, hi) -> (row-format field, cells of rows lo..hi) of a 1-D column: integers as ``%d``, floats
    as ``%.17g`` (every float64 reads back exactly), any other dtype a ValidationError.  A column with at most
    one distinct value per four rows formats each once and gathers the strings as ``%s``, with the same bytes;
    float keys are bit patterns, which keep ``-0.0`` apart from ``0.0``."""
    if c.dtype.kind in "iu":
        fmt, keys = "%d", c
    elif c.dtype.kind == "f":
        c = np.ascontiguousarray(c, dtype=np.float64)
        fmt, keys = "%.17g", c.view(np.int64)
    else:
        raise ValidationError(f"{c.dtype} columns have no CSV encoding here")
    distinct, index = np.unique(keys, return_inverse=True)
    if 4 * len(distinct) <= len(c):
        table = np.array([fmt % v for v in distinct.view(c.dtype).tolist()], dtype=object)
        index = index.astype(np.min_scalar_type(len(table)))  # held for the whole write, so kept narrow
        return lambda lo, hi: ("%s", table[index[lo:hi]].tolist())
    return lambda lo, hi: (fmt, c[lo:hi].tolist())


def _rows(encoded) -> str:
    """Rows of text from (row-format field, cells) per column: one ``%`` over the cells in row order."""
    fields, cells = zip(*encoded)
    flat = [None] * (len(cells) * len(cells[0]))
    for i, column in enumerate(cells):
        flat[i::len(cells)] = column
    return ((",".join(fields) + "\n") * len(cells[0])) % tuple(flat)


def _write_csv(header, columns, files) -> list[tuple[int, str]]:
    """Write CSV files (path, header, columns) whose rows begin with the shared ``header`` and ``columns``
    (empty when nothing is shared); return (rows, sha256) per file.  No columns, a header of another length, a
    column of another shape or a dtype that `_encoding` refuses raises ValidationError before any file is
    created.  Rows go out in blocks of _BLOCK_ROWS, so the text in memory stays flat in the panel length; a
    block's shared cells are encoded and joined into row prefixes once, and each file's block is one `_rows`."""
    tables = [[np.asarray(c) for c in [*columns, *cols]] for _, _, cols in files]
    for (_, names, _), table in zip(files, tables):
        if not table or len(header) + len(names) != len(table):
            raise ValidationError(f"CSV needs one header name per column and at least one column, "
                                  f"got {len(header) + len(names)} names for {len(table)} columns")
        if any(c.ndim != 1 or c.shape != tables[0][0].shape for c in table):
            raise ValidationError(f"CSV columns must be 1-D and of one length, got shapes {[c.shape for c in table]}")
    shared = [_encoding(c) for c in tables[0][:len(columns)]]
    own = [[_encoding(c) for c in table[len(columns):]] for table in tables]
    heads = [(",".join([*header, *names]) + "\n").encode("utf-8") for _, names, _ in files]
    digests = [hashlib.sha256(head) for head in heads]
    count = len(tables[0][0])
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _, _ in files]
        for fh, head in zip(handles, heads):
            fh.write(head)
        for lo in range(0, count, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            lead = [("%s", _rows([enc(lo, hi) for enc in shared]).splitlines())] if shared else []
            for fh, digest, encoders in zip(handles, digests, own):
                data = _rows(lead + [enc(lo, hi) for enc in encoders]).encode("utf-8")
                fh.write(data)
                digest.update(data)
    return [(count, digest.hexdigest()) for digest in digests]


def default_probe_pair(m: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic unit probe pair used when the config lists none."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


class Workspace:
    """Shared, lazily computed state for one configuration.

    Panels share the mesh, curvature and alpha fields, resolved witness phase,
    sweep and tomography results, so `run_all` never recomputes them.
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
    def _alpha(self):
        """The negative-sector weight field of panels b and c, dropped by `_write_group` once they are built."""
        return alpha_field(self.mesh, self.theta)

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
# Panel builders: each returns (header, list of equal-length 1-D columns).  The
# rows of panels a-c begin with the mesh point's m, n, k_x, k_y, added by `_write_group`.
# ---------------------------------------------------------------------------

def _panel_a(ws: Workspace):
    return ["F"], [ws.curvature.ravel()]


def _panel_b(ws: Workspace):
    return ["alpha"], [ws._alpha.ravel()]


def _panel_c(ws: Workspace):
    return ["density"], [((1.0 - 2.0 * ws._alpha) * ws.curvature / TWO_PI).ravel()]


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


def _run_panels(ws: Workspace, panels: str):
    """Write ``panels``, each attempted even if another failed; return ({panel: PanelOutput}, [(panel, error)]).
    Panels a-c are built and written as one group, then each other panel alone, so that no group's columns
    are held while the next one's are built."""
    fields = [p for p in panels if p in "abc"]
    outputs, failures = {}, []
    for group in ([fields] if fields else []) + [[p] for p in panels if p not in "abc"]:
        built = {}
        for panel in group:
            try:
                built[panel] = _PANELS[panel](ws)
            except StrataChernError as exc:
                failures.append((panel, exc))
        try:
            outputs.update(_write_group(ws, built))
        except StrataChernError as exc:
            failures += [(p, exc) for p in built]
    return outputs, failures


def _write_group(ws: Workspace, built: dict) -> dict:
    """Write built panels in one `_write_csv` pass, panels a-c over one copy of their m, n, k_x, k_y."""
    if not built:
        return {}  # a refused panel makes no output directory
    header, columns = [], []
    if built.keys() <= {"a", "b", "c"}:
        ws.__dict__.pop("_alpha", None)  # panels b and c hold it now; the later panels do not need it
        m, n = np.indices((ws.mesh.nx, ws.mesh.ny)).reshape(2, -1)
        k = mesh_kpoints(ws.mesh.nx, ws.mesh.ny).reshape(-1, 2)
        header, columns = ["m", "n", "k_x", "k_y"], [m, n, k[:, 0], k[:, 1]]
    outdir = Path(ws.cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {p: outdir / f"panel_{p}.csv" for p in built}
    written = _write_csv(header, columns, [(paths[p], *built[p]) for p in built])
    return {p: PanelOutput(p, str(paths[p]), *w) for p, w in zip(built, written)}


def _run_panel(ws: Workspace, panel: str) -> PanelOutput:
    if panel not in _PANELS:
        raise ValidationError(f"unknown panel {panel!r}; expected one of {PANEL_IDS}")
    outputs, failures = _run_panels(ws, panel)
    if failures:
        raise failures[0][1]
    return outputs[panel]


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

    outputs, failures = _run_panels(ws, PANEL_IDS)
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
