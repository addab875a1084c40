"""The four benchmark workloads: seeded inputs, one timed op, one check.

Every library call goes through a module attribute looked up at call time
(``sc.build_mesh``, ``sc.cli.main``), so the span recorder in ``tracer.py``
sees the benchmark's own calls as well as the library's internal ones.

A workload object is built from ``(seed, size)``; ``size`` holds the problem
sizes, which the tests shrink.  ``op(i)`` is the timed call and returns its
raw output; ``check(i, out)`` returns None when the output is correct and a
one-line reason otherwise.  ``units`` is the work one op completes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import stratachern as sc
import stratachern.cli  # noqa: F401  (binds sc.cli)

#: Lattice identities and two-setting reconstruction hold to rounding error.
IDENTITY_TOL = 1e-12

#: Enough pre-drawn inputs for runs far faster than today's code; ops index
#: them modulo the count.
DRAWS = 1 << 17

FULL_SIZES = {
    "figure_pipeline": {"mesh": 256},
    "phase_scan": {"mesh": 48},
    "qgt_random": {"mesh": 64, "samples": 1 << 18},
    "fine_mesh": {"mesh": 1024, "thetas": 64},
}


def expected_rows(n: int) -> dict:
    """Rows per panel of `stratachern all` at an n x n mesh with the default
    configuration: 25 sweep points, 64 phases, 2x2 probes at two settings,
    10000 QFI samples."""
    return {"a": n * n, "b": n * n, "c": n * n, "d": 25, "e": 25, "f": 64, "g": 8, "h": 10000}


class FigurePipeline:
    """`stratachern all` in-process, one fresh output directory per op."""

    unit = "runs"

    def __init__(self, seed: int, size: dict, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cli_seed = int(rng.integers(0, 2**32))
        self.mesh = int(size["mesh"])
        self.workdir = workdir
        self.units = 1
        self.digest = None         # digest of the panel sha256s, fixed per run
        self.written = [0, 0]      # rows and bytes written by checked ops

    def _outdir(self, i: int) -> Path:
        return self.workdir / f"op{i}"

    def op(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli.main([
                "all", "--mesh", f"{self.mesh}x{self.mesh}",
                "--seed", str(self.cli_seed), "--out", str(self._outdir(i)),
            ])
        return code, out.getvalue()

    def check(self, i: int, out):
        try:
            return self._check(i, out)
        finally:
            shutil.rmtree(self._outdir(i), ignore_errors=True)

    def _check(self, i: int, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        s = json.loads(stdout)
        if s["chern_fhs"] != s["chern_analytic"]:
            return f"chern_fhs {s['chern_fhs']} != chern_analytic {s['chern_analytic']}"
        for key in ("residual_max", "tomography_max_err"):
            if not s[key] <= IDENTITY_TOL:
                return f"{key} = {s[key]!r} > {IDENTITY_TOL:g}"
        if s["inequality_violations"] != 0:
            return f"inequality_violations = {s['inequality_violations']}"
        outdir = self._outdir(i)
        names = sorted(p.name for p in outdir.iterdir())
        want = sorted([f"panel_{p}.csv" for p in "abcdefgh"] + ["summary.json"])
        if names != want:
            return f"output files {names}"
        rows = 0
        nbytes = (outdir / "summary.json").stat().st_size
        digest = hashlib.sha256()
        for panel, n_rows in expected_rows(self.mesh).items():
            rec = s["panels"][panel]
            data = (outdir / rec["csv"]).read_bytes()
            lines = data.count(b"\n")
            if rec["rows"] != n_rows or lines != n_rows + 1:
                return f"panel {panel}: {rec['rows']} rows, {lines - 1} lines, want {n_rows}"
            if hashlib.sha256(data).hexdigest() != rec["sha256"]:
                return f"panel {panel}: sha256 does not match the file"
            rows += n_rows
            nbytes += len(data)
            digest.update(rec["sha256"].encode())
        digest = digest.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return f"panel digest {digest[:16]} differs from the first op's {self.digest[:16]}"
        self.written[0] += rows
        self.written[1] += nbytes
        return None


class PhaseScan:
    """Lattice invariant and sector responses at seeded (M, phi) draws."""

    unit = "parameter points"

    def __init__(self, seed: int, size: dict, workdir: Path):
        rng = np.random.default_rng(seed)
        self.M = rng.uniform(-3.0, 3.0, DRAWS)
        # uniform over (-pi, pi]
        self.phi = math.pi - rng.uniform(0.0, 2.0 * math.pi, DRAWS)
        self.mesh = int(size["mesh"])
        self.units = 1

    def params(self, i: int):
        j = i % DRAWS
        return sc.ModelParams(1.0, 1.0 / 3.0, float(self.phi[j]), float(self.M[j]))

    def op(self, i: int):
        p = self.params(i)
        analytic = sc.analytic_chern(p)
        mesh = sc.build_mesh(p, self.mesh, self.mesh)
        F = sc.plaquette_curvature(mesh)
        mu = sc.chern_number(F)
        theta = sc.WitnessSpec(mode="auto").resolve(mesh)
        return analytic, mu, sc.sector_responses(mesh, F, theta)

    def check(self, i: int, out):
        analytic, mu, rep = out
        if mu != analytic or rep.mu != analytic:
            return f"{self.params(i)}: lattice {mu}/{rep.mu} != analytic {analytic}"
        if not max(rep.r_mu, rep.r_nu) <= IDENTITY_TOL:
            return f"{self.params(i)}: identity residuals {rep.r_mu!r}, {rep.r_nu!r}"
        return None


class QgtRandom:
    """The sampled inequality ladder at random k-points, one stream per op."""

    unit = "sampled k-points"
    params = sc.ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5)

    def __init__(self, seed: int, size: dict, workdir: Path):
        rng = np.random.default_rng(seed)
        self.theta = math.pi - rng.uniform(0.0, 2.0 * math.pi, DRAWS)
        self.op_seed = rng.integers(0, 2**63, DRAWS)
        self.mesh = int(size["mesh"])
        self.units = int(size["samples"])

    def op(self, i: int):
        j = i % DRAWS
        return sc.inequality_suite(
            self.params, float(self.theta[j]), (self.mesh, self.mesh), self.units,
            int(self.op_seed[j]),
        )

    def check(self, i: int, report):
        if report.violations != 0 or report.samples != self.units:
            return f"{report.violations} violations over {report.samples} samples"
        return None


class FineMesh:
    """The mesh/witness/multi-orbital chain on one large mesh."""

    unit = "mesh points"
    params = sc.ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.5)

    def __init__(self, seed: int, size: dict, workdir: Path):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        self.x, self.y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        self.mesh = int(size["mesh"])
        self.thetas = int(size["thetas"])
        self.units = self.mesh * self.mesh
        self.analytic = sc.analytic_chern(self.params)

    def op(self, i: int):
        mesh = sc.build_mesh(self.params, self.mesh, self.mesh)
        F = sc.plaquette_curvature(mesh)
        mu = sc.chern_number(F)
        rep = sc.sector_responses(mesh, F, sc.reference_phase(mesh))
        thetas = sc.theta_grid(self.thetas)
        direct = sc.theta_scan(mesh, F, thetas)
        r0 = sc.sector_responses(mesh, F, 0.0)
        r90 = sc.sector_responses(mesh, F, math.pi / 2.0)
        rec = sc.tomography_reconstruct(r0.nu_minus, r90.nu_minus, mu)
        tomo_err = float(np.abs(direct + 2.0 * np.real(np.exp(1j * thetas) * rec)).max())
        jf = sc.coherence_matrix(mesh, F, self.x, self.y)
        for theta in (0.0, math.pi / 2.0):
            sc.sector_response_multi(jf, mu, self.x, self.y, theta)
        return mu, rep, tomo_err

    def check(self, i: int, out):
        mu, rep, tomo_err = out
        if mu != self.analytic or rep.mu != self.analytic:
            return f"lattice {mu}/{rep.mu} != analytic {self.analytic}"
        if not max(rep.r_mu, rep.r_nu) <= IDENTITY_TOL:
            return f"identity residuals {rep.r_mu!r}, {rep.r_nu!r}"
        if not tomo_err <= IDENTITY_TOL:
            return f"two-setting reconstruction error {tomo_err!r}"
        return None


WORKLOADS = {
    "figure_pipeline": FigurePipeline,
    "phase_scan": PhaseScan,
    "qgt_random": QgtRandom,
    "fine_mesh": FineMesh,
}


def make(name: str, seed: int, workdir: Path, size: dict | None = None):
    """Build workload ``name``'s inputs from ``seed``."""
    return WORKLOADS[name](seed, size or FULL_SIZES[name], workdir)
