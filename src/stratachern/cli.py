"""Command-line entry point.

    stratachern <subcommand> [--config FILE] [--out DIR] [--seed U64] [--mesh NxM]

Subcommands: chern, sweep, tomography, multiorbital, qgt, inequalities,
figure <a-h>, all.  Flags override the corresponding config fields.  Each
subcommand prints one JSON object to stdout; diagnostics go to stderr.  Exit
codes: 0 success, 2 validation/parse problems, 3 numerical-contract failures,
4 gap-closing (on-wall) parameters.  Runs are deterministic: the same config,
seed, and flags produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .config import RunConfig, default_config, load_config, with_overrides
from .errors import StrataChernError, ValidationError
from .harness import PANEL_IDS, Workspace, _run_panel, run_all
from .geometry import saturation_case
from .multiorbital import levi_type, reconstruct_JF

_MESH_RE = re.compile(r"^(\d+)x(\d+)$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratachern",
        description="Lattice Chern numbers and witness-filtered sector responses "
        "for two-band Bloch Hamiltonians on a discretized Brillouin torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE", help="JSON run configuration")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        sp.add_argument("--seed", metavar="U64", type=int, help="scan seed (overrides config)")
        sp.add_argument("--mesh", metavar="NxM", help="mesh size, e.g. 48x48 (overrides config)")
        return sp

    add("chern", "lattice and analytic Chern numbers")
    add("sweep", "stagger-mass sweep with identity residuals (panels d, e)")
    add("tomography", "witness-phase tomography scan (panel f)")
    add("multiorbital", "basis-probe responses, matrix reconstruction and operator-norm bounds (panel g)")
    add("qgt", "seeded filtered quantum-geometry samples (panel h)")
    add("inequalities", "sampled bound checks for the filtered geometry")
    fig = add("figure", "write one figure-data panel")
    fig.add_argument("panel", choices=list(PANEL_IDS), help="panel id")
    add("all", "all panels plus summary.json")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    mesh = None
    if args.mesh is not None:
        match = _MESH_RE.match(args.mesh)
        if not match:
            raise ValidationError(f"--mesh expects NxM (e.g. 48x48), got {args.mesh!r}")
        mesh = (int(match.group(1)), int(match.group(2)))
    return with_overrides(cfg, mesh=mesh, seed=args.seed, output_dir=args.out)


def _cmd_chern(cfg: RunConfig) -> dict:
    ws = Workspace(cfg)
    analytic = ws.analytic
    report = ws.sector
    return {
        "chern_fhs": report.mu,
        "chern_analytic": analytic,
        "match": bool(report.mu == analytic),
        "min_gap": 2.0 * ws.mesh.min_norm,
        "mesh": {"nx": cfg.mesh.nx, "ny": cfg.mesh.ny},
    }


def _cmd_sweep(cfg: RunConfig) -> dict:
    ws = Workspace(cfg)
    out_d = _run_panel(ws, "d")
    out_e = _run_panel(ws, "e")
    reports, jumps = ws.sweep
    return {
        "points": len(reports),
        "residual_max": ws.residual_max,
        "total_delta_mu": sum(j.delta_mu for j in jumps),
        "jump_records": [j.to_dict() for j in jumps],
        "panels": [out_d.to_dict(), out_e.to_dict()],
    }


def _cmd_tomography(cfg: RunConfig) -> dict:
    ws = Workspace(cfg)
    out_f = _run_panel(ws, "f")
    return {
        "theta_points": out_f.rows,
        "tomography_max_err": ws.tomography[3],
        "panels": [out_f.to_dict()],
    }


def _cmd_multiorbital(cfg: RunConfig) -> dict:
    ws = Workspace(cfg)
    out_g = _run_panel(ws, "g")
    rec = reconstruct_JF(ws.probe_responses, cfg.multi.m, cfg.multi.n, ws.sector.mu)
    rec_err = float(np.abs(rec - ws.multi_jf).max())
    x, y = ws.probe_pair
    kind = levi_type(np.outer(x, np.conj(y)))
    return {
        "reconstruction_max_err": rec_err,
        "levi_type": [kind.r_plus, kind.r_minus, kind.r_zero],
        "bounds": ws.multi_bounds.to_dict(),
        "panels": [out_g.to_dict()],
    }


def _cmd_qgt(cfg: RunConfig) -> dict:
    ws = Workspace(cfg)
    out_h = _run_panel(ws, "h")
    _, _, arr = ws.qfi_samples
    sat = saturation_case(cfg.model) if abs(cfg.model.M) < 1e-12 else None
    result = {
        "samples": out_h.rows,
        "max_dual_path_deviation": float(arr.dual_dev.max()),
        "panels": [out_h.to_dict()],
    }
    if sat is not None:
        fq, fqs = float(sat.FQ[0]), float(sat.FQS[0])
        result["saturation"] = {
            "FQ": fq,
            "FQS": fqs,
            "theta": float(sat.theta[0]),
            "gap": abs(fq - fqs),
        }
    return result


def _cmd_inequalities(cfg: RunConfig) -> dict:
    return Workspace(cfg).inequalities.to_dict()


def _cmd_figure(cfg: RunConfig, panel: str) -> dict:
    return _run_panel(Workspace(cfg), panel).to_dict()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "chern":
            result = _cmd_chern(cfg)
        elif args.command == "sweep":
            result = _cmd_sweep(cfg)
        elif args.command == "tomography":
            result = _cmd_tomography(cfg)
        elif args.command == "multiorbital":
            result = _cmd_multiorbital(cfg)
        elif args.command == "qgt":
            result = _cmd_qgt(cfg)
        elif args.command == "inequalities":
            result = _cmd_inequalities(cfg)
        elif args.command == "figure":
            result = _cmd_figure(cfg, args.panel)
        else:  # all
            result = run_all(cfg)
    except StrataChernError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(result, indent=2))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
