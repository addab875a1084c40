"""Command-line entry point.

    stratachern <subcommand> [--config FILE] [--out DIR] [--seed U64] [--mesh NxM]

The subcommands are the entries of the ``_COMMANDS`` table: a help line and a
handler (Workspace, parsed arguments) -> result dictionary each; ``figure``
also takes a panel id <a-h>.  Flags override the corresponding config fields.
Each subcommand prints one JSON object to stdout; diagnostics go to stderr.  Exit
codes: 0 success, 2 validation/parse problems, 3 numerical-contract failures,
4 gap-closing (on-wall) parameters.  Runs are deterministic: the same config,
seed, and flags produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

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
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE", help="JSON run configuration")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        sp.add_argument("--seed", metavar="U64", type=int, help="scan seed (overrides config)")
        sp.add_argument("--mesh", metavar="NxM", help="mesh size, e.g. 48x48 (overrides config)")
        if name == "figure":
            sp.add_argument("panel", choices=list(PANEL_IDS), help="panel id")
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


def _chern(ws: Workspace, args) -> dict:
    analytic = ws.analytic  # first: an on-wall model is OnWall, not GaplessMesh
    report = ws.sector
    return {
        "chern_fhs": report.mu,
        "chern_analytic": analytic,
        "match": bool(report.mu == analytic),
        "min_gap": 2.0 * ws.mesh.min_norm,
        "mesh": {"nx": ws.cfg.mesh.nx, "ny": ws.cfg.mesh.ny},
    }


def _sweep(ws: Workspace, args) -> dict:
    out_d = _run_panel(ws, "d")
    out_e = _run_panel(ws, "e")
    reports, jumps = ws.sweep
    return {
        "points": len(reports),
        "residual_max": ws.residual_max,
        "total_delta_mu": sum(j.delta_mu for j in jumps),
        "jump_records": [asdict(j) for j in jumps],
        "panels": [asdict(out_d), asdict(out_e)],
    }


def _tomography(ws: Workspace, args) -> dict:
    out_f = _run_panel(ws, "f")
    return {
        "theta_points": out_f.rows,
        "tomography_max_err": ws.tomography[3],
        "panels": [asdict(out_f)],
    }


def _multiorbital(ws: Workspace, args) -> dict:
    out_g = _run_panel(ws, "g")
    rec = reconstruct_JF(ws.probe_responses, ws.cfg.multi.m, ws.cfg.multi.n, ws.sector.mu)
    rec_err = float(np.abs(rec - ws.multi_jf).max())
    x, y = ws.probe_pair
    kind = levi_type(np.outer(x, np.conj(y)))
    return {
        "reconstruction_max_err": rec_err,
        "levi_type": [kind.r_plus, kind.r_minus, kind.r_zero],
        "bounds": asdict(ws.multi_bounds),
        "panels": [asdict(out_g)],
    }


def _qgt(ws: Workspace, args) -> dict:
    out_h = _run_panel(ws, "h")
    _, _, arr = ws.qfi_samples
    sat = saturation_case(ws.cfg.model) if abs(ws.cfg.model.M) < 1e-12 else None
    result = {
        "samples": out_h.rows,
        "max_dual_path_deviation": float(arr.dual_dev.max()),
        "panels": [asdict(out_h)],
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


#: Subcommand name -> (help line, handler), in `stratachern -h` order.
_COMMANDS = {
    "chern": ("lattice and analytic Chern numbers", _chern),
    "sweep": ("stagger-mass sweep with identity residuals (panels d, e)", _sweep),
    "tomography": ("witness-phase tomography scan (panel f)", _tomography),
    "multiorbital": ("basis-probe responses, matrix reconstruction and operator-norm bounds (panel g)", _multiorbital),
    "qgt": ("seeded filtered quantum-geometry samples (panel h)", _qgt),
    "inequalities": ("sampled bound checks for the filtered geometry", lambda ws, args: asdict(ws.inequalities)),
    "figure": ("write one figure-data panel", lambda ws, args: asdict(_run_panel(ws, args.panel))),
    "all": ("all panels plus summary.json", lambda ws, args: run_all(ws.cfg)),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _COMMANDS[args.command][1](Workspace(_config_from_args(args)), args)
    except StrataChernError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(result, indent=2))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
