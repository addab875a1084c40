"""Witness-filtered sector responses on the discretized Brillouin torus.

A two-qubit sign operator, restricted to the single-excitation sector, splits
each valence state into +/- witness sectors with weight

    alpha(k) = 1/2 + Re(exp(i*theta) * vA * conj(vB)),     <S>(k) = 1 - 2*alpha.

Weighting the lattice curvature by alpha / (1 - alpha) / <S> gives the sector
responses nu_minus, nu_plus and the graded response nu_S.  Because the weights
are evaluated at each plaquette's base corner, the lattice identities

    mu = nu_plus + nu_minus          nu_S = nu_plus - nu_minus
    nu_minus = mu/2 + Re(exp(i*theta) * JF)        nu_S = -2 Re(exp(i*theta) * JF)

hold to rounding error, where JF = (1/2pi) * sum F * vA * conj(vB) is the
curvature-weighted coherence.  Two witness settings (theta = 0 and pi/2) are
enough to reconstruct JF, hence nu_S at every theta.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePhase, ValidationError
from .mesh import CurvatureField, TorusMesh, build_mesh, chern_number, plaquette_curvature
from .model import ModelParams, analytic_chern

#: |mesh-averaged coherence| below this cannot define a reference phase.
PHASE_FLOOR = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WitnessSpec:
    """Witness phase policy: a fixed theta in (-pi, pi], or mesh-derived."""

    theta: float = 0.0
    mode: str = "fixed"  # "fixed" | "auto"

    def __post_init__(self):
        if self.mode not in ("fixed", "auto"):
            raise ValidationError(f"witness mode must be 'fixed' or 'auto', got {self.mode!r}")
        # normalize into (-pi, pi]; alpha(theta) is 2pi-periodic so this is free
        t = math.remainder(float(self.theta), TWO_PI)
        if t <= -math.pi:
            t += TWO_PI
        object.__setattr__(self, "theta", t)

    def resolve(self, mesh: TorusMesh) -> float:
        """Effective phase for a mesh: fixed value, or arg of the mesh-average
        coherence with the theta = 0 fallback when that average is degenerate."""
        if self.mode == "fixed":
            return self.theta
        try:
            return reference_phase(mesh)
        except DegeneratePhase:
            return 0.0


@dataclass(frozen=True)
class SectorReport:
    """Sector responses and identity residuals at one parameter point."""

    mu: int
    nu_minus: float
    nu_plus: float
    nu_S: float
    JF: complex
    r_mu: float
    r_nu: float
    theta: float = 0.0


@dataclass(frozen=True)
class JumpRecord:
    """Quantized jump of (mu, nu_S) across a gap-closing wall in a sweep."""

    wall_location: float
    delta_mu: int
    delta_nu_S: float
    side_values: tuple[float, float, float, float]  # (mu_lo, nu_S_lo, mu_hi, nu_S_hi)

    def to_dict(self) -> dict:
        return {
            "wall_location": self.wall_location,
            "delta_mu": self.delta_mu,
            "delta_nu_S": self.delta_nu_S,
        }


def reference_phase(mesh: TorusMesh) -> float:
    """arg of the mesh-averaged vB * conj(vA); DegeneratePhase if the average
    is smaller than PHASE_FLOOR in modulus."""
    z = complex(np.mean(np.conj(mesh.coherence)))
    if abs(z) < PHASE_FLOOR:
        raise DegeneratePhase(f"|<vB vA*>| = {abs(z):.3e} < {PHASE_FLOOR:g}")
    return float(np.angle(z))


def weight_alpha(s, theta: float) -> tuple[float, float]:
    """Negative-sector weight and witness expectation of one state.

    Returns (alpha, <S>) with alpha = 1/2 + Re(exp(i*theta) * coherence) and
    <S> = 1 - 2*alpha.
    """
    alpha = 0.5 + (np.exp(1j * theta) * s.coherence).real
    return float(alpha), float(1.0 - 2.0 * alpha)


def alpha_field(mesh: TorusMesh, theta: float) -> np.ndarray:
    """alpha(k) over the whole mesh (base-corner values)."""
    return 0.5 + np.real(np.exp(1j * theta) * mesh.coherence)


def sector_responses(mesh: TorusMesh, F: CurvatureField, theta: float) -> SectorReport:
    """Curvature-weighted sector responses with base-corner weights.

    Each response is an independent deterministic row-major lattice sum; the
    residuals r_mu, r_nu report how well the exact identities survive rounding.
    """
    if F.F.shape != (mesh.nx, mesh.ny):
        raise ValidationError(
            f"curvature field shape {F.F.shape} does not match mesh {(mesh.nx, mesh.ny)}"
        )
    mu = chern_number(F)
    alpha = alpha_field(mesh, theta)
    nu_minus = float((alpha * F.F).sum() / TWO_PI)
    nu_plus = float(((1.0 - alpha) * F.F).sum() / TWO_PI)
    nu_s = float(((1.0 - 2.0 * alpha) * F.F).sum() / TWO_PI)
    jf = complex((F.F * mesh.coherence).sum() / TWO_PI)
    return SectorReport(
        mu=mu,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        nu_S=nu_s,
        JF=jf,
        r_mu=abs(mu - (nu_plus + nu_minus)),
        r_nu=abs(nu_s - (nu_plus - nu_minus)),
        theta=float(theta),
    )


def tomography_reconstruct(nu0: float, nu90: float, mu: int) -> complex:
    """Curvature-weighted coherence from two witness settings.

    Given nu_minus at theta = 0 and theta = pi/2 on the same mesh,
    returns (nu0 - mu/2) - i*(nu90 - mu/2); the reconstructed response
    nu(theta) = -2 Re(exp(i*theta) * result) then matches the direct scan.
    """
    half = mu / 2.0
    return complex(nu0 - half, -(nu90 - half))


def theta_scan(mesh: TorusMesh, F: CurvatureField, thetas) -> np.ndarray:
    """Direct graded response nu_S(theta) for each theta in the grid."""
    return np.array([sector_responses(mesh, F, float(t)).nu_S for t in thetas])


def theta_grid(count: int = 64) -> np.ndarray:
    """Midpoint grid of witness phases covering (-pi, pi)."""
    j = np.arange(count)
    return -math.pi + (j + 0.5) * (TWO_PI / count)


def sweep_mass(
    p_base: ModelParams,
    M_values,
    mesh_size: tuple[int, int],
    theta_policy="auto",
    workers: int = 1,
) -> tuple[list[SectorReport], list[JumpRecord]]:
    """Sector responses along an ordered stagger-mass sweep, plus jump records.

    theta_policy is "auto" (recompute the reference phase per M, falling back
    to 0 when degenerate) or a fixed phase in radians.  A JumpRecord is
    emitted for each consecutive pair whose Chern number differs; the wall
    location is the analytic critical mass +/- 3*sqrt(3)*t2*sin(phi) bracketed
    by the pair (midpoint fallback if neither analytic wall lies inside).
    Wall hits among the M values propagate OnWall.  ``workers`` > 1 evaluates
    the sweep points on a thread pool; results are collected in sweep order so
    output is identical for any worker count.
    """
    M_values = [float(m) for m in M_values]
    nx, ny = mesh_size
    spec = (
        WitnessSpec(mode="auto")
        if isinstance(theta_policy, str) and theta_policy == "auto"
        else WitnessSpec(theta=float(theta_policy), mode="fixed")
    )

    def one(mval: float) -> SectorReport:
        p = replace(p_base, M=mval)
        analytic_chern(p)  # OnWall propagates before any mesh work
        mesh = build_mesh(p, nx, ny)
        F = plaquette_curvature(mesh)
        return sector_responses(mesh, F, spec.resolve(mesh))

    if workers > 1 and len(M_values) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(one, M_values))
    else:
        reports = [one(m) for m in M_values]

    jumps: list[JumpRecord] = []
    wall = 3.0 * math.sqrt(3.0) * p_base.t2 * math.sin(p_base.phi)
    for (m_lo, lo), (m_hi, hi) in zip(
        zip(M_values, reports), zip(M_values[1:], reports[1:])
    ):
        if hi.mu == lo.mu:
            continue
        lo_m, hi_m = min(m_lo, m_hi), max(m_lo, m_hi)
        candidates = [w for w in (wall, -wall) if lo_m < w < hi_m]
        location = candidates[0] if candidates else 0.5 * (m_lo + m_hi)
        jumps.append(
            JumpRecord(
                wall_location=float(location),
                delta_mu=hi.mu - lo.mu,
                delta_nu_S=hi.nu_S - lo.nu_S,
                side_values=(float(lo.mu), lo.nu_S, float(hi.mu), hi.nu_S),
            )
        )
    return reports, jumps
