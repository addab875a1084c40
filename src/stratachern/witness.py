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

from .errors import DegeneratePhase, ValidationError, _integer, _real
from .mesh import TorusMesh, _mesh_size, _sum, _total, build_mesh, chern_number, plaquette_curvature
from .model import ModelParams, analytic_chern, dirac_masses

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
        t = _real(self.theta, "witness theta")
        # normalize into (-pi, pi]; alpha(theta) is 2pi-periodic so this is free
        t = math.remainder(t, TWO_PI)
        if t <= -math.pi:
            t += TWO_PI
        object.__setattr__(self, "theta", t)

    @classmethod
    def from_policy(cls, policy) -> "WitnessSpec":
        """The spec for a phase policy: "auto" or a fixed phase in radians."""
        if not isinstance(policy, str):
            return cls(theta=policy, mode="fixed")
        if policy != "auto":
            raise ValidationError(f'witness phase policy must be "auto" or a number, got {policy!r}')
        return cls(mode="auto")

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


def reference_phase(mesh: TorusMesh) -> float:
    """arg of the mesh-averaged vB * conj(vA), its sum taken by ``mesh._total``;
    DegeneratePhase if the average is smaller than PHASE_FLOOR in modulus."""
    coh = mesh.coherence.reshape(-1)
    z = complex(np.conj(_complex_total(lambda lo, hi: coh[lo:hi], coh.size)) / coh.size)
    if abs(z) < PHASE_FLOOR:
        raise DegeneratePhase(f"|<vB vA*>| = {abs(z):.3e} < {PHASE_FLOOR:g}")
    return float(np.angle(z))


def _checked_chern(mesh: TorusMesh, F: np.ndarray) -> int:
    if isinstance(F, np.ndarray) and F.shape != (mesh.nx, mesh.ny):  # chern_number refuses a non-array
        raise ValidationError(
            f"curvature field shape {F.shape} does not match mesh {(mesh.nx, mesh.ny)}"
        )
    return chern_number(F)


def _complex_total(terms, n: int) -> np.complex128:
    """Sum of the complex ``terms(lo, hi)`` of points 0..n, formed per leaf of ``mesh._total``,
    which totals their real and imaginary parts; a numpy scalar, so it divides as np.mean does."""
    def leaf(lo, hi):
        z = _sum(terms(lo, hi))
        return z.real, z.imag

    return np.complex128(complex(*_total(leaf, n)))


def _weighted_coherence(mesh: TorusMesh, F: np.ndarray) -> complex:
    """JF = (1/2pi) sum F * coherence, with each leaf's products formed in cache (see ``_complex_total``)."""
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)
    return complex(_complex_total(lambda lo, hi: f[lo:hi] * coh[lo:hi], f.size) / TWO_PI)


def alpha_field(mesh: TorusMesh, theta: float) -> np.ndarray:
    """Negative-sector weight alpha(k) = 1/2 + Re(exp(i*theta) * vA * conj(vB))
    at every mesh point; the witness expectation there is <S> = 1 - 2*alpha.
    Raises ValidationError unless theta is one finite real number."""
    theta = _real(theta, "witness theta")
    return 0.5 + np.real(np.exp(1j * theta) * mesh.coherence)


def sector_responses(mesh: TorusMesh, F: np.ndarray, theta: float) -> SectorReport:
    """Curvature-weighted sector responses with base-corner weights.

    Each response is an independent lattice sum of its per-point terms, formed and
    summed per leaf of ``mesh._total`` in one cache-resident pass; the residuals
    r_mu, r_nu report how well the exact identities survive rounding.
    """
    mu = _checked_chern(mesh, F)
    theta = _real(theta, "witness theta")
    phase = np.exp(1j * theta)
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)

    def weighted(lo, hi):  # the nu_minus, nu_plus and nu_S sums over points lo..hi
        alpha, fb = 0.5 + (phase * coh[lo:hi]).real, f[lo:hi]
        return _sum(alpha * fb), _sum((1.0 - alpha) * fb), _sum((1.0 - 2.0 * alpha) * fb)

    nu_minus, nu_plus, nu_s = (s / TWO_PI for s in _total(weighted, f.size))
    return SectorReport(
        mu=mu,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        nu_S=nu_s,
        JF=_weighted_coherence(mesh, F),
        r_mu=abs(mu - (nu_plus + nu_minus)),
        r_nu=abs(nu_s - (nu_plus - nu_minus)),
        theta=theta,
    )


def tomography_reconstruct(nu0: float, nu90: float, mu: int) -> complex:
    """Curvature-weighted coherence from two witness settings.

    Given nu_minus at theta = 0 and theta = pi/2 on the same mesh,
    returns (nu0 - mu/2) - i*(nu90 - mu/2); the reconstructed response
    nu(theta) = -2 Re(exp(i*theta) * result) then matches the direct scan.
    """
    half = mu / 2.0
    return complex(nu0 - half, -(nu90 - half))


def theta_scan(mesh: TorusMesh, F: np.ndarray, thetas) -> np.ndarray:
    """Direct graded response nu_S(theta) for each theta, bit-equal to sector_responses' nu_S.

    Points are the outer loop and phases the inner one: each leaf of ``mesh._total`` reads
    its coherence and F once and sums every phase's per-point terms while they are in cache.
    """
    thetas = _real(thetas, "witness theta", scalar=False).reshape(-1)
    _checked_chern(mesh, F)
    phases = np.exp(1j * thetas)
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)

    def leaf(lo, hi):  # every phase's sum over points lo..hi
        cb, fb, zb, t = coh[lo:hi], f[lo:hi], np.empty(hi - lo, dtype=complex), np.empty(hi - lo)
        sums = np.empty(phases.size)
        for i, phase in enumerate(phases):
            np.add(0.5, np.multiply(phase, cb, out=zb).real, out=t)  # alpha
            np.subtract(1.0, np.multiply(2.0, t, out=t), out=t)      # 1 - 2*alpha
            sums[i] = _sum(np.multiply(t, fb, out=t))
        return sums

    return np.array(_total(leaf, f.size)) / TWO_PI


def theta_grid(count: int) -> np.ndarray:
    """Midpoint grid of ``count`` >= 1 witness phases covering (-pi, pi)."""
    count = _integer(count, "count", 1)
    j = np.arange(count)
    return -math.pi + (j + 0.5) * (TWO_PI / count)


def sweep_mass(
    p_base: ModelParams,
    M_values,
    mesh_size,
    theta_policy="auto",
    workers: int = 1,
) -> tuple[list[SectorReport], list[JumpRecord]]:
    """Sector responses along an ordered stagger-mass sweep, plus jump records.

    theta_policy is "auto" (recompute the reference phase per M, falling back
    to 0 when degenerate) or a fixed phase in radians.  A JumpRecord is
    emitted for each consecutive pair whose Chern number differs; the wall
    location is the analytic critical mass (a zero of ``dirac_masses``) that the
    pair brackets.  Every lattice Chern number equals the Dirac-mass count or is
    refused (``plaquette_curvature``), so a change always brackets exactly one wall.
    ``mesh_size`` is N or an (nx, ny) pair, as in ``inequality_suite``; every
    argument is checked before any mesh work (ValidationError).
    Wall hits among the M values propagate OnWall.  ``workers`` > 1 evaluates
    the sweep points on a thread pool; results are collected in sweep order so
    output is identical for any worker count.  The product path
    (``Workspace.sweep``) runs serially, since there the pool gains no wall
    time and its threads' malloc arenas raise the peak RSS; ``workers`` stays
    while the benchmark's own tests (``perfbench/tests``) call it.
    """
    M_values = [replace(p_base, M=m).M for m in M_values]  # ModelParams refuses a non-real M
    nx, ny = _mesh_size(mesh_size)
    workers = _integer(workers, "workers", 1)
    spec = WitnessSpec.from_policy(theta_policy)

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

    wall = dirac_masses(replace(p_base, M=0.0))[1]  # the Dirac walls are at M = +/- wall
    jumps = [JumpRecord(wall_location=wall if min(m_lo, m_hi) < wall < max(m_lo, m_hi) else -wall,
                        delta_mu=hi.mu - lo.mu, delta_nu_S=hi.nu_S - lo.nu_S)
             for (m_lo, lo), (m_hi, hi) in zip(zip(M_values, reports), zip(M_values[1:], reports[1:]))
             if hi.mu != lo.mu]
    return reports, jumps
