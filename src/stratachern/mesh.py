"""Torus mesh of valence states and the lattice Berry curvature.

The curvature follows the Fukui-Hatsugai-Suzuki construction: normalized
overlap "link variables" between neighbouring valence states, and per
plaquette the principal-branch argument of the oriented link product.  The
total flux is then 2*pi times an exact integer whenever every plaquette stays
in the admissible branch, no matter how coarse the mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateOverlap, GaplessMesh, GaplessPoint, NonIntegerTotal, ValidationError
from .model import (
    GAP_FLOOR,
    ModelParams,
    _MeshGrid,
    d_components,
    mesh_kpoints,
    valence_amplitudes,
)

#: Link overlaps with modulus at or below this are treated as degenerate.
OVERLAP_FLOOR = 1e-10
#: Max tolerated deviation of the total flux / 2pi from the nearest integer.
INTEGER_TOL = 1e-10


@dataclass(frozen=True)
class TorusMesh:
    """Valence states on an nx-by-ny discretized Brillouin torus.

    Per-point data is stored as (nx, ny) arrays.  Indexing is periodic: the
    +x neighbour of (nx-1, n) is (0, n), and likewise in y.  Construction
    guarantees every point passed the gap check.
    """

    nx: int
    ny: int
    kpoints: np.ndarray            # (nx, ny, 2)
    vA: np.ndarray                 # (nx, ny) complex
    vB: np.ndarray                 # (nx, ny) complex
    nz: np.ndarray                 # (nx, ny) real
    coherence: np.ndarray          # (nx, ny) complex = vA * conj(vB)
    params: ModelParams | None = None
    min_norm: float = 0.0          # min |d(k)| encountered during the build

    def rephased(self, chi: np.ndarray) -> "TorusMesh":
        """Copy with each state multiplied by exp(i*chi[m, n]) (pure gauge)."""
        phase = np.exp(1j * np.asarray(chi, dtype=float))
        return replace(self, vA=self.vA * phase, vB=self.vB * phase)


@dataclass(frozen=True)
class CurvatureField:
    """Per-plaquette lattice Berry curvature, each value in (-pi, pi]."""

    F: np.ndarray                  # (nx, ny) real

    @property
    def total(self) -> float:
        """Row-major deterministic sum of all plaquette values."""
        return float(self.F.sum())


def build_mesh(p: ModelParams, nx: int, ny: int, gap_floor: float = GAP_FLOOR) -> TorusMesh:
    """Valence states at every mesh point k = (m/nx) g1 + (n/ny) g2.

    Raises GaplessMesh if any point fails the gap_floor check; the caller must
    perturb the parameters or refuse to proceed.
    """
    if nx < 4 or ny < 4:
        raise ValidationError(f"mesh size must be at least 4x4, got {nx}x{ny}")
    kpts = mesh_kpoints(nx, ny)
    dx, dy, dz = d_components(_MeshGrid((nx, ny)), p)
    nrm = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(nrm < gap_floor):
        m, n = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessMesh(
            f"gapless mesh point at (m, n) = ({m}, {n}), k = {kpts[m, n]}, "
            f"|d| = {nrm[m, n]:.3e}"
        ) from GaplessPoint(f"|d| < {gap_floor:g}")
    nx_hat, ny_hat, nz = dx / nrm, dy / nrm, dz / nrm
    vA, vB = valence_amplitudes(np.stack([nx_hat, ny_hat, nz], axis=-1))
    coherence = 0.5 * (-nx_hat + 1j * ny_hat)
    return TorusMesh(
        nx=nx,
        ny=ny,
        kpoints=kpts,
        vA=vA,
        vB=vB,
        nz=nz,
        coherence=coherence,
        params=p,
        min_norm=float(nrm.min()),
    )


def _normalized_links(mesh: TorusMesh, overlap_floor: float):
    """Unit links U_x[m, n] -> (m+1, n) and U_y[m, n] -> (m, n+1)."""
    vA, vB = mesh.vA, mesh.vB
    cA, cB = np.conj(vA), np.conj(vB)
    links = []
    for name, axis in (("x", 0), ("y", 1)):
        # np.multiply keeps conj first; `*` may swap operands and change FMA rounding.
        o = np.multiply(cA, np.roll(vA, -1, axis=axis)) + np.multiply(cB, np.roll(vB, -1, axis=axis))
        mag = np.abs(o)
        if np.any(mag <= overlap_floor):
            m, n = np.unravel_index(int(np.argmin(mag)), mag.shape)
            raise DegenerateOverlap(
                f"{name}-link overlap {mag[m, n]:.3e} <= {overlap_floor:g} "
                f"at (m, n) = ({m}, {n}); mesh too coarse for this gap"
            )
        links.append(np.divide(o, mag, out=o))
    return tuple(links)


def plaquette_curvature(mesh: TorusMesh, overlap_floor: float = OVERLAP_FLOOR) -> CurvatureField:
    """Principal-branch plaquette field strength of the link variables.

    F[m, n] = arg( U_x(k) U_y(k+x) conj(U_x(k+y)) conj(U_y(k)) ) with the
    plaquette based at k[m, n].  Gauge-invariant: per-site rephasing of the
    states cancels around every plaquette.
    """
    ux, uy = _normalized_links(mesh, overlap_floor)
    prod = (
        ux
        * np.roll(uy, -1, axis=0)
        * np.conj(np.roll(ux, -1, axis=1))
        * np.conj(uy)
    )
    return CurvatureField(F=np.angle(prod))


def chern_number(F: CurvatureField, integer_tol: float = INTEGER_TOL) -> int:
    """Nearest integer to total flux / 2pi; NonIntegerTotal beyond tolerance."""
    s = F.total / (2.0 * np.pi)
    mu = round(s)
    dev = abs(s - mu)
    if dev > integer_tol:
        raise NonIntegerTotal(
            f"sum(F)/2pi = {s!r} deviates from {mu} by {dev:.3e} "
            f"(tol {integer_tol:g}); a plaquette likely left the principal branch"
        )
    return int(mu)
