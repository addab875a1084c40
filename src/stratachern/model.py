"""Two-band Bloch Hamiltonian of Haldane type on the honeycomb lattice.

The Hamiltonian at crystal momentum k is h(k) = d0(k)*I + d(k).sigma with

    dx + i*dy = t1 * sum_m exp(i k.delta_m)          (nearest neighbours)
    d0        = 2 t2 cos(phi) * sum_j cos(k.b_j)      (NNN, even part)
    dz        = M - 2 t2 sin(phi) * sum_j sin(k.b_j)  (NNN, odd part + stagger)

Everything downstream (curvature, witness weights, quantum geometry) is a
function of the unit vector n = d/|d| and its exact k-derivatives, which this
module provides in closed form.  Lattice geometry is fixed: the NN distance is
1 and the oriented NNN difference vectors satisfy b1 + b2 + b3 = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPoint, OnWall, ValidationError

# Fixed honeycomb geometry (NN distance = 1).
NN_VECTORS = np.array(
    [[0.0, 1.0],
     [-math.sqrt(3.0) / 2.0, -0.5],
     [math.sqrt(3.0) / 2.0, -0.5]]
)
NNN_VECTORS = np.array(
    [[-math.sqrt(3.0), 0.0],
     [math.sqrt(3.0) / 2.0, 1.5],
     [math.sqrt(3.0) / 2.0, -1.5]]
)

# Bravais primitive vectors and the dual reciprocal basis, g_i . a_j = 2pi d_ij.
BRAVAIS = np.array([[math.sqrt(3.0), 0.0], [math.sqrt(3.0) / 2.0, 1.5]])
RECIPROCAL = np.array(
    [[2.0 * math.pi / math.sqrt(3.0), -2.0 * math.pi / 3.0],
     [0.0, 4.0 * math.pi / 3.0]]
)
#: Area of the reciprocal unit cell |g1 x g2| = 8 pi^2 / (3 sqrt 3).
CELL_AREA = abs(
    RECIPROCAL[0, 0] * RECIPROCAL[1, 1] - RECIPROCAL[0, 1] * RECIPROCAL[1, 0]
)

#: Dirac point where the local mass is M - 3*sqrt(3)*t2*sin(phi).
K_PLUS = np.array([4.0 * math.pi / (3.0 * math.sqrt(3.0)), 0.0])

#: |d| below this counts as a gap closure.
GAP_FLOOR = 1e-12
#: Dirac masses within this of zero count as sitting on a wall.
WALL_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Couplings: NN hopping t1, NNN magnitude t2 >= 0, NNN phase phi, stagger M."""

    t1: float
    t2: float
    phi: float
    M: float

    def __post_init__(self):
        for name in ("t1", "t2", "phi", "M"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"ModelParams.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DVector:
    """Pauli decomposition of h(k); the band gap is 2*norm."""

    d0: float
    dx: float
    dy: float
    dz: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.dx * self.dx + self.dy * self.dy + self.dz * self.dz)

    @property
    def unit(self) -> np.ndarray:
        n = self.norm
        return np.array([self.dx / n, self.dy / n, self.dz / n])


@dataclass(frozen=True)
class BlochState:
    """Valence-band amplitudes on the two sublattices at one k.

    ``nz`` and ``coherence`` (= vA * conj(vB) = (-nx + i*ny)/2) are computed
    directly from the unit Bloch vector, never from the gauge-dependent
    amplitudes (see ``valence_amplitudes`` for the gauge).
    """

    vA: complex
    vB: complex
    nz: float
    coherence: complex


# ---------------------------------------------------------------------------
# d-vector and its exact derivatives, batched over arbitrary k-array shapes.
# ---------------------------------------------------------------------------

def d_components(k, p: ModelParams):
    """Return (d0, dx, dy, dz) arrays for k of shape (..., 2)."""
    k = np.asarray(k, dtype=float)
    nn = k @ NN_VECTORS.T       # (..., 3) phases k.delta_m
    nnn = k @ NNN_VECTORS.T     # (..., 3) phases k.b_j
    f = p.t1 * np.exp(1j * nn).sum(axis=-1)
    d0 = 2.0 * p.t2 * math.cos(p.phi) * np.cos(nnn).sum(axis=-1)
    dz = p.M - 2.0 * p.t2 * math.sin(p.phi) * np.sin(nnn).sum(axis=-1)
    return d0, f.real, f.imag, dz


def d_component_gradients(k, p: ModelParams):
    """Exact term-by-term k-gradients of the d-vector components.

    Returns (ddx, ddy, dd0, ddz), each of shape (..., 2) with the last axis
    indexing the kx / ky derivative.
    """
    k = np.asarray(k, dtype=float)
    nn = k @ NN_VECTORS.T
    nnn = k @ NNN_VECTORS.T
    ddx = -p.t1 * (np.sin(nn) @ NN_VECTORS)
    ddy = p.t1 * (np.cos(nn) @ NN_VECTORS)
    dd0 = -2.0 * p.t2 * math.cos(p.phi) * (np.sin(nnn) @ NNN_VECTORS)
    ddz = -2.0 * p.t2 * math.sin(p.phi) * (np.cos(nnn) @ NNN_VECTORS)
    return ddx, ddy, dd0, ddz


def d_vector(k, p: ModelParams) -> DVector:
    """Evaluate the Pauli decomposition at a single k (2-vector)."""
    d0, dx, dy, dz = d_components(np.asarray(k, dtype=float), p)
    return DVector(float(d0), float(dx), float(dy), float(dz))


def d_derivatives(k, p: ModelParams) -> tuple[DVector, DVector]:
    """Exact (d/dkx, d/dky) of the d-vector at a single k."""
    ddx, ddy, dd0, ddz = d_component_gradients(np.asarray(k, dtype=float), p)
    along_x = DVector(float(dd0[0]), float(ddx[0]), float(ddy[0]), float(ddz[0]))
    along_y = DVector(float(dd0[1]), float(ddx[1]), float(ddy[1]), float(ddz[1]))
    return along_x, along_y


def bloch_vector_fields(k, p: ModelParams, gap_floor: float = GAP_FLOOR):
    """Unit Bloch vector and its exact gradients over a k-array.

    Returns (n, dn, norm) with shapes (..., 3), (..., 2, 3), (...,).
    dn[..., a, c] = d n_c / d k_a, computed from
    dn = dd/|d| - n (d . dd)/|d|^2, which keeps n exactly unit to first order.
    Raises GaplessPoint if |d| < gap_floor anywhere.
    """
    k = np.asarray(k, dtype=float)
    d0, dx, dy, dz = d_components(k, p)
    d = np.stack([dx, dy, dz], axis=-1)
    nrm = np.linalg.norm(d, axis=-1)
    if np.any(nrm < gap_floor):
        idx = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessPoint(
            f"|d| = {nrm[idx]:.3e} < {gap_floor:g} at k = {k[idx]}"
        )
    n = d / nrm[..., None]
    ddx, ddy, dd0, ddz = d_component_gradients(k, p)
    dd = np.stack([ddx, ddy, ddz], axis=-1)          # (..., 2, 3)
    ddot = np.einsum("...c,...ac->...a", d, dd)      # d . (da d)
    dn = dd / nrm[..., None, None] - n[..., None, :] * (
        ddot / nrm[..., None] ** 2
    )[..., None]
    return n, dn, nrm


# ---------------------------------------------------------------------------
# Valence eigenstates.
# ---------------------------------------------------------------------------

def valence_amplitudes(n, dn=None):
    """Valence spinor (vA, vB) for unit Bloch vectors n of shape (..., 3).

    This is the package's one valence gauge: a smooth local section on each
    hemisphere, with a = sqrt((1 - nz)/2), b = sqrt((1 + nz)/2), w = nx + i*ny,

        south (nz <= 0):  (vA, vB) = (a, -w/(2a))
        north (nz > 0):   (vA, vB) = (conj(w)/(2b), -b)

    Both are exact eigenvectors of n.sigma with eigenvalue -1, neither divides
    by a small number on its own hemisphere, and the poles need no special
    case: the south pole gives (1, 0) and the north pole (0, -1).  The two
    charts differ by the phase conj(w)/|w| on the equator; that mismatch is
    what the Chern number counts.

    Given the gradients dn of shape (..., 2, 3), dn[..., a, c] = d n_c / d k_a,
    also returns the exact derivatives (dvA, dvB) of shape (..., 2).
    """
    n = np.asarray(n, dtype=float)
    nz = n[..., 2]
    w = n[..., 0] + 1j * n[..., 1]
    vA = np.empty(nz.shape, dtype=complex)
    vB = np.empty(nz.shape, dtype=complex)

    s = nz <= 0.0
    m = ~s
    a = np.sqrt(0.5 * (1.0 - nz[s]))
    vA[s] = a
    vB[s] = -w[s] / (2.0 * a)
    b = np.sqrt(0.5 * (1.0 + nz[m]))
    vA[m] = np.conj(w[m]) / (2.0 * b)
    vB[m] = -b
    if dn is None:
        return vA, vB

    dn = np.asarray(dn, dtype=float)
    dw = dn[..., 0] + 1j * dn[..., 1]         # (..., 2)
    dnz = dn[..., 2]
    dvA = np.empty(dw.shape, dtype=complex)
    dvB = np.empty(dw.shape, dtype=complex)

    da = -dnz[s] / (4.0 * a[:, None])
    dvA[s] = da
    dvB[s] = -dw[s] / (2.0 * a[:, None]) + w[s, None] * da / (2.0 * (a**2)[:, None])
    db = dnz[m] / (4.0 * b[:, None])
    dvA[m] = np.conj(dw[m]) / (2.0 * b[:, None]) - np.conj(w[m])[:, None] * db / (
        2.0 * (b**2)[:, None]
    )
    dvB[m] = -db
    return vA, vB, dvA, dvB


def valence_state(d: DVector, gap_floor: float = GAP_FLOOR) -> BlochState:
    """Valence BlochState of a single DVector; GaplessPoint if |d| < gap_floor."""
    nrm = d.norm
    if nrm < gap_floor:
        raise GaplessPoint(f"|d| = {nrm:.3e} < {gap_floor:g}")
    n = np.array([[d.dx / nrm, d.dy / nrm, d.dz / nrm]])
    vA, vB = valence_amplitudes(n)
    nz = n[0, 2]
    coherence = 0.5 * (-n[0, 0] + 1j * n[0, 1])
    return BlochState(complex(vA[0]), complex(vB[0]), float(nz), complex(coherence))


# ---------------------------------------------------------------------------
# Dirac masses, analytic invariant, gap scan.
# ---------------------------------------------------------------------------

def dirac_masses(p: ModelParams) -> tuple[float, float]:
    """Local gap parameters at the two Dirac points: M -/+ 3*sqrt(3)*t2*sin(phi)."""
    shift = 3.0 * math.sqrt(3.0) * p.t2 * math.sin(p.phi)
    return p.M - shift, p.M + shift


def analytic_chern(p: ModelParams, wall_tol: float = WALL_TOL) -> int:
    """Valence Chern number from the Dirac-mass signs: (sgn(mK) - sgn(mK'))/2.

    Raises OnWall when either mass vanishes within wall_tol; the invariant is
    genuinely undefined there, so sgn(0) is an error rather than a value.
    """
    m_k, m_kp = dirac_masses(p)
    if abs(m_k) <= wall_tol or abs(m_kp) <= wall_tol:
        raise OnWall(
            f"Dirac mass on a wall: mK = {m_k:.3e}, mK' = {m_kp:.3e} "
            f"(tol {wall_tol:g})"
        )
    return int(round(0.5 * (math.copysign(1.0, m_k) - math.copysign(1.0, m_kp))))


def mesh_kpoints(nx: int, ny: int) -> np.ndarray:
    """Torus mesh k[m, n] = (m/nx) g1 + (n/ny) g2, shape (nx, ny, 2)."""
    frac = np.stack(
        np.meshgrid(np.arange(nx) / nx, np.arange(ny) / ny, indexing="ij"),
        axis=-1,
    )
    return frac @ RECIPROCAL


def min_gap_on_mesh(p: ModelParams, mesh) -> float:
    """Minimum of the spectral gap 2|d(k)| over the mesh points.

    ``mesh`` is either an (nx, ny) pair or any object with a ``kpoints``
    array, so the scan also works for gapless parameter sets where a state
    mesh cannot be built.
    """
    kpts = getattr(mesh, "kpoints", None)
    if kpts is None:
        nx, ny = mesh
        kpts = mesh_kpoints(int(nx), int(ny))
    _, dx, dy, dz = d_components(kpts, p)
    return float(2.0 * np.sqrt(dx * dx + dy * dy + dz * dz).min())
