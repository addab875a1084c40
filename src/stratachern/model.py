"""Two-band Bloch Hamiltonian of Haldane type on the honeycomb lattice.

The Hamiltonian at crystal momentum k is h(k) = d0(k)*I + d(k).sigma with

    dx + i*dy = t1 * sum_m exp(i k.delta_m)          (nearest neighbours)
    d0        = 2 t2 cos(phi) * sum_j cos(k.b_j)      (NNN, even part)
    dz        = M - 2 t2 sin(phi) * sum_j sin(k.b_j)  (NNN, odd part + stagger)

Everything downstream (curvature, witness weights, quantum geometry) is a
function of the valence projector P = (1 - n.sigma)/2, so of the unit vector
n = d/|d| and its exact k-derivatives, which this module provides in closed
form as (dx, dy, dz) and (ddx, ddy, ddz); no spinor gauge is chosen.  d0 drops
out of every computed quantity and is not evaluated.  Lattice geometry is fixed: the
NN distance is 1 and the oriented NNN difference vectors satisfy b1 + b2 + b3 = 0.
On the mesh k = (m/nx) g1 + (n/ny) g2 each exp(i k.delta) is a product of 1-D
tables in m and n: two rank-3 matrix products, no per-point transcendental.
At arbitrary k, d and its gradients come from one table e_j = exp(i k.delta_j)
per point, with exp(i k.b_j) = e_p conj(e_q): three complex exponentials, no
sine or cosine.
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
_NNN_P, _NNN_Q = [1, 0, 2], [2, 1, 0]  #: b_j = delta_p - delta_q, p = _NNN_P[j], q = _NNN_Q[j]

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
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValidationError(f"ModelParams.{name} must be a real number, got {value!r}") from None
            except OverflowError:
                raise ValidationError(f"ModelParams.{name} must be finite, got an integer too large for a float") from None
            if not finite:
                raise ValidationError(f"ModelParams.{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# d-vector and its exact derivatives, batched over arbitrary k-array shapes.
# ---------------------------------------------------------------------------

class _MeshGrid(tuple):
    """(nx, ny) standing in for the mesh_kpoints(nx, ny) array, whose shape it reports."""
    shape = property(lambda self: (*self, 2))


def _phase_tables(k):
    """NN phases e_j = exp(i k.delta_j) and NNN phases exp(i k.b_j) = e_p conj(e_q), each (..., 3)."""
    e = np.exp(1j * (np.asarray(k, dtype=float) @ NN_VECTORS.T))
    return e, e[..., _NNN_P] * np.conj(e[..., _NNN_Q])


def _mesh_tables(grid: _MeshGrid):
    """1-D tables ex[j, m] = exp(i (m/nx) g1.delta_j), ey[j, n], and the NNN ones wx, wy."""
    ex, ey = (np.exp(1j * np.outer(NN_VECTORS @ g, np.arange(n) / n)) for g, n in zip(RECIPROCAL, grid))
    return ex, ey, ex[_NNN_P] * np.conj(ex[_NNN_Q]), ey[_NNN_P] * np.conj(ey[_NNN_Q])


def d_components(k, p: ModelParams, _tables=None):
    """Return (dx, dy, dz) arrays for k of shape (..., 2) or a ``_MeshGrid``.

    ``_tables`` is the caller's ``_phase_tables(k)``, if it already holds them;
    for a ``_MeshGrid``, its ``_mesh_tables``, whose x tables may be cut to the
    columns of the mesh rows wanted (d is then those rows only).
    """
    if isinstance(k, _MeshGrid):
        ex, ey, wx, wy = _mesh_tables(k) if _tables is None else _tables
        # einsum, not matmul: BLAS calls contend across the sweep_mass worker threads.
        nn_sum, nnn_sin_sum = np.einsum("jm,jn->mn", ex, ey), np.einsum("jm,jn->mn", wx, wy).imag
    else:
        e, w = _phase_tables(k) if _tables is None else _tables
        nn_sum, nnn_sin_sum = e.sum(axis=-1), w.imag.sum(axis=-1)
    f = p.t1 * nn_sum
    dz = p.M - 2.0 * p.t2 * math.sin(p.phi) * nnn_sin_sum
    return f.real, f.imag, dz


def d_component_gradients(k, p: ModelParams, _tables=None):
    """Exact term-by-term k-gradients of the d-vector components.

    Returns (ddx, ddy, ddz), each of shape (..., 2) with the last axis
    indexing the kx / ky derivative: d(dx + i dy) = i t1 sum_j e_j delta_j and
    d(dz) = -2 t2 sin(phi) sum_j Re(exp(i k.b_j)) b_j.  ``_tables`` is as in
    ``d_components``.
    """
    e, w = _phase_tables(k) if _tables is None else _tables
    df = 1j * p.t1 * (e @ NN_VECTORS)
    ddz = -2.0 * p.t2 * math.sin(p.phi) * (w.real @ NNN_VECTORS)
    return df.real, df.imag, ddz


def bloch_vector_fields(k, p: ModelParams):
    """Unit Bloch vector and its exact gradients over a k-array.

    Returns (n, dn, norm) with shapes (..., 3), (..., 2, 3), (...,).
    dn[..., a, c] = d n_c / d k_a, computed from
    dn = dd/|d| - n (d . dd)/|d|^2, which keeps n exactly unit to first order.
    d and dd both come from one phase table exp(i k.delta_j) per k-point, so
    no sine or cosine is evaluated per point.
    Raises GaplessPoint if |d| < GAP_FLOOR anywhere.
    """
    k = np.asarray(k, dtype=float)
    tables = _phase_tables(k)
    d = np.stack(d_components(k, p, tables), axis=-1)
    nrm = np.linalg.norm(d, axis=-1)
    if np.any(nrm < GAP_FLOOR):
        idx = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessPoint(
            f"|d| = {nrm[idx]:.3e} < {GAP_FLOOR:g} at k = {k[idx]}"
        )
    n = d / nrm[..., None]
    dd = np.stack(d_component_gradients(k, p, tables), axis=-1)    # (..., 2, 3)
    del tables  # large batches: free the phase tables before the dn temporaries
    ddot = np.einsum("...c,...ac->...a", d, dd)      # d . (da d)
    dn = dd / nrm[..., None, None] - n[..., None, :] * (
        ddot / nrm[..., None] ** 2
    )[..., None]
    return n, dn, nrm


# ---------------------------------------------------------------------------
# Dirac masses, analytic invariant, mesh k-points.
# ---------------------------------------------------------------------------

def dirac_masses(p: ModelParams) -> tuple[float, float]:
    """Local gap parameters at the two Dirac points: M -/+ 3*sqrt(3)*t2*sin(phi)."""
    shift = 3.0 * math.sqrt(3.0) * p.t2 * math.sin(p.phi)
    return p.M - shift, p.M + shift


def analytic_chern(p: ModelParams) -> int:
    """Valence Chern number from the Dirac-mass signs: (sgn(mK) - sgn(mK'))/2.

    Raises OnWall when either mass vanishes within WALL_TOL; the invariant is
    genuinely undefined there, so sgn(0) is an error rather than a value.
    """
    m_k, m_kp = dirac_masses(p)
    if abs(m_k) <= WALL_TOL or abs(m_kp) <= WALL_TOL:
        raise OnWall(
            f"Dirac mass on a wall: mK = {m_k:.3e}, mK' = {m_kp:.3e} "
            f"(tol {WALL_TOL:g})"
        )
    return int(round(0.5 * (math.copysign(1.0, m_k) - math.copysign(1.0, m_kp))))


def mesh_kpoints(nx: int, ny: int) -> np.ndarray:
    """Torus mesh k[m, n] = (m/nx) g1 + (n/ny) g2, shape (nx, ny, 2)."""
    frac = np.stack(
        np.meshgrid(np.arange(nx) / nx, np.arange(ny) / ny, indexing="ij"),
        axis=-1,
    )
    return frac @ RECIPROCAL
