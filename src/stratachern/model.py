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
On a mesh k = xs[m] g1 + ys[n] g2 each exp(i k.delta) is a product of 1-D
tables in m and n: two rank-3 matrix products, no per-point transcendental.
Those two sums, of the NN phases and of the NNN sines, do not depend on p;
``mesh._mesh_grid`` builds the tables once per mesh shape and, for a one-block
mesh, keeps the sums with them, so a build there applies only the couplings.
At arbitrary k every quantity is a tuple of per-component arrays, and a gradient
is a (d/dkx, d/dky) pair of them.  d and its gradients come from three phases
e_j = exp(i (kx delta_jx + ky delta_jy)), formed elementwise with no matrix product,
and w_j = exp(i k.b_j) = e_p conj(e_q): three complex exponentials, no sine or cosine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPoint, OnWall, _real

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

# Reciprocal basis, dual to the Bravais primitive vectors a_1 = (sqrt3, 0) and
# a_2 = (sqrt3/2, 3/2): g_i . a_j = 2pi d_ij.
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
    """Couplings: NN hopping t1, NNN magnitude t2 >= 0, NNN phase phi, stagger M, each stored as a float."""

    t1: float
    t2: float
    phi: float
    M: float

    def __post_init__(self):
        for name in ("t1", "t2", "phi", "M"):
            object.__setattr__(self, name, _real(getattr(self, name), f"ModelParams.{name}"))


# ---------------------------------------------------------------------------
# d-vector and its exact derivatives, batched over arbitrary k-array shapes.
# ---------------------------------------------------------------------------

class _MeshGrid(tuple):
    """The tables (ex, ey, wx, wy) of ``_mesh_tables``, standing in for their k-array, whose shape it reports.

    ``held`` is None, or the grid's ``sums()`` kept with it (``mesh._mesh_grid`` keeps them for a one-block mesh).
    """
    shape = property(lambda self: (self[0].shape[1], self[1].shape[1], 2))
    held = None

    def rows(self, lo: int, hi: int) -> _MeshGrid:
        """The grid of rows lo..hi, whose x tables are columns lo..hi of these; all rows are this grid itself."""
        if (lo, hi) == (0, self[0].shape[1]):
            return self
        return _MeshGrid((self[0][:, lo:hi], self[1], self[2][:, lo:hi], self[3]))

    def sums(self):
        """The p-independent parts of d, (sum_j ex_j (x) ey_j, Im sum_j wx_j (x) wy_j): the held ones, if any."""
        if self.held is not None:
            return self.held
        # einsum, not matmul: BLAS calls contend across the sweep_mass worker threads.
        return np.einsum("jm,jn->mn", *self[:2]), np.einsum("jm,jn->mn", *self[2:]).imag


def _phase_tables(k):
    """NN phases e_j = exp(i k.delta_j) and NNN phases w_j = e_p conj(e_q), elementwise, so any batch gives a point
    the same bits; np.multiply, unlike ``*``, is never elided into an in-place product, which rounds apart."""
    kx, ky = np.moveaxis(np.asarray(k, dtype=float), -1, 0)
    e = [np.exp(1j * (kx * a + ky * b)) for a, b in NN_VECTORS.tolist()]
    return e, [np.multiply(e[i], np.conj(e[j])) for i, j in zip(_NNN_P, _NNN_Q)]


def _mesh_tables(xs, ys) -> _MeshGrid:
    """Grid k[m, n] = xs[m] g1 + ys[n] g2 of 1-D fractions xs, ys: ex[j, m] = exp(i xs[m] g1.delta_j), ey, wx, wy."""
    ex, ey = (np.exp(1j * np.outer(NN_VECTORS @ g, c)) for g, c in zip(RECIPROCAL, (xs, ys)))
    return _MeshGrid((ex, ey, *(np.multiply(e[_NNN_P], np.conj(e[_NNN_Q])) for e in (ex, ey))))


def d_components(k, p: ModelParams, _tables=None):
    """Return (dx, dy, dz) arrays for k of shape (..., 2), whose ``_phase_tables(k)`` a caller
    holding them passes as ``_tables``, or for a ``_MeshGrid``, from its ``sums()``."""
    if isinstance(k, _MeshGrid):
        nn_sum, nnn_sin_sum = k.sums()
    else:
        e, w = _phase_tables(k) if _tables is None else _tables
        nn_sum, nnn_sin_sum = (e[0] + e[1]) + e[2], (w[0].imag + w[1].imag) + w[2].imag
    f = p.t1 * nn_sum
    dz = p.M - 2.0 * p.t2 * math.sin(p.phi) * nnn_sin_sum
    return f.real, f.imag, dz


def d_component_gradients(k, p: ModelParams, _tables=None):
    """Exact term-by-term k-gradients of the d-vector components.

    Returns (ddx, ddy, ddz), each a pair (d/dkx, d/dky) of arrays of shape
    k.shape[:-1]: d(dx + i dy) = i t1 sum_j e_j delta_j and
    d(dz) = -2 t2 sin(phi) sum_j Re(exp(i k.b_j)) b_j.  ``_tables`` is as in
    ``d_components``.
    """
    e, w = _phase_tables(k) if _tables is None else _tables
    terms = ((-p.t1, [z.imag for z in e], NN_VECTORS), (p.t1, [z.real for z in e], NN_VECTORS),
             (-2.0 * p.t2 * math.sin(p.phi), [z.real for z in w], NNN_VECTORS))
    # scale * sum_j v[j, a] z[j] for a = x, y, added in bond order, (0 + 1) + 2
    return tuple(tuple(s * ((a0 * z[0] + a1 * z[1]) + a2 * z[2]) for a0, a1, a2 in v.T.tolist()) for s, z, v in terms)


def _norm(dx, dy, dz):
    """|d|, by the one formula that the mesh build, the gap scan and the k-array path share bit for bit."""
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _dot3(a, b):
    """a.b of component triples, added (0 + 2) + 1 as numpy 2.4's einsum adds a length-3 last axis."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def bloch_vector_fields(k, p: ModelParams):
    """Unit Bloch vector and its exact gradients over a k-array of shape (..., 2).

    Returns (n, dn, norm), laid out as ``d_components`` and ``d_component_gradients``
    return d and dd: n = (n_x, n_y, n_z) and norm = |d| of shape (...), and dn = (dn_x,
    dn_y, dn_z) with dn_c = (d n_c / d kx, d n_c / d ky), computed from
    dn = dd/|d| - n (d . dd)/|d|^2, which keeps n exactly unit to first order.
    d and dd both come from the three phases exp(i k.delta_j) of each k-point,
    so no sine or cosine is evaluated per point.
    Raises GaplessPoint if |d| < GAP_FLOOR anywhere.
    """
    k = np.asarray(k, dtype=float)
    tables = _phase_tables(k)
    d = d_components(k, p, tables)
    nrm = _norm(*d)
    if np.any(nrm < GAP_FLOOR):
        idx = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessPoint(
            f"|d| = {nrm[idx]:.3e} < {GAP_FLOOR:g} at k = {k[idx]}"
        )
    n = tuple(c / nrm for c in d)
    dd = d_component_gradients(k, p, tables)    # each a (d/dkx, d/dky) pair
    del tables  # large batches: free the phase tables before the dn temporaries
    r2 = nrm ** 2
    ddot = [_dot3(d, [g[a] for g in dd]) / r2 for a in (0, 1)]  # d . (da d) / |d|^2
    dn = tuple(tuple(g[a] / nrm - c * ddot[a] for a in (0, 1)) for c, g in zip(n, dd))
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
