"""Torus mesh of valence projectors and the lattice Berry curvature.

The curvature is the Fukui-Hatsugai-Suzuki plaquette phase, taken from the
corner Bloch vectors with no spinor gauge: minus half the solid angle they
span (the Berg-Luscher lattice charge).  The total flux is then 2*pi times an
exact integer whenever every plaquette stays in the admissible branch, no
matter how coarse the mesh.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOverlap, GaplessMesh, GaplessPoint, NonIntegerTotal, ValidationError
from .model import GAP_FLOOR, ModelParams, _MeshGrid, d_components, mesh_kpoints

#: Link overlaps with modulus at or below this are treated as degenerate.
OVERLAP_FLOOR = 1e-10
#: Max tolerated deviation of the total flux / 2pi from the nearest integer.
INTEGER_TOL = 1e-10


@dataclass(frozen=True)
class TorusMesh:
    """Valence projectors P = (1 - n.sigma)/2 on an nx-by-ny discretized Brillouin torus.

    Per-point data is stored as (nx, ny) arrays: n_z and P_AB = (-n_x + i n_y)/2
    at k = mesh_kpoints(nx, ny), which (nx, ny) fixes, so the mesh does not hold it.
    Indexing is periodic: the +x neighbour of (nx-1, n) is (0, n), and
    likewise in y.  Construction guarantees every point passed the gap check.
    """

    nx: int
    ny: int
    nz: np.ndarray                 # (nx, ny) real
    coherence: np.ndarray          # (nx, ny) complex = P_AB = (-n_x + i n_y)/2
    params: ModelParams | None = None
    min_norm: float = 0.0          # min |d(k)| encountered during the build


@dataclass(frozen=True)
class CurvatureField:
    """Per-plaquette lattice Berry curvature, each value in (-pi, pi]."""

    F: np.ndarray                  # (nx, ny) real

    @property
    def total(self) -> float:
        """Row-major deterministic sum of all plaquette values."""
        return float(self.F.sum())


def _mesh_size(size) -> tuple[int, int]:
    """(nx, ny) as ints from N (an N x N mesh) or an (nx, ny) pair; ValidationError
    unless each is an integer (numpy integers too, bool not) of at least 4."""
    dims = tuple(size) if isinstance(size, (tuple, list)) else (size, size)
    if len(dims) != 2 or any(isinstance(v, bool) or not hasattr(type(v), "__index__") or v < 4 for v in dims):
        raise ValidationError(f"mesh size must be an integer of at least 4 or a pair of them, got {size!r}")
    return operator.index(dims[0]), operator.index(dims[1])


def build_mesh(p: ModelParams, nx: int, ny: int) -> TorusMesh:
    """Valence projectors at every mesh point k = (m/nx) g1 + (n/ny) g2.

    Raises GaplessMesh if any point fails the GAP_FLOOR check; the caller must
    perturb the parameters or refuse to proceed.
    """
    nx, ny = _mesh_size((nx, ny))
    dx, dy, dz = d_components(_MeshGrid((nx, ny)), p)
    nrm = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(nrm < GAP_FLOOR):
        m, n = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessMesh(
            f"gapless mesh point at (m, n) = ({m}, {n}), k = {mesh_kpoints(nx, ny)[m, n]}, "
            f"|d| = {nrm[m, n]:.3e}"
        ) from GaplessPoint(f"|d| < {GAP_FLOOR:g}")
    return TorusMesh(
        nx=nx,
        ny=ny,
        nz=dz / nrm,
        coherence=0.5 * (-(dx / nrm) + 1j * (dy / nrm)),
        params=p,
        min_norm=float(nrm.min()),
    )


def min_gap_on_mesh(p: ModelParams, size) -> float:
    """Minimum of the spectral gap 2|d(k)| over the points of an (nx, ny) mesh.

    It takes a size, not a mesh, so the scan also works for gapless parameter
    sets where a mesh cannot be built; a built mesh holds its gap as 2 * min_norm.
    """
    dx, dy, dz = d_components(_MeshGrid(_mesh_size(size)), p)
    return float(2.0 * np.sqrt(dx * dx + dy * dy + dz * dz).min())


def _dot(a, b=None):
    """a.b, or a.a without b, over the leading (component) axis."""
    return np.einsum("c...,c...->...", a, a if b is None else b)


def plaquette_curvature(mesh: TorusMesh) -> CurvatureField:
    """Principal-branch plaquette phase of the corner Bloch vectors.

    F[m, n] = arg[Z(n1, n2, n3) Z(n1, n3, n4)] for the corners n1..n4 at (m, n),
    (m+1, n), (m+1, n+1), (m, n+1), taken periodically, with
    Z(a, b, c) = 1 + a.b + b.c + c.a - i a.(b x c) = 4 <a|b><b|c><c|a>.  The
    product is 16 |<n1|n3>|^2 times the FHS link product
    <n1|n2><n2|n3><n3|n4><n4|n1>.  Each x-, y- and diagonal (n1, n3) link needs
    |<u_i|u_j>| = |n_i + n_j|/2 > OVERLAP_FLOOR, or DegenerateOverlap.
    """
    nx, ny = mesh.nx, mesh.ny
    # n on the torus padded with its wrapped row and column; the corners are views
    n = np.empty((3, nx + 1, ny + 1))
    n[0, :nx, :ny] = -2.0 * mesh.coherence.real
    n[1, :nx, :ny] = 2.0 * mesh.coherence.imag
    n[2, :nx, :ny] = mesh.nz
    n[:, nx, :ny] = n[:, 0, :ny]
    n[:, :, ny] = n[:, :, 0]
    n1, n2, n3, n4 = n[:, :-1, :-1], n[:, 1:, :-1], n[:, 1:, 1:], n[:, :-1, 1:]
    # |n_i + n_j|^2 = 2 + 2 n_i.n_j on every x, y and diagonal edge, without
    # 1 + n_i.n_j's cancellation; a zero diagonal overlap would zero Z and lose F
    ex, ey, ed = _dot(n[:, :-1] + n[:, 1:]), _dot(n[:, :, :-1] + n[:, :, 1:]), _dot(n1 + n3)
    for name, e2 in (("x", ex[:, :-1]), ("y", ey[:-1]), ("diagonal", ed)):
        if np.any(e2 <= 4.0 * OVERLAP_FLOOR * OVERLAP_FLOOR):
            i, j = np.unravel_index(int(np.argmin(e2)), e2.shape)
            raise DegenerateOverlap(
                f"{name}-link overlap {0.5 * np.sqrt(e2[i, j]):.3e} <= {OVERLAP_FLOOR:g} "
                f"at (m, n) = ({i}, {j}); mesh too coarse for this gap"
            )
    z1, z2 = np.empty((2, nx, ny), dtype=complex)
    z1.real = 0.5 * (ex[:, :-1] + ey[1:] + ed) - 2.0  # 1 + n1.n2 + n2.n3 + n3.n1
    z2.real = 0.5 * (ex[:, 1:] + ey[:-1] + ed) - 2.0  # 1 + n1.n3 + n3.n4 + n4.n1
    del ex, ey, ed                                    # lowers the peak under the cross product
    c = np.empty((3, nx, ny))                         # n1 x n3
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(n1[j], n3[k], out=c[i])
        c[i] -= n1[k] * n3[j]
    z1.imag = _dot(n2, c)                             # -n1.(n2 x n3) = n2.(n1 x n3)
    z2.imag = -_dot(n4, c)                            # -n1.(n3 x n4) = -n4.(n1 x n3)
    z1 *= z2
    return CurvatureField(F=np.angle(z1))


def chern_number(F: CurvatureField) -> int:
    """Nearest integer to total flux / 2pi; NonIntegerTotal beyond tolerance."""
    s = F.total / (2.0 * np.pi)
    mu = round(s)
    dev = abs(s - mu)
    if dev > INTEGER_TOL:
        raise NonIntegerTotal(
            f"sum(F)/2pi = {s!r} deviates from {mu} by {dev:.3e} "
            f"(tol {INTEGER_TOL:g}); a plaquette likely left the principal branch"
        )
    return int(mu)
