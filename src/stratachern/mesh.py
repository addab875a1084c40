"""Torus mesh of valence projectors and the lattice Berry curvature.

The curvature is the Fukui-Hatsugai-Suzuki plaquette phase, taken from the
corner Bloch vectors with no spinor gauge: minus half the solid angle they
span (the Berg-Luscher lattice charge).  The total flux is then 2*pi times an
exact integer whenever every plaquette stays in the admissible branch, no
matter how coarse the mesh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOverlap, GaplessMesh, GaplessPoint, NonIntegerTotal, ValidationError, _integer
from .model import GAP_FLOOR, RECIPROCAL, ModelParams, _mesh_tables, _norm, analytic_chern, d_components

#: Link overlaps with modulus at or below this are treated as degenerate.
OVERLAP_FLOOR = 1e-10
#: Max tolerated deviation of the total flux / 2pi from the nearest integer.
INTEGER_TOL = 1e-10
#: Mesh points per row block of the whole-mesh passes, and per leaf of every lattice total.
_BLOCK_POINTS = 16384
#: ``x.sum()`` of a 1-D array, without the method's Python wrapper.
_sum = np.add.reduce


def _total(leaf, n: int) -> list[float]:
    """One total over flat points 0..n per entry of ``leaf(lo, hi)``, the real ``.sum()``s of points lo..hi.

    The leaves are [0, B), [B, 2B), ... with B = _BLOCK_POINTS, and a total is the ``math.fsum`` of its
    leaf sums: correctly rounded from them, in whatever order they combine (Demmel & Nguyen, IEEE Trans.
    Comput. 64, 2015).  A zero total is +0.0.  Leaf sums that are not all finite, or overflow, add plainly.
    """
    totals = []
    for column in zip(*[leaf(lo, min(lo + _BLOCK_POINTS, n)) for lo in range(0, n, _BLOCK_POINTS)]):
        try:
            totals.append(math.fsum(column))
        except (ValueError, OverflowError):  # inf - inf, or an overflowing partial: NaN or inf
            totals.append(sum(map(float, column)))
    return totals


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


def _mesh_size(size) -> tuple[int, int]:
    """(nx, ny) as ints from N (an N x N mesh) or an (nx, ny) pair (a tuple, list or 1-d
    array), each read by ``errors._integer`` with a minimum of 4; anything else is named by its type."""
    pair = isinstance(size, (tuple, list)) or (isinstance(size, np.ndarray) and size.ndim == 1)
    dims = tuple(size) if pair else (size, size)
    if len(dims) != 2:
        raise ValidationError(f"mesh size must be an integer or a pair of them, got {type(size).__name__}")
    nx, ny = (_integer(v, "mesh size", 4) for v in dims)
    return nx, ny


def _row_blocks(nx: int, ny: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) that split nx evenly into ceil(nx * ny / _BLOCK_POINTS) blocks (at most nx)."""
    count = min(nx, -(-nx * ny // _BLOCK_POINTS))
    return [(b * nx // count, (b + 1) * nx // count) for b in range(count)]


def build_mesh(p: ModelParams, nx: int, ny: int) -> TorusMesh:
    """Valence projectors at every mesh point k = (m/nx) g1 + (n/ny) g2.

    Raises GaplessMesh if any point fails the GAP_FLOOR check, and else OnWall
    if a Dirac mass vanishes (the invariant is undefined even where no mesh
    point is gapless); the caller must perturb the parameters or refuse to
    proceed.  d is evaluated and normalized one row block at a time, from the
    rows of one grid of phase tables.
    """
    nx, ny = _mesh_size((nx, ny))
    xs, ys = np.arange(nx) / nx, np.arange(ny) / ny
    grid = _mesh_tables(xs, ys)
    nz, coherence = np.empty((nx, ny)), np.empty((nx, ny), dtype=complex)
    gapless, firsts = False, []  # each block's first minimum of |d| and its flat mesh index
    for lo, hi in _row_blocks(nx, ny):
        bx, by, bz = d_components(grid.rows(lo, hi), p)
        nrm = _norm(bx, by, bz)
        i = int(np.argmin(nrm))
        firsts.append((nrm.flat[i], lo * ny + i))
        if np.any(nrm < GAP_FLOOR):
            gapless = True
            continue
        np.divide(bz, nrm, out=nz[lo:hi])
        np.multiply(0.5, -(bx / nrm) + 1j * (by / nrm), out=coherence[lo:hi])
    # np.argmin's first minimum (NaN first) over the block minima is the mesh's own
    min_norm, at = firsts[int(np.argmin([v for v, _ in firsts]))]
    if gapless:
        m, n = divmod(at, ny)
        raise GaplessMesh(
            f"gapless mesh point at (m, n) = ({m}, {n}), k = {np.array([xs[m], ys[n]]) @ RECIPROCAL}, "
            f"|d| = {min_norm:.3e}"
        ) from GaplessPoint(f"|d| < {GAP_FLOOR:g}")
    analytic_chern(p)  # OnWall for a wall whose gapless point misses the mesh
    return TorusMesh(nx=nx, ny=ny, nz=nz, coherence=coherence, params=p, min_norm=float(min_norm))


def _dot(a, b=None):
    """a.b, or a.a without b, over the leading (component) axis."""
    return np.einsum("c...,c...->...", a, a if b is None else b)


def plaquette_curvature(mesh: TorusMesh) -> np.ndarray:
    """Principal-branch plaquette phase of the corner Bloch vectors, an (nx, ny) float64 array.

    F[m, n] = arg[Z(n1, n2, n3) Z(n1, n3, n4)] for the corners n1..n4 at (m, n),
    (m+1, n), (m+1, n+1), (m, n+1), taken periodically, with
    Z(a, b, c) = 1 + a.b + b.c + c.a - i a.(b x c) = 4 <a|b><b|c><c|a>.  The
    product is 16 |<n1|n3>|^2 times the FHS link product
    <n1|n2><n2|n3><n3|n4><n4|n1>.  Each x-, y- and diagonal (n1, n3) link needs
    |<u_i|u_j>| = |n_i + n_j|/2 > OVERLAP_FLOOR, or DegenerateOverlap, which
    names the first failing kind at its first row-major minimum over the mesh.
    F is written one row block at a time.
    """
    nx, ny = mesh.nx, mesh.ny
    floor2 = 4.0 * OVERLAP_FLOOR * OVERLAP_FLOOR
    F = np.empty((nx, ny))
    # per link kind, the blocks whose minimum is at or below the floor (or NaN):
    # (any link at or below it, the block's first minimum, its flat mesh index)
    low = {"x": [], "y": [], "diagonal": []}
    for lo, hi in _row_blocks(nx, ny):
        # n on rows lo..hi (row hi wrapped) padded with the wrapped column; the corners are views
        h = hi - lo
        n = np.empty((3, h + 1, ny + 1))
        for dst, src in ((slice(0, h), slice(lo, hi)), (h, hi % nx)):
            n[0, dst, :ny] = -2.0 * mesh.coherence.real[src]
            n[1, dst, :ny] = 2.0 * mesh.coherence.imag[src]
            n[2, dst, :ny] = mesh.nz[src]
        n[:, :, ny] = n[:, :, 0]
        n1, n2, n3, n4 = n[:, :-1, :-1], n[:, 1:, :-1], n[:, 1:, 1:], n[:, :-1, 1:]
        # |n_i + n_j|^2 = 2 + 2 n_i.n_j on every x, y and diagonal edge, without
        # 1 + n_i.n_j's cancellation; a zero diagonal overlap would zero Z and lose F
        ex, ey, ed = _dot(n[:, :-1] + n[:, 1:]), _dot(n[:, :, :-1] + n[:, :, 1:]), _dot(n1 + n3)
        for name, e2 in (("x", ex[:, :-1]), ("y", ey[:-1]), ("diagonal", ed)):
            if not e2.min() > floor2:
                i = int(np.argmin(e2))
                low[name].append((bool(np.any(e2 <= floor2)), e2.flat[i], lo * ny + i))
        z1, z2 = np.empty((2, h, ny), dtype=complex)
        z1.real = 0.5 * (ex[:, :-1] + ey[1:] + ed) - 2.0  # 1 + n1.n2 + n2.n3 + n3.n1
        z2.real = 0.5 * (ex[:, 1:] + ey[:-1] + ed) - 2.0  # 1 + n1.n3 + n3.n4 + n4.n1
        c = np.empty((3, h, ny))                          # n1 x n3
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(n1[j], n3[k], out=c[i])
            c[i] -= n1[k] * n3[j]
        z1.imag = _dot(n2, c)                             # -n1.(n2 x n3) = n2.(n1 x n3)
        z2.imag = -_dot(n4, c)                            # -n1.(n3 x n4) = -n4.(n1 x n3)
        z1 *= z2
        F[lo:hi] = np.angle(z1)
    for name, blocks in low.items():
        if any(bad for bad, _, _ in blocks):
            # np.argmin's first minimum (NaN first) over the block minima is the mesh's own
            _, e2, at = blocks[int(np.argmin([v for _, v, _ in blocks]))]
            i, j = divmod(at, ny)
            raise DegenerateOverlap(
                f"{name}-link overlap {0.5 * np.sqrt(e2):.3e} <= {OVERLAP_FLOOR:g} "
                f"at (m, n) = ({i}, {j}); mesh too coarse for this gap"
            )
    return F


def chern_number(F: np.ndarray) -> int:
    """Nearest integer to total flux / 2pi (a ``_total``) of 2-d float64 curvature F; NonIntegerTotal beyond tolerance."""
    if not (isinstance(F, np.ndarray) and F.dtype == np.float64 and F.ndim == 2):
        raise ValidationError(f"curvature must be a 2-d float64 array, got {getattr(F, 'dtype', type(F).__name__)}")
    f = F.reshape(-1)
    s = _total(lambda lo, hi: [_sum(f[lo:hi])], f.size)[0] / (2.0 * np.pi)
    mu = round(s) if np.isfinite(s) else 0
    dev = abs(s - mu)
    if not dev <= INTEGER_TOL:
        raise NonIntegerTotal(
            f"sum(F)/2pi = {s!r} deviates from {mu} by {dev:.3e} "
            f"(tol {INTEGER_TOL:g}); a plaquette likely left the principal branch"
        )
    return int(mu)
