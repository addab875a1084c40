"""Torus mesh of valence projectors and the lattice Berry curvature.

The curvature is the Fukui-Hatsugai-Suzuki plaquette phase, taken from the
corner Bloch vectors with no spinor gauge: minus half the solid angle they
span (the Berg-Luscher lattice charge).  The total flux is then 2*pi times an
exact integer, no matter how coarse the mesh; it is the Chern number when
every plaquette's flux lies in the principal branch.  A plaquette whose phase
comes near pi is halved, recursively, to find the branch its flux lies in.
A mesh built from a model is right or refused: its total must equal the
model's Dirac-mass count, ``analytic_chern``, or MeshTooCoarse is raised.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateOverlap, GaplessMesh, GaplessPoint, MeshTooCoarse, NonIntegerTotal, ValidationError,
                     _integer)
from .model import GAP_FLOOR, RECIPROCAL, ModelParams, _mesh_tables, _MeshGrid, _norm, analytic_chern, d_components

#: Link overlaps with modulus at or below this are treated as degenerate.
OVERLAP_FLOOR = 1e-10
#: Max tolerated deviation of the total flux / 2pi from the nearest integer.
INTEGER_TOL = 1e-10
#: Max tolerated deviation of nz^2 + 4 |coherence|^2 (|n|^2) from 1 at a point of a hand-built mesh.
PROJECTOR_TOL = 1e-10
#: Mesh points per row block of the whole-mesh passes, and per leaf of every lattice total.
_BLOCK_POINTS = 16384
#: ``x.sum()`` of a 1-D array, without the method's Python wrapper.
_sum = np.add.reduce
#: A plaquette phase beyond this modulus (radians) has its 2pi branch checked by halving the plaquette.
_HOT_PHASE = 1.0
#: Halvings of a hot plaquette at most; past them a quarter keeps its principal phase.
_MAX_HALVINGS = 30


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

    Per-point data is stored as (nx, ny) arrays: n_z and P_AB = (-n_x + i n_y)/2 at k =
    mesh_kpoints(nx, ny), which (nx, ny) fixes, so the mesh does not hold it.  The size is nz's
    shape: nz must be a non-empty 2-d float64 array and coherence a complex128 array of its shape,
    and a mesh without params must have |n|^2 = 1 within PROJECTOR_TOL at every point, or ValidationError.
    Indexing is periodic: the +x neighbour of (nx-1, n) is (0, n), likewise in y.  ``build_mesh`` checks every gap.
    """

    nz: np.ndarray                 # (nx, ny) real
    coherence: np.ndarray          # (nx, ny) complex = P_AB = (-n_x + i n_y)/2
    params: ModelParams | None = None
    min_norm: float = 0.0          # min |d(k)| encountered during the build
    nx = property(lambda self: self.nz.shape[0], doc="Mesh rows, nz.shape[0].")
    ny = property(lambda self: self.nz.shape[1], doc="Mesh columns, nz.shape[1].")

    def __post_init__(self):
        nz, coh = (getattr(a, "shape", type(a).__name__) for a in (self.nz, self.coherence))
        if not (isinstance(self.nz, np.ndarray) and self.nz.ndim == 2 and self.nz.size and coh == nz):
            raise ValidationError(f"mesh nz and coherence must share one non-empty 2-d shape, got {nz} and {coh}")
        dtypes = (self.nz.dtype, self.coherence.dtype)  # numpy would cast any others, or only warn
        if dtypes != (np.float64, np.complex128):
            raise ValidationError("mesh nz and coherence must be float64 and complex128, got {} and {}".format(*dtypes))
        if self.params is None:  # build_mesh forms n = d/|d|, a unit vector by construction
            for lo, hi in _row_blocks(*self.nz.shape):
                off = ~(np.abs(self.nz[lo:hi] ** 2 + 4.0 * np.abs(self.coherence[lo:hi]) ** 2 - 1.0) <= PROJECTOR_TOL)
                if off.any():  # NaN too
                    m, n = divmod(lo * self.ny + int(np.argmax(off)), self.ny)
                    raise ValidationError(f"no projector at (m, n) = ({m}, {n}): |n|^2 is not 1 within {PROJECTOR_TOL:g}")


def _mesh_size(size) -> tuple[int, int]:
    """(nx, ny) as ints from N (an N x N mesh) or an (nx, ny) pair (a tuple, list or 1-d
    array), each read by ``errors._integer`` with a minimum of 4; anything else is named by its type."""
    pair = isinstance(size, (tuple, list)) or (isinstance(size, np.ndarray) and size.ndim == 1)
    dims = tuple(size) if pair else (size, size)
    if len(dims) != 2:
        raise ValidationError(f"mesh size must be an integer or a pair of them, got {type(size).__name__}")
    nx, ny = (_integer(v, "mesh size", 4) for v in dims)
    return nx, ny


@functools.lru_cache(maxsize=1)
def _mesh_grid(nx: int, ny: int) -> _MeshGrid:
    """The read-only grid of the mesh k[m, n] = (m/nx) g1 + (n/ny) g2 of ints nx, ny (as ``_mesh_size`` gives them).

    Only the last shape's grid is kept.  A mesh of at most 8 ``_row_blocks`` blocks' worth of points
    (131,072, so 256^2 but not 512^2) also holds its ``sums()``, 24 bytes a point, at most 3 MiB,
    filled one block at a time with the block's own sums, so no whole-mesh temporary is made; a larger
    one keeps only its tables, O(nx + ny), and ``d_components`` forms the sums per block from them.
    """
    grid = _mesh_tables(np.arange(nx) / nx, np.arange(ny) / ny)
    if nx * ny <= 8 * _BLOCK_POINTS:
        held = np.empty((nx, ny), dtype=complex), np.empty((nx, ny))
        for lo, hi in _row_blocks(nx, ny):
            held[0][lo:hi], held[1][lo:hi] = grid.rows(lo, hi).sums()
        grid.held = held
    for table in (*grid, *(grid.held or ())):
        table.flags.writeable = False
    return grid


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
    rows of the shape's cached ``_mesh_grid``.
    """
    nx, ny = _mesh_size((nx, ny))
    grid = _mesh_grid(nx, ny)
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
        # 0.5 * (-(bx / nrm) + 1j * (by / nrm)) op by op into the output: its bits, signed zeros too, and
        # no complex temporary (scaling the real and imaginary parts alone flips the sign of some zeros)
        c = coherence[lo:hi]
        np.add(-(bx / nrm), np.multiply(1j, by / nrm, out=c), out=c)
        np.multiply(0.5, c, out=c)
    # np.argmin's first minimum (NaN first) over the block minima is the mesh's own
    min_norm, at = firsts[int(np.argmin([v for v, _ in firsts]))]
    if gapless:
        m, n = divmod(at, ny)
        raise GaplessMesh(
            f"gapless mesh point at (m, n) = ({m}, {n}), k = {np.array([m / nx, n / ny]) @ RECIPROCAL}, "
            f"|d| = {min_norm:.3e}"
        ) from GaplessPoint(f"|d| < {GAP_FLOOR:g}")
    analytic_chern(p)  # OnWall for a wall whose gapless point misses the mesh
    return TorusMesh(nz=nz, coherence=coherence, params=p, min_norm=float(min_norm))


def _dot(a, b=None):
    """a.b, or a.a without b, over the leading (component) axis."""
    return np.einsum("c...,c...->...", a, a if b is None else b)


#: A halved cell's new points, its edge midpoints (bottom, right, top, left) and centre, in half sides.
_HALF_STEPS = np.array([[1, 0], [2, 1], [1, 2], [0, 1], [1, 1]])
#: Its quarters, counterclockwise from their lower-left corners (the cell's corners 0-3, then the new points 4-8),
#: and those corners in half sides.
_QUARTERS = np.array([[0, 4, 8, 7], [4, 1, 5, 8], [8, 5, 2, 6], [7, 8, 6, 3]])
_QUARTER_ORIGINS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
#: The triangles (a, b, c): each quarter's (q1, q2, q3), its (q1, q3, q4), and (corner, edge midpoint, next corner).
_TRIANGLES = np.concatenate([_QUARTERS[:, :3], _QUARTERS[:, [0, 2, 3]], [[0, 4, 1], [1, 5, 2], [2, 6, 3], [3, 7, 0]]]).T


def _cell_flux(p: ModelParams, corner, side, n, f: float, depth: int = 0) -> float:
    """The flux through the cell of mesh fractions ``corner + [0, side]``: its phase f, plus the multiple
    of 2pi that halving the cell, and again each quarter whose phase stays hot, reveals.

    n holds the unit Bloch vectors at the cell's corners, counterclockwise from ``corner``.  The quarters'
    fluxes add up to the cell's own plus those of the four thin triangles that its edges bow out by, and
    each phase is its flux mod 2pi, so the difference from f is an exact multiple of 2pi.  A phase of at
    most _HOT_PHASE in modulus, one _MAX_HALVINGS deep, or one whose new points include a gapless one, stays.
    """
    if abs(f) <= _HOT_PHASE or depth == _MAX_HALVINGS:
        return f
    half = 0.5 * side
    # the cell's 3 x 3 grid of corners, edge midpoints and centre, whose new points sit at _HALF_STEPS
    grid = _mesh_tables(*(corner[:, None] + np.arange(3) * half[:, None]))
    d = [c[tuple(_HALF_STEPS.T)] for c in d_components(grid, p)]
    nrm = _norm(*d)
    if not np.all(nrm >= GAP_FLOOR):
        return f
    v = np.concatenate([n, np.stack(d, axis=-1) / nrm[:, None]])
    a, b, c = v[_TRIANGLES]
    z = 1.0 + _dot(a.T, b.T) + _dot(b.T, c.T) + _dot(c.T, a.T) - 1j * _dot(a.T, np.cross(b, c).T)
    inner = [_cell_flux(p, origin, half, v[q], phase, depth + 1) for origin, q, phase
             in zip(corner + _QUARTER_ORIGINS * half, _QUARTERS, np.angle(z[:4] * z[4:8]).tolist())]
    w = round((math.fsum(inner) - math.fsum(np.angle(z[8:]).tolist()) - f) / (2.0 * math.pi))
    return f + 2.0 * math.pi * w if w else f


def plaquette_curvature(mesh: TorusMesh) -> np.ndarray:
    """Plaquette phase of the corner Bloch vectors, an (nx, ny) float64 array.

    F[m, n] = arg[Z(n1, n2, n3) Z(n1, n3, n4)] for the corners n1..n4 at (m, n),
    (m+1, n), (m+1, n+1), (m, n+1), taken periodically, with
    Z(a, b, c) = 1 + a.b + b.c + c.a - i a.(b x c) = 4 <a|b><b|c><c|a>.  The
    product is 16 |<n1|n3>|^2 times the FHS link product
    <n1|n2><n2|n3><n3|n4><n4|n1>.  Each x-, y- and diagonal (n1, n3) link needs
    |<u_i|u_j>| = |n_i + n_j|/2 > OVERLAP_FLOOR, or DegenerateOverlap, which
    names the first failing kind at its first row-major minimum over the mesh.
    F is written one row block at a time, in the principal branch, except where
    a mesh with params has a phase beyond _HOT_PHASE in modulus off its wrapped
    last row and column: there ``_cell_flux`` halves the plaquette and adds the
    multiple of 2pi its quarters reveal, so a flux past pi, as a Dirac cone of
    small mass puts into one coarse plaquette, still counts.  Each change is a
    whole multiple of 2pi, so the total stays 2pi times an integer.  A mesh with
    params whose ``chern_number(F)`` then differs from ``analytic_chern(params)``
    raises MeshTooCoarse, as a thin mesh (40 x 4) can give with no hot plaquette.
    """
    nx, ny = mesh.nx, mesh.ny
    floor2 = 4.0 * OVERLAP_FLOOR * OVERLAP_FLOOR
    F = np.empty((nx, ny))
    # per link kind, the blocks whose minimum is at or below the floor (or NaN):
    # (any link at or below it, the block's first minimum, its flat mesh index)
    low = {"x": [], "y": [], "diagonal": []}
    hot = []  # (m, n, corner vectors) of the plaquettes to halve
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
        if mesh.params is None:
            continue
        # the wrapped last row and column join the two sides of the zone seam, where n jumps: no halving there
        for i in np.flatnonzero(np.abs(F[lo:hi, :-1]) > _HOT_PHASE).tolist():
            m, j = divmod(i, ny - 1)
            if lo + m < nx - 1:
                hot.append((lo + m, j, np.stack([n1[:, m, j], n2[:, m, j], n3[:, m, j], n4[:, m, j]])))
    for name, blocks in low.items():
        if any(bad for bad, _, _ in blocks):
            # np.argmin's first minimum (NaN first) over the block minima is the mesh's own
            _, e2, at = blocks[int(np.argmin([v for _, v, _ in blocks]))]
            i, j = divmod(at, ny)
            raise DegenerateOverlap(
                f"{name}-link overlap {0.5 * np.sqrt(e2):.3e} <= {OVERLAP_FLOOR:g} "
                f"at (m, n) = ({i}, {j}); mesh too coarse for this gap"
            )
    side = np.array([1.0 / nx, 1.0 / ny])
    for m, j, corners in hot:
        F[m, j] = _cell_flux(mesh.params, np.array([m / nx, j / ny]), side, corners, float(F[m, j]))
    if mesh.params is not None and (lattice := chern_number(F)) != (count := analytic_chern(mesh.params)):
        raise MeshTooCoarse(f"lattice Chern number {lattice} on {nx} x {ny} differs from the "
                            f"Dirac-mass count {count}; refine the mesh")
    return F


def chern_number(F: np.ndarray) -> int:
    """Nearest integer to total flux / 2pi (a ``_total``) of non-empty 2-d float64 F; NonIntegerTotal beyond tolerance."""
    if not (isinstance(F, np.ndarray) and F.dtype == np.float64 and F.ndim == 2 and F.size):
        shown = f"{F.dtype} of shape {F.shape}" if isinstance(F, np.ndarray) else type(F).__name__
        raise ValidationError(f"curvature must be a non-empty 2-d float64 array, got {shown}")
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
