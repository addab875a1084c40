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
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePhase, ValidationError, _integer, _shown
from .mesh import _BLOCK_POINTS, TorusMesh, _mesh_size, build_mesh, chern_number, plaquette_curvature
from .model import ModelParams, analytic_chern

#: |mesh-averaged coherence| below this cannot define a reference phase.
PHASE_FLOOR = 1e-12

TWO_PI = 2.0 * math.pi
#: numpy's pairwise summation adds a part of at most this many doubles without splitting it.
_PAIRWISE_LEAF = 128
#: ``x.sum()`` of a 1-D array, without the method's Python wrapper.
_sum = np.add.reduce


@dataclass(frozen=True)
class WitnessSpec:
    """Witness phase policy: a fixed theta in (-pi, pi], or mesh-derived."""

    theta: float = 0.0
    mode: str = "fixed"  # "fixed" | "auto"

    def __post_init__(self):
        if self.mode not in ("fixed", "auto"):
            raise ValidationError(f"witness mode must be 'fixed' or 'auto', got {self.mode!r}")
        t = float(_finite_thetas(self.theta, scalar=True))
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
    """arg of the mesh-averaged vB * conj(vA); DegeneratePhase if the average
    is smaller than PHASE_FLOOR in modulus."""
    z = complex(np.mean(np.conj(mesh.coherence)))
    if abs(z) < PHASE_FLOOR:
        raise DegeneratePhase(f"|<vB vA*>| = {abs(z):.3e} < {PHASE_FLOOR:g}")
    return float(np.angle(z))


def _finite_thetas(thetas, scalar: bool = False) -> np.ndarray:
    """``thetas`` as a float array; ValidationError unless they convert to a real numeric
    array of finite values, and, if ``scalar``, a 0-d one.  Text, complex values and a bool
    are refused, also in lists and tuples at any depth, where numpy would upcast it to 1.0."""
    try:
        t = np.asarray(thetas, dtype=object if isinstance(thetas, (list, tuple)) else None)
        # a dtype test; only an object array (a list or tuple, or integers beyond int64) is read element by element
        if t.dtype.kind not in "iuf" and not (
                t.dtype.kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in t.flat)):
            raise TypeError
        t = t.astype(float, copy=False)
    except OverflowError:
        raise ValidationError("witness theta must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):     # also a ragged sequence
        raise ValidationError(f"witness theta must be a real number, got {_shown(thetas)}") from None
    if scalar and t.ndim:
        raise ValidationError(f"witness theta must be a real number, got {type(thetas).__name__} of shape {t.shape}")
    if not (math.isfinite(t) if scalar else np.isfinite(t).all()):
        raise ValidationError(f"witness theta must be finite, got {t[~np.isfinite(t)].flat[0]}")
    return t


def _checked_chern(mesh: TorusMesh, F: np.ndarray) -> int:
    if isinstance(F, np.ndarray) and F.shape != (mesh.nx, mesh.ny):  # chern_number refuses a non-array
        raise ValidationError(
            f"curvature field shape {F.shape} does not match mesh {(mesh.nx, mesh.ny)}"
        )
    return chern_number(F)


def _pairwise_sum(leaf, n: int, width: int = 1, lo: int = 0):
    """numpy's own pairwise sum over flat points lo..lo+n, bit for bit, from leaf sums.

    ``np.add.reduce`` over n doubles splits them at n//2 - (n//2) % 8 until a
    part holds at most _PAIRWISE_LEAF doubles (Higham, SIAM J. Sci. Comput. 14,
    783 (1993)); ``width`` is 1 for float64 points and 2 for complex128 ones.
    This walks the same tree, stops at parts of at most _BLOCK_POINTS points and
    there returns ``leaf(lo, hi)``, the ``.sum()`` of points lo..hi (or a
    sequence of such sums), so each total equals the whole-mesh ``.sum()``.  A
    leaf's ``.sum()`` starts from +0.0 as the whole one does, so only a zero's
    sign can differ within the tree, and the whole sum's own +0.0 start erases it.
    """
    doubles = n * width
    if n <= _BLOCK_POINTS or doubles <= _PAIRWISE_LEAF:
        return leaf(lo, lo + n)
    half = (doubles // 2 - doubles // 2 % 8) // width
    return np.add(_pairwise_sum(leaf, half, width, lo), _pairwise_sum(leaf, n - half, width, lo + half))


def _weighted_coherence(mesh: TorusMesh, F: np.ndarray) -> complex:
    """JF = (1/2pi) sum F * coherence, bit-equal to the whole-mesh ``.sum()`` (see ``_pairwise_sum``)."""
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)
    return complex(_pairwise_sum(lambda lo, hi: _sum(f[lo:hi] * coh[lo:hi]), f.size, width=2) / TWO_PI)


def alpha_field(mesh: TorusMesh, theta: float) -> np.ndarray:
    """Negative-sector weight alpha(k) = 1/2 + Re(exp(i*theta) * vA * conj(vB))
    at every mesh point; the witness expectation there is <S> = 1 - 2*alpha.
    Raises ValidationError unless theta is one finite real number."""
    _finite_thetas(theta, scalar=True)
    return 0.5 + np.real(np.exp(1j * theta) * mesh.coherence)


def sector_responses(mesh: TorusMesh, F: np.ndarray, theta: float) -> SectorReport:
    """Curvature-weighted sector responses with base-corner weights.

    Each response is an independent deterministic lattice sum, bit-equal to
    numpy's ``.sum()`` of its per-point terms over the whole mesh but taken in
    one cache-resident pass (see ``_pairwise_sum``); the residuals r_mu, r_nu
    report how well the exact identities survive rounding.
    """
    mu = _checked_chern(mesh, F)
    _finite_thetas(theta, scalar=True)
    phase = np.exp(1j * theta)
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)

    def weighted(lo, hi):  # the nu_minus, nu_plus and nu_S sums over points lo..hi
        alpha, fb = 0.5 + (phase * coh[lo:hi]).real, f[lo:hi]
        return _sum(alpha * fb), _sum((1.0 - alpha) * fb), _sum((1.0 - 2.0 * alpha) * fb)

    s_minus, s_plus, s_graded = _pairwise_sum(weighted, f.size)
    nu_minus, nu_plus, nu_s = float(s_minus / TWO_PI), float(s_plus / TWO_PI), float(s_graded / TWO_PI)
    return SectorReport(
        mu=mu,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        nu_S=nu_s,
        JF=_weighted_coherence(mesh, F),
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


def theta_scan(mesh: TorusMesh, F: np.ndarray, thetas) -> np.ndarray:
    """Direct graded response nu_S(theta) for each theta, bit-equal to sector_responses' nu_S.

    Points are the outer loop and phases the inner one: each leaf of
    ``_pairwise_sum`` reads its coherence and F once and sums the per-point
    terms of every phase while they are in cache.
    """
    thetas = _finite_thetas(thetas).reshape(-1)
    _checked_chern(mesh, F)
    phases = np.exp(1j * thetas)
    coh, f = mesh.coherence.reshape(-1), F.reshape(-1)
    size = min(f.size, max(_BLOCK_POINTS, _PAIRWISE_LEAF))  # the longest leaf
    z, terms = np.empty(size, dtype=complex), np.empty(size)

    def leaf(lo, hi):  # every phase's sum over points lo..hi
        cb, fb, zb, t = coh[lo:hi], f[lo:hi], z[:hi - lo], terms[:hi - lo]
        sums = np.empty(phases.size)
        for i, phase in enumerate(phases):
            np.add(0.5, np.multiply(phase, cb, out=zb).real, out=t)  # alpha
            np.subtract(1.0, np.multiply(2.0, t, out=t), out=t)      # 1 - 2*alpha
            sums[i] = _sum(np.multiply(t, fb, out=t))
        return sums

    return _pairwise_sum(leaf, f.size) / TWO_PI


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
    location is the analytic critical mass +/- 3*sqrt(3)*t2*sin(phi) bracketed
    by the pair (midpoint fallback if neither analytic wall lies inside).
    ``mesh_size`` is N or an (nx, ny) pair, as in ``inequality_suite``; every
    argument is checked before any mesh work (ValidationError).
    Wall hits among the M values propagate OnWall.  ``workers`` > 1 evaluates
    the sweep points on a thread pool; results are collected in sweep order so
    output is identical for any worker count.
    """
    M_values = [float(replace(p_base, M=m).M) for m in M_values]  # ModelParams refuses a non-real M
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
            )
        )
    return reports, jumps
