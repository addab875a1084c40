"""Quantum geometric tensor, witness-filtered variant, and inequality bounds.

For a two-band Hamiltonian the valence-band quantum geometric tensor over a
pair of reciprocal coordinates has the closed forms

    g_ab  = (1/4) da(n) . db(n)                     (Fubini-Study metric)
    F_xy  = -(1/2) n . (dx(n) x dy(n))              (curvature two-form)
    Q_ab  = g_ab + (i/2) F_ab

with n the unit Bloch vector; the curvature sign is fixed so the Riemann sum
of F_xy over the torus reproduces the lattice (plaquette) Chern number.
The witness-filtered tensor inserts the compressed single-excitation sign
operator S' = s.sigma, s = -(cos(theta), sin(theta), 0), between projected
state derivatives,

    QS_ab = <da(u)| Pperp S' Pperp |db(u)>,   Pperp = 1 - |u><u|.

It depends only on the valence projector P = (1 - n.sigma)/2, and the trace
identity QS_ab = tr(S' db(P) P da(P)) gives it from n and its gradients with
no spinor and no gauge choice,

    QS_ab = (1/4) [ (n.s) da(n).db(n) + i s.(db(n) x da(n)) ].

Since dx(n) x dy(n) is parallel to n, this equals eta * Q with
eta = n.s = 2 Re(exp(i*theta) vA conj(vB)).  Both sides are evaluated and
their deviation is reported: it tests that parallelism pointwise.

The quantum Fisher information along a direction is FQ = 4 g_dd = |d_dir(n)|^2, its
filtered version FQS = 4 Re(QS_dd) = eta * FQ, and the whole family obeys the
concurrence-weighted bounds checked by ``inequality_suite``.  A batch stores the
gradient triple dn and Im QS_xy; g and QS are formed from them when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ViolationFound, _integer, _real
from .mesh import TorusMesh, _mesh_size, _row_blocks, _sum, _total, build_mesh, plaquette_curvature
from .model import (
    CELL_AREA,
    RECIPROCAL,
    ModelParams,
    _dot3,
    analytic_chern,
    bloch_vector_fields,
    mesh_kpoints,
)
from .multiorbital import _require_unit, sector_response_multi, witness_block
from .witness import TWO_PI, _checked_chern, _weighted_coherence, sector_responses

#: Additive slack allowed when checking the analytic inequalities.
BOUND_SLACK = 1e-12
#: |nz| above this at _EQUATOR_K puts the saturation point off the equator.
EQUATOR_TOL = 1e-9
#: An equator point (nz = 0) of the default model, where ``saturation_case`` samples.
_EQUATOR_K = (0.0, 1.0)


@dataclass(frozen=True)
class GeometrySamples:
    """Vectorized geometry fields over a batch of k-points.

    The metric is stored as the gradient triple ``dn``, the filtered tensor as its one
    part beyond eta g, ``im_qs_xy``; ``g`` and ``QS`` build their arrays from them when
    read.  ``theta`` is a read-only broadcast view of the input.
    """

    k: np.ndarray            # (P, 2)
    nz: np.ndarray           # (P,)
    coherence: np.ndarray    # (P,) complex
    dn: tuple                # (dn_x, dn_y, dn_z), each a (d/dkx, d/dky) pair of (P,) arrays
    Fxy: np.ndarray          # (P,)
    eta: np.ndarray          # (P,)
    C: np.ndarray            # (P,)
    im_qs_xy: np.ndarray     # (P,) Im QS_xy = -Im QS_yx
    dual_dev: np.ndarray     # (P,)
    FQ: np.ndarray           # (P,)
    FQS: np.ndarray          # (P,)
    theta: np.ndarray        # (P,)

    @property
    def g(self) -> np.ndarray:
        """(P, 2, 2) Fubini-Study metric g_ab = (1/4) da(n).db(n)."""
        dn = [np.stack(c, axis=-1) for c in self.dn]
        return 0.25 * _dot3([c[:, :, None] for c in dn], [c[:, None, :] for c in dn])

    @property
    def QS(self) -> np.ndarray:
        """(P, 2, 2) complex insertion-form tensor: eta g + i Im QS_xy [[0, 1], [-1, 0]]."""
        return self.eta[:, None, None] * self.g + np.multiply.outer(1j * self.im_qs_xy, ((0.0, 1.0), (-1.0, 0.0)))


def qgt_sample_arrays(k, p: ModelParams, theta, direction=None) -> GeometrySamples:
    """All geometry fields for a batch of k-points (the vector engine).

    ``k`` is finite, of shape (P, 2) or (2,); ``theta`` is a finite scalar or per-point
    array; ``direction`` is a finite per-point (P, 2) array, a single 2-vector, or None
    for the x direction.  n and dn stay component triples, as ``bloch_vector_fields`` gives them.
    """
    th = _real(theta, "witness theta", scalar=False)
    k = np.atleast_2d(_real(k, "k", scalar=False))
    if k.ndim != 2 or k.shape[1] != 2:
        raise ValidationError(f"k must have shape (P, 2), got {k.shape}")
    npts = k.shape[0]
    dirs = _real((1.0, 0.0) if direction is None else direction, "direction", scalar=False)
    for name, arr, shape in (("theta", th, (npts,)), ("direction", dirs, (npts, 2))):
        if arr.ndim > len(shape) or any(a not in (1, b) for a, b in zip(arr.shape[::-1], shape[::-1])):
            raise ValidationError(f"{name} of shape {arr.shape} does not broadcast to {npts} k-points")
    n, dn, _ = bloch_vector_fields(k, p)

    nz = n[2]
    coherence = 0.5 * (-n[0] + 1j * n[1])
    (ux, vx), (uy, vy), (uz, vz) = dn  # u = dx n, v = dy n
    cross = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)  # u x v, parallel to n
    fxy = -0.5 * _dot3(n, cross)

    sx, sy = -np.cos(th), -np.sin(th)  # S' = s.sigma with s = (sx, sy, 0)
    eta = sx * n[0] + sy * n[1]  # n.s = 2 Re(exp(i theta) coherence)
    conc = np.sqrt(np.clip(1.0 - nz * nz, 0.0, None))

    # QS = eta g + (i/4) s.(dy n x dx n) [[0, 1], [-1, 0]]; Re QS = eta g exactly,
    # so QS differs from eta Q only in Im QS_xy = -Im QS_yx, where it tests cross || n.
    im_xy = -0.25 * (sx * cross[0] + sy * cross[1])
    dual = np.abs(im_xy - 0.5 * eta * fxy)

    th = np.broadcast_to(th, (npts,))
    along = [dirs[..., 0] * cx + dirs[..., 1] * cy for cx, cy in dn]  # d_dir(n)
    fq = _dot3(along, along)  # 4 g_dd
    fqs = eta * fq  # 4 Re(QS_dd)

    return GeometrySamples(
        k=k, nz=nz, coherence=coherence, dn=dn, Fxy=fxy,
        eta=eta, C=conc, im_qs_xy=im_xy, dual_dev=dual, FQ=fq, FQS=fqs,
        theta=th,
    )


def _riemann_sum(p: ModelParams, theta: float, N, field: str) -> float:
    """sum field * dA of a geometry field over the N x N plaquette base corners (a ``mesh._total``)."""
    nx, ny = _mesh_size(N)
    values = getattr(qgt_sample_arrays(mesh_kpoints(nx, ny).reshape(-1, 2), p, theta), field)
    return _total(lambda lo, hi: [_sum(values[lo:hi] * (CELL_AREA / (nx * ny)))], values.size)[0]


def filtered_chern_from_qgt(p: ModelParams, theta: float, N) -> float:
    """Riemann-sum estimate -(1/pi) * sum Im(QS_xy) * dA of the graded response.

    Uses the insertion-form filtered tensor at the N x N plaquette base
    corners with cell area |g1 x g2| / N^2.
    """
    return -_riemann_sum(p, theta, N, "im_qs_xy") / math.pi


def curvature_riemann_total(p: ModelParams, N) -> float:
    """Riemann sum (1/2pi) * sum F_xy * dA of the closed-form curvature.

    Unlike the plaquette lattice total (exactly integer by construction),
    this converges to the Chern number only in the N -> infinity limit; the
    integrand is smooth and periodic, so convergence is spectral.
    """
    return _riemann_sum(p, 0.0, N, "Fxy") / TWO_PI


def saturation_case(p: ModelParams) -> GeometrySamples:
    """The one-point sample at a (k, theta) pair that saturates |FQS| = FQ.

    At an equator point (nz = 0, concurrence 1) the phase theta aligned with
    -arg(vA vB*) gives eta = 1, so the filtered Fisher information equals the
    unfiltered one.  k = _EQUATOR_K sits on the equator for the default model
    (t1 = 1, t2 = 1/3, phi = pi/2, M = 0); elsewhere it raises ValidationError.
    """
    probe = qgt_sample_arrays(_EQUATOR_K, p, 0.0)
    if abs(probe.nz[0]) > EQUATOR_TOL:
        raise ValidationError(
            f"saturation point must sit on the equator; nz = {float(probe.nz[0])!r} at k = {_EQUATOR_K}"
        )
    return qgt_sample_arrays(_EQUATOR_K, p, -np.angle(probe.coherence[0]))


# ---------------------------------------------------------------------------
# Inequality suites.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a sampled bound check: max slack (lhs - rhs) per bound."""

    samples: int
    seed: int
    theta: float
    mesh: dict                     # {"nx": nx, "ny": ny}
    max_slack: dict
    nu_S: float
    nu_S_bound: float
    violations: int


def _fold_checks(tally: dict, checks: dict, offset: int = 0) -> dict:
    """Fold the bound checks of samples offset, offset + 1, ... into ``tally``.

    ``checks`` maps a bound name to (lhs array, rhs array).  ``tally`` maps it
    to [max slack (lhs - rhs) so far, the count of samples beyond BOUND_SLACK,
    the first three of them as (global index, lhs, rhs)]; a NaN slack stays NaN.
    """
    for name, (lhs, rhs) in checks.items():
        gap = lhs - rhs
        slot = tally.setdefault(name, [-math.inf, 0, []])
        slot[0] = float(np.maximum(slot[0], gap.max()))
        beyond = np.nonzero(gap > BOUND_SLACK)[0]
        slot[1] += beyond.size
        slot[2] += [(offset + int(i), float(lhs[i]), float(rhs[i])) for i in beyond[: 3 - len(slot[2])]]
    return tally


def _bound_report(cls, tally, where=None, **fields):
    """Report of type ``cls`` from a ``_fold_checks`` tally, or ViolationFound carrying it.

    The report gets the max slack per bound and the count of every offender
    over all bounds, plus ``fields``; the message names the first offender
    kept.  ``where(i)`` optionally describes sample i in the message.
    """
    max_slack = {name: slack for name, (slack, _, _) in tally.items()}
    violations = sum(count for _, count, _ in tally.values())
    offenders = [(name, *hit) for name, (_, _, hits) in tally.items() for hit in hits]
    report = cls(max_slack=max_slack, violations=violations, **fields)
    if offenders:
        name, i, lhs, rhs = offenders[0]
        detail = f" ({where(i)})" if where is not None else ""
        err = ViolationFound(
            f"{violations} bound violation(s); first: {name} at sample {i}: "
            f"lhs = {lhs!r} > rhs = {rhs!r}{detail}"
        )
        err.report = report
        raise err
    return report


def inequality_suite(
    p: ModelParams,
    theta: float,
    N,
    samples: int,
    seed: int,
) -> InequalityReport:
    """Sampled verification of the filtered-geometry bound family.

    Draws ``samples`` k-points uniformly over the Brillouin torus and a random
    probe direction per point from a counter-based (Philox) stream, then checks

        |FQS| <= C * FQ <= FQ        |eta| <= C
        |Im QS_xy| <= (C/2) |F_xy|   |d_dir (vA vB*)| <= (1/2) sqrt(FQ)

    pointwise and the global  |nu_S| <= (1/2pi) sqrt(sum|F|) sqrt(sum C^2 |F|)
    on an N x N mesh.  The pointwise checks run on even blocks of at most
    mesh._BLOCK_POINTS samples, so memory beyond the drawn k and angles stays
    flat in ``samples``; each sample gets the bits one whole batch gives it.
    Returns the per-bound max slack; raises ViolationFound (carrying the
    report) if any bound fails by more than BOUND_SLACK --- that signals an
    implementation bug, never an expected outcome.  An on-wall model raises
    OnWall before any sampling.
    """
    nx, ny = _mesh_size(N)
    count, seed = _integer(samples, "samples", 1), _integer(seed, "seed", 0)
    theta = _real(theta, "witness theta")
    analytic_chern(p)  # OnWall propagates before any sampling, as in sweep_mass
    rng = np.random.Generator(np.random.Philox(seed))
    k = rng.random((count, 2)) @ RECIPROCAL
    psi = rng.random(count) * TWO_PI

    tally = {}
    for lo, hi in _row_blocks(count, 1):
        part = slice(lo, hi)
        dirs = np.stack([np.cos(psi[part]), np.sin(psi[part])], axis=-1)
        arr = qgt_sample_arrays(k[part], p, theta, dirs)
        along_x, along_y = (dirs[..., 0] * cx + dirs[..., 1] * cy for cx, cy in arr.dn[:2])  # d_dir(n_x, n_y)
        _fold_checks(tally, {
            "abs_fqs_le_c_fq": (np.abs(arr.FQS), arr.C * arr.FQ),
            "c_fq_le_fq": (arr.C * arr.FQ, arr.FQ),
            "abs_eta_le_c": (np.abs(arr.eta), arr.C),
            "im_qs_le_half_c_f": (np.abs(arr.im_qs_xy), 0.5 * arr.C * np.abs(arr.Fxy)),
            "dcoh_le_half_sqrt_fq": (np.abs(0.5 * (-along_x + 1j * along_y)), 0.5 * np.sqrt(arr.FQ)),  # d_dir(vA vB*)
        }, lo)

    mesh = build_mesh(p, nx, ny)
    F = plaquette_curvature(mesh)
    report_s = sector_responses(mesh, F, theta)
    absf, c_sq = np.abs(F).reshape(-1), np.clip(1.0 - mesh.nz * mesh.nz, 0.0, None).reshape(-1)
    abs_total, c_total = _total(lambda lo, hi: (_sum(absf[lo:hi]), _sum(c_sq[lo:hi] * absf[lo:hi])), absf.size)
    bound = math.sqrt(abs_total) * math.sqrt(c_total) / TWO_PI
    _fold_checks(tally, {"global_nu_s": (np.array([abs(report_s.nu_S)]), np.array([bound]))})

    return _bound_report(
        InequalityReport, tally,
        where=lambda i: f"k = {k[i]}, theta = {theta}",
        samples=count,
        seed=seed,
        theta=theta,
        mesh={"nx": nx, "ny": ny},
        nu_S=report_s.nu_S,
        nu_S_bound=float(bound),
    )


@dataclass(frozen=True)
class MultiOrbitalBoundsReport:
    """Outcome of the operator-norm bound checks for a product embedding."""

    samples: int
    seed: int
    theta: float
    y_operator_norm: float
    max_slack: dict
    nu: float
    nu_bound: float
    violations: int


def multiorbital_bounds(
    mesh: TorusMesh,
    F: np.ndarray,
    x,
    y,
    theta: float,
    samples: int,
    seed: int,
) -> MultiOrbitalBoundsReport:
    """Operator-norm bounds for the rank-one witness on a product embedding.

    At mesh points sampled with a Philox stream, checks

        |<S'>|      <= 2 ||Y|| ||a|| ||b||
        |Im QS_xy|  <=   ||Y|| ||a|| ||b|| |F_xy|
        |FQS|       <= 4 g_dd            (||Pperp S' Pperp|| <= 1)

    with a = vA x, b = vB y, Y = exp(-i*theta) x y^dagger, plus the lattice
    bound |nu| <= ||Y|| (1/2pi) sum C |F|.  Raises ViolationFound on failure;
    refuses F as ``sector_responses`` does (shape, then integer total).
    """
    if mesh.params is None:
        raise ValidationError("mesh.params required (mesh not built from ModelParams)")
    xv = _require_unit(x, "x")
    yv = _require_unit(y, "y")
    count, seed = _integer(samples, "samples", 1), _integer(seed, "seed", 0)

    rng = np.random.Generator(np.random.Philox(seed))
    flat = rng.integers(0, mesh.nx * mesh.ny, size=count)
    psi = rng.random(count) * TWO_PI
    dirs = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    kpts = mesh_kpoints(mesh.nx, mesh.ny).reshape(-1, 2)[flat]
    arr = qgt_sample_arrays(kpts, mesh.params, theta, dirs)  # first, to refuse a non-finite theta
    block = witness_block(xv, yv, theta)
    y_norm = float(np.linalg.norm(block, 2))

    coh = mesh.coherence.reshape(-1)[flat]  # vA conj(vB), so a^dag Y b = conj(coh) x^dag Y y
    expectation = -2.0 * np.real(np.conj(coh) * complex(np.conj(xv) @ block @ yv))
    ab = np.abs(coh)                        # ||a|| ||b|| = |vA| |vB|

    checks = {
        "witness_expectation": (np.abs(expectation), 2.0 * y_norm * ab),
        "im_qs": (np.abs(arr.im_qs_xy), y_norm * ab * np.abs(arr.Fxy)),
        "fqs_le_4g": (np.abs(arr.FQS), arr.FQ),  # FQ = 4 g_dd
    }

    mu = _checked_chern(mesh, F)
    jf = _weighted_coherence(mesh, F) * np.outer(xv, np.conj(yv))  # coherence_matrix, F checked above
    _, nu = sector_response_multi(jf, mu, xv, yv, theta)
    c_abs_f = (np.sqrt(np.clip(1.0 - mesh.nz * mesh.nz, 0.0, None)) * np.abs(F)).reshape(-1)
    nu_bound = y_norm * _total(lambda lo, hi: [_sum(c_abs_f[lo:hi])], c_abs_f.size)[0] / TWO_PI
    checks["global_nu"] = (np.array([abs(nu)]), np.array([nu_bound]))

    return _bound_report(
        MultiOrbitalBoundsReport, _fold_checks({}, checks),
        samples=count,
        seed=seed,
        theta=float(theta),
        y_operator_norm=y_norm,
        nu=float(nu),
        nu_bound=nu_bound,
    )
