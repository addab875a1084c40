"""Multi-orbital embedding, matrix coherence, probe tomography, sign-rank typing.

A two-sublattice valence state embeds into an (m + n)-orbital single-excitation
space as a = vA * x, b = vB * y for unit probe vectors x, y.  The matrix
curvature-weighted coherence

    JF = (1/2pi) * sum_plaquettes F(k) * a(k) b(k)^dagger        (m x n)

transforms as JF -> U_A JF U_B^dagger under local basis changes, so the scalar
responses x^dagger JF y (and the sector responses built from them) are basis
invariants.  Rank-one equal-split witnesses have block Y = x y^dagger; the
restricted sign operator has eigenvalue multiplicities (rank Y, rank Y,
m + n - 2 rank Y), which is what ``levi_type`` classifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingProbe, NonUnitProbe, NotPartialIsometry, ValidationError, _integer, _real
from .mesh import TorusMesh
from .witness import _checked_chern, _weighted_coherence, tomography_reconstruct

#: Norm tolerance for unit probes.
UNIT_TOL = 1e-12
#: Singular values must lie within this of {0, 1} for a sign-operator block.
ISOMETRY_TOL = 1e-10

#: Witness phases used by basis-probe tomography.
THETA_REAL = 0.0
THETA_IMAG = math.pi / 2.0


@dataclass(frozen=True)
class LeviType:
    """Eigenvalue multiplicities (+1, -1, 0) of a restricted sign operator."""

    r_plus: int
    r_minus: int
    r_zero: int


def _require_unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NonUnitProbe(f"probe {name} has norm {nrm!r}, expected 1 within {UNIT_TOL:g}")
    return v


def coherence_matrix(mesh: TorusMesh, F: np.ndarray, x, y) -> np.ndarray:
    """Lattice sum of F(k) * a(k) b(k)^dagger over plaquette base corners, m x n complex.

    For the product embedding a = vA x, b = vB y this is the scalar sum
    (1/2pi) sum F * vA conj(vB) of ``SectorReport.JF`` times the dyad x y^dagger.
    F must be a float64 array of the mesh's shape (ValidationError) with an
    integer total (NonIntegerTotal), as in ``sector_responses``.
    """
    x = _require_unit(x, "x")
    y = _require_unit(y, "y")
    _checked_chern(mesh, F)
    return _weighted_coherence(mesh, F) * np.outer(x, np.conj(y))


def sector_response_multi(JF: np.ndarray, mu: int, x, y, theta: float) -> tuple[float, float]:
    """(nu_minus, nu) for probe pair (x, y) at witness phase theta.

    nu_minus = mu/2 + Re(exp(i*theta) x^dagger JF y), nu = -2 Re(...).
    Raises ValidationError unless theta is one finite real number and JF is len(x) x len(y).
    """
    theta = _real(theta, "witness theta")
    x = _require_unit(x, "x")
    y = _require_unit(y, "y")
    if np.shape(JF) != (x.size, y.size):
        raise ValidationError(f"JF has shape {np.shape(JF)}, expected {(x.size, y.size)} for probes x, y")
    core = complex(np.conj(x) @ JF @ y)
    re = (np.exp(1j * theta) * core).real
    return float(mu / 2.0 + re), float(-2.0 * re)


def reconstruct_JF(probe_responses, m: int, n: int, mu: int) -> np.ndarray:
    """Matrix coherence (m x n complex) from basis-probe responses at theta in {0, pi/2}.

    ``probe_responses`` maps (i, j, theta) -> nu_minus for the basis pair
    (e_i, f_j), with theta exactly THETA_REAL or THETA_IMAG.  Entry (i, j) is
    ``tomography_reconstruct`` of its responses at theta = 0 and pi/2.
    """
    m, n = _integer(m, "m", 1), _integer(n, "n", 1)
    jf = np.empty((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            for theta in (THETA_REAL, THETA_IMAG):
                if (i, j, theta) not in probe_responses:
                    raise MissingProbe(f"missing response for (i={i}, j={j}, theta={theta!r})")
            jf[i, j] = tomography_reconstruct(*(probe_responses[(i, j, t)] for t in (THETA_REAL, THETA_IMAG)), mu)
    return jf


def levi_type(Y) -> LeviType:
    """Eigenvalue multiplicities of the sign operator with off-diagonal block Y.

    Y must be a partial isometry: every singular value within ISOMETRY_TOL of 0 or 1.
    The +1 and -1 multiplicities both equal rank(Y); the kernel block
    contributes m + n - 2 rank(Y) zero modes.
    """
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim != 2:
        raise NotPartialIsometry(f"expected a 2d block, got shape {Y.shape}")
    m, n = Y.shape
    sv = np.linalg.svd(Y, compute_uv=False)
    unit = np.abs(sv - 1.0) <= ISOMETRY_TOL
    zero = sv <= ISOMETRY_TOL
    bad = ~(unit | zero)
    if np.any(bad):
        raise NotPartialIsometry(
            f"singular value {sv[bad][0]!r} outside {{0, 1}} (tol {ISOMETRY_TOL:g}); "
            "not a sign-operator block"
        )
    r = int(unit.sum())
    return LeviType(r_plus=r, r_minus=r, r_zero=m + n - 2 * r)


def witness_block(x, y, theta: float) -> np.ndarray:
    """Off-diagonal block Y_theta = exp(-i*theta) x y^dagger of the rank-one
    equal-split witness; operator norm ||x|| * ||y||.  Raises ValidationError
    unless theta is one finite real number."""
    theta = _real(theta, "witness theta")
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    return np.exp(-1j * theta) * np.outer(x, np.conj(y))
