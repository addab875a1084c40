"""
Two-phase tomography and multi-orbital probes
=============================================

Reconstructs the full theta-dependence of the graded response from just two
witness settings, then repeats the game with matrix-valued probes: basis
measurements rebuild the weighted-coherence matrix entry by entry, and the
probe responses are blind to local unitary frame changes.

    python3 demos/tomography_probes.py
"""
import math

import numpy as np

from stratachern import (
    ModelParams,
    build_mesh,
    coherence_matrix,
    levi_type,
    plaquette_curvature,
    reconstruct_JF,
    sector_response_multi,
    sector_responses,
    theta_grid,
    theta_scan,
    tomography_reconstruct,
    unitary_invariance_check,
)
from stratachern.multiorbital import THETA_IMAG, THETA_REAL

p = ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
mesh = build_mesh(p, 48, 48)
F = plaquette_curvature(mesh)

# --- scalar tomography -----------------------------------------------------------

r0 = sector_responses(mesh, F, 0.0)
r90 = sector_responses(mesh, F, math.pi / 2.0)
rec = tomography_reconstruct(r0.nu_minus, r90.nu_minus, r0.mu)
print(f"responses at theta = 0 and pi/2: nu_- = {r0.nu_minus:+.12f}, "
      f"{r90.nu_minus:+.12f}")
print(f"reconstructed weighted coherence: {rec:+.12f}")
print(f"directly summed                 : {r0.JF:+.12f}")

thetas = theta_grid(64)
direct = theta_scan(mesh, F, thetas)
from_two = -2.0 * (np.exp(1j * thetas) * rec).real
print(f"max |direct - two-setting reconstruction| over 64 phases: "
      f"{np.max(np.abs(direct - from_two)):.2e}")

# --- matrix-valued probes ----------------------------------------------------------

rng = np.random.default_rng(7)
x = rng.normal(size=2) + 1j * rng.normal(size=2)
x /= np.linalg.norm(x)
y = rng.normal(size=2) + 1j * rng.normal(size=2)
y /= np.linalg.norm(y)

jf = coherence_matrix(mesh, F, x, y)
print("\nweighted-coherence matrix for a random unit probe pair:")
print(np.array2string(jf, precision=6, suppress_small=True))

responses = {}
for i in range(2):
    for j in range(2):
        ei, fj = np.zeros(2, complex), np.zeros(2, complex)
        ei[i], fj[j] = 1.0, 1.0
        for theta in (THETA_REAL, THETA_IMAG):
            responses[(i, j, theta)] = sector_response_multi(jf, r0.mu, ei, fj, theta)[0]
rebuilt = reconstruct_JF(responses, 2, 2, r0.mu)
print(f"basis-probe reconstruction error (entrywise max): "
      f"{np.max(np.abs(rebuilt - jf)):.2e}")

# --- frame independence and Levi typing ----------------------------------------------

worst = 0.0
for _ in range(20):
    ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    worst = max(worst, unitary_invariance_check(jf, x, y, ua, ub))
print(f"worst unitary-invariance deviation over 20 frame pairs: {worst:.2e}")

lt = levi_type(np.outer(x, np.conj(y)))
print(f"Levi type of the probe dyad: (r_+, r_-, r_0) = "
      f"({lt.r_plus}, {lt.r_minus}, {lt.r_zero})")
