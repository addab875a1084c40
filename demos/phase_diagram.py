"""
Phase diagram of the two-band honeycomb model
=============================================

Walks the staggered-mass / flux-phase plane and compares the lattice
invariant (gauge-invariant plaquette sum) against the closed-form sign
formula at the two Dirac points.  Run with:

    python3 demos/phase_diagram.py
"""
import math

import numpy as np

from stratachern import (
    GaplessMesh,
    ModelParams,
    OnWall,
    analytic_chern,
    build_mesh,
    chern_number,
    dirac_masses,
    plaquette_curvature,
)

# --- a single point, spelled out --------------------------------------------

p = ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
m_k, m_kp = dirac_masses(p)
print("model:", p)
print(f"Dirac masses:       m_K = {m_k:+.6f},  m_K' = {m_kp:+.6f}")
print(f"analytic invariant: {analytic_chern(p):+d}   "
      f"(half the sign difference of the two masses)")

mesh = build_mesh(p, 24, 24)
F = plaquette_curvature(mesh)
print(f"lattice invariant:  {chern_number(F):+d}   "
      f"(plaquette flux total {F.total / (2 * math.pi):+.12f} x 2pi)")
print(f"minimum gap on the 24x24 mesh: {2.0 * mesh.min_norm:.3f}")  # 2 min |d|, kept by the build

# --- the (M, phi) plane -------------------------------------------------------

print("\ninvariant over the staggered-mass / flux-phase plane (24x24 mesh):")
phis = np.linspace(-math.pi, math.pi, 13)
masses = np.linspace(-3.0, 3.0, 13)
print("        " + "".join(f"{phi:+5.2f} " for phi in phis))
for m_stag in masses[::-1]:
    row = []
    for phi in phis:
        q = ModelParams(1.0, 1.0 / 3.0, float(phi), float(m_stag))
        try:
            mu = chern_number(plaquette_curvature(build_mesh(q, 12, 12)))
            row.append(f"{mu:+d}")
        except (OnWall, GaplessMesh):
            # the grid point sits exactly on a gap-closing wall
            row.append("wall")
    print(f"M={m_stag:+5.2f} " + "".join(f"{c:>5} " for c in row))

# --- wall locations -------------------------------------------------------------

print("\nthe lobes close at |M| = 3 sqrt(3) t2 |sin phi|;"
      " for t2=1/3, phi=pi/2 that is")
print(f"  M = +/- {3.0 * math.sqrt(3.0) / 3.0:.12f}")
for m_stag in (1.7, math.sqrt(3.0), 1.8):
    q = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, m_stag)
    try:
        print(f"  M = {m_stag:<18.15g} -> invariant {analytic_chern(q):+d}")
    except OnWall as exc:
        print(f"  M = {m_stag:<18.15g} -> OnWall: {exc}")
