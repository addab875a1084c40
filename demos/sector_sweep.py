"""
Witness sectors and quantized jumps
===================================

Splits the lattice invariant into entanglement-witness sectors, checks the
exact lattice identities, and sweeps the staggered mass across both walls.

    python3 demos/sector_sweep.py
"""
import math

import numpy as np

from stratachern import (
    ModelParams,
    alpha_field,
    build_mesh,
    plaquette_curvature,
    reference_phase,
    sector_responses,
    sweep_mass,
    theta_grid,
    theta_scan,
)

p = ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
mesh = build_mesh(p, 48, 48)
F = plaquette_curvature(mesh)

# --- weights at a few mesh points ----------------------------------------------

theta = reference_phase(mesh)
print(f"mesh-derived witness phase: theta = {theta:.12f}")
print("\nnegative-sector weight alpha and sign average <S> = 1 - 2 alpha:")
alpha = alpha_field(mesh, theta)
for m, n in ((0, 0), (12, 30), (40, 7)):
    print(f"  k[{m:2d},{n:2d}]  alpha = {alpha[m, n]:.6f}   <S> = {1.0 - 2.0 * alpha[m, n]:+.6f}")

# --- sector responses and their identities ---------------------------------------

rep = sector_responses(mesh, F, theta)
print(f"\nsector responses at theta = {theta:.4f}:")
print(f"  mu      = {rep.mu:+d}")
print(f"  nu_-    = {rep.nu_minus:+.12f}")
print(f"  nu_+    = {rep.nu_plus:+.12f}")
print(f"  nu_S    = {rep.nu_S:+.12f}")
print(f"  J_F     = {rep.JF:+.12f}")
print(f"identity residuals:  |mu - (nu_+ + nu_-)| = {rep.r_mu:.2e},  "
      f"|nu_S - (nu_+ - nu_-)| = {rep.r_nu:.2e}")

# --- the graded response is a pure sinusoid in theta ------------------------------

thetas = theta_grid(8)
scan = theta_scan(mesh, F, thetas)
print("\nnu_S(theta) traces -2|J_F| cos(theta + arg J_F):")
for th, nu in zip(thetas, scan):
    model = -2.0 * abs(rep.JF) * math.cos(th + np.angle(rep.JF))
    print(f"  theta = {th:+.3f}   nu_S = {nu:+.6f}   sinusoid = {model:+.6f}")

# --- sweeping the staggered mass across the walls ----------------------------------

print("\nmass sweep, 25 points on [-3, 3] (48x48 mesh):")
reports, jumps = sweep_mass(p, np.linspace(-3.0, 3.0, 25), (48, 48))
mus = "".join(f"{r.mu:+d} " for r in reports)
print("  mu along the sweep: " + mus)
for j in jumps:
    print(f"  wall at M = {j.wall_location:+.6f}:  delta mu = {j.delta_mu:+d},  "
          f"delta nu_S = {j.delta_nu_S:+.6f}")
print(f"  telescoped total delta mu = {sum(j.delta_mu for j in jumps)}")
