"""
Quantum geometry, filtered and unfiltered
=========================================

The quantum geometric tensor, its sign-filtered variant, Fisher information
along a quench direction, the equator point that saturates the filtered
bound, and a seeded sweep of every pointwise inequality.

    python3 demos/quantum_geometry.py
"""
import math

import numpy as np

from stratachern import (
    ModelParams,
    build_mesh,
    filtered_chern_from_qgt,
    inequality_suite,
    plaquette_curvature,
    qgt_sample_arrays,
    reference_phase,
    saturation_case,
    sector_responses,
)
from stratachern.model import K_PLUS

p = ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)

# --- the tensor at one k-point ------------------------------------------------

k = np.array([0.3, 0.7])
sample = qgt_sample_arrays(k, p, theta=0.4)
g, fxy = sample.g[0], sample.Fxy[0]
print(f"k = {k}:")
print(f"  metric g = [[{g[0, 0]:.6f}, {g[0, 1]:.6f}], "
      f"[{g[1, 0]:.6f}, {g[1, 1]:.6f}]]")
print(f"  curvature Fxy = {fxy:+.6f}")
det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
print(f"  two-band purity: det g = {det:.3e} vs Fxy^2/4 = {fxy * fxy / 4:.3e}")

eta = sample.eta[0]
print(f"  sign average eta = {eta:+.6f}, concurrence C = {sample.C[0]:.6f}")
print(f"  filtered tensor Im Q^S_xy = {sample.im_qs_xy[0]:+.6f}  "
      f"(= eta/2 x Fxy = {0.5 * eta * fxy:+.6f})")
print(f"  insertion form vs eta-product: {sample.dual_dev[0]:.2e}")

# --- Fisher information grows as the gap closes -----------------------------------

print("\nquench sensitivity near the zone corner (x-direction):")
k_near = K_PLUS + np.array([0.05, 0.0])
for mass in (1.0, 0.5, 0.1):
    q = ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, math.sqrt(3.0) - mass)
    fq = qgt_sample_arrays(k_near, q, 0.0, direction=(1.0, 0.0)).FQ[0]
    print(f"  Dirac mass {mass:4.2f} -> F^Q = {fq:10.4f}")

# --- saturation of the filtered bound -----------------------------------------------

sat = saturation_case()
fq, fqs = sat.FQ[0], sat.FQS[0]
print(f"\nequator point with aligned phase: F^QS = {fqs:.12f}, "
      f"F^Q = {fq:.12f}, gap = {abs(fqs - fq):.2e}")

# --- lattice totals ------------------------------------------------------------------

mesh = build_mesh(p, 48, 48)
F = plaquette_curvature(mesh)
theta = reference_phase(mesh)
nu_s = sector_responses(mesh, F, theta).nu_S
est = filtered_chern_from_qgt(p, theta, 48)
print(f"\nfiltered curvature sum (48x48): {est:+.6f}  "
      f"vs lattice graded response {nu_s:+.6f}")

# --- the inequality ladder ------------------------------------------------------------

report = inequality_suite(p, theta, (48, 48), samples=5000, seed=42)
print(f"\n{report.samples} seeded samples, {report.violations} violations; "
      f"worst slack per bound:")
for name, slack in report.max_slack.items():
    print(f"  {name:<24} {slack:+.3e}")
print(f"global bound: |nu_S| = {abs(report.nu_S):.6f} <= {report.nu_S_bound:.6f}")
