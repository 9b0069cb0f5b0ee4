"""Discretizing a spectral density into mass nodes and weights.

The memory operator becomes computable once rho(mu) dmu is replaced by
finitely many nodes.  For the power-law kernel this is a generalized
Gauss-Laguerre rule: polynomial moments are exact to machine precision,
while the infrared moment (mu^-1, not a polynomial) converges only
algebraically -- the moment report makes that honest trade visible.
Nodes whose weight is at or below eps * l1 change no moment beyond
round-off and are dropped, so an n-node rule keeps fewer nodes.
"""

import numpy as np

from cetlab import PowerLawExp, build_quadrature, spectral_constants

rho = PowerLawExp(1.0, 1.0, 1.0)
consts = spectral_constants(rho)
print("exact moments: l1 =", consts.l1, " c_m1 =", consts.c_m1,
      " c_p1 =", consts.c_p1)

print(f"\n{'n':>4s} {'kept':>4s} {'sum w (p=0)':>14s} {'p=+1 err':>12s} "
      f"{'p=-1 err':>12s}")
for n in (4, 8, 16, 32, 64):
    quad = build_quadrature(rho, n)
    print(f"{n:4d} {len(quad):4d} {quad.moment(0):14.10f} "
          f"{quad.moment_report['p+1']:12.2e} "
          f"{quad.moment_report['p-1']:12.2e}")

quad = build_quadrature(rho, 32)
print(f"\n32-node rule, {len(quad)} nodes kept (first five):")
for mu, w in list(zip(quad.nodes, quad.weights))[:5]:
    print(f"  mu = {mu:10.6f}   w = {w:12.8f}")
print(f"  ... up to mu = {quad.nodes.max():.2f}")
print("\nThe stiffest node sets the time-step guard for the evolution:")
print("  dt * sqrt(mu_max + (pi/dr)^2) must stay below 2.5")

print("\nPoint masses pass through exactly:")
from cetlab import DiracComb
atoms = build_quadrature(DiracComb(((0.5, 1.0), (0.25, 4.0))), 99)
print("  nodes:", atoms.nodes, " weights:", atoms.weights,
      " moment errors:", {k: v for k, v in atoms.moment_report.items()})
