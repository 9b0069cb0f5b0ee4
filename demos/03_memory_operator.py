"""The retarded memory operator on time signals.

At a fixed spatial wavenumber, each mass node responds to a source
through a driven oscillator with zero past data; the memory operator is
the weighted sum of those responses.  The script demonstrates the four
properties everything downstream leans on: exact causal support, the
l1-weighted uniform bound, positivity of the accumulated power, and the
scaling-field commutator identity [S, R_mu] f = 2 R_mu f - 2 mu R_mu^2 f,
with S = t d/dt, which follows from (d^2/dt^2 + mu)(t v') = 2 (f - mu v)
+ t f' for v = R_mu f with zero past data.
"""

import numpy as np

from cetlab import (PowerLawExp, TimeSeries, apply_memory, build_quadrature,
                    commutator_residual, positivity_functional)

quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
dt = 0.01
t = dt * np.arange(2001)
turn_on = 5.0
f = TimeSeries(0.0, dt, np.where(t > turn_on, np.exp(-((t - 8.0) ** 2)), 0.0))

kf = apply_memory(quad, 0.0, f)
before = kf.samples[t <= turn_on]
print(f"source switches on at t = {turn_on}")
print(f"memory output on [0, {turn_on}]: max |K f| = {np.max(np.abs(before))}"
      f"  (bitwise zero: {bool(np.all(before == 0.0))})")
print(f"sup |K f| = {kf.sup():.6f}  <=  l1 * int|f| dt = "
      f"{np.sum(quad.weights) * f.l1():.6f}")

q = positivity_functional(quad, f)
print(f"accumulated power into the modes: {q:.6e}  (>= 0)")

print("\nresidual of [S, R_1] f = 2 R_1 f - 2 R_1^2 f under time-step halving:")
def bump(tv):
    y = (tv - 4.0)
    out = np.zeros_like(tv)
    m = np.abs(y) < 1
    out[m] = np.exp(-1.0 / (1.0 - y[m] ** 2))
    return out

for dtc in (4e-3, 2e-3, 1e-3):
    n = int(round(12.0 / dtc)) + 1
    tv = dtc * np.arange(n)
    chk = commutator_residual(1.0, TimeSeries(0.0, dtc, bump(tv)))
    print(f"  dt = {dtc:7.0e}: residual = {chk.residual:9.3e}")
print("max |S(R f) - 2 R f - R(S f - 2 mu R f)| shrinks at better than")
print("second order: [S, R_mu] f = 2 R_mu f - 2 mu R_mu^2 f holds.")
