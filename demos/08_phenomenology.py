"""Observational signatures driven by the total spectral mass.

Every signature formula is controlled by the same constants that govern
stability: the memory excess ratio alpha*M*^2, the frequency-dependent
phase shift d*l1/(2 omega), and the slow late tail whose crossing time
over the standard one goes like l1^(-1/6).  This script evaluates them
and inverts the two published-style bounds.
"""

from dataclasses import asdict

from cetlab import (ligo_bound, memory_excess_ratio, phase_shift,
                    pulsar_timing_bound, signature_report, tail_crossing)

print("tail crossing times:")
for l1 in (1.0, 1e-10, 1e-12):
    print(f"  l1 = {l1:8.0e}: t_cross = {tail_crossing(l1):10.3f}")

print("\nphase shift scalings (natural units):")
base = phase_shift(400.0, 100.0, 1e-20)
print(f"  base d=400, omega=100, l1=1e-20: {base:.3e}")
print(f"  doubled distance : {phase_shift(800.0, 100.0, 1e-20) / base:.1f}x")
print(f"  doubled frequency: {phase_shift(400.0, 200.0, 1e-20) / base:.2f}x")

print("\nbound inversions:")
b = ligo_bound(0.1, 400.0, 100.0)
print(f"  phase accuracy 0.1 rad at d=400, omega=100 "
      f"=> l1 <= {b:.3e}")
print(f"  round trip: phase_shift at that l1 = "
      f"{phase_shift(400.0, 100.0, b):.3f} rad")
print(f"  timing sensitivity 0.1 at M* = 2 => infrared moment <= "
      f"{pulsar_timing_bound(0.1, 2.0):.3e}")

print("\nfull report for one source configuration:")
rep = signature_report(d_mpc=400.0, omega_hz=100.0, alpha=1e-20,
                       m_star=1e-3)
for key, val in asdict(rep).items():
    print(f"  {key}: {val}")

print("\nmemory excess ratio is event-dependent:",
      memory_excess_ratio(0.1, 2.0))
