"""Spectral densities and their admissibility conditions.

Three kernel families drive everything else in the library: a power law
with exponential cutoff, a Lorentzian bump, and a finite list of point
masses.  This script computes the five defining integrals for each and
shows which of the admissibility conditions S1..S5 they satisfy,
including the two sharp counterexamples: the flat exponential (infrared
moment diverges) and the atom list (no absolutely continuous part).
"""

import warnings
from dataclasses import asdict

from cetlab import (BreitWigner, DiracComb, PowerLawExp, check_conditions,
                    spectral_constants)


def show(name, rho):
    consts = spectral_constants(rho)
    report = check_conditions(rho, consts)
    print(f"\n{name}")
    for key, val in asdict(consts).items():
        print(f"  {key:8s} = {val}")
    flags = " ".join(f"S{i}={'Y' if getattr(report, f's{i}') else 'n'}"
                     for i in range(1, 6))
    print(f"  {flags}   decay path: {report.decay_path}")
    for msg in report.messages:
        print(f"  note: {msg}")


show("power law, unit parameters (the default kernel)",
     PowerLawExp(1.0, 1.0, 1.0))

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    flat = PowerLawExp(1.0, 0.0, 1.0)
show("flat exponential (sharpness case: no infrared suppression)", flat)

show("Lorentzian bump at mu0=1, width 0.1", BreitWigner(1.0, 0.1, 1.0))

show("two point masses", DiracComb(((0.5, 1.0), (0.25, 4.0))))

print("\nThe Lorentzian's fat tails make both the infrared and")
print("ultraviolet moments log-divergent; the library reports inf for")
print("those instead of a truncation-dependent number.")
