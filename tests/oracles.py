"""Reference computations shared by the tests, independent of the
library's own machinery; the scalar mode scan takes only the scan's
quadrature and constants from it."""

import math

import numpy as np

from cetlab import build_quadrature
from cetlab.dispersion import (SCAN_NODES, SCAN_SEED, StabilityScan,
                               _SCAN_SEEDS, _SCAN_TOL)


def trapezoid_oracle(f, a: float, b: float, panels: int = 1_000_000) -> float:
    """Brute-force trapezoid reference, independent of the panel machinery."""
    x = np.linspace(a, b, panels + 1)
    return float(np.trapezoid(f(x), x))


def _sigma_nodes(quad, omega: complex, k: float) -> complex:
    y = omega * omega - k * k
    return k * k * complex(np.sum(quad.weights / (y + quad.nodes)))


def _sigma_nodes_prime(quad, omega: complex, k: float) -> complex:
    y = omega * omega - k * k
    return -2.0 * omega * k * k * complex(
        np.sum(quad.weights / (y + quad.nodes) ** 2))


@np.errstate(over="ignore", invalid="ignore")
def scalar_mode_scan(rho, k_grid):
    """The dispersion scan one seed at a time with Python complex
    arithmetic: same seeds, steps, tolerances and classification as
    `mode_stability_scan`, whose batched sweep it checks.  It also counts
    each wavenumber's seeds that did not converge."""
    quad = build_quadrature(rho, SCAN_NODES)
    mu_inf = rho.support_min
    l1 = float(np.sum(quad.weights))
    max_im = 0.0
    roots: dict = {}
    rejected: dict = {}
    unconverged: dict = {}
    gaps = []
    for ik, k in enumerate(k_grid):
        k = float(k)
        scale = max(1.0, k * k + l1)
        if k == 0.0:
            # the symbol is z**2 exactly: one start, on its double root 0
            seeds = [0j]
        else:
            rng = np.random.default_rng([SCAN_SEED, ik])
            radius = k + math.sqrt(l1) + 2.0
            seeds = (rng.uniform(-radius, radius, _SCAN_SEEDS)
                     + 1j * rng.uniform(-1.0, 1.0, _SCAN_SEEDS))
        found: list = []
        bad: list = []
        converged_any = False
        failed = 0
        for z0 in seeds:
            z = complex(z0)
            ok = False
            for _ in range(80):
                gz = z * z - k * k - _sigma_nodes(quad, z, k)
                if abs(gz) <= _SCAN_TOL * scale:
                    ok = True
                    break
                gp = 2.0 * z - _sigma_nodes_prime(quad, z, k)
                if gp == 0:
                    break
                step = gz / gp
                # damped update: backtrack until |g| decreases
                lam = 1.0
                for _ in range(25):
                    z_new = z - lam * step
                    g_new = z_new * z_new - k * k - _sigma_nodes(quad, z_new, k)
                    if abs(g_new) < abs(gz):
                        break
                    lam *= 0.5
                else:
                    break
                z = z_new
            if not ok:
                failed += 1
                continue
            converged_any = True
            y_re = (z * z).real - k * k
            if y_re + mu_inf <= 1e-10 * scale:
                if not any(abs(z - r) < 1e-8 for r in bad):
                    bad.append(z)
                continue
            if not any(abs(z - r) < 1e-8 for r in found):
                found.append(z)
                max_im = max(max_im, abs(z.imag))
        if not converged_any:
            gaps.append(k)
        unconverged[k] = failed
        roots[k] = sorted(found, key=lambda z: (z.real, z.imag))
        rejected[k] = sorted(bad, key=lambda z: (z.real, z.imag))
    return StabilityScan(max_im, roots, rejected, tuple(gaps), unconverged)
