"""Linearized self-energy, principal dispersion branch, and mode scan.

The self-energy at frequency omega and wavenumber k is

    Sigma(omega, k^2) = int rho(mu) k^2 / (omega^2 - k^2 + mu) dmu,

defined where the denominator keeps one sign over the spectral support
(always true on the principal branch omega >= k).  The principal branch
solves omega^2 = k^2 + Sigma by bisection; a seeded damped-Newton sweep
over the complex strip |Im omega| <= 1 probes for growing modes, using
the node-discretized symbol, and reports the largest accepted |Im|.

Newton iterates that leave the symbol's validity half-plane
Re(omega^2 - k^2) > -inf(support) are continuation artifacts of the
rational approximation, not mode solutions, and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrincipalValueError, RootBracketError, ValidationError
from .integrals import flagged_integral
from .quadrature import MassQuadrature, build_quadrature
from .spectral import SpectralDensity, spectral_constants

DEFAULT_K_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
SCAN_SEED = 411
SCAN_NODES = 64
_SCAN_SEEDS = 32    # Newton starts per wavenumber
_SCAN_TOL = 1e-11   # |g| at a root, relative to max(1, k^2 + l1)


@dataclass(frozen=True)
class DispersionPoint:
    k: float
    omega: float
    sigma: float
    residual: float


def self_energy(rho: SpectralDensity, omega: float, k: float,
                tol: float = 1e-10) -> float:
    """Sigma(omega, k^2) on the real axis."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k == 0.0:
        return 0.0
    y = omega * omega - k * k
    if not rho.continuous:
        dens = y + rho.masses
        if np.any(dens == 0.0) or (np.any(dens > 0) and np.any(dens < 0)):
            raise PrincipalValueError(
                "principal-value-not-supported: denominator changes sign "
                "across the atoms")
        return float(k * k * np.sum(rho.weights / dens))
    if y <= 0.0 and -y < math.inf:
        # continuous support is (0, inf): any y < 0 puts a pole inside it
        if y < 0.0:
            raise PrincipalValueError(
                "principal-value-not-supported: pole at mu = "
                f"{-y:.6g} inside the support")
    edges = rho.core_edges()
    # k*k overflows for k beyond ~1e154; the integral then fails its
    # budget with a coded error, and numpy's warning would only add noise.
    with np.errstate(over="ignore"):
        return flagged_integral(lambda mu: rho.density(mu) * k * k / (y + mu),
                                edges, tol)


def _sigma_nodes(quad: MassQuadrature, omega: complex, k: float) -> complex:
    y = omega * omega - k * k
    return k * k * complex(np.sum(quad.weights / (y + quad.nodes)))


def _sigma_nodes_prime(quad: MassQuadrature, omega: complex, k: float) -> complex:
    y = omega * omega - k * k
    return -2.0 * omega * k * k * complex(
        np.sum(quad.weights / (y + quad.nodes) ** 2))


def solve_branch(rho: SpectralDensity, k: float,
                 tol: float = 1e-10) -> DispersionPoint:
    """Principal branch root of g(omega) = omega^2 - k^2 - Sigma(omega).

    g is strictly increasing on omega > k, negative at omega = k+ and
    positive at the documented bracket end sqrt(k^2 + l1) + k + 1 (there
    Sigma <= l1 k^2/(omega^2-k^2) < omega^2 - k^2), so bisection applies.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k == 0.0:
        return DispersionPoint(0.0, 0.0, 0.0, 0.0)
    consts = spectral_constants(rho)
    if not consts.finite("l1"):
        raise ValidationError("solve_branch requires finite total mass (S2)")

    def g(om: float) -> float:
        return om * om - k * k - self_energy(rho, om, k, tol=min(tol, 1e-10))

    lo = k
    hi = math.sqrt(k * k + consts.l1) + k + 1.0
    glo, ghi = g(lo), g(hi)
    if not (glo < 0.0 < ghi):
        raise RootBracketError(
            f"root-bracket-failed: g({lo:.6g})={glo:.6g}, "
            f"g({hi:.6g})={ghi:.6g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, hi) and abs(gm) <= tol:
            break
    omega = 0.5 * (lo + hi)
    sigma = self_energy(rho, omega, k, tol=min(tol, 1e-10))
    return DispersionPoint(k, omega, sigma, abs(omega * omega - k * k - sigma))


@dataclass(frozen=True)
class StabilityScan:
    max_im: float
    roots: dict = field(default_factory=dict)      # k -> list of complex roots
    rejected: dict = field(default_factory=dict)   # continuation artifacts
    gaps: tuple = ()


# For k beyond ~1e154 or huge weights the symbol overflows; a nonfinite
# g never passes the tolerance or the backtracking test, so the seed is
# dropped, and numpy's warnings would only add noise.  One errstate for
# the whole scan: entering one per symbol call costs a third of the call.
@np.errstate(over="ignore", invalid="ignore")
def mode_stability_scan(rho: SpectralDensity,
                        k_grid=DEFAULT_K_GRID) -> StabilityScan:
    """Damped complex Newton sweep for dispersion roots off the real axis."""
    quad = build_quadrature(rho, SCAN_NODES)   # atoms pass through exactly
    mu_inf = rho.support_min
    l1 = float(np.sum(quad.weights))
    max_im = 0.0
    roots: dict = {}
    rejected: dict = {}
    gaps = []
    for ik, k in enumerate(k_grid):
        k = float(k)
        scale = max(1.0, k * k + l1)
        rng = np.random.default_rng([SCAN_SEED, ik])
        radius = k + math.sqrt(l1) + 2.0
        seeds = (rng.uniform(-radius, radius, _SCAN_SEEDS)
                 + 1j * rng.uniform(-1.0, 1.0, _SCAN_SEEDS))
        found: list[complex] = []
        bad: list[complex] = []
        converged_any = False
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
        roots[k] = sorted(found, key=lambda z: (z.real, z.imag))
        rejected[k] = sorted(bad, key=lambda z: (z.real, z.imag))
    return StabilityScan(max_im, roots, rejected, tuple(gaps))


def one_atom_root(alpha: float, mu1: float, k: float) -> float:
    """Closed-form principal root for a single atom (oracle)."""
    y = 0.5 * (-mu1 + math.sqrt(mu1 * mu1 + 4.0 * alpha * k * k))
    return math.sqrt(k * k + y)
