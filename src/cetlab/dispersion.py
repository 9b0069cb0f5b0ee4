"""Linearized self-energy, principal dispersion branch, and mode scan.

The self-energy at frequency omega and wavenumber k is

    Sigma(omega, k^2) = int rho(mu) k^2 / (omega^2 - k^2 + mu) dmu,

defined where the denominator keeps one sign over the spectral support
(always true on the principal branch omega >= k).  The principal branch
solves omega^2 = k^2 + Sigma by bisection.  A batched damped Newton
sweep over the complex strip |Im omega| <= 1 probes for growing modes,
using the node-discretized symbol, and reports the largest accepted
|Im|.  It iterates every seed of every wavenumber as one array; against
the scalar seed-by-seed loop it finds the same root, rejected and gap
counts, each root within 1e-13 max(1, |omega|) and the largest |Im|
within 1e-15 (tests/oracles.py holds that loop).

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
from .spectral import DEFAULT_TOL, SpectralDensity, spectral_constants

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


def _require_wavenumber(k) -> float:
    k = float(k)
    if not math.isfinite(k):
        raise ValidationError("k must be finite")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return k


def self_energy(rho: SpectralDensity, omega: float, k: float,
                tol: float = DEFAULT_TOL) -> float:
    """Sigma(omega, k^2) on the real axis."""
    k = _require_wavenumber(k)
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


def solve_branch(rho: SpectralDensity, k: float,
                 tol: float = DEFAULT_TOL) -> DispersionPoint:
    """Principal branch root of g(omega) = omega^2 - k^2 - Sigma(omega).

    g is strictly increasing on omega > k, negative at omega = k+ and
    positive at the documented bracket end sqrt(k^2 + l1) + k + 1 (there
    Sigma <= l1 k^2/(omega^2-k^2) < omega^2 - k^2), so bisection applies.
    """
    k = _require_wavenumber(k)
    if k == 0.0:
        return DispersionPoint(0.0, 0.0, 0.0, 0.0)
    consts = spectral_constants(rho)
    if not consts.finite("l1"):
        raise ValidationError("solve_branch requires finite total mass (S2)")

    sigma_tol = min(tol, DEFAULT_TOL)

    def g(om: float) -> float:
        return om * om - k * k - self_energy(rho, om, k, tol=sigma_tol)

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
    sigma = self_energy(rho, omega, k, tol=sigma_tol)
    return DispersionPoint(k, omega, sigma, abs(omega * omega - k * k - sigma))


@dataclass(frozen=True)
class StabilityScan:
    max_im: float
    roots: dict = field(default_factory=dict)      # k -> list of complex roots
    rejected: dict = field(default_factory=dict)   # continuation artifacts
    gaps: tuple = ()
    unconverged: dict = field(default_factory=dict)  # k -> failed seeds

    def counts(self) -> list:
        """Per wavenumber: accepted roots, rejected continuation
        artifacts and seeds that did not converge."""
        return [{"k": k, "roots": len(self.roots[k]),
                 "rejected": len(self.rejected[k]),
                 "unconverged": self.unconverged[k]} for k in self.roots]


def _symbol(quad: MassQuadrature, z: np.ndarray, k2: np.ndarray,
            prime: bool = False):
    """g = z^2 - k^2 - Sigma(z, k^2) on the nodes for each seed z, with
    g' = 2z (1 + k^2 sum w/(y + mu)^2) if `prime`; y = z^2 - k^2."""
    y = z * z - k2
    den = y[:, None] + quad.nodes
    g = y - k2 * (quad.weights / den).sum(axis=1)
    if not prime:
        return g
    return g, 2.0 * z * (1.0 + k2 * (quad.weights / (den * den)).sum(axis=1))


def _newton_sweep(quad: MassQuadrature, z: np.ndarray, k2: np.ndarray,
                  tol: np.ndarray) -> np.ndarray:
    """Damped Newton on every seed at once: at most 80 steps, each
    backtracked by at most 25 halvings until |g| decreases.  `z` is
    updated in place; returns the mask of seeds with |g| <= tol."""
    ok = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    for _ in range(80):
        if live.size == 0:
            break
        g, gp = _symbol(quad, z[live], k2[live], prime=True)
        ag = np.abs(g)
        done = ag <= tol[live]
        ok[live[done]] = True
        # a zero derivative ends its seed before any division
        keep = ~done & (gp != 0)
        live, ag = live[keep], ag[keep]
        step = g[keep] / gp[keep]
        accepted = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)
        lam = 1.0
        for _ in range(25):
            if pending.size == 0:
                break
            idx = live[pending]
            trial = z[idx] - lam * step[pending]
            better = np.abs(_symbol(quad, trial, k2[idx])) < ag[pending]
            z[idx[better]] = trial[better]
            accepted[pending[better]] = True
            pending = pending[~better]
            lam *= 0.5
        # a seed not accepted after the last halving fails
        live = live[accepted]
    return ok


# For k beyond ~1e154 or huge weights the symbol overflows; a nonfinite
# g never passes the tolerance or the backtracking test, so the seed is
# dropped, and numpy's warnings would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def mode_stability_scan(rho: SpectralDensity,
                        k_grid=DEFAULT_K_GRID) -> StabilityScan:
    """Batched damped complex Newton sweep for dispersion roots off the
    real axis: every seed of every wavenumber in one array iteration."""
    ks = [_require_wavenumber(k) for k in k_grid]
    quad = build_quadrature(rho, SCAN_NODES)   # atoms pass through exactly
    mu_inf = rho.support_min
    l1 = float(np.sum(quad.weights))
    n = _SCAN_SEEDS
    # at k = 0 the symbol is z**2 exactly (Sigma carries k**2): its double
    # root 0, which Newton reaches only linearly, is recorded unseeded
    converged = {ik: [0j] for ik, k in enumerate(ks) if k == 0.0}
    unconverged = {k: 0 for k in ks if k == 0.0}
    seeded = [ik for ik in range(len(ks)) if ik not in converged]
    z = np.empty(len(seeded) * n, dtype=complex)
    for i, ik in enumerate(seeded):
        rng = np.random.default_rng([SCAN_SEED, ik])
        radius = ks[ik] + math.sqrt(l1) + 2.0
        z[i * n:(i + 1) * n] = (rng.uniform(-radius, radius, n)
                                + 1j * rng.uniform(-1.0, 1.0, n))
    scales = [max(1.0, k * k + l1) for k in ks]
    ok = _newton_sweep(quad, z,
                       np.repeat([ks[ik] * ks[ik] for ik in seeded], n),
                       _SCAN_TOL * np.repeat([scales[ik] for ik in seeded], n))
    for i, ik in enumerate(seeded):
        seeds = slice(i * n, (i + 1) * n)
        converged[ik] = z[seeds][ok[seeds]].tolist()
        unconverged[ks[ik]] = n - len(converged[ik])
    max_im = 0.0
    roots: dict = {}
    rejected: dict = {}
    gaps = []
    for ik, (k, scale) in enumerate(zip(ks, scales)):
        found: list[complex] = []
        bad: list[complex] = []
        for z_root in converged[ik]:
            y_re = (z_root * z_root).real - k * k
            if y_re + mu_inf <= 1e-10 * scale:
                if not any(abs(z_root - r) < 1e-8 for r in bad):
                    bad.append(z_root)
                continue
            if not any(abs(z_root - r) < 1e-8 for r in found):
                found.append(z_root)
                max_im = max(max_im, abs(z_root.imag))
        if not converged[ik]:
            gaps.append(k)
        roots[k] = sorted(found, key=lambda z: (z.real, z.imag))
        rejected[k] = sorted(bad, key=lambda z: (z.real, z.imag))
    return StabilityScan(max_im, roots, rejected, tuple(gaps), unconverged)


def one_atom_root(alpha: float, mu1: float, k: float) -> float:
    """Closed-form principal root for a single atom (oracle)."""
    y = 0.5 * (-mu1 + math.sqrt(mu1 * mu1 + 4.0 * alpha * k * k))
    return math.sqrt(k * k + y)
