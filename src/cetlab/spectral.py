"""Spectral densities rho(mu), their defining integrals, and admissibility.

Three families are supported: a power law with exponential cutoff
``alpha * mu**beta * exp(-mu/lam)``, a Lorentzian (Breit-Wigner) bump,
and a finite list of point masses.  The five constants

    l1      = int rho dmu
    c_m1    = int rho / mu dmu          (infrared moment)
    c_p1    = int mu * rho dmu          (ultraviolet moment)
    c_prime = int |rho'| dmu            (total variation)
    c_mhalf = int rho / sqrt(mu) dmu

are computed in closed form where one exists and by flagged adaptive
quadrature otherwise; divergent integrals come back as +inf, never as a
silently truncated number.

Each family class owns its numerics: name, parameters, support and
constants, and for the continuous ones rho(0+), panel edges, |rho'| and
upper-tail mass; other modules ask the class, never test which it is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import gamma as gamma_fn
from typing import Union

import numpy as np

from .errors import ValidationError
from .integrals import flagged_integral

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class PowerLawExp:
    """rho(mu) = alpha * mu**beta * exp(-mu / lam), defined for mu > 0.

    beta = 0 is admitted only as the sharpness case for the infrared
    moment (c_m1 diverges there); construction emits a warning.
    """

    alpha: float
    beta: float
    lam: float
    family = "powerlaw"
    params = ("alpha", "beta", "lambda")
    continuous = True
    support_min = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.lam > 0):
            raise ValidationError("powerlaw requires alpha > 0 and lambda > 0")
        if self.beta < 0:
            raise ValidationError("powerlaw requires beta >= 0")
        if self.beta == 0:
            warnings.warn(
                "beta = 0 has a divergent infrared moment (c_m1 = +inf); "
                "admitted only as a sharpness case",
                stacklevel=2)
        try:
            c = self.constants(DEFAULT_TOL)
            consts = (c.l1, c.c_p1, c.c_prime, c.c_mhalf) \
                + ((c.c_m1,) if self.beta > 0 else ())
            representable = all(0.0 < v < math.inf for v in consts)
        except OverflowError:
            representable = False
        if not representable:
            raise ValidationError("powerlaw constants overflow or underflow "
                                  "double precision")

    def density(self, mu):
        mu = np.asarray(mu, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.alpha * mu ** self.beta * np.exp(-mu / self.lam)
        return np.where(mu < 0, 0.0, out)

    def density_at_zero(self) -> float:
        """rho(0+)."""
        return self.alpha if self.beta == 0 else 0.0

    def abs_derivative(self, mu):
        """|rho'(mu)|."""
        return np.abs(self.alpha * np.exp(-mu / self.lam)
                      * (self.beta * mu ** (self.beta - 1.0)
                         - mu ** self.beta / self.lam))

    def core_edges(self) -> np.ndarray:
        """Panel edges over the bulk of rho, geometric in mu."""
        lo, hi = self.lam * 1e-3, self.lam * 80.0
        return np.array(sorted(set(np.geomspace(lo, hi, 48)) | {lo, hi}))

    def variation_edges(self) -> np.ndarray:
        """`core_edges` plus the peak beta*lam, where |rho'| has a kink."""
        edges, kink = self.core_edges(), self.beta * self.lam
        return np.union1d(edges, [kink]) if edges[0] < kink < edges[-1] \
            else edges

    @property
    def tail_start(self) -> float:
        """Where the search for a negligible upper tail starts."""
        return self.lam

    def mass_above(self, mu: float) -> float:
        """Exact integral of the density over (mu, inf)."""
        # Imported here: only the averaging tail search needs scipy.special.
        from scipy.special import gammaincc
        return (self.alpha * self.lam ** (self.beta + 1)
                * math.gamma(self.beta + 1)
                * gammaincc(self.beta + 1, mu / self.lam))

    def constants(self, tol: float) -> SpectralConstants:
        """Closed forms; `tol` is not needed."""
        a, b, lam = self.alpha, self.beta, self.lam
        l1 = a * lam ** (b + 1) * gamma_fn(b + 1)
        c_m1 = math.inf if b == 0 else a * lam ** b * gamma_fn(b)
        c_p1 = a * lam ** (b + 2) * gamma_fn(b + 2)
        c_mhalf = a * lam ** (b + 0.5) * gamma_fn(b + 0.5)
        # |rho'| integrates to 2*rho(peak) - rho(0+); the peak sits at
        # mu = b*lam.
        peak = a * (b * lam) ** b * math.exp(-b)
        c_prime = 2.0 * peak - (a if b == 0 else 0.0)
        return SpectralConstants(l1, c_m1, c_p1, c_prime, c_mhalf)


@dataclass(frozen=True)
class BreitWigner:
    """rho(mu) = alpha * gamma / ((mu - mu0)**2 + gamma**2) on mu > 0."""

    alpha: float
    gamma: float
    mu0: float
    family = "breitwigner"
    params = ("alpha", "gamma", "mu0")
    continuous = True
    support_min = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0 and self.mu0 > 0):
            raise ValidationError("breitwigner requires positive parameters")
        if not self.mu0 > self.gamma:
            raise ValidationError("breitwigner requires mu0 > gamma")
        if not math.isfinite(self.mu0 * self.mu0 + self.gamma * self.gamma):
            raise ValidationError("breitwigner mu0**2 + gamma**2 overflows "
                                  "double precision")

    def density(self, mu):
        mu = np.asarray(mu, dtype=float)
        # far from mu0 the square may overflow; the density is then 0
        with np.errstate(over="ignore"):
            out = self.alpha * self.gamma / ((mu - self.mu0) ** 2
                                             + self.gamma ** 2)
        return np.where(mu < 0, 0.0, out)

    def density_at_zero(self) -> float:
        """rho(0+)."""
        return self.alpha * self.gamma / (self.mu0 ** 2 + self.gamma ** 2)

    def abs_derivative(self, mu):
        """|rho'(mu)|."""
        g, m0 = self.gamma, self.mu0
        with np.errstate(over="ignore"):    # as in density
            return np.abs(-2.0 * self.alpha * g * (mu - m0)
                          / ((mu - m0) ** 2 + g ** 2) ** 2)

    def core_edges(self) -> np.ndarray:
        """Panel edges refining dyadically toward the peak mu0."""
        g, m0 = self.gamma, self.mu0
        lo = max(m0 / 64.0, 1e-6 * g)
        hi = m0 + 512.0 * g
        edges = {lo, hi, m0}
        j = -2.0
        while g * 2.0 ** j < hi - m0:
            for s in (-1.0, 1.0):
                e = m0 + s * g * 2.0 ** j
                if lo < e < hi:
                    edges.add(e)
            j += 1.0
        return np.array(sorted(edges))

    # mu0, where |rho'| has its kink, is already a core edge
    variation_edges = core_edges

    @property
    def tail_start(self) -> float:
        """Where the search for a negligible upper tail starts."""
        return self.mu0 + 4.0 * self.gamma

    def mass_above(self, mu: float) -> float:
        """Exact integral of the density over (mu, inf)."""
        return self.alpha * (math.pi / 2
                             - math.atan((mu - self.mu0) / self.gamma))

    @property
    def total_mass(self) -> float:
        return self.alpha * (math.pi / 2 + math.atan(self.mu0 / self.gamma))

    def constants(self, tol: float) -> SpectralConstants:
        """Flagged quadrature: `adaptive_constants`."""
        return adaptive_constants(self, tol)


@dataclass(frozen=True)
class DiracComb:
    """Finite atom list [(alpha_j, mu_j)], mu_j strictly increasing."""

    atoms: tuple
    family = "diraccomb"
    params = ("atoms",)
    continuous = False

    def __post_init__(self):
        atoms = tuple((float(a), float(m)) for a, m in self.atoms)
        if not atoms:
            raise ValidationError("diraccomb requires at least one atom")
        for a, m in atoms:
            if not (a > 0 and m > 0):
                raise ValidationError("atom weights and masses must be positive")
        masses = [m for _, m in atoms]
        if any(m2 <= m1 for m1, m2 in zip(masses, masses[1:])):
            raise ValidationError("atom masses must be strictly increasing")
        object.__setattr__(self, "atoms", atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    @property
    def support_min(self) -> float:
        return float(self.masses[0])

    def constants(self, tol: float) -> SpectralConstants:
        """Sums over the atoms; `tol` is not needed.  A sum past double
        precision is an honest inf."""
        w, m = self.weights, self.masses
        with np.errstate(over="ignore"):
            return SpectralConstants(
                l1=float(np.sum(w)),
                c_m1=float(np.sum(w / m)),
                c_p1=float(np.sum(w * m)),
                c_prime=None,
                c_mhalf=float(np.sum(w / np.sqrt(m))))


SpectralDensity = Union[PowerLawExp, BreitWigner, DiracComb]


@dataclass(frozen=True)
class SpectralConstants:
    """The tuple of defining integrals; +inf marks divergence.

    c_prime is None for atomic densities (total variation undefined).
    """

    l1: float
    c_m1: float
    c_p1: float
    c_prime: float | None
    c_mhalf: float

    def finite(self, name: str) -> bool:
        v = getattr(self, name)
        return v is not None and math.isfinite(v)


def adaptive_constants(rho: SpectralDensity,
                       tol: float = DEFAULT_TOL) -> SpectralConstants:
    """The constants of a continuous family by flagged quadrature alone,
    the reference the power law's closed forms are checked against."""
    if not rho.continuous:
        raise ValidationError("adaptive constants need a continuous family")
    edges = rho.variation_edges()
    d = rho.density

    def moment(p):
        return flagged_integral(lambda mu: d(mu) * mu ** p, edges, tol)

    return SpectralConstants(
        l1=moment(0.0), c_m1=moment(-1.0), c_p1=moment(1.0),
        c_prime=flagged_integral(rho.abs_derivative, edges, tol),
        c_mhalf=moment(-0.5))


def spectral_constants(rho: SpectralDensity,
                       tol: float = DEFAULT_TOL) -> SpectralConstants:
    """Compute (l1, c_m1, c_p1, c_prime, c_mhalf) for a spectral density:
    sums over atoms, closed forms for the power law, and
    `adaptive_constants` for the Lorentzian."""
    _check_tol(tol)
    return rho.constants(tol)


def _check_tol(tol: float) -> None:
    if not (0.0 < tol <= 1e-4):
        raise ValidationError("tol must lie in (0, 1e-4]")


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the five admissibility conditions plus diagnostics."""

    s1: bool
    s2: bool
    s3: bool
    s4: bool
    s5: bool
    messages: tuple
    decay_path: str  # "spectral-averaging" or "discrete-spectrum"

    @property
    def all_hold(self) -> bool:
        return self.s1 and self.s2 and self.s3 and self.s4 and self.s5


def check_conditions(rho: SpectralDensity,
                     consts: SpectralConstants) -> ConditionReport:
    """Decide S1..S5 from the computed constants.

    S1 (nonnegativity) is structural for every representable density.
    S5 additionally requires local absolute continuity, which atomic
    densities lack regardless of any total-variation number.
    """
    msgs = []
    s1 = True
    s2 = consts.finite("l1")
    s3 = consts.finite("c_m1")
    s4 = consts.finite("c_p1")
    continuous = rho.continuous
    s5 = continuous and consts.finite("c_prime")
    if not s2:
        msgs.append("S2 fails: total spectral mass diverges")
    if not s3:
        msgs.append("S3 fails: infrared moment int rho/mu diverges "
                    "(density does not vanish fast enough at mu=0)")
    if not s4:
        msgs.append("S4 fails: ultraviolet moment int mu*rho diverges")
    if not s5:
        if continuous:
            msgs.append("S5 fails: |rho'| is not integrable")
        else:
            msgs.append("S5 fails: atomic density is not absolutely "
                        "continuous; mass-averaging decay is unavailable")
    path = "spectral-averaging" if s5 else "discrete-spectrum"
    return ConditionReport(s1, s2, s3, s4, s5, tuple(msgs), path)
