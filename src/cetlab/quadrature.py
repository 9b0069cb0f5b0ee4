"""Discretization of rho(mu) dmu into positive nodes and weights.

The node set turns the retarded memory operator into a finite sum of
massive mode responses.  Power-law densities get a generalized
Gauss-Laguerre rule built from recurrence coefficients (tridiagonal
eigenvalue form); Lorentzians get composite Gauss-Legendre panels in the
arctan variable, which clusters nodes at the peak and makes the
truncated mass analytic; atomic densities pass through exactly.

Every rule then passes one weight floor: a node of weight at most
eps * l1 (machine epsilon times the total mass) moves no moment sum
beyond round-off but would cost a memory row in the radial solver, so
it is dropped and counted in the report's ``dropped_nodes``; the
32-node rule for rho = mu e^-mu keeps 21 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureConstructionError, ValidationError
from .integrals import leggauss, panel_rule
from .spectral import (DEFAULT_TOL, BreitWigner, DiracComb, PowerLawExp,
                       SpectralConstants, SpectralDensity, _check_tol,
                       spectral_constants)

DEFAULT_N_NODES = 32


@dataclass(frozen=True, eq=False)      # rules compare by identity
class MassQuadrature:
    nodes: np.ndarray
    weights: np.ndarray
    moment_report: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValidationError("nodes and weights must be 1-d and matched")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise QuadratureConstructionError(
                "quadrature-construction-failed: nodes not positive ascending")
        if np.any(weights <= 0):
            raise QuadratureConstructionError(
                "quadrature-construction-failed: nonpositive weight")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size

    def moment(self, p: float) -> float:
        return float(np.sum(self.weights * self.nodes ** p))

    def scaled(self, c: float) -> "MassQuadrature":
        return MassQuadrature(self.nodes, c * self.weights,
                              dict(self.moment_report))


# the rule without nodes: a model with no memory modes.  One shared
# instance, never mutated, so mode-less configurations compare equal
EMPTY_RULE = MassQuadrature(np.zeros(0), np.zeros(0), {"dropped_nodes": 0})


def gauss_laguerre_generalized(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for weight x**beta * exp(-x) on (0, inf).

    Nodes are eigenvalues of the Jacobi matrix with recurrence
    a_k = 2k + 1 + beta, b_k = k (k + beta), zeroth moment Gamma(beta+1):
    numpy's dense eigvalsh up to 64 nodes, scipy's eigh_tridiagonal above,
    the same bits either way.  Weights come from the Christoffel sum over
    the orthonormal recurrence (the eigenvector route underflows for the
    outermost nodes).
    """
    try:
        mu0 = math.gamma(beta + 1.0)
    except OverflowError:           # beta >= 171
        raise QuadratureConstructionError(
            f"quadrature-construction-failed: the zeroth moment "
            f"Gamma(beta + 1) overflows double precision at beta = "
            f"{beta!r}") from None
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + 1.0 + beta
    off = np.sqrt((k[1:]) * (k[1:] + beta))
    try:
        if n <= 64:
            # LAPACK dsyevd is dsytrd + dsterf, and on a tridiagonal matrix
            # every dsytrd reflector has tau = 0: dsterf sees the same
            # (diag, off) as under eigh_tridiagonal and returns the same
            # bits.  The dense solve is O(n^3); median per solve on a
            # 2-core host, dense against tridiagonal: 0.041/0.040 ms at 32
            # nodes, 0.16/0.11 at 64, 0.71/0.34 at 128, 17/4.9 at 512.  Up
            # to 64 the extra is far below what loading scipy.linalg costs
            # (about 0.2 s and 22 MB).
            x = np.linalg.eigvalsh(
                np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        else:
            # Imported here: only rules above 64 nodes need scipy.linalg.
            from scipy.linalg import eigh_tridiagonal
            x = eigh_tridiagonal(diag, off, eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise QuadratureConstructionError(
            "quadrature-construction-failed: eigenvalue solve failed") from exc
    x = np.sort(x)
    # Christoffel weights w_i = 1 / sum_k p_k(x_i)^2 over the orthonormal
    # recurrence; outer nodes overflow the kernel sum and come back 0/NaN,
    # set to 0 here and dropped by build_quadrature's weight floor (their
    # true weights underflow double range).
    with np.errstate(over="ignore", invalid="ignore"):
        p_prev = np.zeros_like(x)
        p_cur = np.full_like(x, 1.0 / math.sqrt(mu0))
        total = p_cur ** 2
        for j in range(n - 1):
            b_next = math.sqrt((j + 1.0) * (j + 1.0 + beta))
            b_prev = math.sqrt(j * (j + beta))
            p_next = ((x - diag[j]) * p_cur - b_prev * p_prev) / b_next
            total += p_next ** 2
            p_prev, p_cur = p_cur, p_next
        w = 1.0 / total
    w = np.where(np.isfinite(w), w, 0.0)
    return x, w


def _build_powerlaw(rho: PowerLawExp, n: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_laguerre_generalized(n, rho.beta)
    return rho.lam * x, rho.alpha * rho.lam ** (rho.beta + 1.0) * w


def _build_breitwigner(rho: BreitWigner, n: int,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    # Truncate (0, inf) so the excluded spectral mass is below tol * l1,
    # half on each side, using the exact arctan mass profile.
    l1 = rho.total_mass
    cut = 0.5 * tol * l1 / rho.alpha
    theta_lo = math.atan(-rho.mu0 / rho.gamma) + cut
    theta_hi = math.pi / 2 - cut
    if not theta_lo < theta_hi:
        raise QuadratureConstructionError(
            "quadrature-construction-failed: empty truncated domain")
    # In theta = arctan((mu-mu0)/gamma) the density integrates flat:
    # int f rho dmu = alpha * int f(mu(theta)) dtheta.
    n_panels = max(1, n // 8)
    k, n_long = divmod(n, n_panels)
    edges = np.linspace(theta_lo, theta_hi, n_panels + 1)
    # the first n % n_panels panels take one node more than the rest
    theta, weights = [], []
    for panel_edges, m in ((edges[:n_long + 1], k + 1), (edges[n_long:], k)):
        t, halfs = panel_rule(panel_edges, m)
        theta.append(t.ravel())
        weights.append((rho.alpha * halfs[:, None] * leggauss(m)[1]).ravel())
    nodes = rho.mu0 + rho.gamma * np.tan(np.concatenate(theta))
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    return nodes[order], weights[order]


# each family's rule (rho, n, tol) -> (nodes, weights)
_RULES = {DiracComb: lambda rho, n, tol: (rho.masses, rho.weights),
          PowerLawExp: _build_powerlaw, BreitWigner: _build_breitwigner}


def build_quadrature(rho: SpectralDensity, n_nodes: int = DEFAULT_N_NODES,
                     tol: float = DEFAULT_TOL) -> MassQuadrature:
    """Discretize rho(mu) dmu into at most 512 positive nodes.

    n_nodes is the size of a continuous family's rule (atoms give one
    node each); nodes whose weight is at most eps * l1, an underflowed
    zero included, are then dropped.
    """
    if not (1 <= n_nodes <= 512):
        raise ValidationError("n_nodes must lie in [1, 512]")
    _check_tol(tol)
    rule = _RULES.get(type(rho))
    if rule is None:
        raise ValidationError(f"unknown density {type(rho).__name__}")
    nodes, weights = rule(rho, n_nodes, tol)
    consts = spectral_constants(rho, min(tol, DEFAULT_TOL))
    keep = weights > np.finfo(float).eps * consts.l1
    quad = MassQuadrature(nodes[keep], weights[keep])
    quad.moment_report.update(validate_moments(quad, consts),
                              dropped_nodes=int(keep.size - keep.sum()))
    return quad


def validate_moments(quad: MassQuadrature,
                     consts: SpectralConstants) -> dict:
    """Relative errors of the p = -1, 0, 1 moments against the constants.

    Moments whose exact value is flagged infinite (or undefined) are
    reported as "moment-undefined" rather than a number.
    """
    exact = {-1: consts.c_m1, 0: consts.l1, 1: consts.c_p1}
    report = {}
    for p, ref in exact.items():
        key = f"p{p:+d}"
        if ref is None or not math.isfinite(ref):
            report[key] = "moment-undefined"
            continue
        approx = quad.moment(p)
        report[key] = abs(approx - ref) / abs(ref)
    return report
