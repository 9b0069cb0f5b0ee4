"""Mass-averaged free mode propagator and its 1/t decay mechanism.

The averaged symbol at time t and wavenumber xi is

    T(t, xi) = int rho(mu) sin(t sqrt(xi^2+mu)) / sqrt(xi^2+mu) dmu
             = 2 int_{xi}^inf rho(w^2 - xi^2) sin(t w) dw,

an oscillatory integral in the frequency variable w.  Integrating by
parts once bounds the half-symbol by (rho(0+) + c_prime) / t, which is
the decay this module verifies on a (t, xi) grid.  Atomic densities have
no such mechanism: their symbol is an undamped trigonometric sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import OscillatoryBudgetError, S5RequiredError, ValidationError
from .fitting import fit_loglog
from .integrals import gauss_panels
from .spectral import DiracComb, SpectralConstants, SpectralDensity

DEFAULT_T_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
XI_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
_SYMBOL_TOL = 1e-8
_N_DENSE = 4001     # samples per window of the atomic check

_PANELS_PER_PERIOD = 8
_PANEL_ORDER = 8
_MAX_PANELS = 4_000_000


def _tail_cut(rho: SpectralDensity, tol: float) -> float:
    """Mass mu_cut beyond which the remaining symbol mass is below tol
    at every t and xi: the tail of int rho/sqrt(xi^2+mu) dmu is at most
    the mass above mu_cut over sqrt(mu_cut)."""
    mu_cut = rho.tail_start
    for _ in range(200):
        if rho.mass_above(mu_cut) / math.sqrt(mu_cut) < tol:
            break
        mu_cut *= 1.5
    return mu_cut


def _half_symbol(rho: SpectralDensity, t: float, xi: float,
                 mu_cut: float) -> float:
    """Oscillation-resolved value of int_xi^inf rho(w^2-xi^2) sin(tw) dw,
    cut at the frequency of the mass `mu_cut` (`_tail_cut`)."""
    w_hi = math.sqrt(xi ** 2 + mu_cut)
    width = min((2.0 * math.pi / t) / _PANELS_PER_PERIOD,
                max((w_hi - xi) / 64.0, 1e-12))
    n_panels = int(math.ceil((w_hi - xi) / width))
    if n_panels > _MAX_PANELS:
        raise OscillatoryBudgetError(
            "oscillatory-quadrature-budget: "
            f"{n_panels} panels exceed the budget at t={t}")
    edges = np.linspace(xi, w_hi, n_panels + 1)
    return gauss_panels(lambda w: rho.density(w * w - xi * xi) * np.sin(t * w),
                        edges, _PANEL_ORDER)


def averaged_symbol(rho: SpectralDensity, t: float, xi: float,
                    tol: float = _SYMBOL_TOL) -> float:
    """T(t, xi); exact trigonometric sum for atomic densities.

    The symbol depends on xi only through xi**2, so negative inputs are
    folded onto the positive axis.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    xi = abs(xi)
    if not rho.continuous:
        om = np.sqrt(xi ** 2 + rho.masses)
        return float(np.sum(rho.weights * np.sin(t * om) / om))
    return 2.0 * _half_symbol(rho, t, xi, _tail_cut(rho, tol))


@dataclass(frozen=True)
class AveragingReport:
    t_grid: np.ndarray
    xi_grid: np.ndarray
    symbol: np.ndarray          # shape (len(t_grid), len(xi_grid))
    bound_constant: float       # rho(0+) + c_prime
    worst_ratio: float          # max of t*|half symbol| / bound_constant
    fitted_exponent: float      # decay rate p of sup_xi |T| ~ t^-p
    fit_r_squared: float

    def as_dict(self) -> dict:
        """Every field but the symbol table, which `avg-decay` writes to
        its CSV."""
        d = asdict(self)
        del d["symbol"]
        return d


def decay_bound_check(rho: SpectralDensity,
                      consts: SpectralConstants) -> AveragingReport:
    """Verify t * |half symbol| <= rho(0+) + c_prime on the
    (DEFAULT_T_GRID, XI_GRID) grid, t from 1 to 1e3.

    Also fits the decay exponent of sup_xi |T(t, .)| in log t.  The sup
    over all frequencies rides a ridge at xi ~ t/2; once t exceeds about
    twice the largest grid xi the fixed grid under-samples the sup and
    the apparent rate steepens (a grid artifact, not physics), so the
    fit window is t <= 2 * max(XI_GRID) + 2.
    """
    if not rho.continuous:
        raise S5RequiredError(
            "S5-required: atomic spectra have no averaging decay")
    if consts.c_prime is None or not math.isfinite(consts.c_prime):
        raise S5RequiredError("S5-required: c_prime must be finite")
    t_grid = np.asarray(DEFAULT_T_GRID, dtype=float)
    xi_grid = np.asarray(XI_GRID, dtype=float)
    bound = rho.density_at_zero() + consts.c_prime
    symbol = np.empty((t_grid.size, xi_grid.size))
    worst = 0.0
    mu_cut = _tail_cut(rho, _SYMBOL_TOL)     # the same at every (t, xi)
    for i, t in enumerate(t_grid):
        for j, xi in enumerate(xi_grid):
            half = _half_symbol(rho, float(t), float(xi), mu_cut)
            symbol[i, j] = 2.0 * half
            worst = max(worst, t * abs(half) / bound)
    sup_t = np.max(np.abs(symbol), axis=1)
    fit_t_max = 2.0 * float(xi_grid.max()) + 2.0
    mask = (t_grid <= fit_t_max) & (sup_t > 0)
    slope, _, r2 = fit_loglog(t_grid[mask], sup_t[mask], shift=0.0)
    return AveragingReport(t_grid, xi_grid, symbol, bound, worst,
                           -slope, r2)


def atomic_no_decay_check(rho: DiracComb) -> dict:
    """Late-window (t in [100, 1000]) sup of |T(t, 0)| versus the early
    envelope for atom lists.

    The symbol is an undamped trigonometric sum, so the late sup stays
    at the full envelope; the returned ratio should be near 1.
    """
    if not isinstance(rho, DiracComb):
        raise ValidationError("atomic check needs a DiracComb")
    om = np.sqrt(rho.masses)
    t_early = np.linspace(0.0, 2.0 * math.pi / om.min(), _N_DENSE)[1:]
    t_late = np.linspace(100.0, 1000.0, _N_DENSE)
    def sup_on(ts):
        vals = np.abs(np.sum(
            rho.weights[None, :] * np.sin(np.outer(ts, om)) / om[None, :],
            axis=1))
        return float(vals.max())
    early = sup_on(t_early)
    late = sup_on(t_late)
    return {"early_sup": early, "late_sup": late,
            "ratio": late / early if early > 0 else math.inf}
