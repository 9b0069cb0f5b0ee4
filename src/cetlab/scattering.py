"""Post-processing: persistent memory, scattering residuals, decay fits.

The memory-corrected field v = u - Phi obeys the local-only wave
equation, so its Cauchy residual between two late times measures how
fast the solution settles onto free-plus-profile form.  Two free
evolutions of v are available: the same discrete operator with sources
off (default; the linear parts then cancel exactly and the residual is
the accumulated local forcing), and the closed-form d'Alembert formula
on the odd extension with linear interpolation (kept for cross-checks;
its scheme-dispersion mismatch floors the residual at second order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InsufficientSamplesError, MemoryBelowNoiseError,
                     SnapshotUnavailableError, ValidationError)
from .fitting import fit_loglog
from .radial import FieldState, Grid, RunOutput, _rk4_step, _Workspace


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    amplitude: float
    r_squared: float
    window: tuple
    # (t, value) pairs behind the fit where they are costly to recompute
    # (scattering_residual_fit); not part of as_dict
    points: tuple = ()

    def as_dict(self) -> dict:
        return {"exponent": self.exponent, "amplitude": self.amplitude,
                "r_squared": self.r_squared, "window": list(self.window)}


def decay_fit(series, window) -> DecayFit:
    """Least-squares power-law fit value ~ A (1+t)^p inside the window."""
    t = np.array([p[0] for p in series], dtype=float)
    v = np.array([p[1] for p in series], dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & (v > 0)
    if int(mask.sum()) < 8:
        raise InsufficientSamplesError(
            f"insufficient-samples: {int(mask.sum())} positive samples in "
            f"window [{lo}, {hi}], need >= 8")
    slope, amp, r2 = fit_loglog(t[mask], v[mask])
    return DecayFit(slope, amp, r2, (float(lo), float(hi)))


@dataclass(frozen=True)
class MemoryLimitReport:
    m_inf_profile: np.ndarray
    m_inf_norm: float
    residual_fit: DecayFit
    observation_radius: float
    beat_period: float


def _l2_r2(grid: Grid, g: np.ndarray, r_cut: float | None = None) -> float:
    r = grid.r
    w = g * g * r * r
    if r_cut is not None:
        w = np.where(r <= r_cut, w, 0.0)
    return math.sqrt(float(np.trapezoid(w, dx=grid.dr)))


def memory_limit(run: RunOutput) -> MemoryLimitReport:
    """Late-time memory profile and the decay of the approach to it.

    The profile is the time average of M(t, .) over the final tenth of
    the run.  The residual ||M(t) - M_inf|| is measured on a fixed
    observation ball around the data region (the global norm never
    decays: it rides the outgoing massive shells) and fitted on the
    second half of the run.  With a finite node set the local residual
    is quasi-periodic below the node-beat envelope; the report carries
    the shortest beat period so callers can judge the fit window.
    """
    if not run.completed:
        raise ValidationError("memory limit needs a completed run")
    t = run.profile_times
    if t.size < 20:
        raise InsufficientSamplesError("insufficient-samples: too few "
                                       "recorded memory profiles")
    noise = 10.0 * np.finfo(float).eps * max(run.cfg.epsilon, 1.0)
    mem_norms = np.array([_l2_r2(run.grid, m) for m in run.m_profiles])
    if float(mem_norms.max()) < noise:
        raise MemoryBelowNoiseError(
            "memory-below-noise: memory term never rose above "
            f"{noise:.3e}")
    t_end = t[-1]
    tail = t >= 0.9 * t_end
    m_inf = run.m_profiles[tail].mean(axis=0)
    m_inf_norm = _l2_r2(run.grid, m_inf)
    r_obs = run.cfg.support_radius + 10.0
    beat = math.inf
    if run.cfg.quad is not None and len(run.cfg.quad) > 1:
        om = np.sqrt(run.cfg.quad.nodes)
        beat = 2.0 * math.pi / float(np.min(np.diff(om)))
    second_half = (t >= 0.5 * t_end) & (t < 0.9 * t_end)
    resid = [(float(tt), _l2_r2(run.grid, run.m_profiles[i] - m_inf, r_obs))
             for i, tt in enumerate(t) if second_half[i]]
    fit = decay_fit(resid, (0.5 * t_end, 0.9 * t_end))
    return MemoryLimitReport(m_inf, m_inf_norm, fit, r_obs, beat)


def _free_evolve_discrete(run: RunOutput, W: np.ndarray, W_dot: np.ndarray,
                          n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    free_cfg = replace(run.cfg, a_null=0.0, b_bad=0.0, c_grad=0.0,
                       d_quad=0.0, quad=None, n2_override=None)
    ws = _Workspace(free_cfg, run.grid)
    zero = np.zeros_like(W)
    st = FieldState(0.0, np.stack([W, zero]), np.stack([W_dot, zero]))
    for _ in range(n_steps):
        st = _rk4_step(ws, st, run.dt)
    return st.V, st.V_dot


def _odd_interp(grid_r: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear interpolation of the odd extension of g at points s."""
    return np.sign(s) * np.interp(np.abs(s), grid_r, g, left=0.0, right=0.0)


def _even_interp(grid_r: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.interp(np.abs(s), grid_r, g, left=0.0, right=0.0)


def _free_evolve_dalembert(run: RunOutput, W: np.ndarray, W_dot: np.ndarray,
                           delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form line evolution of the odd extensions of (W, W_dot).

    W(d, s)  = [W~(s+d) + W~(s-d)]/2 + [A(s+d) - A(s-d)]/2
    W'(d, s) = [W~'(s+d) - W~'(s-d)]/2 + [W_dot~(s+d) + W_dot~(s-d)]/2
    with A the (even) antiderivative of the odd extension of W_dot.
    """
    grid = run.grid
    r = grid.r
    anti = np.concatenate(([0.0], np.cumsum(
        0.5 * (W_dot[1:] + W_dot[:-1]) * grid.dr)))

    def anti_even(s):
        return np.interp(np.abs(s), r, anti, left=0.0, right=float(anti[-1]))

    Wr = np.gradient(W, grid.dr)  # derivative of the odd extension is even
    W2 = 0.5 * (_odd_interp(r, W, r + delta) + _odd_interp(r, W, r - delta)) \
        + 0.5 * (anti_even(r + delta) - anti_even(r - delta))
    W2_dot = 0.5 * (_even_interp(r, Wr, r + delta)
                    - _even_interp(r, Wr, r - delta)) \
        + 0.5 * (_odd_interp(r, W_dot, r + delta)
                 + _odd_interp(r, W_dot, r - delta))
    return W2, W2_dot


def scattering_residual(run: RunOutput, t1: float, t2: float,
                        method: str = "discrete") -> float:
    """Energy-norm Cauchy residual of v = u - Phi between t1 and t2.

    Needs snapshots at both times.  method="discrete" re-evolves v with
    the run's own linear operator (sources off); method="dalembert" uses
    the closed-form formula with linear interpolation.
    """
    t_end = run.records[-1].t
    if not (t2 > t1 > 0.0) or t2 < t_end / 4.0 - 1e-9:
        raise ValidationError("need t2 > t1 > 0 with t2 >= t_final/4")
    for ts in (t1, t2):
        if ts not in run.snapshots:
            raise SnapshotUnavailableError(
                f"snapshot-unavailable: no snapshot at t={ts}")
    s1, s2 = run.snapshots[t1], run.snapshots[t2]
    W1 = s1["V"] - s1["P"]
    W1d = s1["V_dot"] - s1["P_dot"]
    W2_run = s2["V"] - s2["P"]
    W2d_run = s2["V_dot"] - s2["P_dot"]
    if method == "discrete":
        n_steps = int(round((s2["t"] - s1["t"]) / run.dt))
        W2, W2d = _free_evolve_discrete(run, W1, W1d, n_steps)
    elif method == "dalembert":
        W2, W2d = _free_evolve_dalembert(run, W1, W1d, s2["t"] - s1["t"])
    else:
        raise ValidationError(f"unknown method '{method}'")
    dW = W2 - W2_run
    dWd = W2d - W2d_run
    dWr = np.gradient(dW, run.grid.dr)
    return math.sqrt(float(np.trapezoid(dWd ** 2 + dWr ** 2,
                                        dx=run.grid.dr)))


def scattering_residual_fit(run: RunOutput, t_list,
                            method: str = "discrete") -> DecayFit:
    """Fit of D(t, 2t) ~ (1+t)^p over the given base times."""
    pts = [(float(t), scattering_residual(run, float(t), 2.0 * float(t),
                                          method=method))
           for t in t_list]
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0):
        raise InsufficientSamplesError("insufficient-samples: nonpositive "
                                       "residuals cannot be fitted")
    slope, amp, r2 = fit_loglog(t, v)
    return DecayFit(slope, amp, r2, (float(t.min()), float(t.max())),
                    tuple(pts))
