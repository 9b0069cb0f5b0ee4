"""Post-processing: persistent memory, scattering residuals, decay fits.

The memory-corrected field v = u - Phi obeys the local-only wave
equation, so its Cauchy residual between two late times measures how
fast the solution settles onto free-plus-profile form.  v is re-evolved
with the run's own discrete operator, sources off, so the linear parts
cancel exactly and the residual is the accumulated local forcing.  The
type-I sine transform diagonalizes that operator, so any number of RK4
steps is applied exactly by one transform pair and a power of each
mode's RK4 amplification factor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (InsufficientSamplesError, MemoryBelowNoiseError,
                     SnapshotUnavailableError, ValidationError)
from .fitting import fit_loglog
from .radial import Grid, RunOutput
from .resolvent import _unit_step

# the base times t of the D(t, 2t) fit that criterion 9 pins and
# `cetlab scatter` uses by default
DEFAULT_RESIDUAL_TIMES = (25.0, 50.0, 100.0)


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
        d = asdict(self)
        del d["points"]
        return d


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
    # the profiles averaged into m_inf: first and last time, and count
    m_inf_window: dict


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
    the shortest beat period and the averaging window so callers can
    judge both windows against the beat.
    """
    if not run.completed:
        raise ValidationError("memory limit needs a completed run")
    t = run.series("t")
    if t.size < 20:
        raise InsufficientSamplesError("insufficient-samples: too few "
                                       "recorded memory profiles")
    noise = 10.0 * np.finfo(float).eps * max(run.cfg.epsilon, 1.0)
    if float(run.series("mem_norm").max()) < noise:
        raise MemoryBelowNoiseError(
            "memory-below-noise: memory term never rose above "
            f"{noise:.3e}")
    t_end = t[-1]
    tail = t >= 0.9 * t_end
    m_inf = run.m_profiles[tail].mean(axis=0)
    window = {"t_first": float(t[tail][0]), "t_last": float(t_end),
              "n_profiles": int(tail.sum())}
    m_inf_norm = _l2_r2(run.grid, m_inf)
    r_obs = run.cfg.support_radius + 10.0
    beat = math.inf
    if len(run.cfg.quad) > 1:
        om = np.sqrt(run.cfg.quad.nodes)
        beat = 2.0 * math.pi / float(np.min(np.diff(om)))
    second_half = (t >= 0.5 * t_end) & (t < 0.9 * t_end)
    resid = [(float(tt), _l2_r2(run.grid, run.m_profiles[i] - m_inf, r_obs))
             for i, tt in enumerate(t) if second_half[i]]
    fit = decay_fit(resid, (0.5 * t_end, 0.9 * t_end))
    return MemoryLimitReport(m_inf, m_inf_norm, fit, r_obs, beat, window)


def _dst1(Y: np.ndarray) -> np.ndarray:
    """Type-I sine transform of rows that vanish at both ends.

    Y_k = sum_j y_j sin(pi j k / n) over the interior points j, from the
    real FFT of the odd extension; the inverse is the same map times 2/n.
    """
    ext = np.concatenate([Y, -Y[..., -2:0:-1]], axis=-1)
    return -0.5 * np.fft.rfft(ext, axis=-1).imag


def _free_evolve(run: RunOutput, W: np.ndarray, W_dot: np.ndarray,
                 n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """`n_steps` RK4 steps of the run's free operator W_tt = W_rr, exactly.

    The sine transform diagonalizes the Dirichlet second difference with
    frequencies om_k = (2/dr) sin(pi k / 2 n_r).  One RK4 step of
    y'' = -om^2 y multiplies the phasor y' + i om y by the amplification
    factor g of `resolvent._unit_step`, so n steps multiply it by g^n.
    """
    n_r = run.grid.n_r
    om = (2.0 / run.grid.dr) * np.sin(np.pi * np.arange(1, n_r) / (2 * n_r))
    g = _unit_step(om * om, run.dt).rot
    y, y_dot = _dst1(np.stack([W, W_dot]))[:, 1:-1]
    w = (y_dot + 1j * om * y) * g ** n_steps
    coef = np.zeros((2, n_r + 1))
    coef[0, 1:-1] = w.imag / om
    coef[1, 1:-1] = w.real
    W2, W2_dot = _dst1(coef) * (2.0 / n_r)
    W2[[0, -1]] = W2_dot[[0, -1]] = 0.0
    return W2, W2_dot


def scattering_residual(run: RunOutput, t1: float, t2: float) -> float:
    """Energy-norm Cauchy residual of v = u - Phi between t1 and t2.

    Needs snapshots at both times.  v is re-evolved from t1 to t2 with
    the run's own free operator (sources off) and compared with the run.
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
    n_steps = int(round((s2["t"] - s1["t"]) / run.dt))
    W2, W2d = _free_evolve(run, W1, W1d, n_steps)
    dW = W2 - W2_run
    dWd = W2d - W2d_run
    dWr = np.gradient(dW, run.grid.dr)
    return math.sqrt(float(np.trapezoid(dWd ** 2 + dWr ** 2,
                                        dx=run.grid.dr)))


def require_two_base_times(t_list) -> None:
    """Raise unless `t_list` holds two distinct base times."""
    if len({float(t) for t in t_list}) < 2:
        raise InsufficientSamplesError("insufficient-samples: the residual "
                                       "fit needs two distinct base times")


def scattering_residual_fit(run: RunOutput, t_list) -> DecayFit:
    """Fit of D(t, 2t) ~ (1+t)^p over the given base times, at least two
    distinct ones."""
    require_two_base_times(t_list)
    pts = [(float(t), scattering_residual(run, float(t), 2.0 * float(t)))
           for t in t_list]
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0):
        raise InsufficientSamplesError("insufficient-samples: nonpositive "
                                       "residuals cannot be fitted")
    slope, amp, r2 = fit_loglog(t, v)
    return DecayFit(slope, amp, r2, (float(t.min()), float(t.max())),
                    tuple(pts))
