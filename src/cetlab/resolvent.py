"""Retarded mode responses and the memory operator on time signals.

Everything here lives in the fixed-spatial-frequency reduction: a mode
with mass mu and wavenumber xi responds to a source f through

    v'' + (xi**2 + mu) v = f,   v(0) = v'(0) = 0,

integrated with classical RK4 on the sample grid.  RK4 is linear, so
the same scheme is evaluated per mode as an exact phasor recurrence
solved with cumulative sums (see `_kg_solve`), not stepped sample by
sample; it matches the stepwise loop to rounding.  The memory operator
is the weighted sum of mode responses over a mass quadrature.  The
scheme is linear and time-invariant, so that sum is one causal
convolution of the source with a kernel summed over the modes, applied
by FFT, and no mode response is solved (`apply_memory`).  The
double-resolvent variant applies each mode response twice with weight
w_j * mu_j.  The positivity functional needs only each mode's last
phasor.  Both it and the memory kernel are power sums of the
recurrence, read from two power tables of O(sqrt(n)) rows
(`_power_tables`), so neither solves a trajectory.
Midpoint source values for RK4 come from a cubic stencil that never
looks past the landing sample, so signals that vanish on an initial
segment produce outputs that are bitwise zero there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CommutatorInputError, ModeStepUnstableError,
                     ValidationError)
from .quadrature import MassQuadrature

# RK4 covers |omega * dt| up to 2*sqrt(2) on the oscillator axis; the
# guard leaves margin for the source terms.  The mode solves and the
# radial march's stiffness guard both hold to it.
STABILITY_LIMIT = 2.5
# allowance over sqrt(2) for the O(dt^2) error of the discrete response
_BOUND_SLACK = 0.02


@dataclass(frozen=True)
class TimeSeries:
    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if samples.ndim != 1 or samples.size < 2:
            raise ValidationError("samples must be a 1-d array, length >= 2")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    def l1(self) -> float:
        """Discrete integral of |f| dt (trapezoid)."""
        return float(np.trapezoid(np.abs(self.samples), dx=self.dt))

    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))


@dataclass(frozen=True)
class ModeParams:
    mu: float
    xi: float

    def __post_init__(self):
        if self.mu < 0 or self.xi < 0:
            raise ValidationError("mu and xi must be nonnegative")
        if self.mu + self.xi ** 2 == 0:
            raise ValidationError("degenerate zero-frequency mode")

    @property
    def omega2(self) -> float:
        return self.mu + self.xi ** 2


def _midpoints(f: np.ndarray) -> np.ndarray:
    """Cubic estimates of f at sample midpoints using lagged stencils.

    Stencil for the midpoint of [j, j+1] is {j-2, j-1, j, j+1}; indices
    before the start repeat f[0].  Using only samples <= j+1 keeps the
    integrator causal sample-by-sample.  Works along the last axis.
    """
    n = f.shape[-1]
    first = f[..., :1]
    fm2 = np.concatenate((first, first, f[..., :-3]), axis=-1)[..., :n - 1]
    fm1 = np.concatenate((first, f[..., :-2]), axis=-1)
    f0 = f[..., :-1]
    fp1 = f[..., 1:]
    return (fm2 - 5.0 * fm1 + 15.0 * f0 + 5.0 * fp1) / 16.0


def _check_stability(dt: float, omega2_max: float, label: str = "") -> None:
    if dt * math.sqrt(omega2_max) > STABILITY_LIMIT:
        # shortest round-trip digits: never equal to the limit's
        raise ModeStepUnstableError(
            f"mode-step-unstable: dt*sqrt(xi^2+mu) = "
            f"{dt * math.sqrt(omega2_max)} > {STABILITY_LIMIT}"
            + (f" at {label}" if label else "") + "; subsample the signal")


def _rk4_increment(omega2, v, vd, f0, fm, f1, dt: float):
    """Increments (dv, dvd) of one classical RK4 step of v'' + omega2 v = f."""
    half = 0.5 * dt
    k1v = vd
    k1a = f0 - omega2 * v
    k2v = vd + half * k1a
    k2a = fm - omega2 * (v + half * k1v)
    k3v = vd + half * k2a
    k3a = fm - omega2 * (v + half * k2v)
    k4v = vd + dt * k3a
    k4a = f1 - omega2 * (v + dt * k3v)
    return ((dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a))


def _recurrence(a, u: np.ndarray) -> np.ndarray:
    """x[1..n] of x[0] = 0, x[j+1] = a x[j] + u[j], for a nonzero scalar a.

    The samples are cut into blocks of length L with |a|**-L <= 2.  In
    each block the zero-start solution is the cumulative sum of
    u[j] / a**(j+1) scaled back by a**k, the powers a running product;
    the state at each block start is carried in by a scalar recurrence.
    Zero input up to some sample gives an output exactly zero up to
    there.
    """
    n = u.size
    decay = -math.log(abs(a))
    block = n if decay <= 0.0 else max(1, min(n, int(math.log(2.0) / decay)))
    n_blocks = -(-n // block)
    up = np.cumprod(np.full(block, a))
    seg = np.zeros(n_blocks * block, dtype=u.dtype)
    seg[:n] = u
    local = np.cumsum(seg.reshape(n_blocks, block) / up, axis=1) * up
    if n_blocks > 1:
        a_block, carry = up[-1].item(), [0.0]
        for end in local[:-1, -1].tolist():
            carry.append(a_block * carry[-1] + end)
        local += np.array(carry)[:, None] * up
    return local.reshape(-1)[:n]


class _UnitStep(NamedTuple):
    """One RK4 step of v'' + omega2 v = f on unit inputs, per mode.

    dv[i] is the increment of v for a unit value of the i-th input (v,
    vdot, f[j], fmid[j], f[j+1]) and zero for the others.  In the phasor
    w = vdot + i omega v the step reads

        w[j+1] = rot w[j] + c0 f[j] + cm fmid[j] + c1 f[j+1];

    f[j+1] moves only vdot within a step, so c1 is real.
    """
    omega: np.ndarray
    dv: np.ndarray
    rot: np.ndarray
    c0: np.ndarray
    cm: np.ndarray
    c1: np.ndarray


def _unit_step(omega2: np.ndarray, dt: float) -> _UnitStep:
    """`_UnitStep` from one `_rk4_increment` on the five unit inputs."""
    omega = np.sqrt(omega2)
    dv, dvd = _rk4_increment(omega2, *np.eye(5)[:, :, None], dt)
    return _UnitStep(omega, dv, 1.0 + dvd[1] + 1j * omega * dv[1],
                     dvd[2] + 1j * omega * dv[2],
                     dvd[3] + 1j * omega * dv[3], dvd[4])


def _kg_solve(omega2: np.ndarray, f: np.ndarray,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 solve of v'' + omega2 v = f per mode; returns (v, vdot).

    omega2 has shape (m,); f is one source of shape (n_t,) shared by all
    modes or one source per mode, shape (m, n_t); outputs have shape
    (m, n_t).  The scheme is classical RK4 with `_midpoints` sources,
    evaluated as an exact linear recurrence instead of a loop: RK4 is
    linear, so the phasor w = vdot + i omega v follows the one-step
    recurrence of `_UnitStep`, and vdot = Re w.  v is then summed from
    its own RK4 increments,

        v[j+1] = v[j] + dv_v v[j] + dv_vd vdot[j] + d0 f[j] + dm fmid[j]

    with v[j] = Im w[j] / omega on the right.  The increment is small, so
    the error of Im w / omega hardly enters it; the sum keeps rounding as
    smooth in j as the stepwise loop does (the commutator check
    differentiates v, which amplifies rough rounding by t / dt); and the
    zero mode, where dv_v = 0, needs no division by omega.
    """
    omega2 = np.asarray(omega2, dtype=float)
    n = f.shape[-1]
    unit = _unit_step(omega2, dt)
    omega, (dv_v, dv_vd, d0, dm, _) = unit.omega, unit.dv
    fmid = _midpoints(f) if f.ndim == 1 else None
    v = np.zeros((omega2.size, n))
    vd = np.zeros((omega2.size, n))
    for i in range(omega2.size):
        fi = f if f.ndim == 1 else f[i]
        fm = fmid if f.ndim == 1 else _midpoints(fi)
        f0, f1 = fi[:-1], fi[1:]
        w = _recurrence(unit.rot[i], unit.c0[i] * f0 + unit.cm[i] * fm
                        + unit.c1[i] * f1)
        vd[i, 1:] = w.real
        if omega[i] > 0.0:
            v[i, 1:] = w.imag / omega[i]
        step = dv_v[i] * v[i, :-1]
        step += dv_vd[i] * vd[i, :-1]
        step += d0[i] * f0
        step += dm[i] * fm
        np.cumsum(step, out=v[i, 1:])
    return v, vd


def _power_tables(rot: np.ndarray, count: int):
    """Blocked power tables of each mode's rot for the exponents p < count.

    p = b*B + j with B ~ sqrt(count): returns inner[j] = rot**j (B rows)
    and outer[b] = (rot**B)**b (ceil(count / B) rows), so every power is
    one product of a row of each.
    """
    block = math.isqrt(count - 1) + 1
    inner = rot ** np.arange(block)[:, None]
    outer = (rot ** block) ** np.arange(-(-count // block))[:, None]
    return inner, outer


def _terminal_phasor(unit: _UnitStep, f: np.ndarray) -> np.ndarray:
    """The last phasor w[n-1] of `_kg_solve`'s recurrence, per mode.

    From w[0] = 0 it is the power sum sum_p rot**p u[n-2-p] with u[j] =
    c0 f[j] + cm fmid[j] + c1 f[j+1].  The exponent p is split by
    `_power_tables`: one matmul of the time-reversed, blocked inputs (f,
    fmid, f[1:]) against the inner table gives every block's sum, and
    the outer table weights the blocks.
    """
    span = f.size - 1
    inner, outer = _power_tables(unit.rot, span)
    block, n_blocks = inner.shape[0], outer.shape[0]
    rev = np.zeros((3, n_blocks * block))
    rev[0, :span] = f[-2::-1]
    rev[1, :span] = _midpoints(f)[::-1]
    rev[2, :span] = f[:0:-1]
    rev = rev.reshape(3 * n_blocks, block)
    sums = (rev @ inner.view(float)).view(complex)
    sums = np.sum(sums.reshape(3, n_blocks, -1) * outer, axis=1)
    return unit.c0 * sums[0] + unit.cm * sums[1] + unit.c1 * sums[2]


def _smooth_size(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35 << (-(-n // p35) - 1).bit_length()
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _memory_kernel(unit: _UnitStep, weights: np.ndarray,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted step kernels of `_kg_solve`'s v, summed over the modes.

    The weighted sum of v's increments at step k is

        S[k] = sum_P h0[P] f[k-P] + hm[P] fmid[k-P] + h1[P] f[k+1-P],

    P < size: P = 0 carries the direct terms sum_j w_j d0_j and sum_j
    w_j dm_j, and P = p + 1 the phasor terms Re sum_j beta_j c_j rot_j**p
    with beta_j = w_j (dv_vd - i dv_v / omega).
    Returns (kernel, edge).  The kernel folds the three streams into
    one on f, S[k] = sum_Q kernel[Q] f[k+1-Q], taking f as zero before
    its first sample.  That fold also feeds f[0] in at step -1 (as f[1:]
    and fmid) and differs from `_midpoints`' boundary rule at fmid[0]
    and fmid[1]; f[0] * edge[k] is what this adds to S[k].
    """
    dv_v, dv_vd, d0, dm, _ = unit.dv
    beta = weights * (dv_vd - 1j * dv_v / unit.omega)
    inner, outer = _power_tables(unit.rot, size - 1)
    coef = beta * np.stack((unit.c0, unit.cm, unit.c1))
    h = np.empty((3, size))
    h[:, 0] = weights @ d0, weights @ dm, 0.0
    # Re(a b) = (Re a, Im a) . (Re b, -Im b): one real product, by einsum
    # since BLAS would thread it and leave a worker spinning after it
    terms = (coef[:, None, :] * outer).reshape(-1, weights.size)
    h[:, 1:] = np.einsum("ik,jk->ij", terms.view(float),
                         inner.conj().view(float)
                         ).reshape(3, -1)[:, :size - 1]
    h0, hm, h1 = h
    kernel = h1 + np.convolve(hm, (5.0, 15.0, -5.0, 1.0))[:size] / 16.0
    kernel[1:] += h0[:-1]
    edge = h1[1:] + np.convolve(hm, (5.0, 4.0, -1.0))[1:size] / 16.0
    return kernel, edge


def kg_retarded(params: ModeParams, f: TimeSeries) -> TimeSeries:
    """Retarded mode response: v'' + (xi^2+mu) v = f with zero past data."""
    _check_stability(f.dt, params.omega2)
    v, _ = _kg_solve(np.array([params.omega2]), f.samples, f.dt)
    return TimeSeries(f.t0, f.dt, v[0])


def _memory_omega2(quad: MassQuadrature, xi: float,
                   f: TimeSeries) -> np.ndarray:
    """xi**2 + mu_j per node, checked against the step limit of f."""
    try:
        omega2 = quad.nodes + xi ** 2
    except OverflowError:
        raise ValidationError("xi**2 overflows double precision") from None
    if omega2.size:
        _check_stability(f.dt, float(omega2.max()),
                         label=f"node mu={float(quad.nodes.max()):.6g}")
    return omega2


def apply_memory(quad: MassQuadrature, xi: float, f: TimeSeries) -> TimeSeries:
    """Memory operator: sum of w_j times the mode-mu_j response.

    `_kg_solve`'s v summed over the modes without solving any mode: its
    increments S are one causal convolution of f with the kernel of
    `_memory_kernel`, done by FFT, and the output is their cumulative
    sum.  The convolution starts at the first step whose inputs (f,
    fmid, f[1:]) are not all zero, so the output is +0.0 up to the first
    nonzero sample of f.  The weights enter divided by a power of two
    near the largest, which changes no rounding but keeps the FFT
    products from overflowing before the output does.
    """
    omega2 = _memory_omega2(quad, xi, f)
    samples = f.samples
    out = np.zeros_like(samples)
    nonzero = np.flatnonzero(samples)
    if not len(quad) or not nonzero.size:
        return TimeSeries(f.t0, f.dt, out)
    lo = max(int(nonzero[0]) - 1, 0)
    size = samples.size - lo
    scale = math.ldexp(1.0, math.frexp(float(quad.weights.max()))[1] - 1)
    kernel, edge = _memory_kernel(_unit_step(omega2, f.dt),
                                  quad.weights / scale, size)
    n_fft = _smooth_size(2 * size - 1)
    steps = np.fft.irfft(np.fft.rfft(kernel, n_fft)
                         * np.fft.rfft(samples[lo:], n_fft), n_fft)[1:size]
    if samples[0]:
        steps -= samples[0] * edge
    np.cumsum(steps, out=out[lo + 1:])
    out *= scale
    return TimeSeries(f.t0, f.dt, out)


def apply_memory2(quad: MassQuadrature, xi: float, f: TimeSeries) -> TimeSeries:
    """Double-resolvent operator: sum of w_j mu_j R_j(R_j f)."""
    if not len(quad):
        return TimeSeries(f.t0, f.dt, np.zeros_like(f.samples))
    omega2 = _memory_omega2(quad, xi, f)
    first, _ = _kg_solve(omega2, f.samples, f.dt)
    second, _ = _kg_solve(omega2, first, f.dt)
    return TimeSeries(f.t0, f.dt, (quad.weights * quad.nodes) @ second)


def _derivative_4(g: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order first derivative with one-sided end stencils."""
    d = np.empty_like(g)
    d[2:-2] = (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * dt)
    # 5-point one-sided stencils, order 4
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = np.dot(c0, g[:5]) / dt
    d[1] = np.dot(c1, g[:5]) / dt
    d[-1] = -np.dot(c0, g[-5:][::-1]) / dt
    d[-2] = -np.dot(c1, g[-5:][::-1]) / dt
    return d


def scaling_derivative(f: TimeSeries) -> TimeSeries:
    """S f = t * f'(t) with fourth-order differencing."""
    return TimeSeries(f.t0, f.dt, f.times * _derivative_4(f.samples, f.dt))


@dataclass(frozen=True)
class CommutatorCheck:
    residual: float
    sign: int
    scale: float


def commutator_residual(mu: float, f: TimeSeries) -> CommutatorCheck:
    """Residual of [S, R_mu] f = 2 R_mu f - 2 mu R_mu^2 f, S = t d/dt.

    For v = R_mu f with zero past data, (d^2/dt^2 + mu)(t v') =
    2 (f - mu v) + t f', so S R_mu f = R_mu (S f + 2 f - 2 mu v), which
    is the identity.  The residual is max |S(R f) - 2 R f - R(S f -
    2 mu R f)|, from two mode solves, and `sign` is its orientation
    against -2 R_mu + 2 mu R_mu^2: -1.
    """
    if mu <= 0:
        raise ValidationError("mu must be positive")
    scale = f.sup()
    second = np.abs(np.diff(f.samples, 2))
    if second.size and second.max() > 0.5 * scale:
        raise CommutatorInputError(
            "commutator-input-not-smooth: second differences comparable "
            "to the signal itself")
    params = ModeParams(mu=mu, xi=0.0)
    rf = kg_retarded(params, f)
    rest = kg_retarded(params, TimeSeries(
        f.t0, f.dt, scaling_derivative(f).samples - 2.0 * mu * rf.samples))
    residual = float(np.max(np.abs(scaling_derivative(rf).samples
                                   - 2.0 * rf.samples - rest.samples)))
    return CommutatorCheck(residual, -1, scale)


def positivity_functional(quad: MassQuadrature, f: TimeSeries) -> float:
    """Accumulated power fed into the memory modes over [0, T].

    The continuum integral int f * d/dt(K f) dt telescopes into the
    weighted sum of terminal mode energies sum_j w_j E_j(T); the discrete
    functional evaluates that energy form directly, which keeps it
    structurally nonnegative even for rough (sign-flipping) sources where
    a trapezoid power integral picks up O(dt) noise.  E_j(T) =
    vdot**2 / 2 + omega**2 v**2 / 2 = |w_T|**2 / 2 comes from the mode's
    terminal phasor alone (`_terminal_phasor`), with no trajectory solve.
    """
    if not len(quad):
        return 0.0
    omega2 = _memory_omega2(quad, 0.0, f)
    w_end = _terminal_phasor(_unit_step(omega2, f.dt), f.samples)
    energies = 0.5 * (w_end.real ** 2 + w_end.imag ** 2)
    return float(np.sum(quad.weights * energies))


@dataclass(frozen=True)
class BoundReport:
    ratio: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.ratio <= self.bound


def mass_weighted_bound_check(mu: float, f: TimeSeries) -> BoundReport:
    """Check sup_t sqrt(mu) |v| <= sqrt(2) int |f| dt for the mode response."""
    if mu <= 0:
        raise ValidationError("mu must be positive")
    return BoundReport(duhamel_ratio(ModeParams(mu=mu, xi=0.0), f),
                       math.sqrt(2.0) * (1.0 + _BOUND_SLACK))


def duhamel_ratio(params: ModeParams, f: TimeSeries) -> float:
    """sup_t |R f| * sqrt(xi^2+mu) / int |f| dt; at most 1 + O(dt^2)."""
    v = kg_retarded(params, f)
    denom = f.l1()
    if denom == 0.0:
        return 0.0
    return math.sqrt(params.omega2) * v.sup() / denom
