"""Spherically symmetric wave system with quadrature-localized memory.

Evolved fields (all premultiplied by r so the origin is a plain Dirichlet
point): V = r*u for the wave field, one X_j = r*chi_j per mass node for
the memory modes, and P = r*Phi for the memory profile.  The semidiscrete
system is

    V_tt  = V_rr + r*(F + M)
    X_j,tt = X_j,rr - mu_j X_j + r*N2
    P_tt  = P_rr + r*M,          M = sum_j w_j X_j / r,

with F the local quadratic nonlinearity, N2 the memory source, centered
second-order space differences, odd reflection at r = 0, homogeneous
Dirichlet at r_max, and classical RK4 in time.  The outer boundary is
causally padded instead of absorbing: the run must end before anything
reaches it.

Diagnostics per record: plain and ghost-weighted derivative energies,
the light-cone flux generated by the weight, sup |u|, the origin trace,
and L2(r^2 dr) norms of the memory term and its source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BlowUpError, PaddingViolatedError,
                     NotInAsymptoticRegimeError, ValidationError)
from .quadrature import MassQuadrature

STIFFNESS_LIMIT = 2.5


def quintic_smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)


def ghost_q(s, delta0: float):
    """Monotone C^2 profile: 0 for s <= -1, delta0 for s >= 1."""
    return delta0 * quintic_smoothstep(0.5 * (np.clip(s, -1.0, 1.0) + 1.0))


def ghost_q_prime(s, delta0: float):
    x = 0.5 * (np.clip(s, -1.0, 1.0) + 1.0)
    inside = (s > -1.0) & (s < 1.0)
    return np.where(inside, delta0 * 15.0 * x ** 2 * (1.0 - x) ** 2, 0.0)


@dataclass(frozen=True)
class Grid:
    r_max: float
    n_r: int

    def __post_init__(self):
        if self.n_r < 64:
            raise ValidationError("n_r must be at least 64")
        if self.r_max <= 0:
            raise ValidationError("r_max must be positive")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_r

    @property
    def r(self) -> np.ndarray:
        return self.dr * np.arange(self.n_r + 1)


@dataclass(frozen=True)
class ModelConfig:
    epsilon: float
    a_null: float = 1.0
    b_bad: float = 0.0
    c_grad: float = 1.0
    # The u^2 memory-source channel stands in for a gradient-structure
    # coupling; at full strength its zero-frequency feedback sustains a
    # tiny static branch (~eps^4) that pollutes late-time memory
    # estimates, so the default keeps it subdominant.
    d_quad: float = 0.25
    quad: MassQuadrature | None = None
    cfl: float = 0.5
    t_final: float = 100.0
    r_c: float = 5.0
    sigma: float = 1.0
    velocity_mode: str = "time-symmetric"
    delta0: float = 0.2
    # verification hook: replaces the computed memory source with a
    # prescribed field (t, r_array) -> array, e.g. a separable mode
    n2_override: object = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be nonnegative")
        if not (0.0 < self.cfl <= 0.9):
            raise ValidationError("cfl must lie in (0, 0.9]")
        if self.t_final < 0:
            raise ValidationError("t_final must be nonnegative")
        if self.sigma <= 0 or self.r_c <= 0:
            raise ValidationError("data profile needs r_c > 0, sigma > 0")
        if self.velocity_mode not in ("time-symmetric", "ingoing"):
            raise ValidationError("velocity_mode must be 'time-symmetric' "
                                  "or 'ingoing'")
        if not (0.0 < self.delta0 < 1.0):
            raise ValidationError("delta0 must lie in (0, 1)")

    @property
    def support_radius(self) -> float:
        return self.r_c + 4.0 * self.sigma

    def mu_max(self) -> float:
        if self.quad is None or len(self.quad) == 0:
            return 0.0
        return float(self.quad.nodes.max())

    def validate_against(self, grid: Grid, dt: float) -> None:
        need = padded_r_max(self)
        if grid.r_max + 1e-9 < need:
            raise PaddingViolatedError(f"padding-violated: need r_max >= "
                                       f"{need:.6g}, got {grid.r_max:.6g}")
        guard = dt * math.sqrt(self.mu_max() + (math.pi / grid.dr) ** 2)
        if guard > STIFFNESS_LIMIT:
            raise ValidationError(
                f"stiffness guard violated: dt*sqrt(mu_max + (pi/dr)^2) = "
                f"{guard:.3f} > {STIFFNESS_LIMIT}")


def padded_r_max(cfg: ModelConfig) -> float:
    """Smallest admissible outer radius for this configuration."""
    return cfg.support_radius + cfg.t_final + 2.0


@dataclass
class FieldState:
    """Field rows Q = (V, P, X_0 .. X_{m-1}), shape (m+2, n_r+1), and Q_dot.

    Every row obeys Q_tt = Q_rr - mu Q + source, with mu = 0 on V and P
    and mu = mu_j on X_j.  V, V_dot, P, P_dot, X and X_dot are read-only
    properties that return views of the rows.
    """
    t: float
    Q: np.ndarray
    Q_dot: np.ndarray

    V = property(lambda self: self.Q[0])
    V_dot = property(lambda self: self.Q_dot[0])
    P = property(lambda self: self.Q[1])
    P_dot = property(lambda self: self.Q_dot[1])
    X = property(lambda self: self.Q[2:])
    X_dot = property(lambda self: self.Q_dot[2:])


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    E_std: float
    E_ghost: float
    flux: float
    sup_u: float
    u_origin: float
    mem_norm: float
    src_norm: float

    FIELDS = ("t", "E_std", "E_ghost", "flux", "sup_u", "u_origin",
              "mem_norm", "src_norm")


@dataclass
class RunOutput:
    cfg: ModelConfig
    grid: Grid
    dt: float
    records: list
    profile_times: np.ndarray
    u_profiles: np.ndarray       # (n_records, n_r+1)
    m_profiles: np.ndarray
    phi_profiles: np.ndarray
    snapshots: dict              # time -> dict of field arrays
    completed: bool
    blow_up_time: float | None = None
    blow_up_radius: float | None = None

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])

    @property
    def integrated_flux(self) -> float:
        t = self.series("t")
        return float(np.trapezoid(self.series("flux"), t))


def _profile(cfg: ModelConfig, s: np.ndarray) -> np.ndarray:
    """Initial u profile: Gaussian bump under a C^2 compact window."""
    y = np.abs(s - cfg.r_c) / cfg.sigma
    window = 1.0 - quintic_smoothstep(y - 3.0)
    return cfg.epsilon * np.exp(-((s - cfg.r_c) / cfg.sigma) ** 2) * window


def _profile_derivative(cfg: ModelConfig, s: np.ndarray) -> np.ndarray:
    y = (s - cfg.r_c) / cfg.sigma
    gauss = np.exp(-y ** 2)
    window = 1.0 - quintic_smoothstep(np.abs(y) - 3.0)
    dwindow = (-30.0 * np.clip(np.abs(y) - 3.0, 0.0, 1.0) ** 2
               * (1.0 - np.clip(np.abs(y) - 3.0, 0.0, 1.0)) ** 2
               * np.sign(y) / cfg.sigma)
    return cfg.epsilon * (gauss * dwindow - 2.0 * y / cfg.sigma * gauss * window)


def initialize(cfg: ModelConfig, grid: Grid) -> FieldState:
    """Wave data on the grid; memory modes and profile start at zero."""
    cfg.validate_against(grid, dt=cfg.cfl * grid.dr)
    r = grid.r
    u0 = _profile(cfg, r)
    V = r * u0
    if cfg.velocity_mode == "time-symmetric":
        V_dot = np.zeros_like(V)
    else:
        # u1 = -du0/dr - u0/r, i.e. V_dot = -dV/dr, evaluated analytically
        V_dot = -(u0 + r * _profile_derivative(cfg, r))
    n_modes = 0 if cfg.quad is None else len(cfg.quad)
    Q = np.zeros((n_modes + 2, grid.n_r + 1))
    Q_dot = np.zeros_like(Q)
    Q[0], Q_dot[0] = V, V_dot
    _pin_boundaries(Q, Q_dot)
    return FieldState(0.0, Q, Q_dot)


class _Workspace:
    """Precomputed grid quantities shared by the `accel` evaluations."""

    def __init__(self, cfg: ModelConfig, grid: Grid):
        self.cfg = cfg
        self.r = grid.r
        self.dr = grid.dr
        self.inv_r = np.zeros_like(self.r)
        self.inv_r[1:] = 1.0 / self.r[1:]
        quad = cfg.quad
        self.w = np.zeros((0, 1)) if quad is None else quad.weights[:, None]
        self.mu = np.zeros((0, 1)) if quad is None else quad.nodes[:, None]

    def laplacian(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(Y)
        out[..., 1:-1] = (Y[..., 2:] - 2.0 * Y[..., 1:-1] + Y[..., :-2]) \
            / self.dr ** 2
        return out

    def u_of(self, V: np.ndarray) -> np.ndarray:
        u = V * self.inv_r
        u[0] = V[1] / self.dr          # L'Hopital at the origin
        return u

    def du_dr(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        Vr = np.zeros_like(V)
        Vr[1:-1] = (V[2:] - V[:-2]) / (2.0 * self.dr)
        Vr[0] = V[1] / self.dr          # odd reflection
        Vr[-1] = (V[-1] - V[-2]) / self.dr
        ur = (Vr - u) * self.inv_r
        ur[0] = 0.0                     # regularity: u is even in r
        return ur

    def memory_term(self, X: np.ndarray) -> np.ndarray:
        if self.w.size == 0:
            return np.zeros_like(self.r)
        S = np.sum(self.w * X, axis=0)
        M = S * self.inv_r
        M[0] = float(np.sum(self.w[:, 0] * X[:, 1])) / self.dr
        return M

    def sources(self, V, V_dot, t: float = 0.0):
        cfg = self.cfg
        u = self.u_of(V)
        ud = self.u_of(V_dot)
        ur = self.du_dr(V, u)
        F = cfg.a_null * (ud ** 2 - ur ** 2) + cfg.b_bad * ud ** 2
        if cfg.n2_override is not None:
            N2 = cfg.n2_override(t, self.r)
        else:
            N2 = cfg.c_grad * (ud ** 2 + ur ** 2) + cfg.d_quad * u ** 2
        return u, ud, ur, F, N2

    def accel(self, t: float, Q: np.ndarray, Q_dot: np.ndarray) -> np.ndarray:
        """Q_tt of every row: one stencil, -mu on the mode rows, sources."""
        _, _, _, F, N2 = self.sources(Q[0], Q_dot[0], t)
        M = self.memory_term(Q[2:])
        acc = self.laplacian(Q)
        acc[2:] -= self.mu * Q[2:]
        acc[0] += self.r * (F + M)
        acc[1] += self.r * M
        acc[2:] += self.r * N2
        _pin_boundaries(acc)
        return acc


def _pin_boundaries(*stacks: np.ndarray) -> None:
    for Y in stacks:
        Y[:, 0] = Y[:, -1] = 0.0


def _rk4_step(ws: _Workspace, st: FieldState, dt: float) -> FieldState:
    """Classical RK4 on the second-order system (Q, Q_dot)."""
    t, Q, Qd = st.t, st.Q, st.Q_dot
    h = 0.5 * dt
    # overflow during a developing blow-up is expected and detected
    # afterwards; keep the march itself quiet
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = ws.accel(t, Q, Qd)
        Qd2 = Qd + h * a1
        a2 = ws.accel(t + h, Q + h * Qd, Qd2)
        Qd3 = Qd + h * a2
        a3 = ws.accel(t + h, Q + h * Qd2, Qd3)
        Qd4 = Qd + dt * a3
        a4 = ws.accel(t + dt, Q + dt * Qd3, Qd4)
        c = dt / 6.0
        Q_new = Q + c * (Qd + 2.0 * Qd2 + 2.0 * Qd3 + Qd4)
        Qd_new = Qd + c * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    _pin_boundaries(Q_new, Qd_new)
    return FieldState(t + dt, Q_new, Qd_new)


def step(state: FieldState, cfg: ModelConfig, grid: Grid,
         dt: float | None = None) -> FieldState:
    """One RK4 step of the full system; raises on nonfinite values."""
    dt = cfg.cfl * grid.dr if dt is None else dt
    cfg.validate_against(grid, dt)
    ws = _Workspace(cfg, grid)
    new = _rk4_step(ws, state, dt)
    _check_finite(new, grid)
    return new


def _check_finite(st: FieldState, grid: Grid) -> None:
    # X_dot is left out: a nonfinite mode velocity reaches X a step later
    if np.isfinite(st.Q).all() and np.isfinite(st.Q_dot[:2]).all():
        return
    bad = ~np.isfinite(st.V)
    if bad.any():
        radius = float(grid.r[int(np.argmax(bad))])
        raise BlowUpError(
            f"blow-up-detected: nonfinite value at t={st.t:.6g}, "
            f"r={radius:.6g}", time=st.t, radius=radius)
    rest_finite = np.isfinite(st.P).all() and np.isfinite(st.Q_dot[:2]).all()
    what = "memory mode" if rest_finite else "value"
    raise BlowUpError(f"blow-up-detected: nonfinite {what} at t={st.t:.6g}",
                      time=st.t, radius=None)


def _diagnose(ws: _Workspace, st: FieldState, cfg: ModelConfig) -> DiagnosticsRecord:
    r = ws.r
    u, ud, ur, F, N2 = ws.sources(st.V, st.V_dot, st.t)
    M = ws.memory_term(st.X)
    # second time derivative of u via the evolution equation
    rFM = r * (F + M)
    rFM[0] = rFM[-1] = 0.0
    aV = ws.laplacian(st.V) + rFM
    udd = ws.u_of(aV)
    udr = ws.du_dr(st.V_dot, ud)

    r2 = r * r
    def norm2(g):
        return float(np.trapezoid(g * g * r2, dx=ws.dr))

    deriv0 = norm2(ud) + norm2(ur)
    deriv1 = norm2(udd) + norm2(udr)
    E_std = deriv0 + deriv1 + norm2(u) + norm2(ud)
    w = np.exp(ghost_q(st.t - r, cfg.delta0))
    qp = ghost_q_prime(st.t - r, cfg.delta0)

    def wnorm2(g):
        return float(np.trapezoid(w * g * g * r2, dx=ws.dr))

    E_ghost = wnorm2(ud) + wnorm2(ur) + wnorm2(udd) + wnorm2(udr)
    bad0 = ud - ur
    bad1 = udd - udr
    flux = float(np.trapezoid(qp * w * (bad0 ** 2 + bad1 ** 2) * r2, dx=ws.dr))
    return DiagnosticsRecord(
        t=st.t, E_std=E_std, E_ghost=E_ghost, flux=flux,
        sup_u=float(np.max(np.abs(u))), u_origin=float(u[0]),
        mem_norm=math.sqrt(norm2(M)), src_norm=math.sqrt(norm2(N2)))


def _snapshot(ws: _Workspace, st: FieldState) -> dict:
    return {"t": st.t, "V": st.V.copy(), "V_dot": st.V_dot.copy(),
            "P": st.P.copy(), "P_dot": st.P_dot.copy(), "u": ws.u_of(st.V),
            "M": ws.memory_term(st.X), "Phi": ws.u_of(st.P)}


def evolve(cfg: ModelConfig, grid: Grid, cadence: int = 10,
           snapshot_times=()) -> RunOutput:
    """March to t_final recording diagnostics every `cadence` steps.

    dt is cfl*dr shrunk so that an even number of steps lands exactly on
    t_final (resolution studies compare fields at matching times).
    A detected blow-up terminates the march and returns the partial
    output with the failure time recorded.
    """
    if cadence < 1:
        raise ValidationError("cadence must be a positive integer")
    if cfg.t_final == 0.0:
        # the initial state is the only record and the only snapshot
        n_steps, dt = 0, 0.0
        snap_steps = {0: 0.0}
    else:
        n_steps = 2 * max(1, math.ceil(cfg.t_final / (2.0 * cfg.cfl * grid.dr)))
        dt = cfg.t_final / n_steps
        snap_steps = {}
        for ts in snapshot_times:
            idx = int(round(ts / dt))
            if 0 <= idx <= n_steps:
                snap_steps.setdefault(idx, float(ts))
    cfg.validate_against(grid, dt)
    ws = _Workspace(cfg, grid)
    st = initialize(cfg, grid)

    records, ptimes, uprofs, mprofs, phiprofs = [], [], [], [], []
    snapshots = {}

    def record(st: FieldState, n: int) -> None:
        if n % cadence == 0 or n == n_steps:
            records.append(_diagnose(ws, st, cfg))
            ptimes.append(st.t)
            uprofs.append(ws.u_of(st.V))
            mprofs.append(ws.memory_term(st.X))
            phiprofs.append(ws.u_of(st.P))
        if n in snap_steps:
            snapshots[snap_steps[n]] = _snapshot(ws, st)

    record(st, 0)
    blow_up = {}                # the BlowUpError detail: time and radius
    for n in range(1, n_steps + 1):
        st = _rk4_step(ws, st, dt)
        try:
            _check_finite(st, grid)
        except BlowUpError as exc:
            blow_up = exc.detail
            break
        record(st, n)

    return RunOutput(cfg, grid, dt, records, np.array(ptimes),
                     np.array(uprofs), np.array(mprofs), np.array(phiprofs),
                     snapshots, not blow_up, blow_up.get("time"),
                     blow_up.get("radius"))


def free_wave_exact(cfg: ModelConfig, r: np.ndarray, t: float) -> np.ndarray:
    """Closed-form V(t, r) for the source-free wave from the initial data.

    Both V0 = r*u0 and its velocity extend oddly through the origin, so
    V = [V0~(r+t) + V0~(r-t)]/2 + [A(r+t) - A(r-t)]/2 with A the (even)
    antiderivative of the extended velocity.  For the 'ingoing' velocity
    choice V1 = -V0', A(s) = -V0(|s|), which makes the field vanish
    identically behind the outgoing pulse.
    """
    def v0_tilde(s):
        return s * _profile(cfg, np.abs(s))
    wave = 0.5 * (v0_tilde(r + t) + v0_tilde(r - t))
    if cfg.velocity_mode == "time-symmetric":
        return wave
    return wave - 0.5 * (_profile(cfg, np.abs(r + t)) * np.abs(r + t)
                         - _profile(cfg, np.abs(r - t)) * np.abs(r - t))


@dataclass(frozen=True)
class ConvergenceReport:
    observed_order: float
    diffs: tuple
    resolutions: tuple


def convergence_study(cfg: ModelConfig, grid: Grid,
                      levels: int = 3) -> ConvergenceReport:
    """Self-convergence order from `levels` grid halvings.

    Compares sup-norm differences of u at t_final/2 on shared points;
    non-decreasing differences raise not-in-asymptotic-regime.
    """
    if levels != 3:
        raise ValidationError("the Richardson estimate uses exactly 3 levels")
    half = cfg.t_final / 2.0
    fields = []
    for lvl in range(levels):
        g = Grid(grid.r_max, grid.n_r * 2 ** lvl)
        out = evolve(cfg, g, cadence=10 ** 9, snapshot_times=(half,))
        if not out.completed or half not in out.snapshots:
            raise ValidationError("convergence study run did not reach "
                                  "t_final/2")
        fields.append(out.snapshots[half]["u"])
    d01 = float(np.max(np.abs(fields[0] - fields[1][::2])))
    d12 = float(np.max(np.abs(fields[1] - fields[2][::2])))
    if not (d01 > d12 > 0.0):
        raise NotInAsymptoticRegimeError(
            f"not-in-asymptotic-regime: diffs {d01:.3e}, {d12:.3e}")
    order = math.log2(d01 / d12)
    return ConvergenceReport(order, (d01, d12),
                             (grid.n_r, 2 * grid.n_r, 4 * grid.n_r))
