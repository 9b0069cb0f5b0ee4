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

RK4 runs in Nystrom form on accelerations scaled by dr^2 (`_rk4_step`).
The sources read only the V row's velocity, so only that row's stage
velocities are formed, and 1/dr^2 rides in the stage coefficients.
This is the classical RK4 step; against the written-out form on the
pair (Q, Q_dot) the values differ by rounding, about 1e-16 of each
row's sup on Q and 1e-14 on Q_dot per step.

A free stack (no mode rows, a_null and b_bad both +0.0) marches the
bare stencil and evaluates no source: there F, M and N2 are zero or
land on no row.  Adding those zeros would turn a -0.0 on rows V and P
into +0.0, and the window reads bits, so a free stack adds 0.0 to both
rows and stays bitwise the sum of every term.  Every other stack
evaluates and adds every term.  A free run whose u^2 overflows thus
completes unless V itself overflows (the source sum would meet
0 * inf = nan in F), and its records hold the overflowed energies.

The march runs in a column window [0, W) that grows behind the front.
Compactly supported data stay compactly supported: ahead of the front
every row is bitwise +0.0, because the discrete precursor underflows.
Before each step every column >= W - 8 of Q and Q_dot is +0.0; a step
reaches at most four columns (one 3-point stencil per stage), so the
full-width march would hold +0.0 at every column >= W - 4 after it, and
the window's edge rules write exactly that.  The windowed march is
therefore bitwise the full-width one.

The march builds every view it reads once per window width
(`_Workspace.set_width`), not per stage or step: the windows of the
stage buffers and of both (Q, Q_dot) pairs, their flat stencil slices,
their boundary columns as one strided view, and their guard columns.
A free step (n_r = 256: 490 values) costs mostly its numpy calls, 44 of
them.  `evolve` ignores overflow and invalid operations for the whole
run, not per step; the march itself leaves numpy's error state alone.

The memory sum is one BLAS matvec, w @ X.  OpenBLAS (measured for every
W up to 2048 at 21 to 90 rows, with one thread or two) sums every column
of w @ X[:, :W] as at full width except the last W mod 4, and those lie
in the +0.0 band, where any order gives +0.0; so the window stays
bitwise.

Diagnostics per record: plain and ghost-weighted derivative energies,
the light-cone flux generated by the weight, sup |u|, the origin trace,
and L2(r^2 dr) norms of the memory term and its source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from .errors import BlowUpError, PaddingViolatedError, ValidationError
from .quadrature import MassQuadrature

STIFFNESS_LIMIT = 2.5
# columns at the window's edge that must stay +0.0, and the columns the
# window grows by when a step leaves anything else there
GUARD = 8
GROWTH = 64


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

    def stiffness_guard(self, grid: Grid, dt: float) -> float:
        """dt * sqrt(mu_max + (pi/dr)^2): dt times the grid's top frequency."""
        return dt * math.sqrt(self.mu_max() + (math.pi / grid.dr) ** 2)

    def validate_against(self, grid: Grid, dt: float) -> None:
        """Raise unless `grid` pads the run and dt passes the guard."""
        need = padded_r_max(self)
        if grid.r_max + 1e-9 < need:
            raise PaddingViolatedError(f"padding-violated: need r_max >= "
                                       f"{need:.6g}, got {grid.r_max:.6g}")
        guard = self.stiffness_guard(grid, dt)
        if guard > STIFFNESS_LIMIT:
            # shortest round-trip digits: never equal to the limit's
            raise ValidationError(
                f"stiffness guard violated: dt*sqrt(mu_max + (pi/dr)^2) = "
                f"{guard} > {STIFFNESS_LIMIT}")


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


DiagnosticsRecord.FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class RunOutput:
    cfg: ModelConfig
    grid: Grid
    dt: float
    records: list
    m_profiles: np.ndarray       # (n_records, n_r+1), one per record
    snapshots: dict              # time -> dict of field arrays
    # the march reached t_final; the records may still hold inf or nan
    # where a diagnostic overflows (module docstring)
    completed: bool
    blow_up_time: float | None = None
    blow_up_radius: float | None = None
    # RK4 steps taken, the blowing-up one included, and the value of
    # ModelConfig.stiffness_guard at the run's dt
    n_steps: int = 0
    stiffness_guard: float = 0.0
    # the march's window width summed over those steps; n_steps*(n_r+1)
    # when every step runs on the full grid
    column_steps: int = 0
    # wall-clock seconds in the march (steps, window growth, finite
    # checks) and in the records and snapshots
    march_s: float = 0.0
    diagnose_s: float = 0.0

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
    r = grid.r
    u0 = _profile(cfg, r)
    V = r * u0
    if cfg.velocity_mode == "time-symmetric":
        V_dot = np.zeros_like(V)
    else:
        # u1 = -du0/dr - u0/r, i.e. V_dot = -dV/dr, evaluated analytically
        V_dot = -(u0 + r * _profile_derivative(cfg, r))
        # the expression is -0.0 outside the support; + 0.0 makes that
        # +0.0, as the march's window needs, and leaves the rest alone
        V_dot += 0.0
    n_modes = 0 if cfg.quad is None else len(cfg.quad)
    Q = np.zeros((n_modes + 2, grid.n_r + 1))
    Q_dot = np.zeros_like(Q)
    Q[0], Q_dot[0] = V, V_dot
    _pin_boundaries(Q, Q_dot)
    return FieldState(0.0, Q, Q_dot)


class _Views:
    """The views of one C-contiguous (rows, W) stack that a free step
    reads: the flat stencil slices, the boundary columns as one strided
    view, and the guard columns' bits."""

    __slots__ = ("inner", "right", "left", "edges", "guard")

    def __init__(self, Y: np.ndarray):
        flat = Y.reshape(-1)
        self.inner, self.right, self.left = flat[1:-1], flat[2:], flat[:-2]
        self.edges = Y[:, ::Y.shape[1] - 1]
        self.guard = Y[:, -GUARD:].view(np.uint64)


class _Workspace:
    """Grid quantities, stage buffers and views for the RK4 march of one
    stack.

    The stage buffers are flat, of the full stack's size (m+2)(n_r+1),
    and are reused by every step, so a step allocates nothing of that
    size.  A march in the column window [0, W) takes each (m+2, W) stage
    array from the first (m+2)W elements, and likewise each state from
    one of the march's two flat (Q, Q_dot) pairs.  `set_width` builds
    those windows and their `_Views` once per width;
    `views` hands out the built ones, and builds the views of any other
    array (a state in fresh arrays) on the spot.
    """

    def __init__(self, cfg: ModelConfig, grid: Grid):
        self.cfg = cfg
        self.r = grid.r
        self.dr = grid.dr
        self.inv_dr2 = 1.0 / grid.dr ** 2
        self.inv_r = np.zeros_like(self.r)
        self.inv_r[1:] = 1.0 / self.r[1:]
        self.rs = grid.dr ** 2 * self.r      # the sources' factor, dr^2 r
        quad = cfg.quad
        self.w = np.zeros(0) if quad is None else quad.weights
        mu = np.zeros(0) if quad is None else quad.nodes
        self.rows = len(self.w) + 2
        # no source reaches any row: march the bare stencil (module
        # docstring); the bits decide, so a -0.0 coupling is not free
        self.free = self.rows == 2 and not np.array(
            [cfg.a_null, cfg.b_bad]).view(np.uint64).any()
        # dr^2 times the centre coefficient of Q_rr - mu Q, per row; the
        # one number -2.0 on a stack without modes, where numpy would
        # buffer the broadcast column over the whole stack
        self.centre = np.concatenate(
            ([-2.0, -2.0], -2.0 - mu * grid.dr ** 2))[:, None] \
            if len(mu) else -2.0
        self._flat = [np.empty(self.rows * (grid.n_r + 1)) for _ in range(3)]
        self._pairs = ()
        self.set_width(grid.n_r + 1)
        self.column_steps = 0

    def set_width(self, width: int, pairs=None) -> None:
        """Build the windows at column width `width` of the stage
        buffers (stage field S, stage accelerations B and a) and of the
        flat (Q, Q_dot) pairs `pairs` (the last call's when None), and
        their views."""
        if pairs is not None:
            self._pairs = pairs
        self.S, self.B, self.a = (
            _window(flat, self.rows, width) for flat in self._flat)
        self.pair_windows = tuple(
            tuple(_window(flat, self.rows, width) for flat in pair)
            for pair in self._pairs)
        stacks = (self.S, self.B, self.a, *(Y for pair in self.pair_windows
                                             for Y in pair))
        # keyed by id: the workspace holds each of these stacks until the
        # next call replaces them and the dict together, so no other
        # array can carry the id of an entry
        self._views = {id(Y): _Views(Y) for Y in stacks}

    def views(self, Y: np.ndarray) -> _Views:
        v = self._views.get(id(Y))
        return _Views(Y) if v is None else v

    def laplacian(self, y: np.ndarray) -> np.ndarray:
        """Centered second difference of one row, zero at both ends."""
        out = np.zeros_like(y)
        out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) * self.inv_dr2
        return out

    def u_of(self, V: np.ndarray) -> np.ndarray:
        u = V * self.inv_r[:len(V)]
        u[0] = V[1] / self.dr          # L'Hopital at the origin
        return u

    def du_dr(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        Vr = np.zeros_like(V)
        Vr[1:-1] = (V[2:] - V[:-2]) / (2.0 * self.dr)
        Vr[0] = V[1] / self.dr          # odd reflection
        Vr[-1] = (V[-1] - V[-2]) / self.dr
        ur = (Vr - u) * self.inv_r[:len(V)]
        ur[0] = 0.0                     # regularity: u is even in r
        return ur

    def memory_term(self, X: np.ndarray) -> np.ndarray:
        width = X.shape[-1]
        if self.w.size == 0:
            return np.zeros(width)
        # BLAS orders this sum alike at any width (module docstring)
        S = self.w @ X
        M = S * self.inv_r[:width]
        M[0] = S[1] / self.dr           # L'Hopital at the origin
        return M

    def sources(self, V, V_dot, t: float = 0.0):
        cfg = self.cfg
        u = self.u_of(V)
        ud = self.u_of(V_dot)
        ur = self.du_dr(V, u)
        F = cfg.a_null * (ud ** 2 - ur ** 2) + cfg.b_bad * ud ** 2
        if cfg.n2_override is not None:
            N2 = cfg.n2_override(t, self.r[:len(V)])
        else:
            N2 = cfg.c_grad * (ud ** 2 + ur ** 2) + cfg.d_quad * u ** 2
        return u, ud, ur, F, N2

    def accel(self, t: float, Q: np.ndarray, v: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """dr^2 Q_tt of every row into the C-contiguous `out`.

        `v` is the stage velocity of the V row, the only velocity the
        sources read; a free stack evaluates no source and never reads
        it (module docstring).  The stencil runs over the flattened
        stack; only the boundary columns straddle two rows, and those
        are pinned afterwards.  A +0.0 column stays +0.0: the centre
        product is -0.0 there, and adding the +0.0 neighbours makes it
        +0.0 again.
        """
        q, o = self.views(Q), self.views(out)
        np.multiply(self.centre, Q, out=out)
        inner = o.inner
        inner += q.right
        inner += q.left
        if self.free:
            # as adding the zero sources to rows V and P would: -0.0
            # becomes +0.0
            out += 0.0
        else:
            _, _, _, F, N2 = self.sources(Q[0], v, t)
            M = self.memory_term(Q[2:])
            rs = self.rs[:Q.shape[-1]]
            out[0] += rs * (F + M)
            out[1] += rs * M
            out[2:] += rs * N2
        o.edges.fill(0.0)
        return out


def _window(flat: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The C-contiguous (rows, width) array on the first rows*width
    elements of the flat buffer `flat`."""
    return flat[:rows * width].reshape(rows, width)


def _pad(row: np.ndarray, n: int) -> np.ndarray:
    """`row` followed by +0.0 up to length n, in a fresh array."""
    out = np.zeros(n)
    out[:len(row)] = row
    return out


def _start_width(st: FieldState) -> int:
    """GROWTH columns past the last column holding anything but +0.0,
    at most the full grid."""
    live = np.flatnonzero(st.Q.view(np.uint64).any(axis=0)
                          | st.Q_dot.view(np.uint64).any(axis=0))
    end = int(live[-1]) + 1 if live.size else 0
    return min(st.Q.shape[1], end + GROWTH)


def _relayout(st: FieldState, pair: tuple) -> FieldState:
    """`st` copied into the (Q, Q_dot) arrays `pair`, with +0.0 in any
    columns past its own."""
    keep = min(st.Q.shape[1], pair[0].shape[1])
    for Y, out in zip((st.Q, st.Q_dot), pair):
        out[:, :keep] = Y[:, :keep]
        out[:, keep:] = 0.0
    return FieldState(st.t, *pair)


def _pin_boundaries(*stacks: np.ndarray) -> None:
    for Y in stacks:
        Y[:, 0] = Y[:, -1] = 0.0


def _rk4_step(ws: _Workspace, st: FieldState, dt: float,
              out: tuple) -> FieldState:
    """Classical RK4 on Q_tt = f(t, Q, V_dot), in Nystrom form.

    With h = dt/2, s = 1/dr^2 and the scaled accelerations a_i of
    `_Workspace.accel` (a_i = dr^2 Q_tt at stage i), the stage fields
    are Q + h Qd, Q + h Qd + h^2 s a1 and Q + dt Qd + dt h s a2, and
    only the V row's stage velocities Qd + h s a1, Qd + h s a2 and
    Qd + dt s a3 are formed, and none on a free stack, which reads no
    velocity.  Then

        Q_new  = Q + dt Qd + (dt^2 s/6) (a1 + a2 + a3)
        Qd_new = Qd + (dt s/6) (a1 + 2 a2 + 2 a3 + a4),

    the written-out RK4 step with its stage velocities substituted.  The
    new (Q, Q_dot) is written into the pair `out`; `st` is never written.
    Overflow is not trapped here: `evolve` runs the march with
    overflow and invalid operations ignored.
    """
    t, Q, Qd = st.t, st.Q, st.Q_dot
    K, A = out
    S, B, a = ws.S, ws.B, ws.a
    h, s = 0.5 * dt, ws.inv_dr2
    v = v2 = v3 = v4 = Qd[0]
    free = ws.free
    ws.accel(t, Q, v, a)                        # a = a1
    np.multiply(Qd, h, out=S)
    S += Q                                      # S = Q + h Qd
    if not free:
        v2 = v + h * s * a[0]
    ws.accel(t + h, S, v2, B)                   # B = a2
    S += np.multiply(a, h * h * s, out=K)       # S = stage-3 field
    np.multiply(B, 2.0, out=A)
    A += a                                      # A = a1 + 2 a2
    np.add(a, B, out=K)                         # K = a1 + a2
    if not free:
        v3 = v + h * s * B[0]
    ws.accel(t + h, S, v3, a)                   # a = a3
    if not free:
        v4 = v + dt * s * a[0]                  # before a is doubled
    np.multiply(Qd, dt, out=S)
    S += Q                                      # S = Q + dt Qd
    B *= dt * h * s
    B += S                                      # B = stage-4 field
    K += a                                      # K = a1 + a2 + a3
    A += np.multiply(a, 2.0, out=a)             # A = a1 + 2 a2 + 2 a3
    ws.accel(t + dt, B, v4, a)                  # a = a4
    A += a
    K *= dt * dt * s / 6.0
    K += S
    A *= dt * s / 6.0
    A += Qd
    ws.views(K).edges.fill(0.0)
    ws.views(A).edges.fill(0.0)
    return FieldState(t + dt, K, A)


def _march(ws: _Workspace, st: FieldState, dt: float, n_steps: int):
    """Yield the state after each of `n_steps` RK4 steps from `st`.

    `st` holds full-grid rows.  The steps run in the column window
    [0, W), W starting GROWTH columns past the data and growing by
    GROWTH whenever a step leaves anything but +0.0 in the last GUARD
    columns (see the module docstring); a yielded state holds the first
    W columns of the full-width state, bit for bit, and +0.0 lies beyond
    them.  A prescribed memory source can be nonzero anywhere, so with
    `n2_override` the window is the full grid.  `ws.column_steps` adds
    up W over the steps.

    Two flat (Q, Q_dot) pairs alternate, `st`'s own arrays and a spare
    pair, and each (rows, W) state takes the first rows*W elements of
    one of them; `ws.set_width` builds both pairs' windows and views
    at the start and at each growth.  So `st` may be overwritten from
    the first step on, and a yielded state holds only until the next
    one is yielded.
    """
    full = st.Q.shape[1]
    pairs = ((st.Q.reshape(-1), st.Q_dot.reshape(-1)),
             (np.empty(st.Q.size), np.empty(st.Q.size)))
    width = full if ws.cfg.n2_override is not None else _start_width(st)
    ws.set_width(width, pairs)
    if width < full:
        st, spare = _relayout(st, ws.pair_windows[1]), 0
    else:
        st, spare = FieldState(st.t, *ws.pair_windows[0]), 1
    for _ in range(n_steps):
        st, spare = _rk4_step(ws, st, dt, ws.pair_windows[spare]), 1 - spare
        ws.column_steps += width
        # the guard's bits decide: -0.0 and NaN count as nonzero
        if width < full and (np.count_nonzero(ws.views(st.Q).guard)
                             or np.count_nonzero(ws.views(st.Q_dot).guard)):
            width = min(full, width + GROWTH)
            ws.set_width(width)
            st, spare = _relayout(st, ws.pair_windows[spare]), 1 - spare
        yield st


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


def _diagnose(ws: _Workspace, st: FieldState, cfg: ModelConfig
              ) -> tuple[DiagnosticsRecord, np.ndarray]:
    """The diagnostics record of `st` and its memory term M.

    The rows are padded with +0.0 to the full grid, so the sums run over
    the arrays of the full-width march whatever the window.
    """
    r = ws.r
    V, V_dot = _pad(st.V, len(r)), _pad(st.V_dot, len(r))
    M = _pad(ws.memory_term(st.X), len(r))
    u, ud, ur, F, N2 = ws.sources(V, V_dot, st.t)
    # second time derivative of u via the evolution equation
    rFM = r * (F + M)
    rFM[0] = rFM[-1] = 0.0
    aV = ws.laplacian(V) + rFM
    udd = ws.u_of(aV)
    udr = ws.du_dr(V_dot, ud)

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
        mem_norm=math.sqrt(norm2(M)), src_norm=math.sqrt(norm2(N2))), M


def _snapshot(ws: _Workspace, st: FieldState) -> dict:
    """Full-grid copies of the rows of `st`, and u, M and Phi."""
    n = len(ws.r)
    V, P = _pad(st.V, n), _pad(st.P, n)
    return {"t": st.t, "V": V, "V_dot": _pad(st.V_dot, n), "P": P,
            "P_dot": _pad(st.P_dot, n), "u": ws.u_of(V),
            "M": _pad(ws.memory_term(st.X), n), "Phi": ws.u_of(P)}


def march_schedule(cfg: ModelConfig, grid: Grid,
                   snapshot_times=()) -> tuple[int, float, dict]:
    """(n_steps, dt, snapshot steps) of `evolve`, known before any step.

    dt is cfl*dr shrunk so that an even number of steps lands exactly on
    t_final (resolution studies compare fields at matching times).  The
    dict maps each step that takes a snapshot to the first of
    `snapshot_times` that rounds to it; a run to t_final = 0 has only
    the initial state, as its snapshot at 0.
    """
    if cfg.t_final == 0.0:
        return 0, 0.0, {0: 0.0}
    n_steps = 2 * max(1, math.ceil(cfg.t_final / (2.0 * cfg.cfl * grid.dr)))
    dt = cfg.t_final / n_steps
    snap_steps = {}
    for ts in snapshot_times:
        idx = int(round(ts / dt))
        if 0 <= idx <= n_steps:
            snap_steps.setdefault(idx, float(ts))
    return n_steps, dt, snap_steps


def evolve(cfg: ModelConfig, grid: Grid, cadence: int = 10,
           snapshot_times=()) -> RunOutput:
    """March to t_final recording diagnostics every `cadence` steps.

    The steps, dt and snapshot steps are `march_schedule`'s, and the
    padding and the stiffness guard are checked here, once, at that dt.
    A detected blow-up terminates the march and returns the partial
    output with the failure time recorded.
    """
    if cadence < 1:
        raise ValidationError("cadence must be a positive integer")
    n_steps, dt, snap_steps = march_schedule(cfg, grid, snapshot_times)
    cfg.validate_against(grid, dt)
    ws = _Workspace(cfg, grid)
    st = initialize(cfg, grid)

    records, mprofs = [], []
    snapshots = {}
    diagnose_s = 0.0
    due = {*range(0, n_steps + 1, cadence), n_steps}     # record steps
    stops = due | snap_steps.keys()

    def record(st: FieldState, n: int) -> None:
        nonlocal diagnose_s
        start = perf_counter()
        if n in due:
            rec, M = _diagnose(ws, st, cfg)
            records.append(rec)
            mprofs.append(M)
        if n in snap_steps:
            snapshots[snap_steps[n]] = _snapshot(ws, st)
        diagnose_s += perf_counter() - start

    start = perf_counter()
    blow_up = {}                # the BlowUpError detail: time and radius
    n = 0
    # overflow during a developing blow-up is expected and detected
    # afterwards, and the last state before it may overflow in the
    # diagnostics too; its record keeps the inf and nan values
    with np.errstate(over="ignore", invalid="ignore"):
        record(st, 0)
        for n, st in enumerate(_march(ws, st, dt, n_steps), start=1):
            try:
                _check_finite(st, grid)
            except BlowUpError as exc:
                blow_up = exc.detail
                break
            if n in stops:
                record(st, n)
    march_s = perf_counter() - start - diagnose_s

    return RunOutput(cfg, grid, dt, records, np.array(mprofs), snapshots,
                     not blow_up, blow_up.get("time"), blow_up.get("radius"),
                     n, cfg.stiffness_guard(grid, dt), ws.column_steps,
                     march_s, diagnose_s)


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
