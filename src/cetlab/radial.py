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

A stack without memory modes marches the V row alone.  There M is
+0.0, so P_tt = P_rr + r*M keeps P at +0.0, bit for bit, at every
stage, and V never reads P (the only columns the flat stencil shares
between rows are pinned after it); the march would only carry that
row along.  So the stack is Q = (V,) without modes and
Q = (V, P, X_0 .. X_{m-1}) with m of them (`stack_rows`), and
`FieldState.P` of a one-row stack is a +0.0 row.  A non-free mode-less
stack still adds r*(F + M), M = +0.0, to V.

A free stack (no mode rows, a_null and b_bad both +0.0) marches the
bare stencil and evaluates no source: there F and M are zero and N2
lands on no row.  Adding those zeros would turn a -0.0 on row V into
+0.0, and the window reads bits, so a free stack adds 0.0 to its row
and stays bitwise the sum of every term.  Every other stack evaluates
and adds every term.  A free run whose u^2 overflows thus completes
unless V itself overflows (the source sum would meet 0 * inf = nan in
F), and its records hold the overflowed energies.

The march runs in a column window [0, W) that grows behind the front.
Compactly supported data stay compactly supported: ahead of the front
every row is bitwise +0.0, because the discrete precursor underflows.
Before each step every column >= W - 8 of Q and Q_dot is +0.0; a step
reaches at most four columns (one 3-point stencil per stage), so the
full-width march would hold +0.0 at every column >= W - 4 after it, and
the window's edge rules write exactly that.  The windowed march is
therefore bitwise the full-width one.

The march steps one state, in place, in the arrays that `initialize`
made, and builds every view it reads once per window width
(`_Workspace.set_width`), not per stage or step: the windows of the five
stage buffers and of the state, with their flat stencil slices, their
rows, their boundary columns as one strided view and their guard
columns; the windows of the row buffers; and a C-contiguous (rows, W)
window of the stencil's centre coefficients, which numpy multiplies
without buffering a broadcast of their (rows, 1) column.  When the
window grows, the state is laid out again at the new width through a
stage buffer.  A non-free step computes its sources, memory term and
stage velocities in those full-width row buffers, with `out=` ufuncs
and the operands of the allocating formulas, each square formed once,
so its bits are the formulas'.  Three desk-sized 21-mode steps
(n_r = 2048) peak at 3.1 grid rows of temporaries, numpy's buffer for
the N2 row broadcast over the mode rows.  A free step (n_r = 256: 245
values) costs mostly its numpy calls, 44 of them; a non-free step makes
257 (counting ufunc calls, array operators, indexing, array methods and
numpy scalar operations, and the march's two guard counts).  `evolve`
ignores overflow and invalid operations for the whole run, not per
step; the march itself leaves numpy's error state alone.

Every array the march streams over starts on a 64-byte cache line
(`_aligned`): Q and Q_dot as `initialize` makes them, the five stage
buffers, the centre coefficients' buffer, each row of the row buffers
(their row stride rounded up to whole lines), and the grid rows 1/r and
dr^2 r.  A window is the first rows*W values of its flat buffer, so
each stack window starts on a line at every width.  numpy otherwise
places arrays this large 16 bytes past a page, and on a 2-core x86-64
host a three-operand add over a desk-sized window (23 x 1483 doubles)
took 10.8 us aligned against 26.2 us there (in place 9.6 against
12.6 us).  The same ufuncs run in the same order on the same values, so
the bits are those of any other placement; only the time moves.

The memory sum is one BLAS matvec, w @ X, which is +0.0 on a stack
without mode rows.  OpenBLAS (measured for every W up to 2048 at 21 to
90 rows, with one thread or two) sums every column of w @ X[:, :W] as at
full width except the last W mod 4, and those lie in the +0.0 band,
where any order gives +0.0; so the window stays bitwise.

Diagnostics per record: plain and ghost-weighted derivative energies,
the light-cone flux generated by the weight, sup |u|, the origin trace,
and L2(r^2 dr) norms of the memory term and its source.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from .errors import (PaddingViolatedError, StiffnessGuardError,
                     ValidationError)
from .quadrature import EMPTY_RULE, MassQuadrature
from .resolvent import STABILITY_LIMIT

# columns at the window's edge that must stay +0.0, and the columns the
# window grows by when a step leaves anything else there
GUARD = 8
GROWTH = 64
# doubles per 64-byte cache line, on which every array the march streams
# over starts (`_aligned`)
_LINE = 8


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
        try:
            dr = self.dr
        except OverflowError:           # an n_r past the double range
            dr = 0.0
        if not 0.0 < dr < math.inf:
            raise ValidationError("r_max/n_r must be a positive finite "
                                  "grid spacing")

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
    # None stands for EMPTY_RULE, which __post_init__ puts in its place
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
        if self.quad is None:
            object.__setattr__(self, "quad", EMPTY_RULE)
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
        return float(self.quad.nodes.max(initial=0.0))

    def stiffness_guard(self, grid: Grid, dt: float) -> float:
        """dt * sqrt(mu_max + (pi/dr)^2): dt times the grid's top frequency."""
        return dt * math.sqrt(self.mu_max() + (math.pi / grid.dr) ** 2)


def padded_r_max(cfg: ModelConfig) -> float:
    """Smallest admissible outer radius for this configuration."""
    return cfg.support_radius + cfg.t_final + 2.0


def stack_rows(cfg: ModelConfig) -> int:
    """Rows of the marched stack: 1 (V) without memory modes, m + 2
    (V, P, X_0 .. X_{m-1}) with m (module docstring)."""
    m = len(cfg.quad)
    return m + 2 if m else 1


@dataclass
class FieldState:
    """Field rows Q = (V, P, X_0 .. X_{m-1}), shape (m+2, n_r+1), and
    Q_dot; without memory modes Q = (V,), shape (1, n_r+1).

    Every row obeys Q_tt = Q_rr - mu Q + source, with mu = 0 on V and P
    and mu = mu_j on X_j.  V, V_dot, P, P_dot, X and X_dot are read-only
    properties that return views of the rows; on a one-row stack P and
    P_dot are fresh +0.0 rows, the values that row would hold, and X and
    X_dot have no rows.
    """
    t: float
    Q: np.ndarray
    Q_dot: np.ndarray

    V = property(lambda self: self.Q[0])
    V_dot = property(lambda self: self.Q_dot[0])
    P = property(lambda self: _profile_row(self.Q))
    P_dot = property(lambda self: _profile_row(self.Q_dot))
    X = property(lambda self: self.Q[2:])
    X_dot = property(lambda self: self.Q_dot[2:])


def _profile_row(Y: np.ndarray) -> np.ndarray:
    """Row P of the stack `Y`, or +0.0 of its width on a one-row stack."""
    return Y[1] if len(Y) > 1 else np.zeros(Y.shape[1])


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
    # rows of the marched stack (`stack_rows`): column_steps*rows values
    # were marched
    rows: int = 0
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
    try:
        # a bump too narrow for doubles on this grid (sigma = 1e-300), or
        # too large, overflows here: refused rather than marched as inf
        with np.errstate(over="raise"):
            u0 = _profile(cfg, r)
            V = r * u0
            if cfg.velocity_mode == "time-symmetric":
                V_dot = np.zeros_like(V)
            else:
                # u1 = -du0/dr - u0/r, i.e. V_dot = -dV/dr, analytically
                V_dot = -(u0 + r * _profile_derivative(cfg, r))
                # the expression is -0.0 outside the support; + 0.0 makes
                # that +0.0, as the march's window needs, and leaves the
                # rest alone
                V_dot += 0.0
    except FloatingPointError:
        raise ValidationError(
            f"initial data overflows double precision: epsilon = "
            f"{cfg.epsilon!r}, r_c = {cfg.r_c!r}, sigma = {cfg.sigma!r}"
        ) from None
    rows, n = stack_rows(cfg), grid.n_r + 1
    Q, Q_dot = (_aligned(rows * n).reshape(rows, n) for _ in range(2))
    Q[0], Q_dot[0] = V, V_dot
    _pin_boundaries(Q, Q_dot)
    return FieldState(0.0, Q, Q_dot)


class _Views:
    """One C-contiguous (rows, W) stack `Y` and the views of it that a
    step reads: the flat stencil slices, the V row, the P row and the
    mode rows (None and no rows on a one-row stack), the boundary columns
    as one strided view, and the guard columns' bits."""

    __slots__ = ("Y", "inner", "right", "left", "V", "P", "X", "edges",
                 "guard")

    def __init__(self, Y: np.ndarray):
        self.Y = Y
        flat = Y.reshape(-1)
        self.inner, self.right, self.left = flat[1:-1], flat[2:], flat[:-2]
        self.V, self.P, self.X = Y[0], Y[1] if len(Y) > 1 else None, Y[2:]
        self.edges = Y[:, ::Y.shape[1] - 1]
        self.guard = Y[:, -GUARD:].view(np.uint64)


class _Rows:
    """The first `width` columns of the workspace's row buffers: u, u_t,
    u_r, u_t^2, u_r^2, F, N2, M, a scratch row and the V row's stage
    velocity."""

    BUFFERS = ("u", "ud", "ur", "ud2", "ur2", "F", "N2", "M", "tmp", "v")
    __slots__ = BUFFERS

    def __init__(self, buffers: np.ndarray, width: int):
        for name, row in zip(self.BUFFERS, buffers[:, :width]):
            setattr(self, name, row)


class _Workspace:
    """Grid quantities, buffers, views and the marched state of one stack.

    The stack has `rows` rows (`stack_rows`: m + 2 with m memory modes,
    1 without).  The five stage buffers are flat, of the full stack's
    size rows*(n_r+1), and are reused by every step; the state is the
    (Q, Q_dot) arrays of the full-width state that `hold` hands over,
    held flat and stepped in place.  At column width W each (rows, W)
    stack, stage array or state, is the first rows*W elements of its
    flat array, and the stencil's centre coefficients have a flat buffer
    of their own.  The sources, the memory term and the V row's stage
    velocities go into full-width row buffers (`_Rows`), so a step
    allocates no stack and no grid row (module docstring).  `set_width`
    builds the windows once per width, as `_Views` S (stage field), B
    and a (stage accelerations), K and A (stage sums), and Q and Q_dot
    once a state is held, and as the rows' `_Rows`; `row_buffers` hands
    those out, and builds the rows of any other width (the diagnostics'
    full width) on the spot.
    """

    def __init__(self, cfg: ModelConfig, grid: Grid):
        self.cfg = cfg
        self.r = grid.r
        self.dr = grid.dr
        self.inv_dr2 = 1.0 / grid.dr ** 2
        n = grid.n_r + 1
        self.inv_r = _aligned(n)
        np.divide(1.0, self.r[1:], out=self.inv_r[1:])
        # the sources' factor, dr^2 r
        self.rs = np.multiply(grid.dr ** 2, self.r, out=_aligned(n))
        self.w = cfg.quad.weights
        self.rows = stack_rows(cfg)
        # no source reaches the one row: march the bare stencil (module
        # docstring); the bits decide, so a -0.0 coupling is not free
        self.free = self.rows == 1 and not np.array(
            [cfg.a_null, cfg.b_bad]).view(np.uint64).any()
        # dr^2 times the centre coefficient of Q_rr - mu Q, as a (rows, 1)
        # column; `set_width` spreads it over a C-contiguous window, as
        # numpy would buffer the broadcast column over the whole stack
        self.centre = np.full((self.rows, 1), -2.0)
        self.centre[2:, 0] -= cfg.quad.nodes * grid.dr ** 2
        size = self.rows * n
        self._centre_flat = _aligned(size)
        self._flat = [_aligned(size) for _ in range(5)]
        self._state = ()            # the held (Q, Q_dot), flat
        # each row starts on a cache line: the stride is n rounded up to
        # whole lines
        stride = -(-n // _LINE) * _LINE
        self._row_buffers = _aligned(len(_Rows.BUFFERS) * stride).reshape(
            len(_Rows.BUFFERS), stride)[:, :n]
        self.width = n
        self.set_width(self.width)
        self.column_steps = 0

    def hold(self, st: FieldState, width: int) -> None:
        """March the arrays of the full-width state `st` from now on,
        laid out at column width `width`."""
        self._state = (st.Q.reshape(-1), st.Q_dot.reshape(-1))
        self.width = st.Q.shape[1]
        self.set_width(width)

    def set_width(self, width: int) -> None:
        """Lay the stacks out at column width `width` and build their
        views and the row buffers' windows.  The held state keeps its
        first columns, bit for bit, and reads +0.0 in any new ones; it
        moves through the stage field's buffer, free between steps."""
        rows, keep = self.rows, min(self.width, width)
        buffer = _window(self._flat[0], rows, self.width)
        for flat in self._state:
            np.copyto(buffer, _window(flat, rows, self.width))
            Y = _window(flat, rows, width)
            Y[:, :keep] = buffer[:, :keep]
            Y[:, keep:] = 0.0
        self.S, self.B, self.a, self.K, self.A, *state = (
            _Views(_window(flat, rows, width))
            for flat in (*self._flat, *self._state))
        self.Q, self.Q_dot = state or (None, None)
        self.centre_window = _window(self._centre_flat, rows, width)
        self.centre_window[...] = self.centre
        self._rows = _Rows(self._row_buffers, width)
        self.width = width

    def row_buffers(self, width: int) -> _Rows:
        return self._rows if width == self.width else _Rows(
            self._row_buffers, width)

    def laplacian(self, y: np.ndarray) -> np.ndarray:
        """Centered second difference of one row, zero at both ends."""
        out = np.zeros_like(y)
        out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) * self.inv_dr2
        return out

    def u_of(self, V: np.ndarray, out=None) -> np.ndarray:
        """V/r into `out`, a fresh array when None."""
        u = np.multiply(V, self.inv_r[:len(V)], out=out)
        u[0] = V[1] / self.dr          # L'Hopital at the origin
        return u

    def du_dr(self, V: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
        """d(V/r)/dr from V and u = V/r into `out`, a fresh array when
        None."""
        Vr = np.empty_like(V) if out is None else out
        inner = np.subtract(V[2:], V[:-2], out=Vr[1:-1])
        np.divide(inner, 2.0 * self.dr, out=inner)
        Vr[0] = V[1] / self.dr          # odd reflection
        Vr[-1] = (V[-1] - V[-2]) / self.dr
        ur = np.subtract(Vr, u, out=Vr)
        np.multiply(ur, self.inv_r[:len(V)], out=ur)
        ur[0] = 0.0                     # regularity: u is even in r
        return ur

    def memory_term(self, X: np.ndarray) -> np.ndarray:
        """M = (w @ X)/r in the row buffer M, which holds only until the
        next call."""
        width = X.shape[-1]
        M = self.row_buffers(width).M
        # BLAS orders this sum alike at any width (module docstring)
        S = np.matmul(self.w, X, out=M)
        origin = S[1] / self.dr         # L'Hopital at the origin
        np.multiply(S, self.inv_r[:width], out=M)
        M[0] = origin
        return M

    def sources(self, V, V_dot, t: float = 0.0):
        """(u, u_t, u_r, F, N2) of the V row and its velocity `V_dot`.

        F = a_null (u_t^2 - u_r^2) + b_bad u_t^2 and, unless `n2_override`
        prescribes it, N2 = c_grad (u_t^2 + u_r^2) + d_quad u^2, each
        product and sum with the operands of that formula and each
        square formed once.  The rows are the workspace's row buffers
        (a prescribed N2 excepted): they hold only until the next call.
        """
        cfg, b = self.cfg, self.row_buffers(len(V))
        u = self.u_of(V, out=b.u)
        ud = self.u_of(V_dot, out=b.ud)
        ur = self.du_dr(V, u, out=b.ur)
        ud2 = np.multiply(ud, ud, out=b.ud2)
        ur2 = np.multiply(ur, ur, out=b.ur2)
        F = np.subtract(ud2, ur2, out=b.F)
        np.multiply(cfg.a_null, F, out=F)
        F += np.multiply(cfg.b_bad, ud2, out=b.tmp)
        if cfg.n2_override is not None:
            N2 = cfg.n2_override(t, self.r[:len(V)])
        else:
            N2 = np.add(ud2, ur2, out=b.N2)
            np.multiply(cfg.c_grad, N2, out=N2)
            u2 = np.multiply(u, u, out=b.tmp)
            N2 += np.multiply(cfg.d_quad, u2, out=u2)
        return u, ud, ur, F, N2

    def accel(self, t: float, q: _Views, v: np.ndarray,
              o: _Views) -> None:
        """dr^2 Q_tt of every row of the stack `q.Y` into `o.Y`, both at
        the workspace's width.

        `v` is the stage velocity of the V row, the only velocity the
        sources read; a free stack evaluates no source and never reads
        it (module docstring).  The stencil runs over the flattened
        stack; only the boundary columns straddle two rows, and those
        are pinned afterwards.  A +0.0 column stays +0.0: the centre
        product is -0.0 there, and adding the +0.0 neighbours makes it
        +0.0 again.  The source terms go through the scratch row.
        """
        np.multiply(self.centre_window, q.Y, out=o.Y)
        inner = o.inner
        inner += q.right
        inner += q.left
        if self.free:
            # as adding the zero sources to row V would: -0.0 becomes
            # +0.0
            o.Y += 0.0
        else:
            _, _, _, F, N2 = self.sources(q.V, v, t)
            M = self.memory_term(q.X)
            rs, tmp = self.rs[:self.width], self._rows.tmp
            o.V += np.multiply(rs, np.add(F, M, out=tmp), out=tmp)
            if o.P is not None:
                o.P += np.multiply(rs, M, out=tmp)
                o.X += np.multiply(rs, N2, out=tmp)
        o.edges.fill(0.0)


def _aligned(size: int) -> np.ndarray:
    """+0.0 in a fresh 1-d array of `size` doubles that starts on a
    64-byte cache line (module docstring)."""
    base = np.zeros(size + _LINE)
    skip = -base.ctypes.data % (8 * _LINE) // 8
    return base[skip:skip + size]


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


def _pin_boundaries(*stacks: np.ndarray) -> None:
    for Y in stacks:
        Y[:, 0] = Y[:, -1] = 0.0


def _rk4_step(ws: _Workspace, t: float, dt: float) -> None:
    """Classical RK4 on Q_tt = f(t, Q, V_dot), in Nystrom form, from time
    `t` on the workspace's state (Q, Qd), in place.

    With h = dt/2, s = 1/dr^2 and the scaled accelerations a_i of
    `_Workspace.accel` (a_i = dr^2 Q_tt at stage i), the stage fields
    are Q + h Qd, Q + h Qd + h^2 s a1 and Q + dt Qd + dt h s a2, and
    only the V row's stage velocities Qd + h s a1, Qd + h s a2 and
    Qd + dt s a3 are formed, in one row buffer, and none on a free
    stack, which reads no velocity.  Then

        Q_new  = Q + dt Qd + (dt^2 s/6) (a1 + a2 + a3)
        Qd_new = Qd + (dt s/6) (a1 + 2 a2 + 2 a3 + a4),

    the written-out RK4 step with its stage velocities substituted; the
    sums build up in the stage buffers K and A, and only the last two
    additions write the state.  Overflow is not trapped here: `evolve`
    runs the march with overflow and invalid operations ignored.
    """
    Q, Qd = ws.Q.Y, ws.Q_dot.Y
    S, B, a, K, A = ws.S.Y, ws.B.Y, ws.a.Y, ws.K.Y, ws.A.Y
    h, s = 0.5 * dt, ws.inv_dr2
    v = v2 = v3 = v4 = Qd[0]
    free = ws.free
    if not free:
        w = ws.row_buffers(ws.width).v          # each stage velocity
    ws.accel(t, ws.Q, v, ws.a)                  # a = a1
    np.multiply(Qd, h, out=S)
    S += Q                                      # S = Q + h Qd
    if not free:
        v2 = np.add(v, np.multiply(h * s, a[0], out=w), out=w)
    ws.accel(t + h, ws.S, v2, ws.B)             # B = a2
    S += np.multiply(a, h * h * s, out=K)       # S = stage-3 field
    np.multiply(B, 2.0, out=A)
    A += a                                      # A = a1 + 2 a2
    np.add(a, B, out=K)                         # K = a1 + a2
    if not free:
        v3 = np.add(v, np.multiply(h * s, B[0], out=w), out=w)
    ws.accel(t + h, ws.S, v3, ws.a)             # a = a3
    if not free:                                # before a is doubled
        v4 = np.add(v, np.multiply(dt * s, a[0], out=w), out=w)
    np.multiply(Qd, dt, out=S)
    S += Q                                      # S = Q + dt Qd
    B *= dt * h * s
    B += S                                      # B = stage-4 field
    K += a                                      # K = a1 + a2 + a3
    A += np.multiply(a, 2.0, out=a)             # A = a1 + 2 a2 + 2 a3
    ws.accel(t + dt, ws.B, v4, ws.a)            # a = a4
    A += a
    K *= dt * dt * s / 6.0
    np.add(K, S, out=Q)
    A *= dt * s / 6.0
    np.add(A, Qd, out=Qd)
    ws.Q.edges.fill(0.0)
    ws.Q_dot.edges.fill(0.0)


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

    The workspace holds the one marched state in `st`'s own arrays
    (`_Workspace.hold`), laid out at the start width; each step writes
    it in place, and each growth lays it out again at the new width.
    So `st` is overwritten once the march starts, and a yielded state
    holds only until the next one is yielded.
    """
    full = st.Q.shape[1]
    ws.hold(st, full if ws.cfg.n2_override is not None else _start_width(st))
    t = st.t
    for _ in range(n_steps):
        _rk4_step(ws, t, dt)
        t += dt
        ws.column_steps += ws.width
        # the guard's bits decide: -0.0 and NaN count as nonzero
        if ws.width < full and (np.count_nonzero(ws.Q.guard)
                                or np.count_nonzero(ws.Q_dot.guard)):
            ws.set_width(min(full, ws.width + GROWTH))
        yield FieldState(t, ws.Q.Y, ws.Q_dot.Y)


def _check_finite(st: FieldState, grid: Grid):
    """None if `st` is finite, else its blow-up's (time, radius): the
    radius of the first nonfinite V value, None where V is finite."""
    # X_dot is left out: a nonfinite mode velocity reaches X a step later
    if np.isfinite(st.Q).all() and np.isfinite(st.Q_dot[:2]).all():
        return None
    bad = ~np.isfinite(st.V)
    return st.t, float(grid.r[int(np.argmax(bad))]) if bad.any() else None


def _diagnose(ws: _Workspace, st: FieldState, cfg: ModelConfig,
              M: np.ndarray) -> DiagnosticsRecord:
    """The diagnostics record of `st`; its memory term goes into the
    +0.0 full-grid row `M`.

    The rows are padded with +0.0 to the full grid, so the sums run over
    the arrays of the full-width march whatever the window.
    """
    r = ws.r
    V, V_dot = _pad(st.V, len(r)), _pad(st.V_dot, len(r))
    M[:st.Q.shape[1]] = ws.memory_term(st.X)
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
        mem_norm=math.sqrt(norm2(M)), src_norm=math.sqrt(norm2(N2)))


def _snapshot(ws: _Workspace, st: FieldState) -> dict:
    """Full-grid copies of the rows of `st`, and u, M and Phi."""
    n = len(ws.r)
    V, P = _pad(st.V, n), _pad(st.P, n)
    return {"t": st.t, "V": V, "V_dot": _pad(st.V_dot, n), "P": P,
            "P_dot": _pad(st.P_dot, n), "u": ws.u_of(V),
            "M": _pad(ws.memory_term(st.X), n), "Phi": ws.u_of(P)}


def march_schedule(cfg: ModelConfig, grid: Grid,
                   snapshot_times=()) -> tuple[int, float, dict]:
    """(n_steps, dt, snapshot steps) of `evolve`, known before any step,
    and the one check of a run: the padding, a finite step count, then
    the stiffness guard at that dt.

    The steps are counted once `grid` pads the run.  dt is cfl*dr shrunk
    so that an even number of steps lands exactly on t_final
    (resolution studies compare fields at matching times).  The dict
    maps each step that takes a snapshot to the first of
    `snapshot_times` that rounds to it; a run to t_final = 0 has only
    the initial state, as its snapshot at 0.
    """
    need = padded_r_max(cfg)
    if grid.r_max + 1e-9 < need:
        raise PaddingViolatedError(f"padding-violated: need r_max >= "
                                   f"{need:.6g}, got {grid.r_max:.6g}")
    if cfg.t_final == 0.0:
        return 0, 0.0, {0: 0.0}
    # padding bounds the count only by about n_r/(2 cfl): a tiny cfl
    # can still make it infinite, or make 2 cfl dr underflow to 0
    span = 2.0 * cfg.cfl * grid.dr
    half_steps = cfg.t_final / span if span else math.inf
    if not half_steps < math.inf:
        raise ValidationError(f"t_final/(2*cfl*dr) = {half_steps} is no "
                              f"finite step count")
    n_steps = 2 * max(1, math.ceil(half_steps))
    dt = cfg.t_final / n_steps
    if dt == 0.0:               # a subnormal t_final halves to 0
        raise ValidationError(f"dt = t_final/{n_steps} underflows to 0")
    guard = cfg.stiffness_guard(grid, dt)
    if guard > STABILITY_LIMIT:
        # shortest round-trip digits: never equal to the limit's
        raise StiffnessGuardError(
            f"stiffness-guard-violated: dt*sqrt(mu_max + (pi/dr)^2) = "
            f"{guard} > {STABILITY_LIMIT}")
    snap_steps = {}
    for ts in snapshot_times:
        idx = int(round(ts / dt))
        if 0 <= idx <= n_steps:
            snap_steps.setdefault(idx, float(ts))
    return n_steps, dt, snap_steps


def evolve(cfg: ModelConfig, grid: Grid, cadence: int = 10,
           snapshot_times=()) -> RunOutput:
    """March to t_final recording diagnostics every `cadence` steps.

    The steps, dt and snapshot steps are `march_schedule`'s, which checks
    the run; a run whose arrays would not fit in the host's memory is
    then refused before any is allocated.  A detected blow-up
    terminates the march and returns the partial output with the
    failure time recorded.
    """
    if cadence < 1:
        raise ValidationError("cadence must be a positive integer")
    n_steps, dt, snap_steps = march_schedule(cfg, grid, snapshot_times)
    # the grid rows a run holds: eight stacks (five stage buffers, the
    # centre window, Q and Q_dot), the row buffers, the workspace's three
    # grid rows, one memory profile per record and seven full-grid rows
    # (V, V_dot, P, P_dot, u, M, Phi) per snapshot
    n_records = -(-n_steps // cadence) + 1
    need = 8 * (grid.n_r + 1) * (8 * stack_rows(cfg) + len(_Rows.BUFFERS)
                                 + 3 + n_records + 7 * len(snap_steps))
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValidationError(f"{n_steps} steps on {grid.n_r + 1} columns "
                              f"need {need} bytes up front; the host has "
                              f"{have}")
    ws = _Workspace(cfg, grid)
    st = initialize(cfg, grid)

    records, snapshots = [], {}
    diagnose_s = 0.0
    due = {*range(0, n_steps + 1, cadence), n_steps}     # record steps
    stops = due | snap_steps.keys()
    # one memory profile per record, written in place
    m_profiles = np.zeros((len(due), grid.n_r + 1))

    def record(st: FieldState, n: int) -> None:
        nonlocal diagnose_s
        start = perf_counter()
        if n in due:
            records.append(_diagnose(ws, st, cfg,
                                     m_profiles[len(records)]))
        if n in snap_steps:
            snapshots[snap_steps[n]] = _snapshot(ws, st)
        diagnose_s += perf_counter() - start

    start = perf_counter()
    blow_up = None              # (time, radius) of a detected blow-up
    n = 0
    # overflow during a developing blow-up is expected and detected
    # afterwards, and the last state before it may overflow in the
    # diagnostics too; its record keeps the inf and nan values
    with np.errstate(over="ignore", invalid="ignore"):
        record(st, 0)
        for n, st in enumerate(_march(ws, st, dt, n_steps), start=1):
            blow_up = _check_finite(st, grid)
            if blow_up is not None:
                break
            if n in stops:
                record(st, n)
    march_s = perf_counter() - start - diagnose_s

    return RunOutput(cfg, grid, dt, records, m_profiles[:len(records)],
                     snapshots, blow_up is None, *(blow_up or (None, None)),
                     n, cfg.stiffness_guard(grid, dt), ws.column_steps,
                     ws.rows, march_s, diagnose_s)


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
