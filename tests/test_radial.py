import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cetlab import (Grid, MassQuadrature, ModelConfig, PowerLawExp,
                    ValidationError, build_quadrature, evolve,
                    free_wave_exact, initialize, padded_r_max,
                    scattering_residual)
from cetlab import radial
from cetlab.errors import PaddingViolatedError
from cetlab.quadrature import gauss_laguerre_generalized
from cetlab.radial import (FieldState, _check_finite, _march, _rk4_step,
                           _Workspace, ghost_q, ghost_q_prime,
                           march_schedule)
from cetlab.resolvent import (STABILITY_LIMIT, ModeParams, TimeSeries,
                              kg_retarded)


def free_cfg(**kw):
    base = dict(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0, d_quad=0.0,
                quad=None, cfl=0.5, t_final=10.0, r_c=5.0, sigma=1.0)
    base.update(kw)
    return ModelConfig(**base)


def fresh_step(ws, st, dt):
    """`_rk4_step` on a fresh copy of `st`, held at its own width."""
    new = FieldState(st.t + dt, st.Q.copy(), st.Q_dot.copy())
    ws.hold(new, new.Q.shape[1])
    _rk4_step(ws, st.t, dt)
    return new


def step_on_a_copy(ws, t, dt):
    """A `_rk4_step` replacement: the step on a fresh full-width copy of
    the workspace's state, held at the workspace's width."""
    n = len(ws.r)
    ws.hold(FieldState(t, *(np.stack([radial._pad(row, n) for row in Y])
                            for Y in (ws.Q.Y, ws.Q_dot.Y))), ws.width)
    _rk4_step(ws, t, dt)


def accel_of(accel, ws, t, Q, v):
    """`accel` (`_Workspace.accel` or an oracle of its signature) of the
    stack `Q` with V-row velocity `v`, into a fresh array."""
    out = np.empty_like(Q)
    accel(ws, t, radial._Views(Q), v, radial._Views(out))
    return out


def step(state, cfg, grid):
    """One RK4 step of cfl*dr of the full system on a fresh copy, for
    a run that `march_schedule` admits; fails on nonfinite values."""
    march_schedule(cfg, grid)
    new = fresh_step(_Workspace(cfg, grid), state, cfg.cfl * grid.dr)
    assert _check_finite(new, grid) is None
    return new


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_profiles_match_records(out):
    """`out.m_profiles` holds one row per record, and each row's
    L2(r^2 dr) norm is its record's `mem_norm`, bit for bit."""
    grid = out.grid
    assert out.m_profiles.shape == (len(out.records), grid.n_r + 1)
    r2 = grid.r * grid.r
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [math.sqrt(float(np.trapezoid(M * M * r2, dx=grid.dr)))
                 for M in out.m_profiles]
    assert same_bits(np.array(norms), out.series("mem_norm"))


# The sources and the memory term as allocating formulas, each on fresh
# arrays: the oracle that the workspace's row buffers must match bit for
# bit (TestInPlaceSources, and through `all_terms_accel` and
# `reference_accel` every march test).

def reference_u_of(ws, V):
    u = V * ws.inv_r[:len(V)]
    u[0] = V[1] / ws.dr
    return u


def reference_du_dr(ws, V, u):
    Vr = np.zeros_like(V)
    Vr[1:-1] = (V[2:] - V[:-2]) / (2.0 * ws.dr)
    Vr[0] = V[1] / ws.dr
    Vr[-1] = (V[-1] - V[-2]) / ws.dr
    ur = (Vr - u) * ws.inv_r[:len(V)]
    ur[0] = 0.0
    return ur


def reference_sources(ws, V, V_dot, t=0.0):
    cfg = ws.cfg
    u = reference_u_of(ws, V)
    ud = reference_u_of(ws, V_dot)
    ur = reference_du_dr(ws, V, u)
    F = cfg.a_null * (ud ** 2 - ur ** 2) + cfg.b_bad * ud ** 2
    if cfg.n2_override is not None:
        N2 = cfg.n2_override(t, ws.r[:len(V)])
    else:
        N2 = cfg.c_grad * (ud ** 2 + ur ** 2) + cfg.d_quad * u ** 2
    return u, ud, ur, F, N2


def reference_memory_term(ws, X):
    width = X.shape[-1]
    if ws.w.size == 0:
        return np.zeros(width)
    S = ws.w @ X
    M = S * ws.inv_r[:width]
    M[0] = S[1] / ws.dr
    return M


# The written-out RK4 step on the first-order pair (Q, Q_dot), with an
# allocating stencil, memory sum and acceleration: the arithmetic that
# the Nystrom step replaced, kept as the oracle it must match to a stated
# tolerance (TestWrittenOutStep).

def reference_laplacian(ws, Y):
    out = np.zeros_like(Y)
    out[..., 1:-1] = (Y[..., 2:] - 2.0 * Y[..., 1:-1] + Y[..., :-2]) \
        * ws.inv_dr2
    return out


# The arithmetic before the memory sum became a BLAS matvec and the
# stencil a multiply by 1/dr^2: a division by dr^2, a sequential row sum
# and a pairwise origin sum.  In the written-out step it reproduces that
# older march bit for bit (TestOldArithmetic).

def old_laplacian(ws, Y):
    out = np.zeros(Y.shape)
    out[..., 1:-1] = (Y[..., 2:] - 2.0 * Y[..., 1:-1] + Y[..., :-2]) \
        / ws.dr ** 2
    return out


def old_memory_term(ws, X):
    if ws.w.size == 0:
        return np.zeros(X.shape[-1])
    S = np.sum(ws.w[:, None] * X, axis=0)
    M = S * ws.inv_r
    M[0] = float(np.sum(ws.w * X[:, 1])) / ws.dr
    return M


OLD_ARITHMETIC = (old_laplacian, old_memory_term)


def all_terms_accel(ws, t, q, v, o):
    """`_Workspace.accel` before it skipped the source terms a stack
    never reads and before its sources moved into row buffers: F, M and
    N2 from the allocating oracle, added on every stack (row P and the
    mode rows are empty slices on a one-row stack), and the centre
    coefficients broadcast from their column.  The skipping, buffered
    march must match it bit for bit (TestSourceSkip,
    TestInPlaceSources)."""
    Q, out = q.Y, o.Y
    _, _, _, F, N2 = reference_sources(ws, Q[0], v, t)
    M = reference_memory_term(ws, Q[2:])
    rs = ws.rs[:Q.shape[-1]]
    np.multiply(ws.centre, Q, out=out)
    y, inner = Q.reshape(-1), out.reshape(-1)[1:-1]
    inner += y[2:]
    inner += y[:-2]
    out[0] += rs * (F + M)
    out[1:2] += rs * M
    out[2:] += rs * N2
    radial._pin_boundaries(out)


def reference_accel(ws, t, Q, Q_dot, laplacian=reference_laplacian,
                    memory_term=reference_memory_term):
    _, _, _, F, N2 = reference_sources(ws, Q[0], Q_dot[0], t)
    M = memory_term(ws, Q[2:])
    acc = laplacian(ws, Q)
    quad = ws.cfg.quad
    if quad is not None:
        acc[2:] -= quad.nodes[:, None] * Q[2:]
    acc[0] += ws.r * (F + M)
    acc[1:2] += ws.r * M
    acc[2:] += ws.r * N2
    acc[:, 0] = acc[:, -1] = 0.0
    return acc


def reference_rk4_step(ws, st, dt, *arithmetic):
    """The written-out step on the full grid; `arithmetic` is an optional
    (laplacian, memory_term) pair."""
    t, Q, Qd = st.t, st.Q, st.Q_dot
    h = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = reference_accel(ws, t, Q, Qd, *arithmetic)
        Qd2 = Qd + h * a1
        a2 = reference_accel(ws, t + h, Q + h * Qd, Qd2, *arithmetic)
        Qd3 = Qd + h * a2
        a3 = reference_accel(ws, t + h, Q + h * Qd2, Qd3, *arithmetic)
        Qd4 = Qd + dt * a3
        a4 = reference_accel(ws, t + dt, Q + dt * Qd3, Qd4, *arithmetic)
        c = dt / 6.0
        Q_new = Q + c * (Qd + 2.0 * Qd2 + 2.0 * Qd3 + Qd4)
        Qd_new = Qd + c * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    for Y in (Q_new, Qd_new):
        Y[:, 0] = Y[:, -1] = 0.0
    return FieldState(t + dt, Q_new, Qd_new)


def reference_march(arithmetic=()):
    """A `_march` replacement: `reference_rk4_step` after
    `reference_rk4_step` on the full grid."""
    def march(ws, st, dt, n_steps):
        for _ in range(n_steps):
            st = reference_rk4_step(ws, st, dt, *arithmetic)
            yield st
    return march


def full_width_march(ws, st, dt, n_steps):
    """`_rk4_step` after `_rk4_step` on the full grid, each on a fresh
    copy of the state: the oracle the windowed march, which steps one
    state in place, must match bit for bit."""
    for _ in range(n_steps):
        st = fresh_step(ws, st, dt)
        yield st


def separable_override(grid, amplitude=1.0):
    """A prescribed memory source sin(k r)/r, k = 3 pi / r_max, times a
    Gaussian in t of peak `amplitude`."""
    kk = 3 * math.pi / grid.r_max

    def override(t, r):
        prof = np.zeros_like(r)
        prof[1:] = np.sin(kk * r[1:]) / r[1:]
        prof[0] = kk
        return amplitude * math.exp(-((t - 4.0)) ** 2) * prof
    return override


def stack_input(kind, n_r=256):
    """(cfg, grid, state) for the buffered-step oracle tests."""
    rng = np.random.default_rng(7)
    if kind == "modes32":
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0)
        grid = Grid(padded_r_max(cfg), n_r)
    elif kind == "free":
        cfg, grid = free_cfg(), Grid(21.0, n_r)
    else:
        quad = MassQuadrature(np.array([0.7, 2.5]), np.array([0.4, 0.2]))
        grid = Grid(21.0, 256)
        cfg = ModelConfig(epsilon=0.02, a_null=1.0, c_grad=0.0, d_quad=0.0,
                          quad=quad, cfl=0.4, t_final=10.0,
                          n2_override=separable_override(grid))
    st = initialize(cfg, grid)
    # smooth nonzero rows everywhere, the memory modes included (a
    # free stack has the V row only)
    bump = grid.r * np.exp(-((grid.r - 6.0) / 2.0) ** 2)
    st.Q[1:] = 1e-3 * rng.standard_normal((len(st.Q) - 1, 1)) * bump
    st.Q_dot[1:] = 1e-3 * rng.standard_normal((len(st.Q) - 1, 1)) * bump
    st.Q[:, 0] = st.Q[:, -1] = st.Q_dot[:, 0] = st.Q_dot[:, -1] = 0.0
    return cfg, grid, st


def run_arrays(out):
    """Every array of a RunOutput, by name."""
    arrays = {"records": np.array([[getattr(rec, f) for f in rec.FIELDS]
                                   for rec in out.records]),
              "m": out.m_profiles}
    for ts, snap in out.snapshots.items():
        for key, value in snap.items():
            if isinstance(value, np.ndarray):
                arrays[f"snap{ts:g}.{key}"] = value
    return arrays


@pytest.mark.parametrize("r_max, n_r", [
    (100.0, 10 ** 400),       # r_max/n_r overflows converting n_r
    (1e-300, 10 ** 30),       # a spacing that underflows to 0
    (math.inf, 64), (math.nan, 64)],
    ids=["n_r-past-double", "underflow", "r_max-inf", "r_max-nan"])
def test_grid_refuses_a_spacing_that_is_no_finite_double(r_max, n_r):
    with pytest.raises(ValidationError, match="grid spacing"):
        Grid(r_max, n_r)


class TestGhostWeight:
    def test_plateaus_exact(self):
        s = np.array([-5.0, -1.0, 1.0, 3.0])
        q = ghost_q(s, 0.2)
        assert q[0] == 0.0 and q[1] == 0.0
        assert q[2] == 0.2 and q[3] == 0.2

    def test_monotone_nonnegative_slope(self):
        s = np.linspace(-2, 2, 4001)
        qp = ghost_q_prime(s, 0.2)
        assert np.all(qp >= 0.0)
        q = ghost_q(s, 0.2)
        assert np.all(np.diff(q) >= -1e-15)
        assert np.all((q >= 0.0) & (q <= 0.2))

    def test_weight_bounds(self):
        s = np.linspace(-3, 3, 1001)
        w = np.exp(ghost_q(s, 0.2))
        assert np.all((w >= 1.0) & (w <= math.exp(0.2) + 1e-15))


class TestInitialize:
    def test_zero_amplitude_zero_state(self):
        cfg = free_cfg(epsilon=0.0)
        st = initialize(cfg, Grid(21.0, 128))
        for arr in (st.V, st.V_dot, st.P, st.P_dot):
            assert np.all(arr == 0.0)

    def test_peak_amplitude_at_center(self):
        cfg = free_cfg(epsilon=1e-2)
        grid = Grid(21.0, 2100)  # grid point exactly at r_c = 5
        st = initialize(cfg, grid)
        u = np.zeros_like(st.V)
        u[1:] = st.V[1:] / grid.r[1:]
        assert np.max(np.abs(u)) == pytest.approx(1e-2, rel=1e-6)

    def test_compact_support(self):
        cfg = free_cfg()
        grid = Grid(21.0, 512)
        st = initialize(cfg, grid)
        outside = grid.r > cfg.r_c + 4 * cfg.sigma
        assert np.all(st.V[outside] == 0.0)

    def test_ingoing_energy_matches_dense_quadrature_oracle(self):
        cfg = free_cfg(velocity_mode="ingoing", t_final=10.0)
        grid = Grid(21.0, 1024)
        out = evolve(cfg, grid, cadence=10 ** 9)
        e0 = out.records[0].E_std
        # oracle: same integrals from the analytic profile on a grid
        # 20x finer, using the free-field relations for the |I|=1 part
        from cetlab.radial import _Workspace
        fine = Grid(21.0, 1024 * 16)
        ws = _Workspace(cfg, fine)
        st = initialize(cfg, fine)
        u, ud, ur, _, _ = ws.sources(st.V, st.V_dot)
        aV = ws.laplacian(st.V)
        udd = ws.u_of(aV)
        udr = ws.du_dr(st.V_dot, ud)
        r2 = fine.r ** 2

        def n2(g):
            return float(np.trapezoid(g * g * r2, dx=fine.dr))

        oracle = (n2(ud) + n2(ur) + n2(u) + n2(udd) + n2(udr) + n2(ud))
        assert e0 == pytest.approx(oracle, rel=1e-2)


class TestStep:
    def test_zero_state_stays_zero(self):
        cfg = free_cfg(epsilon=0.0)
        grid = Grid(21.0, 128)
        st = initialize(cfg, grid)
        st = step(st, cfg, grid)
        assert np.all(st.V == 0.0) and np.all(st.V_dot == 0.0)

    def test_origin_and_boundary_pinned(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=2.0)
        grid = Grid(21.0, 256)
        st = initialize(cfg, grid)
        for _ in range(10):
            st = step(st, cfg, grid)
        assert st.V[0] == 0.0 and st.V[-1] == 0.0
        assert st.P[0] == 0.0 and st.P[-1] == 0.0
        assert np.all(st.X[:, 0] == 0.0) and np.all(st.X[:, -1] == 0.0)

    def test_named_fields_are_rows_of_the_stack(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(quad=quad, t_final=2.0)
        grid = Grid(21.0, 128)
        st = step(initialize(cfg, grid), cfg, grid)
        assert st.Q.shape == st.Q_dot.shape == (len(quad) + 2, grid.n_r + 1)
        for name, stack, rows in (("V", st.Q, 0), ("P", st.Q, 1),
                                  ("X", st.Q, slice(2, None)),
                                  ("V_dot", st.Q_dot, 0),
                                  ("P_dot", st.Q_dot, 1),
                                  ("X_dot", st.Q_dot, slice(2, None))):
            view = getattr(st, name)
            assert view.base is stack and np.array_equal(view, stack[rows])

    @pytest.mark.parametrize("quad", [None, "empty"])
    def test_mode_less_stack_is_the_V_row(self, quad):
        # without memory modes P stays +0.0 and is not marched: the
        # stack is V alone, and P, P_dot read +0.0 rows of its width
        if quad == "empty":
            quad = MassQuadrature(np.zeros(0), np.zeros(0))
        for cfg in (free_cfg(quad=quad), free_cfg(quad=quad, a_null=1.0)):
            grid = Grid(21.0, 128)
            ws = _Workspace(cfg, grid)
            assert ws.rows == radial.stack_rows(cfg) == 1
            assert ws.free == (cfg.a_null == 0.0)
            st = step(initialize(cfg, grid), cfg, grid)
            assert st.Q.shape == st.Q_dot.shape == (1, grid.n_r + 1)
            assert st.X.shape == st.X_dot.shape == (0, grid.n_r + 1)
            for name in ("P", "P_dot"):
                row = getattr(st, name)
                assert same_bits(row, np.zeros(grid.n_r + 1))
                assert not np.shares_memory(row, st.Q) and \
                    not np.shares_memory(row, st.Q_dot)

    def test_stiffness_guard(self):
        stiff = MassQuadrature(np.array([1e6]), np.array([1.0]))
        cfg = free_cfg(quad=stiff, t_final=1.0)
        grid = Grid(21.0, 128)
        with pytest.raises(ValidationError, match="stiffness"):
            step(initialize(free_cfg(t_final=1.0), grid), cfg, grid)
        # a huge guard value prints in a few digits, not a few hundred
        huge = MassQuadrature(np.array([1e300]), np.array([1.0]))
        with pytest.raises(ValidationError, match="stiffness") as exc:
            step(initialize(free_cfg(t_final=1.0), grid),
                 free_cfg(quad=huge, t_final=1.0), grid)
        assert len(str(exc.value)) < 100

    def test_stiffness_message_separates_value_from_limit(self):
        grid = Grid(21.0, 128)
        # the run steps 14 times by 1/14; one mass node puts the guard
        # at that dt just over 2.5, which would print as the limit 2.5 in
        # 3 digits
        dt = march_schedule(free_cfg(t_final=1.0), grid)[1]
        mu = (2.5000001 / dt) ** 2 - (math.pi / grid.dr) ** 2
        cfg = free_cfg(quad=MassQuadrature(np.array([mu]), np.array([1.0])),
                       t_final=1.0)
        guard = cfg.stiffness_guard(grid, dt)
        assert 2.5 < guard < 2.5001
        with pytest.raises(ValidationError, match="stiffness") as exc:
            march_schedule(cfg, grid)
        assert f"= {guard!r} > 2.5" in str(exc.value)
        assert len(str(exc.value)) < 100


class TestLaplacian:
    def test_flat_stencil_matches_rows_and_nothing_crosses(self):
        quad = MassQuadrature(np.array([0.5, 1.0, 2.0, 4.0]),
                              np.array([0.1, 0.2, 0.3, 0.4]))
        cfg = free_cfg(a_null=1.0, b_bad=0.5, c_grad=1.0, d_quad=0.25,
                       quad=quad)
        grid = Grid(21.0, 64)
        ws = _Workspace(cfg, grid)
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((6, grid.n_r + 1))
        v = rng.standard_normal(grid.n_r + 1)
        # nonfinite values on the columns the flat stencil shares between
        # rows 1|2 and 2|3, and inside row 1 (P, which feeds no source)
        Y[1, -1] = np.inf
        Y[3, 0] = np.nan
        Y[1, 5] = -np.inf
        with np.errstate(invalid="ignore"):
            got = accel_of(_Workspace.accel, ws, 0.5, Y, v)
            want = np.zeros_like(Y)
            for i, row in enumerate(Y):
                want[i, 1:-1] = ws.centre[i, 0] * row[1:-1] + row[2:] \
                    + row[:-2]
            _, _, _, F, N2 = reference_sources(ws, Y[0], v, 0.5)
            M = reference_memory_term(ws, Y[2:])
            want[0] += ws.rs * (F + M)
            want[1] += ws.rs * M
            want[2:] += ws.rs * N2
            want[:, [0, -1]] = 0.0
        assert np.array_equal(got, want, equal_nan=True)
        for i in (0, 2, 4, 5):
            assert np.isfinite(got[i]).all() and same_bits(got[i], want[i])
        boundary = got[:, [0, -1]]
        assert same_bits(boundary, np.zeros_like(boundary))
        assert np.array_equal(ws.centre[:, 0], np.concatenate(
            ([-2.0, -2.0], -2.0 - quad.nodes * grid.dr ** 2)))
        # the diagnostics' stencil of one row
        assert same_bits(ws.laplacian(Y[0]), reference_laplacian(ws, Y[0]))


def source_input(kind):
    """(ws, Q, v) for TestInPlaceSources: a 21-mode stack and a V-row
    velocity, rough inside r < 12 and +0.0 beyond it.  "negative" has
    negative couplings, so F and N2 are -0.0 there; "nonfinite" has
    TestLaplacian's inf and nan entries on rows P and X_1."""
    quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
    couplings = {"negative": dict(a_null=-1.0, b_bad=-0.5, c_grad=-1.0,
                                  d_quad=-0.25),
                 "b_bad": dict(b_bad=0.5)}.get(kind, {})
    cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0, **couplings)
    grid = Grid(padded_r_max(cfg), 256)
    if kind == "n2_override":
        cfg = dataclasses.replace(cfg, n2_override=separable_override(grid))
    ws = _Workspace(cfg, grid)
    rng = np.random.default_rng(11)
    inside = grid.r < 12.0
    Q = np.zeros((ws.rows, grid.n_r + 1))
    v = np.zeros(grid.n_r + 1)
    Q[:, inside] = 1e-3 * rng.standard_normal((ws.rows, inside.sum()))
    v[inside] = 1e-3 * rng.standard_normal(inside.sum())
    Q[:, 0] = v[0] = 0.0
    if kind == "nonfinite":
        Q[1, -1], Q[3, 0], Q[1, 5] = np.inf, np.nan, -np.inf
    return ws, Q, v


SOURCE_KINDS = ["modes32", "negative", "b_bad", "n2_override", "nonfinite"]


class TestInPlaceSources:
    """`sources`, `memory_term` and `accel` write into the workspace's row
    buffers and stencil windows; the allocating oracle
    (`reference_sources`, `reference_memory_term`, `all_terms_accel`)
    must agree with them bit for bit, on the full grid and in a window."""

    @staticmethod
    def assert_same(got, want, kind):
        if kind == "nonfinite":
            assert np.array_equal(got, want, equal_nan=True)
            finite = np.isfinite(want)
            assert same_bits(got[finite], want[finite])
        else:
            assert same_bits(got, want)

    @staticmethod
    def cut(ws, Q, v, width):
        if width == "window":
            width = 160
            ws.set_width(width)
            return np.ascontiguousarray(Q[:, :width]), v[:width].copy()
        return Q, v

    @pytest.mark.parametrize("width", ["full", "window"])
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @np.errstate(invalid="ignore")
    def test_accel_matches_oracle(self, kind, width):
        ws, Q, v = source_input(kind)
        Q, v = self.cut(ws, Q, v, width)
        got = accel_of(_Workspace.accel, ws, 0.5, Q, v)
        want = accel_of(all_terms_accel, ws, 0.5, Q, v)
        self.assert_same(got, want, kind)
        assert not ws.free and (got[2:] != 0.0).any(axis=1).all()

    @pytest.mark.parametrize("width", ["full", "window"])
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @np.errstate(invalid="ignore")
    def test_sources_match_oracle(self, kind, width):
        ws, Q, v = source_input(kind)
        Q, v = self.cut(ws, Q, v, width)
        want = reference_sources(ws, Q[0], v, 0.5)
        got = ws.sources(Q[0], v, 0.5)
        for name, g, w in zip(("u", "ud", "ur", "F", "N2"), got, want):
            assert same_bits(g, w), name
        self.assert_same(ws.memory_term(Q[2:]),
                         reference_memory_term(ws, Q[2:]), kind)
        if kind == "negative":
            # the signed zeros past the data and its differences
            for row in got[3:]:
                tail = row[ws.r[:len(row)] > 13.0]
                assert (tail == 0.0).all() and np.signbit(tail).all()

    def test_rows_hold_until_the_next_call(self):
        ws, Q, v = source_input("modes32")
        first = [row.copy() for row in ws.sources(Q[0], v)]
        again = ws.sources(Q[0], 2.0 * v)
        assert not same_bits(again[1], first[1])
        assert all(np.shares_memory(a, b) for a, b in zip(
            again[:4], ws.sources(Q[0], v)[:4]))


class TestBufferedStep:
    @pytest.mark.parametrize("kind", ["modes32", "free", "n2_override"])
    def test_matches_reference_step_bitwise(self, kind):
        cfg, grid, st = stack_input(kind)
        dt = cfg.cfl * grid.dr
        ref = FieldState(st.t, st.Q.copy(), st.Q_dot.copy())
        n = 0
        for n, (new, ref) in enumerate(zip(
                _march(_Workspace(cfg, grid), st, dt, 20),
                full_width_march(_Workspace(cfg, grid), ref, dt, 20)),
                start=1):
            assert new.t == ref.t
            # a free stack is the V row alone, whose data leave the
            # march a narrower window: +0.0 lies beyond it
            padded = [np.stack([radial._pad(row, grid.n_r + 1) for row in Y])
                      for Y in (new.Q, new.Q_dot)]
            assert same_bits(padded[0], ref.Q) and same_bits(padded[1],
                                                             ref.Q_dot)
        assert n == 20
        assert kind == "free" or np.all(np.abs(ref.X).max(axis=1) > 0.0)

    def test_evolve_matches_reference_march(self, monkeypatch):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=6.0)
        grid = Grid(padded_r_max(cfg), 128)

        def run():
            return evolve(cfg, grid, cadence=3, snapshot_times=(2.0, 6.0))

        buffered = run()
        # the same step on a fresh copy of each state
        monkeypatch.setattr(radial, "_rk4_step", step_on_a_copy)
        reference = run()
        got, want = run_arrays(buffered), run_arrays(reference)
        assert got.keys() == want.keys() and len(want) == 2 + 2 * 7
        for name in want:
            assert same_bits(got[name], want[name]), name
        assert (buffered.dt, buffered.completed, buffered.n_steps) == \
            (reference.dt, reference.completed, reference.n_steps)

    def test_step_writes_the_start_state(self):
        # the march steps the start state's own arrays in place, and no
        # stage buffer shares their memory
        cfg, grid, st = stack_input("modes32")
        Q, Q_dot = st.Q.copy(), st.Q_dot.copy()
        ws = _Workspace(cfg, grid)
        new = next(_march(ws, st, cfg.cfl * grid.dr, 1))
        assert new.Q.shape == Q.shape       # the data fill the grid
        assert np.shares_memory(new.Q, st.Q)
        assert np.shares_memory(new.Q_dot, st.Q_dot)
        assert not same_bits(new.Q, Q) and not same_bits(new.Q_dot, Q_dot)
        for stage in (ws.S, ws.B, ws.a, ws.K, ws.A):
            assert not np.shares_memory(stage.Y, st.Q)
            assert not np.shares_memory(stage.Y, st.Q_dot)

    @staticmethod
    def traced_march(cfg, grid, st, n_steps):
        """The peak of traced memory over `n_steps` steps of `_march`,
        from its start, and the window widths it stepped at."""
        march = _march(_Workspace(cfg, grid), st, cfg.cfl * grid.dr, n_steps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            widths = {new.Q.shape[1] for new in march}
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak, widths

    def test_buffered_step_allocates_no_stack(self):
        # desk-sized stacks, 23 x 2049 and 1 x 2049, traced from the
        # march's start; what a step may allocate is a few grid rows and
        # numpy's 64 KiB ufunc buffer, and a free step no grid row
        for kind in ("modes32", "free"):
            cfg, grid, st = stack_input(kind, n_r=2048)
            peak, _ = self.traced_march(cfg, grid, st, 4)
            assert peak < st.Q.nbytes, kind
            if kind == "modes32":
                # the sources, the memory term and the stage velocities
                # go into row buffers; what is left is numpy's buffer for
                # the N2 row broadcast over the mode rows
                assert peak < 4 * st.Q[0].nbytes
        # a 21-mode stack from compact data, across the window's first
        # growths: laying the state out again allocates nothing either.
        # In a window numpy's buffer for the N2 broadcast is its full
        # 64 KiB, and a copy of the state would take 23 x 747 values or
        # more.  (A free stack's window, about 8 KB, weighs what the views
        # a growth builds weigh, so tracemalloc cannot tell a copy of it
        # apart; TestGrowth checks its bits.)
        cfg, grid = growing_input("modes21")
        grid = Grid(grid.r_max, 2048)
        st = initialize(cfg, grid)
        peak, widths = self.traced_march(cfg, grid, st, 200)
        assert len(widths) >= 4 and max(widths) < grid.n_r + 1
        assert peak < 2 ** 16 + st.Q[0].nbytes

    def test_run_arrays_share_no_memory(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=4.0)
        out = evolve(cfg, Grid(21.0, 128), cadence=4,
                     snapshot_times=(0.0, 2.0, 4.0))
        arrays = list(run_arrays(out).items())
        assert len(arrays) == 2 + 3 * 7
        for i, (name_a, a) in enumerate(arrays):
            for name_b, b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), (name_a, name_b)


def window_input(kind):
    """(cfg, grid) of a run whose march window starts narrow, except
    under n2_override; the blow-up run ends with a nonfinite u at r > 0,
    and every other run reaches t_final (the override at full amplitude
    blows up at t = 7.09 with F on, so it runs at a tenth)."""
    if kind == "blow_up":
        cfg = ModelConfig(epsilon=1.0, a_null=0.0, b_bad=8.0, c_grad=0.0,
                          d_quad=0.0, quad=None, cfl=0.5, t_final=12.0,
                          r_c=5.0, sigma=1.0)
        return cfg, Grid(23.0, 256)
    quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
    if kind == "n2_override":
        grid = Grid(21.0, 256)
        cfg = ModelConfig(epsilon=0.02, quad=quad, t_final=10.0,
                          n2_override=separable_override(grid, 0.1))
        return cfg, grid
    extra = {"ingoing": dict(velocity_mode="ingoing"),
             # negative couplings write -0.0 into F and N2 ahead of
             # the front
             "negative": dict(a_null=-1.0, b_bad=-0.5, c_grad=-1.0,
                              d_quad=-0.25)}.get(kind, {})
    cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0, **extra)
    return cfg, Grid(padded_r_max(cfg), 512)


WINDOW_KINDS = ["time-symmetric", "ingoing", "negative", "blow_up",
                "n2_override"]


class TestColumnWindow:
    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    # the march leaves a blow-up's overflow to its caller, as in evolve
    @np.errstate(over="ignore", invalid="ignore")
    def test_march_matches_full_reference_bitwise(self, kind):
        cfg, grid = window_input(kind)
        full = grid.n_r + 1
        n_steps = 2 * math.ceil(cfg.t_final / (2 * cfg.cfl * grid.dr))
        dt = cfg.t_final / n_steps
        st = initialize(cfg, grid)
        ref = FieldState(st.t, st.Q.copy(), st.Q_dot.copy())
        widths = []
        for new, ref in zip(
                _march(_Workspace(cfg, grid), st, dt, n_steps),
                full_width_march(_Workspace(cfg, grid), ref, dt, n_steps)):
            width = new.Q.shape[1]
            widths.append(width)
            assert new.t == ref.t and new.Q_dot.shape[1] == width
            padded = [np.stack([radial._pad(row, full) for row in Y])
                      for Y in (new.Q, new.Q_dot)]
            assert same_bits(padded[0], ref.Q)
            assert same_bits(padded[1], ref.Q_dot)
            if width < full:
                # the invariant: the guard band is +0.0, bit for bit
                for Y in (new.Q, new.Q_dot):
                    band = Y[:, -radial.GUARD:]
                    assert same_bits(band, np.zeros_like(band))
            if not (np.isfinite(new.Q).all()
                    and np.isfinite(new.Q_dot).all()):
                break
        if kind == "n2_override":
            assert set(widths) == {full}
        else:
            assert widths[0] < full and widths == sorted(widths)
        if kind != "blow_up":
            assert widths[-1] == full and len(widths) == n_steps

    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_evolve_matches_full_reference_march(self, kind, monkeypatch):
        cfg, grid = window_input(kind)
        snaps = (0.0, cfg.t_final / 4, cfg.t_final / 2, cfg.t_final)

        def run():
            return evolve(cfg, grid, cadence=5, snapshot_times=snaps)

        windowed = run()
        monkeypatch.setattr(radial, "_march", full_width_march)
        reference = run()
        got, want = run_arrays(windowed), run_arrays(reference)
        assert got.keys() == want.keys()
        for name in want:
            assert same_bits(got[name], want[name]), name
        facts = ("dt", "completed", "n_steps", "blow_up_time",
                 "blow_up_radius")
        assert [getattr(windowed, f) for f in facts] == \
            [getattr(reference, f) for f in facts]
        full_steps = windowed.n_steps * (grid.n_r + 1)
        if kind == "n2_override":
            assert windowed.column_steps == full_steps
        else:
            assert 0 < windowed.column_steps < full_steps
        assert windowed.completed == (kind != "blow_up")
        if kind == "blow_up":
            assert windowed.blow_up_radius is not None

    def test_column_steps(self):
        cfg, grid = window_input("time-symmetric")
        out = evolve(cfg, grid, cadence=10 ** 9)
        # the data end near r = 9 of 27: the window starts at a third
        # of the grid
        assert out.column_steps < out.n_steps * (grid.n_r + 1)
        assert out.column_steps > out.n_steps * (9.0 / grid.dr)
        assert out.column_steps == evolve(cfg, grid, cadence=5).column_steps
        assert evolve(free_cfg(t_final=0.0), Grid(21.0, 128)).column_steps \
            == 0


def run_digest(out) -> str:
    """SHA-256 over the names and bytes of every array of a RunOutput."""
    digest = hashlib.sha256()
    for name, value in sorted(run_arrays(out).items()):
        digest.update(name.encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind, digest", [
    ("time-symmetric",
     "0d2d521dfe92c3e68e48186f58359a557da413d38fec66274476ad8acee18972"),
    ("negative",
     "60d0d2caa7e6c110dc0b600b3a91a88cfb0b91e5ed5d8e1e1dc85d809bae1e72"),
])
def test_run_arrays_pinned(kind, digest):
    # pinned before the sources moved into row buffers (numpy 2.4 with
    # its bundled OpenBLAS, x86-64): a change to the march's arithmetic
    # shows here
    cfg, grid = window_input(kind)
    out = evolve(cfg, grid, cadence=5, snapshot_times=(
        0.0, cfg.t_final / 4, cfg.t_final / 2, cfg.t_final))
    assert run_digest(out) == digest


def growing_input(kind):
    """(cfg, grid) of a free run and of a 21-mode run whose march window
    grows several times."""
    if kind == "free":
        cfg = free_cfg()
    else:
        cfg = ModelConfig(epsilon=0.05, t_final=16.0, quad=build_quadrature(
            PowerLawExp(1.0, 1.0, 1.0), 32))
    return cfg, Grid(padded_r_max(cfg), 512)


def mode_less_input(kind):
    """(cfg, grid) of a run without memory modes whose window grows: a
    free time-symmetric and a free ingoing run, and one with F on."""
    if kind == "F_on":
        cfg = ModelConfig(epsilon=0.05, quad=None, t_final=16.0)
        return cfg, Grid(padded_r_max(cfg), 512)
    cfg, grid = growing_input("free")
    return dataclasses.replace(cfg, velocity_mode=kind), grid


@pytest.mark.parametrize("kind, digest", [
    ("time-symmetric",
     "5df1a84d2f75e5e0d853cdb321b3af5097d587cc39d49ab2dffb99b91cf3d261"),
    ("ingoing",
     "9270c0dba0507af980311df30b569870ae287ec684834e36de8822d91b749027"),
    ("F_on",
     "c2636d76a7dac6b4bc106b50d83ec48a26f6ba3ef5f97b4b97708dabb862dd0d"),
])
def test_mode_less_run_arrays_pinned(kind, digest):
    # pinned while these stacks still marched a P row (numpy 2.4 with
    # its bundled OpenBLAS, x86-64): dropping that row changes no bit
    cfg, grid = mode_less_input(kind)
    out = evolve(cfg, grid, cadence=5, snapshot_times=(
        0.0, cfg.t_final / 4, cfg.t_final / 2, cfg.t_final))
    assert out.completed and len(out.snapshots) == 4
    assert 0 < out.column_steps < out.n_steps * (grid.n_r + 1)
    assert run_digest(out) == digest
    for snap in out.snapshots.values():
        for name in ("P", "P_dot", "Phi"):
            assert same_bits(snap[name], np.zeros(grid.n_r + 1)), name


class TestNoModesIsTheEmptyRule:
    """`quad=None` and an empty rule are one configuration: the config
    holds the rule without nodes either way, and both march the same
    bits."""

    @pytest.mark.parametrize("kind", ["time-symmetric", "F_on"])
    def test_none_and_empty_rule_are_one_run(self, kind):
        cfg, grid = mode_less_input(kind)
        empty = MassQuadrature(np.zeros(0), np.zeros(0))
        runs = [evolve(dataclasses.replace(cfg, quad=quad), grid, cadence=5,
                       snapshot_times=(0.0, cfg.t_final / 2, cfg.t_final))
                for quad in (None, empty)]
        arrays = [run_arrays(out) for out in runs]
        assert arrays[0].keys() == arrays[1].keys()
        for name, value in arrays[0].items():
            assert same_bits(value, arrays[1][name]), name
        for name in ("rows", "column_steps", "stiffness_guard"):
            assert getattr(runs[0], name) == getattr(runs[1], name), name
        assert runs[0].completed and runs[0].rows == 1

    def test_none_is_the_rule_without_nodes(self):
        cfg = ModelConfig(epsilon=1e-2, quad=None)
        assert len(cfg.quad) == 0 and cfg.quad.nodes.size == 0
        assert cfg.mu_max() == 0.0
        # one shared rule: mode-less configs still compare equal
        assert cfg.quad is ModelConfig(epsilon=0.5).quad
        assert cfg == ModelConfig(epsilon=1e-2)

    def test_configs_compare_rules_by_identity(self):
        # two equal rules in distinct arrays are distinct rules: the
        # configs compare unequal, without comparing arrays
        q1, q2 = (build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
                  for _ in range(2))
        assert np.array_equal(q1.nodes, q2.nodes) and q1 is not q2
        a, b = ModelConfig(0.01, quad=q1), ModelConfig(0.01, quad=q2)
        assert a != b and not a == b
        assert a == a and a == ModelConfig(0.01, quad=q1)
        assert ModelConfig(0.01) == ModelConfig(0.01, quad=None)

    def test_replacing_the_rule_by_none_marches_one_row(self):
        modes, _ = growing_input("modes21")
        cfg = dataclasses.replace(modes, quad=None, t_final=2.0)
        assert len(cfg.quad) == 0 and cfg.mu_max() == 0.0
        grid = Grid(padded_r_max(cfg), 256)
        out = evolve(cfg, grid, snapshot_times=(cfg.t_final,))
        assert out.completed and out.rows == radial.stack_rows(cfg) == 1
        assert same_bits(out.snapshots[cfg.t_final]["P"],
                         np.zeros(grid.n_r + 1))


class TestViewsPerWidth:
    @pytest.mark.parametrize("kind", ["free", "modes21"])
    def test_views_built_once_per_width(self, kind, monkeypatch):
        cfg, grid = growing_input(kind)
        assert len(_Workspace(cfg, grid).w) == (0 if kind == "free" else 21)
        ws = _Workspace(cfg, grid)
        widths, built = [], []
        set_width, views = _Workspace.set_width, radial._Views
        monkeypatch.setattr(_Workspace, "set_width", lambda self, *args: (
            widths.append(args[0]), set_width(self, *args)))
        monkeypatch.setattr(radial, "_Views", lambda Y: (
            built.append(Y.shape), views(Y))[1])
        n_steps = march_schedule(cfg, grid)[0]
        marched = [new.Q.shape[1] for new in _march(
            ws, initialize(cfg, grid), cfg.t_final / n_steps, n_steps)]
        assert len(marched) == n_steps
        growths = sum(b > a for a, b in zip(marched, marched[1:]))
        assert growths >= 3
        # one build at the start and one per growth; the five stage
        # buffers and the state (Q, Q_dot), and nothing built during a
        # step
        assert len(widths) == growths + 1
        assert widths == sorted(set(marched))
        assert len(built) == 7 * len(widths)


class TestGrowth:
    """A growth lays the held state out again at the new width: every old
    column keeps its bits, and every new column is +0.0."""

    @pytest.mark.parametrize("kind", ["free", "modes21"])
    def test_growth_keeps_every_bit(self, kind):
        cfg, grid = growing_input(kind)
        ws = _Workspace(cfg, grid)
        st = initialize(cfg, grid)
        width = 100
        ws.hold(st, width)
        rng = np.random.default_rng(13)
        nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
        for Y in (ws.Q.Y, ws.Q_dot.Y):
            Y[...] = rng.standard_normal(Y.shape)
            Y[:, [3, 50, -1]] = [-0.0, nan, -np.inf]
            Y[0, 7] = np.inf
        old = [ws.Q.Y.copy(), ws.Q_dot.Y.copy()]
        # what the flat arrays held past the window is not carried over
        for Y in (st.Q, st.Q_dot):
            Y.reshape(-1)[ws.rows * width:] = np.nan
        ws.set_width(width + radial.GROWTH)
        assert ws.Q.Y.shape == (ws.rows, width + radial.GROWTH)
        for Y, before in zip((ws.Q.Y, ws.Q_dot.Y), old):
            assert np.shares_memory(Y, st.Q) or np.shares_memory(Y, st.Q_dot)
            assert same_bits(Y[:, :width], before)
            assert same_bits(Y[:, width:], np.zeros((ws.rows, radial.GROWTH)))


def boundary_input(kind):
    """(cfg, grid, steps) of a march whose window grows at least three
    times: desk-shaped free and 21-mode stacks (1 x 2049 and 23 x 2049),
    and a run that overflows at step 109 and is marched on past it."""
    if kind == "overflow":
        cfg = ModelConfig(epsilon=1.0, a_null=0.0, b_bad=2.0, c_grad=0.0,
                          d_quad=0.0, quad=None, t_final=16.0)
        return cfg, Grid(padded_r_max(cfg), 1024), 200
    cfg, grid = growing_input(kind)
    return cfg, Grid(grid.r_max, 2048), 300


class TestBoundaryColumns:
    """The step pins no boundary column of the state: both are +0.0 from
    `initialize` on, and every write of a step combines +0.0 columns
    (each stage acceleration's are pinned by `accel`) by sums and by
    products with positive finite factors."""

    @pytest.mark.parametrize("kind", ["free", "modes21", "overflow"])
    @np.errstate(over="ignore", invalid="ignore")
    def test_boundary_columns_stay_positive_zero(self, kind):
        cfg, grid, n_steps = boundary_input(kind)
        dt = march_schedule(cfg, grid)[1]
        widths, overflowed = [], 0
        for st in _march(_Workspace(cfg, grid), initialize(cfg, grid), dt,
                         n_steps):
            if not widths or st.Q.shape[1] != widths[-1]:
                widths.append(st.Q.shape[1])
            for Y in (st.Q, st.Q_dot):
                edges = Y[:, ::Y.shape[1] - 1].view(np.uint64)
                assert not edges.any(), (kind, st.t)
            overflowed += not np.isfinite(st.Q).all()
        assert len(widths) >= 4
        assert (overflowed >= 50) == (kind == "overflow")

    @pytest.mark.parametrize("kind", ["free", "modes21"])
    @np.errstate(over="ignore", invalid="ignore")
    def test_any_interior_leaves_them_positive_zero(self, kind):
        cfg, grid = growing_input(kind)
        ws = _Workspace(cfg, grid)
        st = initialize(cfg, grid)
        ws.hold(st, 100)
        rng = np.random.default_rng(17)
        for Y in (ws.Q.Y, ws.Q_dot.Y):
            Y[...] = rng.standard_normal(Y.shape)
            Y[:, [0, 1, 50, -2, -1]] = [0.0, -0.0, np.nan, -np.inf, 0.0]
            Y[0, 7] = np.inf
        _rk4_step(ws, 0.0, march_schedule(cfg, grid)[1])
        for Y in (ws.Q.Y, ws.Q_dot.Y):
            assert not Y[:, [0, -1]].view(np.uint64).any()
            assert not np.isfinite(Y).all()


def offset(Y, nbytes):
    """A copy of `Y` whose first value lies `nbytes` past a cache line."""
    base = np.zeros(Y.size + 8 + nbytes // 8)
    skip = (-base.ctypes.data % 64 + nbytes) // 8
    out = base[skip:skip + Y.size].reshape(Y.shape)
    out[...] = Y
    return out


class TestAlignedBuffers:
    """Every array the march streams over starts on a 64-byte cache line,
    at every window width; the alignment changes the speed of the march,
    never its bits."""

    @staticmethod
    def starts(ws):
        """name -> first address of each array a step streams over."""
        arrays = {"Q": ws.Q.Y, "Q_dot": ws.Q_dot.Y, "S": ws.S.Y, "B": ws.B.Y,
                  "a": ws.a.Y, "K": ws.K.Y, "A": ws.A.Y,
                  "centre": ws.centre_window, "inv_r": ws.inv_r, "rs": ws.rs}
        for width in (ws.width, len(ws.r)):     # the march's and the records'
            rows = ws.row_buffers(width)
            arrays.update({f"{name}[:{width}]": getattr(rows, name)
                           for name in radial._Rows.BUFFERS})
        return {name: Y.ctypes.data for name, Y in arrays.items()}

    @pytest.mark.parametrize("kind", ["free", "modes21"])
    def test_every_buffer_starts_on_a_cache_line(self, kind):
        # desk-shaped: 23 x 2049 with 21 modes, 1 x 2049 free
        cfg, grid = growing_input(kind)
        grid = Grid(grid.r_max, 2048)
        ws, st = _Workspace(cfg, grid), initialize(cfg, grid)
        assert st.Q.ctypes.data % 64 == st.Q_dot.ctypes.data % 64 == 0
        widths = []
        for new in _march(ws, st, cfg.cfl * grid.dr, 300):
            if not widths or new.Q.shape[1] != widths[-1]:
                widths.append(new.Q.shape[1])
                starts = self.starts(ws)
                assert len(starts) == 10 + 2 * len(radial._Rows.BUFFERS)
                for name, address in starts.items():
                    assert address % 64 == 0, (kind, widths[-1], name)
        assert len(widths) >= 4 and widths[-1] < grid.n_r + 1

    @pytest.mark.parametrize("kind", ["free", "modes21"])
    def test_misaligned_start_state_marches_the_same_bits(self, kind):
        cfg, grid = growing_input(kind)
        n_steps, dt, _ = march_schedule(cfg, grid)
        st = initialize(cfg, grid)
        moved = FieldState(st.t, offset(st.Q, 8), offset(st.Q_dot, 8))
        assert moved.Q.ctypes.data % 64 == moved.Q_dot.ctypes.data % 64 == 8
        steps = 0
        for want, got in zip(_march(_Workspace(cfg, grid), st, dt, n_steps),
                             _march(_Workspace(cfg, grid), moved, dt,
                                    n_steps)):
            assert same_bits(got.Q, want.Q) and same_bits(got.Q_dot,
                                                          want.Q_dot)
            steps += 1
        assert steps == n_steps

    @pytest.mark.parametrize("kind", ["free", "modes21"])
    def test_misaligned_buffers_run_the_same_bits(self, kind, monkeypatch):
        cfg, grid = growing_input(kind)

        def run():
            return evolve(cfg, grid, cadence=5, snapshot_times=(
                0.0, cfg.t_final / 2, cfg.t_final))

        aligned = run()
        # every buffer of the run 8 bytes past a cache line
        made = []
        monkeypatch.setattr(radial, "_aligned", lambda size: made.append(
            offset(np.zeros(size), 8)) or made[-1])
        moved = run()
        # Q, Q_dot, inv_r, rs, the row buffers, five stage buffers and the
        # centre's
        assert len(made) == 11
        assert all(Y.ctypes.data % 64 == 8 for Y in made)
        got, want = run_arrays(moved), run_arrays(aligned)
        assert got.keys() == want.keys()
        for name in want:
            assert same_bits(got[name], want[name]), name
        assert moved.column_steps == aligned.column_steps


class TestErrorState:
    """The march runs with overflow ignored, and numpy's error state is
    the caller's again once `evolve` returns or the march is closed."""

    @pytest.mark.parametrize("case", ["completed", "blow_up", "closed"])
    def test_error_state_restored(self, case):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if case == "closed":
                cfg, grid = growing_input("modes21")
                march = _march(_Workspace(cfg, grid), initialize(cfg, grid),
                               cfg.cfl * grid.dr, 10)
                next(march)
                assert np.geterr() == before     # nothing held across a yield
                march.close()
            else:
                cfg, grid = window_input(
                    "blow_up" if case == "blow_up" else "time-symmetric")
                out = evolve(cfg, grid, cadence=5)
                assert out.completed == (case == "completed")
        assert np.geterr() == before


def skip_input(kind):
    """(cfg, grid) of a run: free ones march the bare stencil, the
    others evaluate every source."""
    if kind in ("blow_up", "negative", "n2_override"):
        return window_input(kind)
    if kind.startswith("free"):
        mode = "ingoing" if kind == "free_ingoing" else "time-symmetric"
        cfg = free_cfg(velocity_mode=mode)
    else:               # mode rows, F off
        cfg = ModelConfig(epsilon=0.05, a_null=0.0, b_bad=0.0, t_final=16.0,
                          quad=build_quadrature(PowerLawExp(1.0, 1.0, 1.0),
                                                8))
    return cfg, Grid(padded_r_max(cfg), 512)


SKIP_KINDS = ["free", "free_ingoing", "blow_up", "modes_no_F", "negative",
              "n2_override"]


class TestSourceSkip:
    """A free stack marches the bare stencil; `all_terms_accel` is the
    oracle."""

    @pytest.mark.parametrize("kind", SKIP_KINDS)
    def test_evolve_matches_all_terms_bitwise(self, kind, monkeypatch):
        cfg, grid = skip_input(kind)
        assert _Workspace(cfg, grid).free == kind.startswith("free")
        snaps = (0.0, cfg.t_final / 4, cfg.t_final / 2, cfg.t_final)

        def run():
            return evolve(cfg, grid, cadence=5, snapshot_times=snaps)

        skipping = run()
        monkeypatch.setattr(_Workspace, "accel", all_terms_accel)
        reference = run()
        got, want = run_arrays(skipping), run_arrays(reference)
        assert got.keys() == want.keys()
        for name in want:
            assert same_bits(got[name], want[name]), name
        facts = ("dt", "completed", "n_steps", "column_steps",
                 "blow_up_time", "blow_up_radius")
        assert [getattr(skipping, f) for f in facts] == \
            [getattr(reference, f) for f in facts]
        assert skipping.completed == (kind != "blow_up")

    def test_free_accel_keeps_the_signed_zeros(self):
        # row 0, the free stack's one row, reads -0.0, +0.0, -0.0
        # around column 10, so the bare stencil leaves -0.0 there,
        # which the all-terms sum made +0.0
        cfg = free_cfg()
        grid = Grid(21.0, 64)
        ws = _Workspace(cfg, grid)
        assert ws.free and ws.rows == 1
        rng = np.random.default_rng(5)
        Y = 1e-3 * rng.standard_normal((ws.rows, grid.n_r + 1))
        v = 1e-3 * rng.standard_normal(grid.n_r + 1)
        Y[:, 9:12] = [-0.0, 0.0, -0.0]
        v[9:12] = 0.0
        bare = ws.centre * Y
        bare[:, 1:-1] += Y[:, 2:] + Y[:, :-2]
        assert np.signbit(bare[:, 10]).all() and (bare[:, 10] == 0.0).all()
        got = accel_of(_Workspace.accel, ws, 0.5, Y, v)
        want = accel_of(all_terms_accel, ws, 0.5, Y, v)
        assert same_bits(got, want)
        assert not np.signbit(got[:, 10]).any()

    @pytest.mark.parametrize("mode", ["time-symmetric", "ingoing"])
    def test_free_march_reads_no_source(self, mode, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("read a source term")

        cfg = free_cfg(velocity_mode=mode)
        grid = Grid(padded_r_max(cfg), 256)
        st = initialize(cfg, grid)
        monkeypatch.setattr(_Workspace, "sources", refuse)
        monkeypatch.setattr(_Workspace, "memory_term", refuse)
        ws = _Workspace(cfg, grid)
        n = 0
        for n, new in enumerate(_march(ws, st, cfg.cfl * grid.dr, 40),
                                start=1):
            assert np.isfinite(new.Q).all()
        assert n == 40
        # a stack that reads any source still calls them
        cfg = free_cfg(b_bad=1.0)
        with pytest.raises(AssertionError, match="source"):
            next(_march(_Workspace(cfg, grid), initialize(cfg, grid),
                        cfg.cfl * grid.dr, 1))

    def test_free_overflowing_amplitude_completes(self, monkeypatch):
        # eps^2 overflows but V does not: the linear march completes and
        # scales with eps; the all-terms sum met 0 * inf = nan in F and
        # reported a blow-up
        grid = Grid(21.0, 256)

        def run(eps):
            return evolve(free_cfg(epsilon=eps), grid, cadence=10 ** 9,
                          snapshot_times=(10.0,))

        big, unit = run(1e160), run(1.0)
        assert big.completed and big.n_steps == unit.n_steps
        V = big.snapshots[10.0]["V"]
        assert np.isfinite(V).all()
        assert rel_drift(V / 1e160, unit.snapshots[10.0]["V"]) <= 1e-14
        assert not math.isfinite(big.records[-1].E_std)
        monkeypatch.setattr(_Workspace, "accel", all_terms_accel)
        old = run(1e160)
        assert not old.completed and old.n_steps == 1


def rel_drift(got, want, axis=None):
    """max |got - want| over max |want|, along `axis`."""
    return np.abs(got - want).max(axis=axis) / np.abs(want).max(axis=axis)


def drift_runs(monkeypatch, arithmetic=()):
    """A 21-mode run to t = 16 of the Nystrom march, then of the
    written-out march with `arithmetic`, which the diagnostics use too."""
    quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
    cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0)
    grid = Grid(padded_r_max(cfg), 256)

    def run():
        return evolve(cfg, grid, cadence=8, snapshot_times=(4.0, 8.0, 16.0))

    new = run()
    monkeypatch.setattr(radial, "_march", reference_march(arithmetic))
    if arithmetic:
        monkeypatch.setattr(_Workspace, "laplacian", arithmetic[0])
        monkeypatch.setattr(_Workspace, "memory_term", arithmetic[1])
    return new, run()


def assert_run_drift(new, old, fields, arrays, residual):
    """Each record field, and the M profiles, within `fields` of its own
    sup; each snapshot array within `arrays`; D(4, 8) and D(8, 16)
    within `residual`, relative."""
    got, want = run_arrays(new), run_arrays(old)
    assert len(new.cfg.quad) == 21 and got.keys() == want.keys()
    assert (new.dt, new.n_steps) == (old.dt, old.n_steps)
    # the oracle reached the run: it is not the Nystrom arithmetic
    assert not same_bits(got["m"], want["m"])
    assert np.all(rel_drift(got.pop("records"), want.pop("records"),
                            axis=0) <= fields)
    assert rel_drift(got.pop("m"), want.pop("m")) <= fields
    for name in want:
        assert rel_drift(got[name], want[name]) <= arrays, name
    for t1, t2 in ((4.0, 8.0), (8.0, 16.0)):
        assert scattering_residual(new, t1, t2) == pytest.approx(
            scattering_residual(old, t1, t2), rel=residual, abs=0.0)


class TestWrittenOutStep:
    """The Nystrom step against `reference_rk4_step`, the written-out
    RK4 step with the same stencil and memory sum.  Each bound is about
    ten times the largest drift measured (numpy 2.4 with its bundled
    OpenBLAS, x86-64)."""

    @pytest.mark.parametrize("kind, bound", [("modes32", 1.3e-13),
                                             ("free", 3.5e-14),
                                             ("n2_override", 9e-15)])
    def test_one_step_within_tolerance(self, kind, bound):
        cfg, grid, st = stack_input(kind)
        new = step(st, cfg, grid)
        ref = reference_rk4_step(_Workspace(cfg, grid), st, cfg.cfl * grid.dr)
        assert np.all(rel_drift(new.Q, ref.Q, axis=1) <= 2.2e-15)
        assert np.all(rel_drift(new.Q_dot, ref.Q_dot, axis=1) <= bound)

    def test_run_within_tolerance(self, monkeypatch):
        new, ref = drift_runs(monkeypatch)
        assert_run_drift(new, ref, fields=5e-14, arrays=1.6e-12,
                         residual=3e-13)


class TestOldArithmetic:
    """The Nystrom step against the written-out step with the older
    arithmetic (`old_laplacian`, `old_memory_term`).  Each bound is about
    ten times the largest drift measured when it was set (numpy 2.4 with
    its bundled OpenBLAS, x86-64)."""

    @pytest.mark.parametrize("kind, bound", [("modes32", 1.3e-13),
                                             ("free", 3e-14),
                                             ("n2_override", 1.5e-15)])
    def test_one_step_within_tolerance(self, kind, bound):
        cfg, grid, st = stack_input(kind)
        new = step(st, cfg, grid)
        old = reference_rk4_step(_Workspace(cfg, grid), st,
                                 cfg.cfl * grid.dr, *OLD_ARITHMETIC)
        for got, want in ((new.Q, old.Q), (new.Q_dot, old.Q_dot)):
            assert np.all(rel_drift(got, want, axis=1) <= bound)

    def test_run_within_tolerance(self, monkeypatch):
        new, old = drift_runs(monkeypatch, OLD_ARITHMETIC)
        assert_run_drift(new, old, fields=3e-14, arrays=4e-13,
                         residual=1e-13)


# Evolves a 21-mode run whose windows span 550 to 1025 columns, a
# matvec large enough for OpenBLAS to split between threads, and prints
# the thread count OpenBLAS reports and a SHA-256 over the outputs.
THREADS_CHILD = """
import ctypes, glob, hashlib, json, os
import numpy as np
from cetlab import (Grid, ModelConfig, PowerLawExp, build_quadrature,
                    evolve, padded_r_max)
from test_radial import run_arrays

def openblas_threads():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                      None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None

quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=8.0)
out = evolve(cfg, Grid(padded_r_max(cfg), 1024), cadence=8,
             snapshot_times=(4.0, 8.0))
digest = hashlib.sha256()
for name, value in sorted(run_arrays(out).items()):
    digest.update(name.encode())
    digest.update(value.tobytes())
print(json.dumps({"threads": openblas_threads(), "modes": len(quad),
                  "mean_width": out.column_steps / out.n_steps,
                  "sha256": digest.hexdigest()}))
"""


def test_outputs_independent_of_blas_threads():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests),
                    env.get("PYTHONPATH")) if p)
    runs = []
    for threads in (1, 2):
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert [run["threads"] for run in runs] == [1, 2]
    assert runs[0]["modes"] == 21 and runs[0]["mean_width"] > 500
    assert runs[0]["sha256"] == runs[1]["sha256"]


class TestFreeWave:
    def test_matches_closed_form_second_order(self):
        cfg = free_cfg()
        errs = {}
        for n_r in (256, 512):
            grid = Grid(21.0, n_r)
            out = evolve(cfg, grid, cadence=10 ** 9, snapshot_times=(10.0,))
            exact = free_wave_exact(cfg, grid.r, 10.0)
            errs[n_r] = np.max(np.abs(out.snapshots[10.0]["V"] - exact))
        assert 1.8 <= math.log2(errs[256] / errs[512]) <= 2.2

    def test_velocity_mode_matches_closed_form_second_order(self):
        # t_final equals the comparison time so every resolution lands
        # on it exactly
        cfg = free_cfg(velocity_mode="ingoing", t_final=6.0)
        errs = {}
        for n_r in (256, 512):
            grid = Grid(21.0, n_r)
            out = evolve(cfg, grid, cadence=10 ** 9, snapshot_times=(6.0,))
            exact = free_wave_exact(cfg, grid.r, 6.0)
            errs[n_r] = np.max(np.abs(out.snapshots[6.0]["V"] - exact))
        assert 1.7 <= math.log2(errs[256] / errs[512]) <= 2.3
        # strong Huygens: the field vanishes behind the outgoing pulse
        grid = Grid(21.0, 512)
        out = evolve(cfg, grid, cadence=10 ** 9, snapshot_times=(6.0,))
        behind = grid.r < 3.0
        assert np.max(np.abs(out.snapshots[6.0]["V"][behind])) < 1e-4

    def test_memory_modes_stay_zero_without_source(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, quad=quad)  # c_grad = d_quad = 0
        grid = Grid(21.0, 256)
        out = evolve(cfg, grid, cadence=20)
        assert all(rec.mem_norm == 0.0 for rec in out.records)


class TestEvolve:
    def test_t_final_zero_single_record(self):
        out = evolve(free_cfg(t_final=0.0), Grid(21.0, 128), cadence=5)
        assert len(out.records) == 1
        assert out.records[0].t == 0.0
        assert out.completed
        assert out.dt == 0.0 and list(out.snapshots) == [0.0]
        assert out.n_steps == 0 and out.stiffness_guard == 0.0

    def test_run_facts(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(quad=quad, t_final=3.0)
        grid = Grid(21.0, 128)
        out = evolve(cfg, grid, cadence=5)
        assert out.n_steps == round(cfg.t_final / out.dt)
        assert out.n_steps % 2 == 0 and out.n_steps * out.dt == \
            pytest.approx(cfg.t_final, rel=1e-14)
        guard = out.dt * math.sqrt(quad.nodes.max()
                                   + (math.pi / grid.dr) ** 2)
        assert out.stiffness_guard == guard
        assert 0.0 < out.stiffness_guard <= STABILITY_LIMIT

    def test_padding_enforced(self):
        cfg = free_cfg(t_final=50.0)
        with pytest.raises(PaddingViolatedError):
            evolve(cfg, Grid(21.0, 128))
        assert padded_r_max(cfg) == pytest.approx(61.0)
        # initialize only builds the data
        assert initialize(cfg, Grid(21.0, 128)).Q.shape == (1, 129)

    def test_stiffness_guard_checked_at_the_run_dt(self):
        # a step of cfl*dr would have the guard 0.8 pi > 2.5, but the run
        # lands 16 steps of 0.0625 on t_final, with the guard 2.3936
        cfg = free_cfg(cfl=0.8, t_final=1.0)
        grid = Grid(21.0, 256)
        assert cfg.stiffness_guard(grid, cfg.cfl * grid.dr) > 2.5
        out = evolve(cfg, grid)
        assert out.completed and (out.n_steps, out.dt) == (16, 0.0625)
        assert out.stiffness_guard == pytest.approx(2.3936, abs=1e-4)
        # a guard over the limit at the run's own dt is still refused,
        # and the message quotes that guard: cfl 0.9 takes 14 steps
        steep = free_cfg(cfl=0.9, t_final=1.0)
        guard = steep.stiffness_guard(grid, 1.0 / 14)
        assert guard > 2.5
        with pytest.raises(ValidationError, match="stiffness") as exc:
            evolve(steep, grid)
        assert f"= {guard!r} > 2.5" in str(exc.value)

    def test_run_telemetry(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(quad=quad, t_final=3.0)
        out = evolve(cfg, Grid(21.0, 128), cadence=5, snapshot_times=(1.0,))
        assert out.n_steps > 0
        assert out.march_s > 0.0 and out.diagnose_s > 0.0
        # the blowing-up step is counted; a run of no steps takes none
        blown = evolve(*window_input("blow_up"), cadence=5)
        assert not blown.completed
        assert blown.n_steps * blown.dt == pytest.approx(blown.blow_up_time)
        still = evolve(free_cfg(t_final=0.0), Grid(21.0, 128))
        assert still.n_steps == 0 and still.march_s >= 0.0

    def test_memory_run_pinned(self):
        # pinned end-of-run values: a change to the order of the
        # evolution's floating-point operations shows here
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0)
        out = evolve(cfg, Grid(padded_r_max(cfg), 256), cadence=8,
                     snapshot_times=(4.0, 8.0, 16.0))
        last = out.records[-1]
        rel = 1e-12
        assert last.E_std == pytest.approx(0.32042614918648127, rel=rel)
        assert last.sup_u == pytest.approx(0.006594218905534643, rel=rel)
        assert last.mem_norm == pytest.approx(0.00508795420635396, rel=rel)
        assert scattering_residual(out, 4.0, 8.0) == pytest.approx(
            0.01875976326709065, rel=rel)
        assert scattering_residual(out, 8.0, 16.0) == pytest.approx(
            0.001525215801349807, rel=rel)

    def test_pruned_rule_matches_full_rule(self):
        # the 11 GL-32 nodes with weight below eps * l1 move no output
        # beyond round-off; they only raised mu_max
        pruned = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        full = MassQuadrature(*gauss_laguerre_generalized(32, 1.0))
        outs = []
        for quad in (pruned, full):
            cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0)
            outs.append(evolve(cfg, Grid(padded_r_max(cfg), 256), cadence=8,
                               snapshot_times=(4.0, 8.0, 16.0)))
        a, b = outs
        assert (len(pruned), len(full)) == (21, 32)
        assert a.dt == b.dt and a.stiffness_guard < b.stiffness_guard

        def close(x, y):
            return np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
        for name in a.records[0].FIELDS:
            assert close(a.series(name), b.series(name)), name
        assert close(a.m_profiles, b.m_profiles)
        for t1, t2 in ((4.0, 8.0), (8.0, 16.0)):
            assert scattering_residual(a, t1, t2) == pytest.approx(
                scattering_residual(b, t1, t2), rel=1e-12, abs=0.0)

    def test_diagnostics_invariants(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 16)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=8.0)
        out = evolve(cfg, Grid(21.0, 256), cadence=5)
        for rec in out.records:
            assert rec.E_std >= 0.0
            assert rec.flux >= 0.0
            assert rec.E_ghost <= math.exp(cfg.delta0) * rec.E_std + 1e-300
        assert math.isfinite(out.integrated_flux)

    def test_determinism(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 4)
        cfg = free_cfg(quad=quad, a_null=1.0, c_grad=1.0, d_quad=0.25,
                       t_final=4.0)
        a = evolve(cfg, Grid(21.0, 256), cadence=7)
        b = evolve(cfg, Grid(21.0, 256), cadence=7)
        assert np.any(a.m_profiles != 0.0)
        assert same_bits(a.m_profiles, b.m_profiles)
        assert a.records == b.records
        assert_profiles_match_records(a)

    def test_cfl_independence(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        base = dict(epsilon=1e-2, a_null=1.0, c_grad=1.0, d_quad=0.25,
                    quad=quad, t_final=6.0)
        grid = Grid(21.0, 512)
        outs = []
        for cfl in (0.25, 0.5):
            cfg = free_cfg(**base, cfl=cfl)
            outs.append(evolve(cfg, grid, cadence=10 ** 9,
                               snapshot_times=(6.0,)).snapshots[6.0]["u"])
        # both time steps resolve the same spatially-limited solution
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-6

    def test_blow_up_records_quietly(self):
        # the last record before the blow-up overflows in the diagnostics
        # at cadences 1 and 7; it keeps its inf and nan values, and no
        # warning escapes
        cfg, grid = window_input("blow_up")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [evolve(cfg, grid, cadence=c) for c in (1, 5, 7)]
        assert {(out.completed, out.blow_up_time, out.n_steps)
                for out in outs} == {(False, outs[0].blow_up_time, 15)}
        assert not math.isfinite(outs[0].records[-1].E_std)
        for out in outs:
            assert_profiles_match_records(out)

    def test_blow_up_reported_not_raised(self):
        # strong bad-derivative self-forcing at order-one amplitude
        cfg = ModelConfig(epsilon=3.0, a_null=0.0, b_bad=8.0, c_grad=0.0,
                          d_quad=0.0, quad=None, cfl=0.5, t_final=12.0,
                          r_c=5.0, sigma=1.0)
        out = evolve(cfg, Grid(23.0, 256), cadence=5)
        assert not out.completed
        assert out.blow_up_time is not None
        assert len(out.records) >= 1
        # the step that produced the nonfinite value is counted
        assert out.n_steps * out.dt == pytest.approx(out.blow_up_time,
                                                      rel=1e-12)


class TestSeparableSourceOracle:
    def test_memory_modes_match_resolvent_route(self):
        quad = MassQuadrature(np.array([0.7, 2.5]), np.array([0.4, 0.2]))
        grid = Grid(21.0, 256)
        kk = 3 * math.pi / grid.r_max
        cfg = ModelConfig(epsilon=0.0, a_null=0.0, b_bad=0.0, c_grad=0.0,
                          d_quad=0.0, quad=quad, cfl=0.4, t_final=10.0,
                          r_c=5.0, sigma=1.0,
                          n2_override=separable_override(grid))
        out = evolve(cfg, grid, cadence=10 ** 9, snapshot_times=(10.0,))
        dt = out.dt
        n = int(round(10.0 / dt)) + 1
        t = dt * np.arange(n)
        f = TimeSeries(0.0, dt, np.exp(-((t - 4.0)) ** 2))
        k2_disc = (2 / grid.dr ** 2) * (1 - math.cos(kk * grid.dr))
        m_pred = np.zeros_like(grid.r)
        for mu, w in zip(quad.nodes, quad.weights):
            v = kg_retarded(ModeParams(mu=mu + k2_disc, xi=0.0), f)
            m_pred[1:] += w * np.sin(kk * grid.r[1:]) / grid.r[1:] \
                * v.samples[-1]
        m_run = out.snapshots[10.0]["M"]
        scale = np.max(np.abs(m_run))
        assert np.max(np.abs(m_run[1:-1] - m_pred[1:-1])) < 1e-6 * scale


class TestConvergenceStudy:
    def test_nonlinear_small_amplitude_order_two(self):
        # self-convergence of the memory run: sup differences of u at
        # t_final/2 between n_r, 2 n_r and 4 n_r on the shared points
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=8.0)
        half = cfg.t_final / 2.0
        u = []
        for n_r in (128, 256, 512):
            out = evolve(cfg, Grid(21.0, n_r), cadence=10 ** 9,
                         snapshot_times=(half,))
            assert out.completed
            u.append(out.snapshots[half]["u"])
        d01 = np.max(np.abs(u[0] - u[1][::2]))
        d12 = np.max(np.abs(u[1] - u[2][::2]))
        assert 1.7 <= math.log2(d01 / d12) <= 2.3
