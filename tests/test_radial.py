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
                    scattering_residual, step)
from cetlab import radial
from cetlab.errors import PaddingViolatedError
from cetlab.quadrature import gauss_laguerre_generalized
from cetlab.radial import (FieldState, _march, _rk4_step, _Workspace,
                           ghost_q, ghost_q_prime)
from cetlab.resolvent import ModeParams, TimeSeries, kg_retarded


def free_cfg(**kw):
    base = dict(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0, d_quad=0.0,
                quad=None, cfl=0.5, t_final=10.0, r_c=5.0, sigma=1.0)
    base.update(kw)
    return ModelConfig(**base)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The written-out RK4 step on the first-order pair (Q, Q_dot), with an
# allocating stencil, memory sum and acceleration: the arithmetic that
# the Nystrom step replaced, kept as the oracle it must match to a stated
# tolerance (TestWrittenOutStep).

def reference_laplacian(ws, Y):
    out = np.zeros_like(Y)
    out[..., 1:-1] = (Y[..., 2:] - 2.0 * Y[..., 1:-1] + Y[..., :-2]) \
        * ws.inv_dr2
    return out


def reference_memory_term(ws, X):
    if ws.w.size == 0:
        return np.zeros_like(ws.r)
    S = ws.w @ X
    M = S * ws.inv_r
    M[0] = S[1] / ws.dr
    return M


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


def reference_accel(ws, t, Q, Q_dot, laplacian=reference_laplacian,
                    memory_term=reference_memory_term):
    _, _, _, F, N2 = ws.sources(Q[0], Q_dot[0], t)
    M = memory_term(ws, Q[2:])
    acc = laplacian(ws, Q)
    quad = ws.cfg.quad
    if quad is not None:
        acc[2:] -= quad.nodes[:, None] * Q[2:]
    acc[0] += ws.r * (F + M)
    acc[1] += ws.r * M
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
    """`_rk4_step` after `_rk4_step` on the full grid, into fresh arrays:
    the oracle the windowed, buffered march must match bit for bit."""
    ws.set_width(st.Q.shape[1])
    for _ in range(n_steps):
        st = _rk4_step(ws, st, dt)
        yield st


def separable_override(grid):
    """A prescribed memory source sin(k r)/r, k = 3 pi / r_max, times a
    Gaussian in t."""
    kk = 3 * math.pi / grid.r_max

    def override(t, r):
        prof = np.zeros_like(r)
        prof[1:] = np.sin(kk * r[1:]) / r[1:]
        prof[0] = kk
        return math.exp(-((t - 4.0)) ** 2) * prof
    return override


def stack_input(kind, n_r=256):
    """(cfg, grid, state) for the buffered-step oracle tests."""
    rng = np.random.default_rng(7)
    if kind == "modes32":
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=16.0)
        grid = Grid(padded_r_max(cfg), n_r)
    elif kind == "free":
        cfg, grid = free_cfg(), Grid(21.0, 256)
    else:
        quad = MassQuadrature(np.array([0.7, 2.5]), np.array([0.4, 0.2]),
                              "diraccomb")
        grid = Grid(21.0, 256)
        cfg = ModelConfig(epsilon=0.02, a_null=1.0, c_grad=0.0, d_quad=0.0,
                          quad=quad, cfl=0.4, t_final=10.0,
                          n2_override=separable_override(grid))
    st = initialize(cfg, grid)
    # smooth nonzero rows everywhere, the memory modes included
    bump = grid.r * np.exp(-((grid.r - 6.0) / 2.0) ** 2)
    st.Q[1:] = 1e-3 * rng.standard_normal((len(st.Q) - 1, 1)) * bump
    st.Q_dot[1:] = 1e-3 * rng.standard_normal((len(st.Q) - 1, 1)) * bump
    st.Q[:, 0] = st.Q[:, -1] = st.Q_dot[:, 0] = st.Q_dot[:, -1] = 0.0
    return cfg, grid, st


def run_arrays(out):
    """Every array of a RunOutput, by name."""
    arrays = {"records": np.array([[getattr(rec, f) for f in rec.FIELDS]
                                   for rec in out.records]),
              "profile_times": out.profile_times, "m": out.m_profiles}
    for ts, snap in out.snapshots.items():
        for key, value in snap.items():
            if isinstance(value, np.ndarray):
                arrays[f"snap{ts:g}.{key}"] = value
    return arrays


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

    def test_padding_enforced(self):
        cfg = free_cfg(t_final=50.0)
        with pytest.raises(PaddingViolatedError):
            initialize(cfg, Grid(21.0, 128))
        assert padded_r_max(cfg) == pytest.approx(61.0)


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

    def test_stiffness_guard(self):
        stiff = MassQuadrature(np.array([1e6]), np.array([1.0]), "diraccomb")
        cfg = free_cfg(quad=stiff, t_final=1.0)
        grid = Grid(21.0, 128)
        with pytest.raises(ValidationError, match="stiffness"):
            step(initialize(free_cfg(t_final=1.0), grid), cfg, grid)
        # a huge guard value prints in a few digits, not a few hundred
        with pytest.raises(ValidationError, match="stiffness") as exc:
            step(initialize(free_cfg(t_final=1.0), grid), cfg, grid,
                 dt=1e200)
        assert len(str(exc.value)) < 100

    def test_stiffness_message_separates_value_from_limit(self):
        cfg, grid = free_cfg(t_final=1.0), Grid(21.0, 128)
        # a guard just over 2.5 would print as the limit 2.5 in 3 digits
        dt = 2.5000001 / (math.pi / grid.dr)
        guard = cfg.stiffness_guard(grid, dt)
        assert 2.5 < guard < 2.5001
        with pytest.raises(ValidationError, match="stiffness") as exc:
            cfg.validate_against(grid, dt)
        assert f"= {guard!r} > 2.5" in str(exc.value)
        assert len(str(exc.value)) < 100


class TestLaplacian:
    def test_flat_stencil_matches_rows_and_nothing_crosses(self):
        quad = MassQuadrature(np.array([0.5, 1.0, 2.0, 4.0]),
                              np.array([0.1, 0.2, 0.3, 0.4]), "diraccomb")
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
        got = np.empty_like(Y)
        with np.errstate(invalid="ignore"):
            ws.accel(0.5, Y, v, got)
            want = np.zeros_like(Y)
            for i, row in enumerate(Y):
                want[i, 1:-1] = ws.centre[i, 0] * row[1:-1] + row[2:] \
                    + row[:-2]
            _, _, _, F, N2 = ws.sources(Y[0], v, 0.5)
            M = ws.memory_term(Y[2:])
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
            assert same_bits(new.Q, ref.Q) and same_bits(new.Q_dot, ref.Q_dot)
        assert n == 20
        assert kind == "free" or np.all(np.abs(ref.X).max(axis=1) > 0.0)

    def test_evolve_matches_reference_march(self, monkeypatch):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = ModelConfig(epsilon=0.05, quad=quad, t_final=6.0)
        grid = Grid(padded_r_max(cfg), 128)

        def run():
            return evolve(cfg, grid, cadence=3, snapshot_times=(2.0, 6.0))

        buffered = run()
        # the same step into fresh arrays
        monkeypatch.setattr(radial, "_rk4_step",
                            lambda ws, st, dt, out=None: _rk4_step(ws, st, dt))
        reference = run()
        got, want = run_arrays(buffered), run_arrays(reference)
        assert got.keys() == want.keys() and len(want) == 3 + 2 * 7
        for name in want:
            assert same_bits(got[name], want[name]), name
        assert (buffered.dt, buffered.completed, buffered.n_steps) == \
            (reference.dt, reference.completed, reference.n_steps)

    def test_step_leaves_its_input_alone(self):
        cfg, grid, st = stack_input("modes32")
        Q, Q_dot = st.Q.copy(), st.Q_dot.copy()
        new = step(st, cfg, grid)
        assert same_bits(st.Q, Q) and same_bits(st.Q_dot, Q_dot)
        assert not np.shares_memory(new.Q, st.Q)
        assert not np.shares_memory(new.Q_dot, st.Q_dot)
        assert not same_bits(new.Q, Q)

    def test_buffered_step_allocates_no_stack(self):
        # desk-sized stack, 34 x 2049; what a step may allocate is a few
        # grid rows and numpy's 64 KiB ufunc buffer
        cfg, grid, st = stack_input("modes32", n_r=2048)
        march = _march(_Workspace(cfg, grid), st, cfg.cfl * grid.dr, 4)
        next(march)                     # the spare pair is allocated here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert sum(1 for _ in march) == 3
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < st.Q.nbytes

    def test_run_arrays_share_no_memory(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=4.0)
        out = evolve(cfg, Grid(21.0, 128), cadence=4,
                     snapshot_times=(0.0, 2.0, 4.0))
        arrays = list(run_arrays(out).items())
        assert len(arrays) == 3 + 3 * 7
        for i, (name_a, a) in enumerate(arrays):
            for name_b, b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), (name_a, name_b)


def window_input(kind):
    """(cfg, grid) of a run whose march window starts narrow, except
    under n2_override; the blow-up run ends with a nonfinite u at r > 0."""
    if kind == "blow_up":
        cfg = ModelConfig(epsilon=1.0, a_null=0.0, b_bad=8.0, c_grad=0.0,
                          d_quad=0.0, quad=None, cfl=0.5, t_final=12.0,
                          r_c=5.0, sigma=1.0)
        return cfg, Grid(23.0, 256)
    quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
    if kind == "n2_override":
        grid = Grid(21.0, 256)
        cfg = ModelConfig(epsilon=0.02, quad=quad, t_final=10.0,
                          n2_override=separable_override(grid))
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
        if kind not in ("n2_override", "blow_up"):
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
        if kind == "blow_up":
            assert not windowed.completed
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
    for name in ("m", "profile_times"):
        assert rel_drift(got.pop(name), want.pop(name)) <= fields, name
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
        assert 0.0 < out.stiffness_guard <= radial.STIFFNESS_LIMIT

    def test_run_telemetry(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(quad=quad, t_final=3.0)
        out = evolve(cfg, Grid(21.0, 128), cadence=5, snapshot_times=(1.0,))
        assert out.rhs_evals == 4 * out.n_steps > 0
        assert out.march_s > 0.0 and out.diagnose_s > 0.0
        # the blowing-up step is counted; a run of no steps evaluates none
        blown = evolve(*window_input("blow_up"), cadence=5)
        assert not blown.completed and blown.rhs_evals == 4 * blown.n_steps
        still = evolve(free_cfg(t_final=0.0), Grid(21.0, 128))
        assert still.rhs_evals == 0 and still.march_s >= 0.0

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
        full = MassQuadrature(*gauss_laguerre_generalized(32, 1.0),
                              "powerlaw")
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
        quad = MassQuadrature(np.array([0.7, 2.5]), np.array([0.4, 0.2]),
                              "diraccomb")
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
