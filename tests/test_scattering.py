import dataclasses
import math

import numpy as np
import pytest

from cetlab import (Grid, ModelConfig, PowerLawExp, ValidationError,
                    build_quadrature, decay_fit, evolve, memory_limit,
                    scattering, scattering_residual, scattering_residual_fit)
from cetlab.errors import (InsufficientSamplesError, MemoryBelowNoiseError,
                           SnapshotUnavailableError)
from cetlab.radial import FieldState, _march, _pad, _Workspace
from cetlab.selftest import RESIDUAL_EXPONENT_MIN


def march_free_evolve(run, W, W_dot, n_steps):
    """The oracle for the sine-transform propagator: `n_steps` RK4 steps
    of the run's own march with every coupling off, on the one-row stack
    (W,) of a run without memory modes."""
    free_cfg = dataclasses.replace(run.cfg, a_null=0.0, b_bad=0.0,
                                   c_grad=0.0, d_quad=0.0, quad=None,
                                   n2_override=None)
    ws = _Workspace(free_cfg, run.grid)
    st = FieldState(0.0, W[None].copy(), W_dot[None].copy())
    for st in _march(ws, st, run.dt, n_steps):
        pass
    # the march's last state may hold only a window of the grid
    return _pad(st.V, W.size), _pad(st.V_dot, W.size)


@pytest.fixture(scope="module")
def memory_run():
    quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
    cfg = ModelConfig(epsilon=1e-2, quad=quad, cfl=0.5, t_final=100.0,
                      r_c=5.0, sigma=1.0)
    grid = Grid(111.0, 768)
    return evolve(cfg, grid, cadence=10,
                  snapshot_times=(25.0, 50.0, 100.0))


def test_fit_reads_the_residual_through_the_module(memory_run,
                                                 monkeypatch):
    # a caller that replaces scattering.scattering_residual (as the
    # benchmark does to record D(t, 2t)) must see every base time: the
    # fit looks the function up in its module on each call
    inner, seen = scattering.scattering_residual, []

    def recording(run, t1, t2, *args, **kwargs):
        value = inner(run, t1, t2, *args, **kwargs)
        seen.append((t1, t2, value))
        return value

    monkeypatch.setattr(scattering, "scattering_residual", recording)
    fit = scattering_residual_fit(memory_run, (25.0, 50.0))
    assert [(t1, t2) for t1, t2, _ in seen] == [(25.0, 50.0), (50.0, 100.0)]
    assert fit.points == tuple((t1, value) for t1, _, value in seen)


@pytest.fixture(scope="module")
def linear_run():
    # single outgoing pulse (no origin reflection inside the fit window)
    cfg = ModelConfig(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0,
                      d_quad=0.0, quad=None, cfl=0.5, t_final=40.0,
                      r_c=5.0, sigma=1.0, velocity_mode="ingoing")
    grid = Grid(51.0, 512)
    return evolve(cfg, grid, cadence=10, snapshot_times=(10.0, 20.0, 40.0))


class TestDecayFit:
    def test_exact_power_law_recovered(self):
        t = np.linspace(1.0, 100.0, 60)
        series = list(zip(t, 3.7 / (1.0 + t)))
        fit = decay_fit(series, (1.0, 100.0))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(3.7, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_moves_amplitude_not_exponent(self):
        t = np.linspace(1.0, 50.0, 40)
        base = decay_fit(list(zip(t, 2.0 / (1 + t) ** 1.3)), (1.0, 50.0))
        scaled = decay_fit(list(zip(t, 17.0 / (1 + t) ** 1.3)), (1.0, 50.0))
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
        assert scaled.amplitude == pytest.approx(17.0, rel=1e-6)

    def test_insufficient_samples(self):
        t = np.linspace(1.0, 10.0, 5)
        with pytest.raises(InsufficientSamplesError):
            decay_fit(list(zip(t, 1.0 / (1 + t))), (1.0, 10.0))

    def test_free_wave_sup_decay(self, linear_run):
        t = linear_run.series("t")
        su = linear_run.series("sup_u")
        fit = decay_fit(list(zip(t, su)), (15.0, 40.0))
        assert -1.2 <= fit.exponent <= -0.8


class TestMemoryLimit:
    def test_no_memory_raises_below_noise(self, linear_run):
        with pytest.raises(MemoryBelowNoiseError):
            memory_limit(linear_run)

    def test_reports_positive_norm_and_decay(self, memory_run):
        rep = memory_limit(memory_run)
        assert rep.m_inf_norm > 0.0
        assert rep.residual_fit.exponent < 0.0  # net decay toward the mean
        assert rep.beat_period == pytest.approx(22.8, abs=0.2)

    def test_mean_window_stability(self, memory_run):
        # final-10% versus final-5% estimates differ by less than the
        # fitted residual envelope at the window edge
        t = memory_run.series("t")
        m10 = memory_run.m_profiles[t >= 0.9 * t[-1]].mean(axis=0)
        m05 = memory_run.m_profiles[t >= 0.95 * t[-1]].mean(axis=0)
        r = memory_run.grid.r
        diff = math.sqrt(float(np.trapezoid((m10 - m05) ** 2 * r * r,
                                            dx=memory_run.grid.dr)))
        rep = memory_limit(memory_run)
        envelope = rep.residual_fit.amplitude \
            * (1.0 + 0.9 * t[-1]) ** rep.residual_fit.exponent
        assert diff <= 10.0 * max(envelope, rep.m_inf_norm)


class TestScatteringResidual:
    def test_linear_run_discrete_residual_is_roundoff(self, linear_run):
        d = scattering_residual(linear_run, 10.0, 20.0)
        assert d < 1e-14

    # the linear run's residual is roundoff on both routes (the march
    # reproduces that run exactly), so it is compared in absolute terms
    @pytest.mark.parametrize("name, t1, d_abs", [("linear_run", 10.0, 1e-14),
                                                 ("memory_run", 25.0, 0.0),
                                                 ("memory_run", 50.0, 0.0)])
    def test_propagator_matches_march(self, request, monkeypatch, name, t1,
                                      d_abs):
        run = request.getfixturevalue(name)
        s1, s2 = run.snapshots[t1], run.snapshots[2.0 * t1]
        W, W_dot = s1["V"] - s1["P"], s1["V_dot"] - s1["P_dot"]
        n_steps = int(round((s2["t"] - s1["t"]) / run.dt))
        got = scattering._free_evolve(run, W, W_dot, n_steps)
        want = march_free_evolve(run, W, W_dot, n_steps)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
        d = scattering_residual(run, t1, 2.0 * t1)
        monkeypatch.setattr(scattering, "_free_evolve", march_free_evolve)
        assert d == pytest.approx(scattering_residual(run, t1, 2.0 * t1),
                                  rel=1e-10, abs=d_abs)

    def test_residuals_decrease(self, memory_run):
        d1 = scattering_residual(memory_run, 25.0, 50.0)
        d2 = scattering_residual(memory_run, 50.0, 100.0)
        assert d1 > d2 > 0.0

    def test_fit_reports_decay(self, memory_run):
        fit = scattering_residual_fit(memory_run, (25.0, 50.0))
        assert fit.exponent < 0.0
        # the fitted residuals are handed back, so callers need not
        # re-evolve them
        assert fit.points == tuple(
            (t, scattering_residual(memory_run, t, 2.0 * t))
            for t in (25.0, 50.0))

    @pytest.mark.parametrize("times", [(25.0,), (25.0, 25.0), ()])
    def test_fit_needs_two_base_times(self, memory_run, times):
        with pytest.raises(InsufficientSamplesError, match="two distinct"):
            scattering_residual_fit(memory_run, times)

    def test_uncorrected_residual_misses_exponent_floor(self, memory_run):
        # Classical scattering (no memory profile subtracted) must fail
        # criterion 9's exponent floor, so the floor is not vacuous.
        snaps = {t: {**s, "P": np.zeros_like(s["P"]),
                     "P_dot": np.zeros_like(s["P_dot"])}
                 for t, s in memory_run.snapshots.items()}
        bare = dataclasses.replace(memory_run, snapshots=snaps)
        uncorrected = scattering_residual_fit(bare, (25.0, 50.0))
        corrected = scattering_residual_fit(memory_run, (25.0, 50.0))
        assert -uncorrected.exponent < RESIDUAL_EXPONENT_MIN
        assert -corrected.exponent >= RESIDUAL_EXPONENT_MIN

    def test_missing_snapshot(self, memory_run):
        with pytest.raises(SnapshotUnavailableError):
            scattering_residual(memory_run, 30.0, 60.0)

    def test_time_ordering_validated(self, memory_run):
        with pytest.raises(ValidationError):
            scattering_residual(memory_run, 50.0, 25.0)

    def test_padding_invariance(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 16)
        base = dict(epsilon=1e-2, quad=quad, cfl=0.5, t_final=40.0,
                    r_c=5.0, sigma=1.0)
        runs = []
        for n_r, rmax in ((384, 51.0), (424, 51.0 * 424 / 384)):
            cfg = ModelConfig(**base)
            out = evolve(cfg, Grid(rmax, n_r), cadence=10,
                         snapshot_times=(15.0, 30.0))
            runs.append(scattering_residual(out, 15.0, 30.0))
        assert abs(runs[0] - runs[1]) <= 10.0 * (51.0 / 384) ** 2
