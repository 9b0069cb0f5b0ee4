import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cetlab import (MassQuadrature, PowerLawExp, ValidationError,
                    apply_memory, apply_memory2, build_quadrature,
                    commutator_residual, duhamel_ratio, kg_retarded,
                    mass_weighted_bound_check, positivity_functional,
                    scaling_derivative)
from cetlab import resolvent
from cetlab.errors import CommutatorInputError, ModeStepUnstableError
from cetlab.resolvent import (ModeParams, TimeSeries, _kg_solve, _midpoints,
                              _power_tables, _rk4_increment, _terminal_phasor,
                              _unit_step)

ONE_ATOM = MassQuadrature(np.array([1.0]), np.array([1.0]))


def kg_retarded_with_velocity(params, f):
    """The mode response to `f` and its velocity, from the mode solver."""
    v, vd = _kg_solve(np.array([params.omega2]), f.samples, f.dt)
    return TimeSeries(f.t0, f.dt, v[0]), TimeSeries(f.t0, f.dt, vd[0])


def loop_kg_solve(omega2, f, dt):
    """Reference: the RK4 scheme stepped sample by sample (1-d source)."""
    m = omega2.size
    n = f.size
    v = np.zeros((m, n))
    vd = np.zeros((m, n))
    fmid = _midpoints(f)
    half = 0.5 * dt
    cur_v = np.zeros(m)
    cur_vd = np.zeros(m)
    for j in range(n - 1):
        f0, fm, f1 = f[j], fmid[j], f[j + 1]
        k1v = cur_vd
        k1a = f0 - omega2 * cur_v
        k2v = cur_vd + half * k1a
        k2a = fm - omega2 * (cur_v + half * k1v)
        k3v = cur_vd + half * k2a
        k3a = fm - omega2 * (cur_v + half * k2v)
        k4v = cur_vd + dt * k3a
        k4a = f1 - omega2 * (cur_v + dt * k3v)
        cur_v = cur_v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        cur_vd = cur_vd + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        v[:, j + 1] = cur_v
        vd[:, j + 1] = cur_vd
    return v, vd


def series(dt, n, fn):
    t = dt * np.arange(n)
    return TimeSeries(0.0, dt, fn(t))


def smooth_bump(t, c, w):
    y = (t - c) / w
    out = np.zeros_like(t)
    m = np.abs(y) < 1
    out[m] = np.exp(-1.0 / (1.0 - y[m] ** 2))
    return out


class TestModeResponse:
    def test_zero_source_zero_output(self):
        f = series(0.01, 500, np.zeros_like)
        v = kg_retarded(ModeParams(1.0, 0.5), f)
        assert np.all(v.samples == 0.0)

    def test_step_source_oracle_fourth_order(self):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            n = int(round(20.0 / dt)) + 1
            f = series(dt, n, np.ones_like)
            v = kg_retarded(ModeParams(1.0, 0.0), f)
            errs.append(np.max(np.abs(v.samples - (1 - np.cos(v.times)))))
        assert math.log2(errs[0] / errs[1]) > 3.7
        assert math.log2(errs[1] / errs[2]) > 3.7

    def test_causal_support_bitwise(self):
        dt = 0.01
        n = 2001
        t = dt * np.arange(n)
        f = TimeSeries(0.0, dt, np.where(t > 5.0, np.exp(-(t - 8) ** 2), 0.0))
        v = kg_retarded(ModeParams(1.0, 0.5), f)
        assert np.all(v.samples[t <= 5.0] == 0.0)
        assert v.sup() > 0

    def test_causal_support_bitwise_multi_mode(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        dt = 0.01
        t = dt * np.arange(2001)
        f = np.where(t > 5.0, np.exp(-(t - 8) ** 2), 0.0)
        v, vd = _kg_solve(np.concatenate(([0.0], quad.nodes + 0.09)), f, dt)
        assert np.all(v[:, t <= 5.0] == 0.0)
        assert np.all(vd[:, t <= 5.0] == 0.0)
        assert np.all(np.max(np.abs(v), axis=1) > 0)

    def test_zero_mode_solves_when_allowed(self):
        # ModeParams rejects the zero mode; the mode solver takes it
        dt = 0.01
        f = series(dt, 1001, np.ones_like)
        v, vd = _kg_solve(np.array([0.0]), f.samples, dt)
        # v'' = 1: RK4 with the exact midpoint source is exact here
        assert np.max(np.abs(v[0] - 0.5 * f.times ** 2)) < 1e-10
        assert np.max(np.abs(vd[0] - f.times)) < 1e-10

    def test_stability_guard(self):
        f = series(0.5, 100, np.ones_like)
        with pytest.raises(ModeStepUnstableError):
            kg_retarded(ModeParams(100.0, 0.0), f)

    def test_stability_message_separates_value_from_limit(self):
        # dt * sqrt(mu) = 2.5004 would print as the limit 2.5 in 3 digits
        with pytest.raises(ModeStepUnstableError) as exc:
            kg_retarded(ModeParams(1.0, 0.0), series(2.5004, 10, np.ones_like))
        assert "= 2.5004 > 2.5" in str(exc.value)
        assert len(str(exc.value)) < 200

    def test_zero_mode_rejected_without_flag(self):
        with pytest.raises(ValidationError):
            ModeParams(0.0, 0.0)


DT = 0.01
OMEGA2_GRID = (0.0, 1e-4, 0.25, 1.0, 100.0, (2.4 / DT) ** 2)


def switched_bump(n):
    t = DT * np.arange(n)
    return np.where(t > 4.3, np.exp(-(t - 7.3) ** 2), 0.0)


def sign_signal(n):
    return np.random.default_rng(11).choice([-1.0, 1.0], size=n)


class TestRecurrenceAgainstLoop:
    """The recurrence evaluation of RK4 matches the stepwise loop."""

    @staticmethod
    def assert_close(got, ref):
        for g, r in zip(got, ref):
            for row_g, row_r in zip(g, r):
                scale = np.max(np.abs(row_r))
                assert np.max(np.abs(row_g - row_r)) <= 1e-12 * scale

    @pytest.mark.parametrize("source", [switched_bump(12001),
                                        sign_signal(800)],
                             ids=["bump-12001", "sign-800"])
    def test_one_source_all_modes(self, source):
        omega2 = np.array(OMEGA2_GRID)
        self.assert_close(_kg_solve(omega2, source, DT),
                          loop_kg_solve(omega2, source, DT))

    def test_one_source_per_mode(self):
        omega2 = np.array(OMEGA2_GRID)
        rows = np.stack([np.roll(sign_signal(800), 37 * i)
                         for i in range(omega2.size)])
        v, vd = _kg_solve(omega2, rows, DT)
        for i, row in enumerate(rows):
            rv, rvd = loop_kg_solve(omega2[i:i + 1], row, DT)
            self.assert_close((v[i:i + 1], vd[i:i + 1]), (rv, rvd))


def test_unit_step_is_five_unit_increments_bitwise():
    """The stacked unit-input step equals five separate RK4 increments."""
    omega2 = np.array(OMEGA2_GRID)
    zero, one = np.zeros_like(omega2), np.ones_like(omega2)
    unit = _unit_step(omega2, DT)
    for i in range(5):
        args = [one if k == i else zero for k in range(5)]
        dv, dvd = _rk4_increment(omega2, *args, DT)
        assert np.array_equal(unit.dv[i], dv)
        if i == 1:
            assert np.array_equal(
                unit.rot, 1.0 + dvd + 1j * unit.omega * dv)
        elif i in (2, 3):
            c = unit.c0 if i == 2 else unit.cm
            assert np.array_equal(c, dvd + 1j * unit.omega * dv)
        elif i == 4:
            assert unit.c1.dtype == float and np.array_equal(unit.c1, dvd)


class TestMemoryOperator:
    def test_single_atom_reduces_to_mode_oracle(self):
        dt = 0.01
        f = series(dt, 2001, np.ones_like)
        km = apply_memory(ONE_ATOM, 0.0, f)
        assert np.max(np.abs(km.samples - (1 - np.cos(km.times)))) < 1e-8

    def test_near_zero_weights_give_near_zero_output(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 16)
        tiny = quad.scaled(1e-30)
        f = series(0.01, 1000, lambda t: np.sin(t))
        out = apply_memory(tiny, 0.0, f)
        assert out.sup() < 1e-25

    def test_linearity_to_roundoff(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        dt = 0.01
        t = dt * np.arange(1500)
        f = TimeSeries(0.0, dt, np.exp(-(t - 4) ** 2))
        g = TimeSeries(0.0, dt, np.sin(t) * np.exp(-0.2 * t))
        combo = TimeSeries(0.0, dt, 2.0 * f.samples - 0.5 * g.samples)
        lhs = apply_memory(quad, 0.3, combo).samples
        rhs = 2.0 * apply_memory(quad, 0.3, f).samples \
            - 0.5 * apply_memory(quad, 0.3, g).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_uniform_bound_l1(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        dt = 0.01
        t = dt * np.arange(2001)
        f = TimeSeries(0.0, dt, np.exp(-(t - 6) ** 2))
        out = apply_memory(quad, 0.0, f)
        l1 = float(np.sum(quad.weights))
        assert out.sup() <= l1 * f.l1() * (1 + 1e-10)

    def test_instability_names_offending_node(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        f = series(0.5, 100, np.ones_like)
        with pytest.raises(ModeStepUnstableError, match="mu="):
            apply_memory(quad, 0.0, f)


def memory_signals(n):
    """cos * exp with f[0] = 1, a bump switched on at 40% of the span,
    and a constant."""
    t = DT * np.arange(n)
    t_on = 0.4 * t[-1]
    return {"cos_exp": np.cos(1.7 * t) * np.exp(-0.3 * t),
            "switched_bump": np.where(
                t > t_on, np.exp(-((t - 1.7 * t_on) / (t_on + DT)) ** 2), 0.0),
            "constant": np.full(n, 0.7)}


MEMORY_RULES = {
    "gl32": build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32),
    "gl128": build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 128),
    "one_atom": ONE_ATOM,
}


class TestMemoryConvolution:
    """apply_memory sums the modes as one FFT convolution; it matches the
    weighted sum of the per-mode RK4 responses."""

    @staticmethod
    def assert_matches(quad, xi, f, solve):
        got = apply_memory(quad, xi, TimeSeries(0.0, DT, f)).samples
        ref = quad.weights @ solve(quad.nodes + xi ** 2, f, DT)[0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 1500])
    @pytest.mark.parametrize("rule", sorted(MEMORY_RULES))
    def test_against_stepwise_loop(self, rule, n):
        for xi in (0.0, 0.3):
            for f in memory_signals(n).values():
                self.assert_matches(MEMORY_RULES[rule], xi, f, loop_kg_solve)

    @pytest.mark.parametrize("rule", sorted(MEMORY_RULES))
    def test_against_mode_solver_12001(self, rule):
        # the loop's phase rounding grows with the step count; at this
        # length the mode solver is the reference
        for xi in (0.0, 0.3):
            for f in memory_signals(12001).values():
                self.assert_matches(MEMORY_RULES[rule], xi, f, _kg_solve)

    def test_zero_before_switch_on_bitwise(self):
        f = memory_signals(12001)["switched_bump"]
        on = int(np.flatnonzero(f)[0])
        for rule in MEMORY_RULES.values():
            out = apply_memory(rule, 0.3, TimeSeries(0.0, DT, f)).samples
            assert np.all(out[:on] == 0.0)
            assert not np.any(np.signbit(out[:on]))
            assert out[on] != 0.0

    def test_zero_signal_gives_positive_zeros(self):
        out = apply_memory(MEMORY_RULES["gl32"], 0.0,
                           series(DT, 12001, np.zeros_like)).samples
        assert np.all(out == 0.0) and not np.any(np.signbit(out))


class TestDoubleResolvent:
    def test_zero_source(self):
        f = series(0.01, 500, np.zeros_like)
        out = apply_memory2(ONE_ATOM, 0.0, f)
        assert np.all(out.samples == 0.0)

    def test_cascade_matches_fine_reference(self):
        dt = 0.01
        n = 2001
        t = dt * np.arange(n)
        f = TimeSeries(0.0, dt, smooth_bump(t, 1.5, 0.5))
        coarse = apply_memory2(ONE_ATOM, 0.0, f)
        dtf = dt / 10
        tf = dtf * np.arange((n - 1) * 10 + 1)
        ff = TimeSeries(0.0, dtf, smooth_bump(tf, 1.5, 0.5))
        fine = apply_memory2(ONE_ATOM, 0.0, ff)
        assert np.max(np.abs(coarse.samples - fine.samples[::10])) < 1e-7

    def test_growth_bound(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        dt = 0.01
        t = dt * np.arange(2001)
        f = TimeSeries(0.0, dt, smooth_bump(t, 1.5, 0.5))
        out = apply_memory2(quad, 0.0, f)
        c_p1 = 2.0
        assert out.sup() <= c_p1 * f.l1() * t[-1]


def ladder_bump(dt, t_end=12.0):
    """Criterion 4's input at step dt: a unit bump at t = 4 on [0, t_end]."""
    n = int(round(t_end / dt)) + 1
    t = dt * np.arange(n)
    return TimeSeries(0.0, dt, smooth_bump(t, 4.0, 1.0))


def ladder_orders(res):
    """Observed orders between successive rungs of a halving ladder."""
    return [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]


class TestCommutator:
    def test_zero_signal(self):
        f = series(1e-3, 2000, np.zeros_like)
        chk = commutator_residual(1.0, f)
        assert chk.residual == 0.0
        assert chk.sign == -1

    def test_two_mode_solves(self, monkeypatch):
        calls = []

        def counted(params, f):
            calls.append(params)
            return kg_retarded(params, f)

        monkeypatch.setattr(resolvent, "kg_retarded", counted)
        for mu in (0.5, 2.0):
            commutator_residual(mu, ladder_bump(4e-3))
        assert calls == [ModeParams(0.5, 0.0)] * 2 + [ModeParams(2.0, 0.0)] * 2

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_residual_is_the_stated_identity(self, mu):
        # max |S(R f) - 2 R f - R(S f - 2 mu R f)|, recomputed here
        f = ladder_bump(2e-3)
        params = ModeParams(mu, 0.0)
        rf = kg_retarded(params, f)
        sf = scaling_derivative(f).samples
        rest = kg_retarded(params, TimeSeries(0.0, f.dt,
                                              sf - 2.0 * mu * rf.samples))
        want = np.max(np.abs(scaling_derivative(rf).samples
                             - 2.0 * rf.samples - rest.samples))
        chk = commutator_residual(mu, f)
        assert chk.sign == -1 and chk.scale == f.sup()
        assert abs(chk.residual - want) <= 1e-12 * chk.scale

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_flipped_identity_does_not_converge(self, mu):
        # on criterion 4's ladder, S(R f) - R(S f) + 2 R f - 2 mu R^2 f,
        # the other orientation, stays O(1): the orientation is checked
        params = ModeParams(mu, 0.0)
        flipped, stated = [], []
        for dt in (4e-3, 2e-3, 1e-3):
            f = ladder_bump(dt)
            rf = kg_retarded(params, f)
            rrf = kg_retarded(params, rf)
            rsf = kg_retarded(params, scaling_derivative(f))
            lhs = scaling_derivative(rf).samples - rsf.samples
            flipped.append(np.max(np.abs(lhs + 2.0 * rf.samples
                                         - 2.0 * mu * rrf.samples)))
            stated.append(commutator_residual(mu, f).residual)
        assert max(ladder_orders(flipped)) < 1.0
        assert min(ladder_orders(stated)) >= 2.0

    def test_residual_small_and_sign_stable(self):
        signs = set()
        for mu in (0.5, 1.0, 2.0):
            for center in (3.0, 4.0, 5.0):
                n = int(round(12.0 / 1e-3)) + 1
                t = 1e-3 * np.arange(n)
                f = TimeSeries(0.0, 1e-3, smooth_bump(t, center, 1.0))
                chk = commutator_residual(mu, f)
                assert chk.residual <= 1e-5 * chk.scale
                signs.add(chk.sign)
        assert len(signs) == 1

    def test_second_order_convergence(self):
        res = []
        for dt in (4e-3, 2e-3, 1e-3):
            n = int(round(12.0 / dt)) + 1
            t = dt * np.arange(n)
            f = TimeSeries(0.0, dt, smooth_bump(t, 4.0, 1.0))
            res.append(commutator_residual(1.0, f).residual)
        assert math.log2(res[0] / res[1]) >= 2.0
        assert math.log2(res[1] / res[2]) >= 2.0

    def test_rough_input_rejected(self):
        rng = np.random.default_rng(7)
        f = TimeSeries(0.0, 1e-3, rng.choice([-1.0, 1.0], size=2000))
        with pytest.raises(CommutatorInputError):
            commutator_residual(1.0, f)


def operator_commutator(quad, f):
    """[S, K^-1] f = S(K^-1 f) - K^-1(S f) on the rule, S = t d/dt."""
    return (scaling_derivative(apply_memory(quad, 0.0, f)).samples
            - apply_memory(quad, 0.0, scaling_derivative(f)).samples)


class TestOperatorCommutator:
    """The mode identity summed over the rule, and over the density."""

    @pytest.mark.parametrize("n_nodes", [8, 32])
    def test_rule_identity_converges(self, n_nodes):
        # [S, K^-1] f = 2 K^-1 f - 2 K_2 f, K_2 = apply_memory2, on
        # criterion 4's ladder: residuals 4.04e-10, 2.52e-11, 1.72e-12;
        # the flipped sign stays at 1.58 (GL-8) and 0.767 (GL-32)
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), n_nodes)
        stated, flipped = [], []
        for dt in (4e-3, 2e-3, 1e-3):
            f = ladder_bump(dt)
            comm = operator_commutator(quad, f)
            rhs = 2.0 * (apply_memory(quad, 0.0, f).samples
                         - apply_memory2(quad, 0.0, f).samples)
            stated.append(np.max(np.abs(comm - rhs)))
            flipped.append(np.max(np.abs(comm + rhs)))
        assert min(ladder_orders(stated)) >= 3.5
        assert max(ladder_orders(flipped)) < 1.0

    @staticmethod
    def density_sides(n_nodes, t_end):
        """[S, K^-1] f for rho = mu e^-mu, and K^-1 f for -2 mu rho'.

        -2 mu rho' = 2 mu^2 e^-mu - 2 mu e^-mu: the commutator is the
        memory operator of that signed density, each part on its own
        GL-n_nodes rule, at dt 1e-3 on criterion 4's bump.
        """
        f = ladder_bump(1e-3, t_end)

        def memory(alpha, beta):
            quad = build_quadrature(PowerLawExp(alpha, beta, 1.0), n_nodes)
            return apply_memory(quad, 0.0, f).samples

        comm = operator_commutator(
            build_quadrature(PowerLawExp(1.0, 1.0, 1.0), n_nodes), f)
        return comm, memory(2.0, 2.0) - memory(2.0, 1.0)

    @pytest.mark.parametrize("n_nodes", [32, 64, 128, 256, 512])
    def test_density_identity_inside_the_horizon(self, n_nodes):
        # T = 12: residual 1.6e-12 to 1.7e-12 against a size of 0.384
        comm, density = self.density_sides(n_nodes, 12.0)
        assert np.max(np.abs(comm - density)) <= 1e-10 * np.max(np.abs(comm))

    def test_gl32_density_identity_fails_past_its_horizon(self):
        # finding: at T = 40, past GL-32's time horizon, the rule's
        # commutator is wrong by more than its own size (GL-128 still
        # holds it to 5.9e-7)
        comm, density = self.density_sides(32, 40.0)
        size = np.max(np.abs(comm))
        residual = np.max(np.abs(comm - density))
        assert size == pytest.approx(7.62, abs=5e-3)
        assert residual == pytest.approx(7.64, abs=5e-3)
        assert residual > size


def criterion_3_sources():
    """Criterion 3's 100 seeded sign sources at dt 0.01."""
    return [TimeSeries(0.0, 0.01, np.random.default_rng(1000 + s).choice(
        [-1.0, 1.0], size=800)) for s in range(100)]


def clear_rule_caches():
    _unit_step.cache_clear()
    _power_tables.cache_clear()


def cold_positivity(quad, f):
    """`positivity_functional` with the step and table caches cleared."""
    clear_rule_caches()
    return positivity_functional(quad, f)


class TestRuleCache:
    """A rule's unit step and power tables are built once per key."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_rule_caches()

    def test_one_step_for_criterion_3(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return _rk4_increment(*args)

        monkeypatch.setattr(resolvent, "_rk4_increment", counted)
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        for f in criterion_3_sources():
            positivity_functional(quad, f)
        assert calls == [0.01]

    def test_warm_values_are_the_cold_ones_bitwise(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        sources = criterion_3_sources()
        warm = [positivity_functional(quad, f).hex() for f in sources]
        assert warm == [cold_positivity(quad, f).hex() for f in sources]

    def test_alternating_keys_take_no_stale_tables(self):
        # GL-8 and GL-32 on one source, then GL-32 at another dt and on
        # a shorter source: each key gives its own cold value
        f = criterion_3_sources()[0]
        gl8, gl32 = (build_quadrature(PowerLawExp(1.0, 1.0, 1.0), n)
                     for n in (8, 32))
        calls = [(gl8, f), (gl32, f),
                 (gl32, TimeSeries(0.0, 0.005, f.samples)),
                 (gl32, TimeSeries(0.0, 0.01, f.samples[:400]))]
        cold = [cold_positivity(quad, g) for quad, g in calls]
        assert len(set(cold)) == len(cold)
        for _ in range(3):
            for (quad, g), want in zip(calls, cold):
                assert positivity_functional(quad, g).hex() == want.hex()

    def test_tables_are_read_only(self):
        unit = _unit_step(np.array(OMEGA2_GRID), DT)
        tables = _power_tables(unit.rot, 100)
        for array in (*unit, *tables):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestPositivity:
    def test_zero(self):
        f = series(0.01, 500, np.zeros_like)
        assert positivity_functional(ONE_ATOM, f) == 0.0

    def test_causality_keeps_the_power_positive(self):
        # criterion 3's 100 sign sources (GL-32, dt 0.01): the trapezoid
        # power int f d/dt(K f) dt over |f|_1^2 is positive for the
        # retarded operator (4.6e-5 at least), and the advanced one, K
        # applied to the time-reversed signal and reversed back, flips
        # its sign on every source; 1e-5 keeps both clear of the
        # trapezoid's noise (their half-sum is within 2e-7)
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        dt = 0.01

        def power(f, kf):
            return np.trapezoid(f * np.gradient(kf, dt), dx=dt)

        retarded, advanced = [], []
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            f = TimeSeries(0.0, dt, rng.choice([-1.0, 1.0], size=800))
            reverse = TimeSeries(0.0, dt, f.samples[::-1])
            kf = apply_memory(quad, 0.0, f).samples
            kf_adv = apply_memory(quad, 0.0, reverse).samples[::-1]
            retarded.append(power(f.samples, kf) / f.l1() ** 2)
            advanced.append(power(f.samples, kf_adv) / f.l1() ** 2)
        assert min(retarded) > 1e-5
        assert max(advanced) < -1e-5

    def test_energy_identity_oracle(self):
        dt = 0.005
        t = dt * np.arange(3001)
        f = TimeSeries(0.0, dt, np.exp(-(t - 4) ** 2))
        q = positivity_functional(ONE_ATOM, f)
        v, vd = kg_retarded_with_velocity(ModeParams(1.0, 0.0), f)
        e_term = 0.5 * vd.samples[-1] ** 2 + 0.5 * v.samples[-1] ** 2
        assert q == pytest.approx(e_term, rel=1e-12)
        power = float(np.trapezoid(f.samples * vd.samples, dx=dt))
        assert q == pytest.approx(power, rel=1e-8)

    def test_hundred_seeded_sign_sources(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            f = TimeSeries(0.0, 0.01, rng.choice([-1.0, 1.0], size=800))
            assert positivity_functional(quad, f) >= -1e-12 * f.l1() ** 2


def trajectory_energies(omega2, f, dt, solve=_kg_solve):
    """Terminal mode energies vdot**2 / 2 + omega2 v**2 / 2 of a full solve."""
    v, vd = solve(omega2, f, dt)
    return 0.5 * vd[:, -1] ** 2 + 0.5 * omega2 * v[:, -1] ** 2


class TestTerminalPhasor:
    """positivity_functional reads the terminal phasor alone; it matches
    the weighted terminal energy of the trajectory solve."""

    @staticmethod
    def assert_matches_trajectory(quad, f, solve=_kg_solve):
        ref = float(np.sum(quad.weights * trajectory_energies(
            quad.nodes, f.samples, f.dt, solve)))
        assert positivity_functional(quad, f) == pytest.approx(ref,
                                                              rel=1e-12)

    def test_hundred_seeded_sign_sources(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        rng = np.random.default_rng(1)
        for _ in range(100):
            self.assert_matches_trajectory(
                quad, TimeSeries(0.0, DT, rng.choice([-1.0, 1.0], size=800)))

    def test_switched_bump_12001(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        self.assert_matches_trajectory(
            quad, TimeSeries(0.0, DT, switched_bump(12001)))

    def test_against_stepwise_loop(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        self.assert_matches_trajectory(
            quad, TimeSeries(0.0, DT, sign_signal(800)), loop_kg_solve)

    @pytest.mark.parametrize("n", [2, 3, 800])
    def test_mode_grid_with_zero_mode(self, n):
        # the zero mode's phasor is vdot: no division by omega, no branch
        omega2 = np.array(OMEGA2_GRID)
        f = sign_signal(n)
        w_end = _terminal_phasor(_unit_step(omega2, DT), f)
        got = 0.5 * np.abs(w_end) ** 2
        ref = trajectory_energies(omega2, f, DT, loop_kg_solve)
        assert ref[0] > 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_two_samples(self):
        f = TimeSeries(0.0, DT, np.array([1.0, -2.0]))
        self.assert_matches_trajectory(ONE_ATOM, f, loop_kg_solve)

    def test_many_modes_cross_the_chunk_cap(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 512)
        t = DT * np.arange(40001)
        f = TimeSeries(0.0, DT, np.where(t > 4.3, np.sin(t) * np.exp(
            -0.01 * (t - 4.3)), 0.0))
        self.assert_matches_trajectory(quad, f)

    def test_unstable_node_raises_as_before(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 32)
        f = series(0.5, 100, np.ones_like)
        with pytest.raises(ModeStepUnstableError) as exc:
            positivity_functional(quad, f)
        with pytest.raises(ModeStepUnstableError) as ref:
            apply_memory(quad, 0.0, f)
        assert str(exc.value) == str(ref.value)
        assert str(exc.value).startswith(
            "mode-step-unstable: dt*sqrt(xi^2+mu) = ")
        assert f"at node mu={float(quad.nodes.max()):.6g};" in str(exc.value)


class TestBounds:
    def test_mass_weighted_ratio_below_sqrt2(self):
        dt = 0.01
        t = dt * np.arange(2001)
        f = TimeSeries(0.0, dt, np.exp(-(t - 3) ** 2))
        for mu in (1.0, 4.0, 100.0):
            rep = mass_weighted_bound_check(mu, f)
            assert rep.holds

    def test_ratio_shrinks_with_mass(self):
        dt = 0.01
        t = dt * np.arange(2001)
        f = TimeSeries(0.0, dt, np.exp(-(t - 3) ** 2))
        r1 = mass_weighted_bound_check(1.0, f).ratio
        r100 = mass_weighted_bound_check(100.0, f).ratio
        assert r100 < 0.2 * r1

    def test_duhamel_uniform_over_masses(self):
        dt = 0.01
        t = dt * np.arange(2001)
        f = TimeSeries(0.0, dt, np.exp(-(t - 3) ** 2))
        for mu in (0.0, 0.25, 1.0, 10.0, 100.0):
            assert duhamel_ratio(ModeParams(mu, 0.3), f) <= 1.02


SCIPY_FREE_SCRIPT = """
import json, os, sys, tempfile
import cetlab, cetlab.cli, cetlab.scattering, cetlab.selftest

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

after_import = loaded()
assert cetlab.cli.main(["pheno", "--d-mpc", "400", "--omega-hz", "100",
                        "--alpha", "1e-20", "--mstar", "1e-3"]) == 0
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.cfg")
    with open(path, "w") as fh:
        fh.write("[density]\\nfamily = powerlaw\\nalpha = oops\\n")
    assert cetlab.cli.main(["evolve", "--config", path]) == 2
    assert len(cetlab.build_quadrature(cetlab.PowerLawExp(1, 1, 1), 32)) == 21
    assert cetlab.cli.main(["quad", "--family", "powerlaw", "--alpha", "1",
                            "--beta", "1", "--lambda", "1",
                            "--n-nodes", "32"]) == 0
    with open(path, "w") as fh:
        fh.write("[density]\\nfamily = powerlaw\\nalpha = 1\\nbeta = 1\\n"
                 "lambda = 1\\n[solver]\\nn_r = 128\\nt_final = 4\\n"
                 "epsilon = 0.01\\n[output]\\ndirectory = "
                 + os.path.join(tmp, "out") + "\\n")
    assert cetlab.cli.main(["evolve", "--config", path]) == 0
cfg = cetlab.ModelConfig(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0,
                         d_quad=0.0, quad=None, cfl=0.5, t_final=2.0,
                         r_c=5.0, sigma=1.0)
assert cetlab.evolve(cfg, cetlab.Grid(23.0, 64), cadence=4).completed
print(json.dumps([after_import, loaded()]))
"""


def test_free_paths_load_no_scipy():
    """Importing cetlab loads no scipy module, and nor do pheno, an exit-2
    validation error, a free evolve, or the default power-law path: the
    32-node rule, `cetlab quad` and a power-law `cetlab evolve`.
    scipy.linalg (~0.2 s, 22 MB) loads only for a power-law rule of more
    than 64 nodes and scipy.special only for the averaging tail search;
    scipy.signal and scipy.fft never (the solvers and the scattering
    propagator are numpy only)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip().split("\n")[-1] == "[[], []]"
