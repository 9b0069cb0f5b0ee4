import math

import numpy as np
import pytest

from cetlab import (Grid, MassQuadrature, ModelConfig, PowerLawExp,
                    ValidationError, build_quadrature, convergence_study,
                    evolve, free_wave_exact, initialize, padded_r_max,
                    scattering_residual, step)
from cetlab.errors import NotInAsymptoticRegimeError, PaddingViolatedError
from cetlab.radial import ghost_q, ghost_q_prime
from cetlab.resolvent import ModeParams, TimeSeries, kg_retarded


def free_cfg(**kw):
    base = dict(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0, d_quad=0.0,
                quad=None, cfl=0.5, t_final=10.0, r_c=5.0, sigma=1.0)
    base.update(kw)
    return ModelConfig(**base)


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
        cfg = free_cfg(t_final=4.0)
        a = evolve(cfg, Grid(21.0, 256), cadence=7)
        b = evolve(cfg, Grid(21.0, 256), cadence=7)
        assert np.array_equal(a.u_profiles, b.u_profiles)

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

    def test_blow_up_reported_not_raised(self):
        # strong bad-derivative self-forcing at order-one amplitude
        cfg = ModelConfig(epsilon=3.0, a_null=0.0, b_bad=8.0, c_grad=0.0,
                          d_quad=0.0, quad=None, cfl=0.5, t_final=12.0,
                          r_c=5.0, sigma=1.0)
        out = evolve(cfg, Grid(23.0, 256), cadence=5)
        assert not out.completed
        assert out.blow_up_time is not None
        assert len(out.records) >= 1


class TestSeparableSourceOracle:
    def test_memory_modes_match_resolvent_route(self):
        quad = MassQuadrature(np.array([0.7, 2.5]), np.array([0.4, 0.2]),
                              "diraccomb")
        grid = Grid(21.0, 256)
        kk = 3 * math.pi / grid.r_max

        def override(t, r):
            prof = np.zeros_like(r)
            prof[1:] = np.sin(kk * r[1:]) / r[1:]
            prof[0] = kk
            return math.exp(-((t - 4.0)) ** 2) * prof

        cfg = ModelConfig(epsilon=0.0, a_null=0.0, b_bad=0.0, c_grad=0.0,
                          d_quad=0.0, quad=quad, cfl=0.4, t_final=10.0,
                          r_c=5.0, sigma=1.0, n2_override=override)
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
    def test_free_wave_order_two(self):
        rep = convergence_study(free_cfg(), Grid(21.0, 128))
        assert 1.7 <= rep.observed_order <= 2.3

    def test_nonlinear_small_amplitude_order_two(self):
        quad = build_quadrature(PowerLawExp(1.0, 1.0, 1.0), 8)
        cfg = free_cfg(a_null=1.0, c_grad=1.0, d_quad=0.25, quad=quad,
                       t_final=8.0)
        rep = convergence_study(cfg, Grid(21.0, 128))
        assert 1.7 <= rep.observed_order <= 2.3

    def test_levels_fixed(self):
        with pytest.raises(ValidationError):
            convergence_study(free_cfg(), Grid(21.0, 128), levels=2)
