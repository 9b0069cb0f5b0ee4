"""The acceptance gate: ten checks, each with its pinned tolerance.

Both the `selftest` CLI subcommand and the pytest acceptance module run
these functions; each returns a CriterionResult with measured values so
failures are diagnosable.  The heavy evolution runs (the desk-scale
default run and its amplitude sweep) are computed once per process and
shared.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import (DiracComb, Grid, ModelConfig, PowerLawExp, TimeSeries,
               apply_memory, atomic_no_decay_check, build_quadrature,
               check_conditions, commutator_residual,
               decay_bound_check, decay_fit, duhamel_ratio, evolve,
               free_wave_exact, ligo_bound, mass_weighted_bound_check,
               memory_limit, mode_stability_scan, one_atom_root,
               padded_r_max, phase_shift, positivity_functional,
               pulsar_timing_bound, scattering_residual_fit, solve_branch,
               spectral_constants, tail_crossing)
from .resolvent import ModeParams
from .scattering import DEFAULT_RESIDUAL_TIMES

EPS_SWEEP = (0.005, 0.01, 0.02)
# Criterion 9 floor on the decay exponent of D(t, 2t).  The bound is
# one-sided: the model promises convergence, not a ceiling on its rate,
# and grid refinement moves the measured exponent up towards 1.
RESIDUAL_EXPONENT_MIN = 0.3
DEFAULT_DENSITY = PowerLawExp(1.0, 1.0, 1.0)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid:2d}: {self.title} " \
               f"({self.runtime_s:.1f}s)"


def _timed(cid, title, fn) -> CriterionResult:
    t0 = time.time()
    passed, details = fn()
    return CriterionResult(cid, title, passed, time.time() - t0, details)


def default_run_config(epsilon: float = 1e-2, n_r: int = 2048,
                       t_final: float = 200.0) -> tuple[ModelConfig, Grid]:
    quad = build_quadrature(DEFAULT_DENSITY, 32)
    cfg = ModelConfig(epsilon=epsilon, quad=quad, cfl=0.5, t_final=t_final,
                      r_c=5.0, sigma=1.0)
    grid = Grid(padded_r_max(cfg), n_r)
    return cfg, grid


_run_cache: dict = {}


def _compute_sweep_run(epsilon: float):
    cfg, grid = default_run_config(epsilon)
    # criterion 9's D(t, 2t) needs a snapshot at every base time and its
    # double
    return evolve(cfg, grid, cadence=10, snapshot_times=sorted(
        {*DEFAULT_RESIDUAL_TIMES, *(2.0 * t for t in DEFAULT_RESIDUAL_TIMES)}))


def _sweep_run(epsilon: float):
    if epsilon not in _run_cache:
        _run_cache[epsilon] = _compute_sweep_run(epsilon)
    return _run_cache[epsilon]


def criterion_1() -> CriterionResult:
    def check():
        c = spectral_constants(DEFAULT_DENSITY)
        targets = {"l1": 1.0, "c_m1": 1.0, "c_p1": 2.0,
                   "c_prime": 2.0 / math.e}
        rel = {k: abs(getattr(c, k) - v) / v for k, v in targets.items()}
        return max(rel.values()) <= 1e-9, {"relative_errors": rel}
    return _timed(1, "spectral constants match closed forms to 1e-9", check)


def criterion_2() -> CriterionResult:
    def check():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flat = PowerLawExp(1.0, 0.0, 1.0)
        c0 = spectral_constants(flat)
        r0 = check_conditions(flat, c0)
        tilted = PowerLawExp(1.0, 0.1, 1.0)
        c1 = spectral_constants(tilted)
        r1 = check_conditions(tilted, c1)
        ok = (math.isinf(c0.c_m1) and not r0.s3
              and all(c1.finite(k) for k in ("l1", "c_m1", "c_p1", "c_prime"))
              and r1.s3)
        return ok, {"beta0_c_m1": c0.c_m1, "beta0_s3": r0.s3,
                    "beta01_s3": r1.s3}
    return _timed(2, "infrared moment diverges exactly at beta=0", check)


def criterion_3() -> CriterionResult:
    def check():
        quad = build_quadrature(DEFAULT_DENSITY, 32)
        dt = 0.01
        n = 2001
        t = dt * np.arange(n)
        src = np.where(t > 5.0, np.exp(-((t - 8.0) ** 2)), 0.0)
        f = TimeSeries(0.0, dt, src)
        kf = apply_memory(quad, 0.0, f)
        causal = bool(np.all(kf.samples[t <= 5.0] == 0.0))

        g = TimeSeries(0.0, dt, np.sin(t) * np.exp(-0.1 * t))
        combo = TimeSeries(0.0, dt, 2.0 * f.samples + 3.0 * g.samples)
        lhs = apply_memory(quad, 0.0, combo).samples
        rhs = 2.0 * kf.samples + 3.0 * apply_memory(quad, 0.0, g).samples
        lin_rel = float(np.max(np.abs(lhs - rhs))
                        / max(np.max(np.abs(rhs)), 1e-300))

        pos_ok = True
        worst_pos = math.inf
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            fs = TimeSeries(0.0, dt, rng.choice([-1.0, 1.0], size=800))
            q = positivity_functional(quad, fs)
            worst_pos = min(worst_pos, q)
            pos_ok &= q >= -1e-12 * fs.l1() ** 2

        bump = TimeSeries(0.0, dt, np.exp(-((t - 3.0) ** 2)))
        duh = max(duhamel_ratio(ModeParams(mu, 0.3), bump)
                  for mu in (0.25, 1.0, 4.0, 25.0, 100.0))
        mw = max(mass_weighted_bound_check(mu, bump).ratio
                 for mu in (0.25, 1.0, 4.0, 25.0, 100.0))
        bound_ok = duh <= 1.02 and mw <= math.sqrt(2.0) * 1.02
        ok = causal and lin_rel <= 1e-12 and pos_ok and bound_ok
        return ok, {"causal": causal, "linearity_rel": lin_rel,
                    "worst_positivity": worst_pos, "duhamel_max": duh,
                    "mass_weighted_max": mw}
    return _timed(3, "memory operator: causal, linear, positive, bounded",
                  check)


def criterion_4() -> CriterionResult:
    def check():
        def bump(tv, c, w):
            y = (tv - c) / w
            out = np.zeros_like(tv)
            m = np.abs(y) < 1
            out[m] = np.exp(-1.0 / (1.0 - y[m] ** 2))
            return out

        signs = set()
        orders = []
        for mu in (0.5, 1.0, 2.0):
            res = []
            for dt in (4e-3, 2e-3, 1e-3):
                n = int(round(12.0 / dt)) + 1
                tv = dt * np.arange(n)
                f = TimeSeries(0.0, dt, bump(tv, 4.0, 1.0))
                chk = commutator_residual(mu, f)
                res.append(chk.residual)
                signs.add(chk.sign)
            orders.append(math.log2(res[0] / res[1]))
            orders.append(math.log2(res[1] / res[2]))
        order_min = min(orders)
        ok = order_min >= 2.0 and len(signs) == 1
        return ok, {"orders": orders, "signs": sorted(signs)}
    return _timed(4, "scaling-field commutator identity holds to a sign",
                  check)


def criterion_5() -> CriterionResult:
    def check():
        consts = spectral_constants(DEFAULT_DENSITY)
        rep = decay_bound_check(DEFAULT_DENSITY, consts)
        atom = atomic_no_decay_check(DiracComb(((1.0, 1.0),)))
        ok = (rep.worst_ratio <= 1.05
              and 0.9 <= rep.fitted_exponent <= 1.1
              and atom["ratio"] >= 0.5)
        return ok, {"worst_ratio": rep.worst_ratio,
                    "fitted_exponent": rep.fitted_exponent,
                    "atom_late_over_early": atom["ratio"]}
    return _timed(5, "mass averaging decays like 1/t; atoms do not", check)


def criterion_6() -> CriterionResult:
    def check():
        scan_pl = mode_stability_scan(DEFAULT_DENSITY)
        two = DiracComb(((0.5, 1.0), (0.25, 4.0)))
        scan_two = mode_stability_scan(two)
        pt = solve_branch(DiracComb(((1.0, 1.0),)), 1.0, tol=1e-12)
        oracle = one_atom_root(1.0, 1.0, 1.0)
        root_err = abs(pt.omega - oracle)
        ok = (scan_pl.max_im <= 1e-8 and scan_two.max_im <= 1e-8
              and root_err <= 1e-10)
        return ok, {"max_im_powerlaw": scan_pl.max_im,
                    "max_im_two_atom": scan_two.max_im,
                    "one_atom_root_error": root_err,
                    "scan_counts_powerlaw": scan_pl.counts(),
                    "scan_counts_two_atom": scan_two.counts()}
    return _timed(6, "no growing dispersion modes; principal root exact",
                  check)


def criterion_7() -> CriterionResult:
    def check():
        cfg = ModelConfig(epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0,
                          d_quad=0.0, quad=None, cfl=0.5, t_final=10.0,
                          r_c=5.0, sigma=1.0)
        errs = {}
        for n_r in (256, 512, 1024):
            grid = Grid(21.0, n_r)
            out = evolve(cfg, grid, cadence=10 ** 9, snapshot_times=(10.0,))
            exact = free_wave_exact(cfg, grid.r, 10.0)
            errs[n_r] = float(np.max(np.abs(out.snapshots[10.0]["V"] - exact)))
        orders = [math.log2(errs[256] / errs[512]),
                  math.log2(errs[512] / errs[1024])]

        # the n_r = 1024 rung against the same spacing on a longer grid
        extra = 208  # about 4 extra length units at the same spacing
        grid2 = Grid(grid.dr * (1024 + extra), 1024 + extra)
        out2 = evolve(cfg, grid2, cadence=10 ** 9, snapshot_times=(10.0,))
        pad_diff = float(np.max(np.abs(
            out.snapshots[10.0]["V"] - out2.snapshots[10.0]["V"][:1025])))
        ok = all(1.7 <= o <= 2.3 for o in orders) and pad_diff <= 1e-10
        return ok, {"oracle_errors": errs, "orders": orders,
                    "padding_diff": pad_diff}
    return _timed(7, "free wave: second order vs closed form, padded exactly",
                  check)


def criterion_8() -> CriterionResult:
    def check():
        out = _sweep_run(0.01)
        e_ghost = out.series("E_ghost")
        flux = out.series("flux")
        t = out.series("t")
        sup_u = out.series("sup_u")
        fit = decay_fit(list(zip(t, sup_u)), (20.0, 200.0))
        intflux = out.integrated_flux
        ok = (out.completed
              and float(e_ghost.max()) <= 2.0 * float(e_ghost[0])
              and float(flux.min()) >= 0.0
              and math.isfinite(intflux)
              and -1.25 <= fit.exponent <= -0.75)
        return ok, {"completed": out.completed,
                    "e_ghost_ratio": float(e_ghost.max() / e_ghost[0]),
                    "flux_min": float(flux.min()),
                    "integrated_flux": intflux,
                    "sup_u_exponent": fit.exponent,
                    "sup_u_r2": fit.r_squared}
    return _timed(8, "desk-scale nonlinear memory run stays bounded and "
                     "decays", check)


def criterion_9() -> CriterionResult:
    def check():
        reps = {eps: memory_limit(_sweep_run(eps)) for eps in EPS_SWEEP}
        norms = {eps: rep.m_inf_norm for eps, rep in reps.items()}
        ratios = [norms[0.01] / norms[0.005] / 4.0,
                  norms[0.02] / norms[0.01] / 4.0]
        scaling_ok = (norms[0.005] > 0
                      and all(abs(r - 1.0) <= 0.20 for r in ratios))
        out = _sweep_run(0.01)
        rep = reps[0.01]
        base_times = DEFAULT_RESIDUAL_TIMES
        fit = scattering_residual_fit(out, base_times)
        d_vals = [d for _, d in fit.points]
        decreasing = d_vals[0] > d_vals[1] > d_vals[2]
        exponent_ok = -fit.exponent >= RESIDUAL_EXPONENT_MIN
        ok = scaling_ok and decreasing and exponent_ok
        sqrt_t_d = [math.sqrt(t1) * d for t1, d in zip(base_times, d_vals)]
        trend = ("nonincreasing"
                 if sqrt_t_d[0] >= sqrt_t_d[1] >= sqrt_t_d[2]
                 else "increasing somewhere")
        details = {"m_inf_norms": norms, "scaling_ratios": ratios,
                   "residuals": d_vals, "decreasing": decreasing,
                   "residual_exponent": -fit.exponent,
                   "residual_exponent_min": RESIDUAL_EXPONENT_MIN,
                   "residual_r2": fit.r_squared,
                   "sqrt_t_residuals": sqrt_t_d,
                   "m_inf_window": rep.m_inf_window,
                   "node_beat_period": rep.beat_period,
                   "note": f"sqrt(t)*D(t, 2t) is {trend} over the base "
                           f"times {base_times}"}
        return ok, details
    return _timed(9, "memory persists at eps^2; Cauchy residual shrinks",
                  check)


def criterion_10() -> CriterionResult:
    def check():
        tc = tail_crossing(1e-10)
        tc_ok = abs(tc - 46.4) <= 0.1
        d, om, l1 = 3.7, 11.0, 0.013
        hom1 = abs(phase_shift(2 * d, om, l1) - 2 * phase_shift(d, om, l1))
        hom2 = abs(phase_shift(d, 2 * om, l1) - 0.5 * phase_shift(d, om, l1))
        hom3 = abs(tail_crossing(7.0 * 1e-9)
                   - 7.0 ** (-1 / 6.0) * tail_crossing(1e-9))
        hom_ok = max(hom1 / phase_shift(2 * d, om, l1),
                     hom2 / phase_shift(d, 2 * om, l1),
                     hom3 / tail_crossing(7e-9)) <= 1e-12
        # bound inversions round-trip through the forward formulas
        b = ligo_bound(0.1, 400.0, 100.0, units="natural")
        rt = abs(phase_shift(400.0, 100.0, b) - 0.1) / 0.1
        pb = pulsar_timing_bound(0.1, 2.0)
        pb_ok = abs(pb * 2.0 ** 2 - 0.1) <= 1e-12
        ok = tc_ok and hom_ok and rt <= 1e-12 and pb_ok
        return ok, {"tail_crossing": tc, "phase_round_trip": rt,
                    "pulsar_bound": pb}
    return _timed(10, "signature formulas scale and invert exactly", check)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10)


def prewarm_sweep() -> None:
    """Run the amplitude sweep up front, one process per run and CPU,
    or in this process on one CPU or when the pool fails.

    `pool.map` keeps the order of the runs, so the outcome is
    byte-identical at any worker count.
    """
    todo = [eps for eps in EPS_SWEEP if eps not in _run_cache]
    cap = min(len(todo), os.cpu_count() or 1)
    if cap > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=cap) as pool:
                runs = list(pool.map(_compute_sweep_run, todo))
            _run_cache.update(zip(todo, runs))
            return
        except (OSError, BrokenProcessPool):
            pass        # the serial path below
    _run_cache.update(zip(todo, map(_compute_sweep_run, todo)))


def run_all(criteria=None, stream=None) -> list:
    """Run the criteria, printing each result line to `stream` (default
    stdout) as it finishes.  The amplitude sweep behind criteria 8 and 9
    is prewarmed first when either of them is selected."""
    criteria = criteria or ALL_CRITERIA
    if criterion_8 in criteria or criterion_9 in criteria:
        prewarm_sweep()
    results = []
    for fn in criteria:
        res = fn()
        print(res.line(), flush=True, file=stream)
        results.append(res)
    return results
