"""The three benchmark workloads: seeded inputs, one checked pass, checks.

Each workload is a closed loop in one process: a pass runs one checked
call after another and the next pass starts when the previous one ends.
The seed changes input values only, never the amount of work: every
seed has the same steps, samples and node counts.

The output checks reuse the acceptance gate's pinned bounds verbatim
(tests/test_acceptance.py through cetlab.selftest); criterion 9's
exponent window is red by design and is not a check here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback

import numpy as np

import cetlab
import cetlab.cli
import cetlab.scattering
from cetlab.selftest import DEFAULT_DENSITY, EPS_SWEEP

# ---------------------------------------------------------------- checks


class Checks:
    """Counts checked calls; a call fails if it raises or a check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def call(self, label: str, fn) -> None:
        """Run ``fn`` (returning a list of problems) as one checked call."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # a failing call is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}",
                        traceback.format_exc()]
        if problems:
            self.failed += 1
            self.failures.append({"call": label, "problems": problems})


def relative_mismatches(got: dict, ref: dict, rtol: float) -> list:
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None:
            problems.append(f"{key}: missing")
        elif not abs(have - want) <= rtol * abs(want):
            problems.append(f"{key}: {have!r} vs reference {want!r}")
    return problems


# ----------------------------------------------------------- desk_scatter

DESK_RTOL = 1e-6
DESK_CONFIG = """\
[density]
family = powerlaw
alpha = 1
beta = 1
lambda = 1

[quadrature]
n_nodes = 32

[solver]
n_r = 2048
t_final = 200
epsilon = {epsilon!r}
cfl = 0.5
r_c = 5.0
sigma = 1.0
cadence = 10
snapshot_times = 25, 50, 100, 200

[output]
directory = {out}
formats = csv, json
"""
RESIDUAL_TIMES = (25.0, 50.0, 100.0)


def write_desk_config(epsilon: float, work_dir: str) -> str:
    out = os.path.join(work_dir, "desk_scatter")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"desk-eps{epsilon!r}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DESK_CONFIG.format(epsilon=epsilon,
                                    out=os.path.join(out, "out")))
    return path


def make_desk_inputs(seed: int, work_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    epsilon = EPS_SWEEP[int(rng.integers(len(EPS_SWEEP)))]
    return {"epsilon": epsilon, "config": write_desk_config(epsilon, work_dir),
            "reference": load_reference()[repr(epsilon)]}


def load_reference() -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scatter_scalars(result: dict, residuals: dict) -> dict:
    """Flatten the scatter JSON's numbers plus the D(t, 2t) values."""
    flat = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix[:-1]] = float(node)

    walk("", result)
    for t1, d in residuals.items():
        flat[f"residual_D.{t1:g}"] = d
    return flat


def check_desk(code: int, result: dict, residuals: dict,
               reference: dict) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
        return problems
    if not result.get("m_inf_norm", 0.0) > 0.0:
        problems.append(f"m_inf_norm {result.get('m_inf_norm')} not > 0")
    exponent = result["decay_fits"]["sup_u"]["exponent"]
    if not -1.25 <= exponent <= -0.75:
        problems.append(f"sup_u exponent {exponent} outside [-1.25, -0.75]")
    d = [residuals.get(t) for t in RESIDUAL_TIMES]
    if None in d:
        problems.append(f"D(t, 2t) missing at some of {RESIDUAL_TIMES}")
    elif not d[0] > d[1] > d[2]:
        problems.append(f"D(t, 2t) not strictly decreasing: {d}")
    problems += relative_mismatches(scatter_scalars(result, residuals),
                                    reference, DESK_RTOL)
    return problems


@contextlib.contextmanager
def capture_residuals(sink: dict):
    """Record D(t1, 2 t1) as scattering_residual_fit computes it."""
    inner = cetlab.scattering.scattering_residual

    def recording(run, t1, t2, *args, **kwargs):
        value = inner(run, t1, t2, *args, **kwargs)
        sink[float(t1)] = value
        return value

    cetlab.scattering.scattering_residual = recording
    try:
        yield
    finally:
        cetlab.scattering.scattering_residual = inner


def desk_scatter(config: str) -> tuple:
    """One in-process ``cetlab scatter``: (exit code, result, D values)."""
    residuals: dict = {}
    stdout = io.StringIO()
    with capture_residuals(residuals), contextlib.redirect_stdout(stdout):
        code = cetlab.cli.main(["scatter", "--config", config])
    result = json.loads(stdout.getvalue()) if code == 0 else {}
    return code, result, residuals


def run_desk_scatter(inputs: dict, checks: Checks) -> None:
    def call():
        code, result, residuals = desk_scatter(inputs["config"])
        return check_desk(code, result, residuals, inputs["reference"])

    checks.call(f"scatter eps={inputs['epsilon']!r}", call)


# -------------------------------------------------------- operator_checks

OP_DT = 0.01
COMMUTATOR_MUS = (0.5, 1.0, 2.0)
COMMUTATOR_DTS = (4e-3, 2e-3, 1e-3)
MASSES = (0.25, 1.0, 4.0, 25.0, 100.0)
GL_SIZES = (32, 128, 256, 512)
BW_DENSITY = cetlab.BreitWigner(1.0, 0.1, 1.0)
ONE_ATOM = cetlab.DiracComb(((1.0, 1.0),))
TWO_ATOMS = cetlab.DiracComb(((0.5, 1.0), (0.25, 4.0)))


def _smooth_bump(t, center, width):
    y = (t - center) / width
    out = np.zeros_like(t)
    inside = np.abs(y) < 1
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def _switched_bump(n: int, t_on: float) -> "cetlab.TimeSeries":
    t = OP_DT * np.arange(n)
    return cetlab.TimeSeries(0.0, OP_DT, np.where(
        t > t_on, np.exp(-((t - t_on - 3.0) ** 2)), 0.0))


def make_operator_inputs(seed: int, work_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    ts = cetlab.TimeSeries
    signs = [ts(0.0, OP_DT, rng.choice([-1.0, 1.0], size=800))
             for _ in range(100)]
    t_on = float(rng.uniform(4.0, 6.0))
    f = _switched_bump(12001, t_on)
    t = f.times
    g = ts(0.0, OP_DT, np.sin(rng.uniform(0.5, 2.0) * t) * np.exp(-0.1 * t))
    t_on2 = float(rng.uniform(4.0, 6.0))
    center = float(rng.uniform(2.5, 3.5))
    t_short = OP_DT * np.arange(2001)
    c_center = float(rng.uniform(3.5, 4.5))
    ladder = {}
    for dt in COMMUTATOR_DTS:
        tv = dt * np.arange(int(round(12.0 / dt)) + 1)
        ladder[dt] = ts(0.0, dt, _smooth_bump(tv, c_center, 1.0))
    return {"signs": signs, "f": f, "t_on": t_on, "g": g,
            "f2": _switched_bump(2001, t_on2), "t_on2": t_on2,
            "bump": ts(0.0, OP_DT, np.exp(-((t_short - center) ** 2))),
            "ladder": ladder}


def causal_problems(out: np.ndarray, times: np.ndarray, t_on: float) -> list:
    if np.all(out[times <= t_on] == 0.0):
        return []
    return [f"output nonzero before the source switches on at t={t_on}"]


def linearity_problems(lhs: np.ndarray, rhs: np.ndarray) -> list:
    rel = float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300))
    return [] if rel <= 1e-12 else [f"linearity error {rel:.3e} > 1e-12"]


def commutator_problems(residuals: dict, signs: set) -> list:
    orders = []
    for mu in COMMUTATOR_MUS:
        res = [residuals[(mu, dt)] for dt in COMMUTATOR_DTS]
        orders += [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]
    problems = []
    if min(orders) < 2.0:
        problems.append(f"commutator order {min(orders):.3f} < 2")
    if len(signs) != 1:
        problems.append(f"commutator signs {sorted(signs)} not one sign")
    return problems


def averaging_problems(worst_ratio: float, exponent: float) -> list:
    problems = []
    if not worst_ratio <= 1.05:
        problems.append(f"averaging worst ratio {worst_ratio} > 1.05")
    if not 0.9 <= exponent <= 1.1:
        problems.append(f"averaging exponent {exponent} outside [0.9, 1.1]")
    return problems


def _bound(value: float, limit: float, what: str) -> list:
    return [] if value <= limit else [f"{what} {value} > {limit}"]


def run_operator_checks(inputs: dict, checks: Checks) -> None:
    quads = {}

    def quadrature(n):
        def call():
            quads[n] = q = cetlab.build_quadrature(DEFAULT_DENSITY, n)
            return _bound(q.moment_report["p+0"], 1e-12, f"GL-{n} p+0 error")
        return call

    for n in GL_SIZES:
        checks.call(f"build_quadrature GL-{n}", quadrature(n))

    def breit_wigner():
        q = cetlab.build_quadrature(BW_DENSITY, 64, tol=1e-10)
        mass = BW_DENSITY.total_mass
        return _bound(abs(q.moment(0) - mass) / mass, 1e-8,
                      "BW-64 total mass error")

    checks.call("build_quadrature BW-64", breit_wigner)
    quad = quads[32]

    for i, fs in enumerate(inputs["signs"]):
        def positivity(fs=fs):
            q = cetlab.positivity_functional(quad, fs)
            return [] if q >= -1e-12 * fs.l1() ** 2 else [
                f"positivity functional {q} < -1e-12 l1^2"]
        checks.call(f"positivity_functional #{i}", positivity)

    f, g = inputs["f"], inputs["g"]
    kf = {}

    def causal():
        kf["f"] = cetlab.apply_memory(quad, 0.0, f).samples
        return causal_problems(kf["f"], f.times, inputs["t_on"])

    def linear():
        combo = cetlab.TimeSeries(0.0, OP_DT, 2.0 * f.samples + 3.0 * g.samples)
        lhs = cetlab.apply_memory(quad, 0.0, combo).samples
        rhs = 2.0 * kf["f"] + 3.0 * cetlab.apply_memory(quad, 0.0, g).samples
        return linearity_problems(lhs, rhs)

    def causal2():
        f2 = inputs["f2"]
        out = cetlab.apply_memory2(quad, 0.0, f2).samples
        return causal_problems(out, f2.times, inputs["t_on2"])

    checks.call("apply_memory causality", causal)
    checks.call("apply_memory linearity", linear)
    checks.call("apply_memory2 causality", causal2)

    def commutator():
        residuals, signs = {}, set()
        for mu in COMMUTATOR_MUS:
            for dt in COMMUTATOR_DTS:
                chk = cetlab.commutator_residual(mu, inputs["ladder"][dt])
                residuals[(mu, dt)] = chk.residual
                signs.add(chk.sign)
        return commutator_problems(residuals, signs)

    checks.call("commutator_residual ladder", commutator)

    bump = inputs["bump"]
    for mu in MASSES:
        checks.call(f"duhamel_ratio mu={mu}", lambda mu=mu: _bound(
            cetlab.duhamel_ratio(cetlab.ModeParams(mu, 0.3), bump), 1.02,
            "Duhamel ratio"))
        checks.call(f"mass_weighted_bound_check mu={mu}", lambda mu=mu: _bound(
            cetlab.mass_weighted_bound_check(mu, bump).ratio,
            math.sqrt(2.0) * 1.02, "mass-weighted ratio"))

    def averaging():
        consts = cetlab.spectral_constants(DEFAULT_DENSITY)
        rep = cetlab.decay_bound_check(DEFAULT_DENSITY, consts)
        return averaging_problems(rep.worst_ratio, rep.fitted_exponent)

    def atomic():
        ratio = cetlab.atomic_no_decay_check(ONE_ATOM)["ratio"]
        return [] if ratio >= 0.5 else [f"atomic late/early {ratio} < 0.5"]

    checks.call("decay_bound_check", averaging)
    checks.call("atomic_no_decay_check", atomic)
    for label, rho in (("powerlaw", DEFAULT_DENSITY), ("two-atom", TWO_ATOMS)):
        checks.call(f"mode_stability_scan {label}", lambda rho=rho: _bound(
            cetlab.mode_stability_scan(rho).max_im, 1e-8, "max_im"))


# ------------------------------------------------------- free_wave_ladder

LADDER_N_R = (256, 512, 1024, 2048, 4096)
LADDER_R_MAX = 21.0
LADDER_T = 10.0
PAD_N_R = 1024
PAD_EXTRA = 208  # about 4 extra length units at the same spacing
VELOCITY_MODES = ("time-symmetric", "ingoing")


def make_free_wave_inputs(seed: int, work_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    mode = VELOCITY_MODES[int(rng.integers(len(VELOCITY_MODES)))]
    cfg = cetlab.ModelConfig(
        epsilon=1e-2, a_null=0.0, b_bad=0.0, c_grad=0.0, d_quad=0.0,
        quad=None, cfl=0.5, t_final=LADDER_T, r_c=5.0, sigma=1.0,
        velocity_mode=mode)
    return {"velocity_mode": mode, "cfg": cfg}


def order_problems(errors: list) -> list:
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    bad = [o for o in orders if not 1.7 <= o <= 2.3]
    return [f"convergence orders {orders} outside [1.7, 2.3]"] if bad else []


def _free_wave(cfg, grid):
    out = cetlab.evolve(cfg, grid, cadence=10 ** 9,
                        snapshot_times=(LADDER_T,))
    if not out.completed or LADDER_T not in out.snapshots:
        raise RuntimeError(f"free wave at n_r={grid.n_r} did not reach "
                           f"t={LADDER_T}")
    return out.snapshots[LADDER_T]["V"]


def run_free_wave_ladder(inputs: dict, checks: Checks) -> None:
    cfg = inputs["cfg"]
    errors = {}
    for n_r in LADDER_N_R:
        def rung(n_r=n_r):
            grid = cetlab.Grid(LADDER_R_MAX, n_r)
            v = _free_wave(cfg, grid)
            exact = cetlab.free_wave_exact(cfg, grid.r, LADDER_T)
            errors[n_r] = float(np.max(np.abs(v - exact)))
            return [] if math.isfinite(errors[n_r]) else ["nonfinite error"]
        checks.call(f"evolve free wave n_r={n_r}", rung)

    checks.call("convergence orders", lambda: order_problems(
        [errors[n] for n in LADDER_N_R]))

    def padding():
        grid1 = cetlab.Grid(LADDER_R_MAX, PAD_N_R)
        grid2 = cetlab.Grid(grid1.dr * (PAD_N_R + PAD_EXTRA),
                            PAD_N_R + PAD_EXTRA)
        diff = float(np.max(np.abs(_free_wave(cfg, grid1)
                                   - _free_wave(cfg, grid2)[:PAD_N_R + 1])))
        return _bound(diff, 1e-10, "padding difference")

    checks.call("padding pair", padding)


# name -> (input maker, checked pass, hostspeed kernel for rescaling)
WORKLOADS = {
    "desk_scatter": (make_desk_inputs, run_desk_scatter, "modes"),
    "operator_checks": (make_operator_inputs, run_operator_checks, "modes"),
    "free_wave_ladder": (make_free_wave_inputs, run_free_wave_ladder, "grid"),
}
