"""Command-line front end.

Subcommands: kernel, quad, memory-test, avg-decay, dispersion, evolve,
scatter, pheno, selftest.  Density flags and value types come from the
grammar in `cetlab.config` that run files use too.  Every numeric output
is printed with 17 significant digits and '.' decimals; CSV and JSON
files start with a header comment carrying the tool version and a digest
of the inputs, so identical invocations produce byte-identical files;
the one exception is the timings.json of evolve and scatter, which holds
wall-clock times.
Exit codes: 0 on success, 2 on validation errors (malformed arguments
included), 3 on numerical failures, with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .averaging import atomic_no_decay_check, decay_bound_check
from .config import (DENSITY_PARAMS, FAMILIES, finite_float, float_list,
                     make_density, parse_config)
from .dispersion import DEFAULT_K_GRID, mode_stability_scan, solve_branch
from .errors import BlowUpError, CetlabError, NumericalError, ValidationError
from .pheno import signature_report
from .quadrature import DEFAULT_N_NODES, build_quadrature
from .radial import DiagnosticsRecord, evolve, march_schedule
from .resolvent import TimeSeries, apply_memory, apply_memory2
from .scattering import (DEFAULT_RESIDUAL_TIMES, decay_fit, memory_limit,
                         require_two_base_times, scattering_residual_fit)
from .spectral import DEFAULT_TOL, check_conditions, spectral_constants


def _nonfinite_name(x: float) -> str:
    """'inf', '-inf' or 'nan': how every output writes a nonfinite float."""
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def _fmt(x) -> str:
    if isinstance(x, float):
        if not math.isfinite(x):
            return _nonfinite_name(x)
        return format(x, ".17g")
    return str(x)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".cetlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns: dict, digest_src: str) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    lines = [f"# cetlab {__version__} digest={_digest(digest_src)}",
             ",".join(names)]
    for i in range(rows):
        lines.append(",".join(_fmt(float(columns[c][i])) for c in names))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj: dict, digest_src: str) -> None:
    obj = dict(obj)
    obj["_tool"] = {"name": "cetlab", "version": __version__,
                    "digest": _digest(digest_src)}
    _atomic_write(path, _dumps(obj, sort_keys=True, indent=1) + "\n")


def _jsonable(x):
    """x with numpy scalars and arrays as Python values and every
    nonfinite float as its `_nonfinite_name` string."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return _nonfinite_name(x)
    return x


def _dumps(obj, **kw) -> str:
    """Strict JSON: a nonfinite number never reaches the encoder."""
    return json.dumps(_jsonable(obj), allow_nan=False, **kw)


def _emit(obj: dict) -> None:
    print(_dumps(obj, sort_keys=True, indent=1))


# memory-test holds a few (n_nodes, samples) arrays; this cap on
# n_nodes * samples keeps each one at 64 MiB
MAX_MODE_SAMPLES = 2 ** 23


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as a validation error (exit 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _flag_type(parse):
    """argparse type over a parser of `cetlab.config`: its ValueError is a
    malformed argument, and so is an empty comma list."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad value '{text}': {exc}") from None
        if value == ():
            raise argparse.ArgumentTypeError("empty comma list")
        return value
    return convert


_finite_float = _flag_type(finite_float)


def _density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in DENSITY_PARAMS:
        if name == "atoms":
            p.add_argument("--atoms", help="semicolon list of 'alpha mu' pairs")
        else:
            p.add_argument(f"--{name}", type=_finite_float)


def _density_from_args(a) -> object:
    return make_density(a.family, vars(a))


def _cmd_kernel(a) -> int:
    rho = _density_from_args(a)
    consts = spectral_constants(rho, tol=a.tol)
    report = check_conditions(rho, consts)
    _emit({"constants": dataclasses.asdict(consts),
           "conditions": dataclasses.asdict(report)})
    return 0


def _cmd_quad(a) -> int:
    rho = _density_from_args(a)
    quad = build_quadrature(rho, a.n_nodes, a.tol)
    src = repr((rho, a.n_nodes, a.tol))
    if a.out_csv:
        write_csv(a.out_csv, {"mu": quad.nodes, "weight": quad.weights}, src)
    doc = {"n_nodes": len(quad), "moment_report": quad.moment_report}
    if a.out_json:
        write_json(a.out_json, doc, src)
    _emit({**doc, "mu_min": float(quad.nodes.min()),
           "mu_max": float(quad.nodes.max())})
    return 0


def _cmd_memory_test(a) -> int:
    dt = a.dt
    if dt <= 0:
        raise ValidationError("--dt must be positive")
    span = a.t_final / dt
    if a.n_nodes * (span + 1) > MAX_MODE_SAMPLES:
        raise ValidationError(f"--n-nodes * (--t-final / --dt + 1) exceeds "
                              f"{MAX_MODE_SAMPLES} mode samples")
    rho = _density_from_args(a)
    quad = build_quadrature(rho, a.n_nodes)
    n = int(round(span)) + 1
    t = dt * np.arange(n)
    with np.errstate(over="ignore"):  # far from t_on the bump is 0 anyway
        src = np.where(t > a.t_on,
                       np.exp(-((t - a.t_on - 3.0) ** 2)), 0.0)
    f = TimeSeries(0.0, dt, src)
    kf = apply_memory(quad, a.xi, f)
    k2f = apply_memory2(quad, a.xi, f)
    causal = bool(np.all(kf.samples[t <= a.t_on] == 0.0))
    # each mode's Duhamel bound ||f||_1 / omega_j, omega_j = sqrt(mu_j +
    # xi^2), weighted and summed; an overflow makes it an honest inf, and
    # a zero source's bound is 0 whatever the weights
    l1_f = f.l1()
    sup_bound = 0.0
    if l1_f > 0.0:
        with np.errstate(over="ignore"):
            inv_omega = quad.weights / np.hypot(np.sqrt(quad.nodes), a.xi)
            sup_bound = float(np.sum(inv_omega)) * l1_f
    verdicts = {"causal_before_source": causal,
                "sup_kf": kf.sup(), "uniform_bound": sup_bound,
                "uniform_bound_holds": kf.sup() <= sup_bound}
    src_txt = repr((rho, a.n_nodes, a.xi, dt, a.t_final, a.t_on))
    if a.out_csv:
        write_csv(a.out_csv, {"t": t, "f": f.samples, "Kinv_f": kf.samples,
                              "Kinv2_f": k2f.samples}, src_txt)
    _emit(verdicts)
    return 0


def _cmd_avg_decay(a) -> int:
    rho = _density_from_args(a)
    consts = spectral_constants(rho)
    if not rho.continuous:
        chk = atomic_no_decay_check(rho)
        _emit({"decay": False, "no_decay_check": chk})
        return 0
    rep = decay_bound_check(rho, consts)
    src = repr((rho,))
    if a.out_csv:
        # one row per (t, xi), t-major
        t, xi, bound = np.broadcast_arrays(rep.t_grid[:, None], rep.xi_grid,
                                           rep.bound_constant)
        cols = {"t": t, "xi": xi, "T": rep.symbol, "bound": bound,
                "ratio": t * np.abs(rep.symbol) / 2.0 / bound}
        write_csv(a.out_csv, {k: v.ravel() for k, v in cols.items()}, src)
    _emit(rep.as_dict())
    return 0


def _cmd_dispersion(a) -> int:
    rho = _density_from_args(a)
    k_grid = a.k_grid or DEFAULT_K_GRID
    points = [solve_branch(rho, k, tol=a.tol) for k in k_grid]
    scan = mode_stability_scan(rho, k_grid)
    src = repr((rho, k_grid, a.tol))
    rows = [dataclasses.asdict(p) for p in points]
    if a.out_csv:
        write_csv(a.out_csv, {name: [row[name] for row in rows]
                              for name in rows[0]}, src)
    _emit({"branch": rows, "max_im": scan.max_im, "gaps": list(scan.gaps),
           "scan_counts": scan.counts()})
    return 0


def _march_run(path, base_times=None, required=False):
    """Parse the run file at `path`, which needs both sections, march it
    and make its output directory: the run of `evolve` and `scatter`.

    The usable base times are those t of `base_times`, if given, whose t
    and 2t are both planned snapshots; when `required`, two must be
    usable before any step.  Returns the run config, the RunOutput, the
    run summary, its wall-clock facts for timings.json (`init_s`, the
    parse's, includes building the rule) and the usable base times
    (None without `base_times`).
    """
    t0 = time.perf_counter()
    rc = parse_config(path)
    init_s = time.perf_counter() - t0
    if rc.density is None:
        raise ValidationError(f"{path}: [density] section is required")
    if rc.model is None:
        raise ValidationError(f"{path}: [solver] section is required")
    cfg, grid, cadence, snaps = rc.model
    usable = None
    if base_times is not None:
        # the snapshot times are known before the march: a fit that
        # cannot be made fails before any step
        planned = set(march_schedule(cfg, grid, snaps)[2].values())
        usable = [b for b in base_times
                  if b in planned and 2.0 * b in planned]
        if required:
            require_two_base_times(usable)
    try:
        out = evolve(cfg, grid, cadence=cadence, snapshot_times=snaps)
    except ValidationError as exc:
        # the run-level invariants (padding, stiffness guard, cadence)
        # are checked after the parse: name the file, keep the error
        exc.args = (f"{path}: {exc}",)
        raise
    summary = {"completed": out.completed,
               "integrated_flux": out.integrated_flux,
               "n_records": len(out.records), "dt": out.dt,
               "n_steps": out.n_steps, "column_steps": out.column_steps,
               "stiffness_guard": out.stiffness_guard,
               "n_modes": len(cfg.quad),
               "dropped_nodes": cfg.quad.moment_report["dropped_nodes"]}
    if out.blow_up_time is not None:
        summary["blow_up_time"] = out.blow_up_time
        summary["blow_up_radius"] = out.blow_up_radius
    value_steps = out.column_steps * out.rows
    timings = {"init_s": init_s, "march_s": out.march_s,
               "diagnose_s": out.diagnose_s, "rhs_evals": 4 * out.n_steps,
               "ns_per_value_step": 1e9 * out.march_s / value_steps
               if value_steps else None,
               "us_per_step": 1e6 * out.march_s / out.n_steps
               if out.n_steps else None}
    os.makedirs(rc.output_dir, exist_ok=True)
    return rc, out, summary, timings, usable


def _end_run(rc, summary, timings, t_out, doc=None) -> int:
    """Write timings.json, its output_s the seconds since `t_out`, print
    `doc` as stdout's one document, and end a blown-up run in exit 3
    with the run summary as the error's detail."""
    if "json" in rc.formats:
        write_json(os.path.join(rc.output_dir, "timings.json"),
                   {**timings, "output_s": time.perf_counter() - t_out},
                   rc.source_text)
    if doc is not None:
        _emit(doc)
    if not summary["completed"]:
        raise BlowUpError("blow-up-detected: run did not reach t_final",
                          **summary)
    return 0


def _cmd_evolve(a) -> int:
    rc, out, summary, timings, _ = _march_run(a.config)
    t0 = time.perf_counter()
    src = rc.source_text
    if "csv" in rc.formats:
        cols = {n: out.series(n) for n in DiagnosticsRecord.FIELDS}
        write_csv(os.path.join(rc.output_dir, "diagnostics.csv"), cols, src)
        for ts, snap in sorted(out.snapshots.items()):
            write_csv(os.path.join(rc.output_dir,
                                   f"snapshot_t{ts:g}.csv"),
                      {"r": out.grid.r, "u": snap["u"], "M": snap["M"],
                       "Phi": snap["Phi"]}, src)
    if "json" in rc.formats:
        write_json(os.path.join(rc.output_dir, "summary.json"), summary, src)
    return _end_run(rc, summary, timings, t0, summary)


def _cmd_scatter(a) -> int:
    given = a.residual_times is not None
    rc, out, summary, timings, usable = _march_run(
        a.config, a.residual_times if given else DEFAULT_RESIDUAL_TIMES,
        required=given)
    t0 = time.perf_counter()
    if not out.completed:
        # no analysis of a partial run: the blow-up is the outcome
        return _end_run(rc, summary, timings, t0)
    rep = memory_limit(out)
    t = out.series("t")
    fits = {"sup_u": decay_fit(list(zip(t, out.series("sup_u"))),
                               (a.fit_lo, out.records[-1].t)).as_dict()}
    result = {"m_inf_norm": rep.m_inf_norm,
              "memory_residual_fit": rep.residual_fit.as_dict(),
              "observation_radius": rep.observation_radius,
              "node_beat_period": rep.beat_period,
              "m_inf_window": rep.m_inf_window,
              "decay_fits": fits}
    # base times given on the command line must yield the fit; the
    # default ones add it only where the run holds two of them
    if given or len(set(usable)) >= 2:
        sfit = scattering_residual_fit(out, usable)
        result["scattering_residual_fit"] = sfit.as_dict()
    t1 = time.perf_counter()
    timings["analysis_s"] = t1 - t0
    src = rc.source_text
    if "csv" in rc.formats:
        write_csv(os.path.join(rc.output_dir, "m_inf_profile.csv"),
                  {"r": out.grid.r, "M_inf": rep.m_inf_profile}, src)
    if "json" in rc.formats:
        write_json(os.path.join(rc.output_dir, "scatter.json"), result, src)
    return _end_run(rc, summary, timings, t1, result)


def _cmd_pheno(a) -> int:
    rep = signature_report(a.d_mpc, a.omega_hz, a.alpha, a.mstar,
                           l1=a.l1)
    _emit(dataclasses.asdict(rep))
    return 0


def _cmd_selftest(a) -> int:
    from .selftest import ALL_CRITERIA, run_all
    wanted = ALL_CRITERIA
    if a.only:
        wanted = tuple(fn for i, fn in enumerate(ALL_CRITERIA, start=1)
                       if i in a.only)
        if not wanted:
            raise ValidationError("no criteria match --only "
                                  + ",".join(map(str, a.only)))
    # with --json, stdout carries only the JSON document
    progress = sys.stderr if a.json else sys.stdout
    results = run_all(wanted, stream=progress)
    n_fail = sum(1 for r in results if not r.passed)
    if a.json:
        _emit({"criteria": [dataclasses.asdict(r) for r in results],
               "passed": len(results) - n_fail, "total": len(results)})
    print(f"{len(results) - n_fail}/{len(results)} criteria passed",
          file=progress)
    if n_fail:
        raise NumericalError(f"selftest: {n_fail} criteria failed",
                             failed=[r.cid for r in results if not r.passed])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cetlab",
        description="causal retarded-memory wave laboratory")
    ap.add_argument("--version", action="version",
                    version=f"cetlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="spectral constants and conditions")
    _density_args(p)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("quad", help="mass quadrature nodes and weights")
    _density_args(p)
    p.add_argument("--n-nodes", type=int, default=DEFAULT_N_NODES)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(fn=_cmd_quad)

    p = sub.add_parser("memory-test", help="memory operator checks at "
                                           "fixed wavenumber")
    _density_args(p)
    p.add_argument("--n-nodes", type=int, default=DEFAULT_N_NODES)
    p.add_argument("--xi", type=_finite_float, default=0.0)
    p.add_argument("--dt", type=_finite_float, default=0.01)
    p.add_argument("--t-final", type=_finite_float, default=20.0)
    p.add_argument("--t-on", type=_finite_float, default=5.0)
    p.add_argument("--out-csv")
    p.set_defaults(fn=_cmd_memory_test)

    p = sub.add_parser("avg-decay", help="mass-averaged propagator decay")
    _density_args(p)
    p.add_argument("--out-csv")
    p.set_defaults(fn=_cmd_avg_decay)

    p = sub.add_parser("dispersion", help="dispersion branch and mode scan")
    _density_args(p)
    p.add_argument("--k-grid", type=_flag_type(float_list),
                   help="comma list, default "
                   + ",".join(map(str, DEFAULT_K_GRID)))
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)
    p.add_argument("--out-csv")
    p.set_defaults(fn=_cmd_dispersion)

    p = sub.add_parser("evolve", help="run the radial solver from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("scatter", help="memory limit and scattering fits")
    p.add_argument("--config", required=True)
    p.add_argument("--residual-times", type=_flag_type(float_list),
                   help="base times t for the D(t,2t) fit, default "
                   + ",".join(map(str, DEFAULT_RESIDUAL_TIMES)))
    p.add_argument("--fit-lo", type=_finite_float, default=20.0)
    p.set_defaults(fn=_cmd_scatter)

    p = sub.add_parser("pheno", help="observational signature formulas")
    p.add_argument("--d-mpc", type=_finite_float, required=True)
    p.add_argument("--omega-hz", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--mstar", type=_finite_float, required=True)
    p.add_argument("--l1", type=_finite_float)
    p.set_defaults(fn=_cmd_pheno)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", type=_flag_type(lambda t: float_list(t, int)),
                   help="comma list of criterion numbers")
    p.add_argument("--json", action="store_true",
                   help="print every result with its details as one JSON "
                   "document; progress goes to stderr")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits only for --help and --version
        return int(exc.code or 0)
    except CetlabError as exc:
        print(_dumps({"error": exc.code, "message": str(exc),
                      "detail": exc.detail}), file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
