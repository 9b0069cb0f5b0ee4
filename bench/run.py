"""cetlab benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload desk_scatter --seed 1 --seconds 30 --trace 0

Workloads (see bench/workloads.py and BENCHMARK.json for why each):
desk_scatter, operator_checks, free_wave_ladder.  A run sets up the
workload, then runs checked passes, one after another in this process,
until the next pass would end past ``--seconds`` (always at least one).

--trace 0 reports the end-to-end metrics: wall_ref_s (median pass time
rescaled to the reference host speed, see bench/hostspeed.py), setup_s
(median over several fresh processes of start-to-ready: import numpy,
scipy and cetlab, generate the inputs; rescaled the same way) and
peak_rss_mb.  The raw wall and set-up times are printed too.
--trace 1 alternates an untraced and a traced pass and reports the
per-layer metrics of bench/layers.py (medians over traced passes).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the seed,
the environment, the pass-time quartiles and the failures.  Result sets
and spans are also written under .bench_build/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import layers
from tracing import Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


def bootstrap() -> None:
    """Make the checkout's own cetlab importable, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "cetlab", "__init__.py")):
        print(f"bench: no cetlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cetlab
    if not os.path.abspath(cetlab.__file__).startswith(SRC + os.sep):
        print(f"bench: imported cetlab from {cetlab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up only, print 'ready' and exit (for setup_s)")
    return ap.parse_args(argv)


# ------------------------------------------------------------ environment

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(os.path.join(index, "size"))
    return sizes


def _openblas() -> dict:
    import ctypes
    import numpy as np
    info = {"version": np.__config__.CONFIG["Build Dependencies"]["blas"]
            .get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cetlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    import numpy
    import scipy
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "cache": _cache_sizes(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": _openblas(),
            "git_commit": _git_commit(), "src_digest": _source_digest()}


# -------------------------------------------------------------- measuring

def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def measure_setup(workload: str, seed: int) -> tuple:
    """Start-to-ready seconds of SETUP_REPEATS fresh processes: raw, and
    rescaled by the host slowdown measured just before and after each."""
    times, ref = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe"]
    for _ in range(SETUP_REPEATS):
        before = hostspeed.bracket_slowdown("interp")
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, {line!r})")
        after = hostspeed.bracket_slowdown("interp")
        times.append(elapsed)
        ref.append(elapsed / (0.5 * (before + after)))
    return times, ref


def keep_going(begin: float, samples: list, seconds: float) -> bool:
    """True while one more pass of median length still ends in time."""
    return (time.perf_counter() - begin) + statistics.median(samples) <= seconds


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_untraced(run_pass, inputs, seconds: float, checks,
                     kernel: str) -> tuple:
    """Timings (hostspeed.Sampler.timed) and CPU seconds of each pass."""
    passes, cpu = [], []
    sampler = hostspeed.Sampler(kernel)
    with sampler.running():
        begin = time.perf_counter()
        while not passes or keep_going(begin, [p["wall"] for p in passes],
                                       seconds):
            c0 = cpu_seconds()
            passes.append(sampler.timed(lambda: run_pass(inputs, checks)))
            cpu.append(cpu_seconds() - c0)
    return passes, cpu


def measure_traced(run_pass, inputs, seconds: float, checks,
                   run_id: str) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    import cetlab
    modules = {name: getattr(cetlab, name) for name in layers.LAYERS}
    per_pass, pair_times, tracers = [], [], []
    begin = time.perf_counter()
    while not pair_times or keep_going(begin, pair_times, seconds):
        t0 = time.perf_counter()
        run_pass(inputs, checks)
        untraced = time.perf_counter() - t0
        counters = layers.Counters()
        tracer = Tracer(f"{run_id}-pass{len(per_pass)}", counters.hooks())
        c0 = cpu_seconds()
        t1 = time.perf_counter()
        with tracer.install(modules):
            run_pass(inputs, checks)
        traced = time.perf_counter() - t1
        cpu = cpu_seconds() - c0
        per_pass.append(layers.layer_metrics(
            tracer.spans, self_times(tracer.spans), counters, traced,
            untraced, cpu))
        tracers.append(tracer)
        pair_times.append(time.perf_counter() - t0)
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    return metrics, tracers


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_pass, kernel = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    inputs = make_inputs(args.seed, WORK_DIR)
    if args.probe:
        print("ready", flush=True)
        return 0

    checks = workloads.Checks()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": {k: v for k, v in inputs.items()
                         if isinstance(v, (int, float, str))},
              "env": environment()}
    if args.trace:
        metrics, tracers = measure_traced(run_pass, inputs, args.seconds,
                                          checks, run_id)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        spans_dir = os.path.join(WORK_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        for tracer in tracers:
            tracer.dump(os.path.join(spans_dir, f"{tracer.run_id}.json"))
    else:
        setup_raw, setup = measure_setup(args.workload, args.seed)
        passes, cpu = measure_untraced(run_pass, inputs, args.seconds, checks,
                                       kernel)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["kernel"] = kernel
        for key in ("ref", "wall", "own", "slowdown"):
            samples = [p[key] for p in passes]
            record[f"pass_{key}"] = {**quartiles(samples), "samples": samples}
        record["cpu_s"] = {**quartiles(cpu), "samples": cpu}
        record["setup_s"] = {**quartiles(setup), "samples": setup}
        record["setup_raw_s"] = {**quartiles(setup_raw), "samples": setup_raw}
        metrics = {"wall_ref_s": record["pass_ref"]["median"],
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record["ops_failed_frac"] = checks.failed / checks.attempted
    record["failures"] = checks.failures
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{run_id}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} wall_s = {record['pass_wall']['median']:.6g} s"
              f" (raw; host slowdown {record['pass_slowdown']['median']:.3g}"
              f" by the {kernel} kernel)")
        print(f"{args.workload} setup_raw_s = "
              f"{record['setup_raw_s']['median']:.6g} s")
    print(f"{args.workload} ops_failed_frac = {record['ops_failed_frac']:.6g}"
          f" ({checks.failed}/{checks.attempted})")
    print(json.dumps({k: record[k] for k in record if k != "result"}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
