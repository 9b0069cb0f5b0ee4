"""Per-layer metrics of a traced pass: self times, calls and counts.

The layers are cetlab's package modules.  ``pheno`` is left out: it
holds microsecond closed forms that no optimisation will target.
Counts marked *computed* are derived from a call's inputs and outputs
by the hooks below, not measured inside the program.
"""

from __future__ import annotations

import math
import os

LAYERS = ("spectral", "quadrature", "resolvent", "averaging", "dispersion",
          "radial", "scattering", "config", "cli")

# (layer, public function): each gets "<layer>.<fn>.s" (self time) and,
# where listed with calls=True, "<layer>.<fn>.calls".
TIMED = (
    ("radial", "evolve", True),
    ("scattering", "scattering_residual", True),
    ("scattering", "memory_limit", False),
    ("scattering", "scattering_residual_fit", True),
    ("quadrature", "build_quadrature", True),
    ("resolvent", "commutator_residual", True),
    ("resolvent", "positivity_functional", True),
    ("resolvent", "apply_memory", True),
    ("resolvent", "apply_memory2", True),
    ("resolvent", "kg_retarded", True),
    ("resolvent", "duhamel_ratio", True),
    ("resolvent", "mass_weighted_bound_check", True),
    ("averaging", "decay_bound_check", False),
    ("averaging", "atomic_no_decay_check", False),
    ("dispersion", "mode_stability_scan", True),
    ("spectral", "spectral_constants", True),
    ("config", "parse_config", False),
    ("cli", "write_csv", False),
    ("cli", "write_json", False),
)

# name -> (unit, better)
COUNTS = {
    "radial.steps": ("count", "lower"),
    "radial.modes": ("count", "lower"),
    "radial.values_per_step": ("count", "lower"),
    "radial.state_bytes": ("bytes", "lower"),
    "radial.ns_per_value_step": ("ns", "lower"),
    "radial.records": ("count", "lower"),
    "scattering.free_steps": ("count", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.live_nodes": ("count", "lower"),
    "quadrature.live_ratio": ("fraction", "higher"),
    "resolvent.mode_samples": ("count", "lower"),
    "resolvent.single_mode.ns_per_sample": ("ns", "lower"),
    "resolvent.multi_mode.ns_per_mode_sample": ("ns", "lower"),
    "dispersion.roots_found": ("count", "higher"),
    "dispersion.rejected_roots": ("count", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "bench.s": ("s", "lower"),
}

LIVE_WEIGHT = 1e-14  # a node is live when its weight exceeds this * l1
BYTES_PER_VALUE = 8


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer, fn, calls in TIMED:
        specs.append((f"{layer}.{fn}.s", "s", "lower"))
        if calls:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.s", "s", "lower"))
        specs.append((f"{layer}.errors", "count", "lower"))
    specs += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    return specs


def radial_counts(cfg, grid) -> dict:
    """RK4 steps and state size of one evolve call (computed).

    evolve shrinks dt = cfl*dr so that an even number of steps lands on
    t_final; the state holds V, V_dot, P, P_dot and a pair per mode on
    n_r + 1 points.
    """
    modes = 0 if cfg.quad is None else len(cfg.quad)
    steps = 2 * max(1, math.ceil(cfg.t_final / (2.0 * cfg.cfl * grid.dr)))
    values = (grid.n_r + 1) * (4 + 2 * modes)
    return {"steps": steps, "modes": modes, "values_per_step": values}


class Counters:
    """Work counts gathered from traced calls' arguments and results."""

    def __init__(self):
        self.c = {"radial.steps": 0, "radial.modes": 0,
                  "radial.value_steps": 0, "radial.max_values": 0,
                  "radial.records": 0, "scattering.free_steps": 0,
                  "quadrature.nodes": 0, "quadrature.live_nodes": 0,
                  "resolvent.single_samples": 0,
                  "resolvent.multi_mode_samples": 0,
                  "resolvent.double_mode_samples": 0,
                  "dispersion.roots_found": 0, "dispersion.rejected_roots": 0,
                  "cli.bytes_written": 0}

    def hooks(self) -> dict:
        c = self.c

        def evolve(a, out):
            n = radial_counts(a["cfg"], a["grid"])
            if out.dt > 0 and round(a["cfg"].t_final / out.dt) != n["steps"]:
                raise RuntimeError("computed step count disagrees with evolve")
            c["radial.steps"] += n["steps"]
            c["radial.modes"] = max(c["radial.modes"], n["modes"])
            c["radial.value_steps"] += n["steps"] * n["values_per_step"]
            c["radial.max_values"] = max(c["radial.max_values"],
                                         n["values_per_step"])
            c["radial.records"] += len(out.records)

        def residual(a, _):
            run = a["run"]
            span = run.snapshots[a["t2"]]["t"] - run.snapshots[a["t1"]]["t"]
            c["scattering.free_steps"] += int(round(span / run.dt))

        def quadrature(_, q):
            c["quadrature.nodes"] += len(q)
            c["quadrature.live_nodes"] += int(
                (q.weights > LIVE_WEIGHT * q.weights.sum()).sum())

        def single(a, _):
            c["resolvent.single_samples"] += a["f"].samples.size

        def multi(a, _):
            c["resolvent.multi_mode_samples"] += (len(a["quad"])
                                                  * a["f"].samples.size)

        def double(a, _):
            # one multi-mode pass, then one single-mode pass per node
            c["resolvent.double_mode_samples"] += (2 * len(a["quad"])
                                                   * a["f"].samples.size)

        def scan(_, s):
            c["dispersion.roots_found"] += sum(len(v) for v in s.roots.values())
            c["dispersion.rejected_roots"] += sum(len(v) for v in
                                                  s.rejected.values())

        def written(a, _):
            c["cli.bytes_written"] += os.path.getsize(a["path"])

        return {"radial.evolve": evolve,
                "scattering.scattering_residual": residual,
                "quadrature.build_quadrature": quadrature,
                "resolvent.kg_retarded": single,
                "resolvent.apply_memory": multi,
                "resolvent.positivity_functional": multi,
                "resolvent.apply_memory2": double,
                "dispersion.mode_stability_scan": scan,
                "cli.write_csv": written, "cli.write_json": written}


def _ns_per(seconds: float, work: int) -> float:
    return 1e9 * seconds / work if work else 0.0


def layer_metrics(spans, selfs, counters: Counters, wall: float,
                  untraced_wall: float, cpu_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as metric_specs()."""
    by_fn: dict = {}
    by_layer = {layer: [0.0, 0] for layer in LAYERS}
    for span, own in zip(spans, selfs):
        fn = by_fn.setdefault(span.name, [0.0, 0])
        fn[0] += own
        fn[1] += 1
        layer = by_layer[span.name.split(".", 1)[0]]
        layer[0] += own
        layer[1] += span.error
    m = {}
    for layer, fn, calls in TIMED:
        s, n = by_fn.get(f"{layer}.{fn}", (0.0, 0))
        m[f"{layer}.{fn}.s"] = s
        if calls:
            m[f"{layer}.{fn}.calls"] = n
    for layer, (s, errors) in by_layer.items():
        m[f"{layer}.s"] = s
        m[f"{layer}.errors"] = errors
    c = counters.c
    steps = c["radial.steps"]
    m["radial.steps"] = steps
    m["radial.modes"] = c["radial.modes"]
    m["radial.values_per_step"] = c["radial.value_steps"] / steps if steps else 0
    m["radial.state_bytes"] = BYTES_PER_VALUE * c["radial.max_values"]
    m["radial.ns_per_value_step"] = _ns_per(m["radial.evolve.s"],
                                            c["radial.value_steps"])
    m["radial.records"] = c["radial.records"]
    m["scattering.free_steps"] = c["scattering.free_steps"]
    m["quadrature.nodes"] = c["quadrature.nodes"]
    m["quadrature.live_nodes"] = c["quadrature.live_nodes"]
    m["quadrature.live_ratio"] = (c["quadrature.live_nodes"]
                                  / c["quadrature.nodes"]
                                  if c["quadrature.nodes"] else 0.0)
    multi_s = (m["resolvent.apply_memory.s"]
               + m["resolvent.positivity_functional.s"])
    m["resolvent.mode_samples"] = (c["resolvent.single_samples"]
                                   + c["resolvent.multi_mode_samples"]
                                   + c["resolvent.double_mode_samples"])
    m["resolvent.single_mode.ns_per_sample"] = _ns_per(
        m["resolvent.kg_retarded.s"], c["resolvent.single_samples"])
    m["resolvent.multi_mode.ns_per_mode_sample"] = _ns_per(
        multi_s, c["resolvent.multi_mode_samples"])
    m["dispersion.roots_found"] = c["dispersion.roots_found"]
    m["dispersion.rejected_roots"] = c["dispersion.rejected_roots"]
    m["cli.bytes_written"] = c["cli.bytes_written"]
    m["proc.cpu_s"] = cpu_s
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["bench.s"] = wall - sum(selfs)
    return m
