"""Self-tests of the benchmark: tracing arithmetic, counts and checks.

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import signal
import time

import numpy as np
import pytest

import cetlab
import cetlab.resolvent
import hostspeed
import layers
import workloads
from cetlab.config import parse_config
from cetlab.selftest import default_run_config
from tracing import Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------- tracing

def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer("run", clock=clock)

    def inner():
        clock.now += 2.0

    w_inner = tracer.wrap("resolvent.inner", inner)

    def outer():
        clock.now += 1.0
        w_inner()
        clock.now += 3.0
        w_inner()
        clock.now += 4.0

    tracer.wrap("radial.outer", outer)()
    # spans are indexed in call order: outer first, then its children
    names = [s.name for s in tracer.spans]
    assert names == ["radial.outer", "resolvent.inner", "resolvent.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert [s.duration for s in tracer.spans] == [12.0, 2.0, 2.0]
    assert self_times(tracer.spans) == [8.0, 2.0, 2.0]
    assert all(s.run_id == "run" for s in tracer.spans)

    wall = 15.0
    m = layers.layer_metrics(tracer.spans, self_times(tracer.spans),
                             layers.Counters(), wall, 14.0, 1.0)
    assert m["radial.s"] == 8.0 and m["resolvent.s"] == 4.0
    assert m["bench.s"] == 3.0
    assert sum(m[f"{layer}.s"] for layer in layers.LAYERS) + m["bench.s"] \
        == wall
    assert m["trace.overhead_s"] == 1.0


def test_error_span_is_counted_and_reraised():
    tracer = Tracer("run")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("dispersion.boom", boom)()
    m = layers.layer_metrics(tracer.spans, self_times(tracer.spans),
                             layers.Counters(), 1.0, 1.0, 0.0)
    assert m["dispersion.errors"] == 1


def test_install_wraps_every_binding_and_restores():
    original = cetlab.resolvent.kg_retarded
    counters = layers.Counters()
    tracer = Tracer("run", counters.hooks())
    dt = 4e-3
    t = dt * np.arange(int(round(12.0 / dt)) + 1)
    f = cetlab.TimeSeries(0.0, dt, workloads._smooth_bump(t, 4.0, 1.0))
    with tracer.install({"resolvent": cetlab.resolvent}):
        assert cetlab.kg_retarded is not original
        assert cetlab.resolvent.kg_retarded is cetlab.kg_retarded
        cetlab.commutator_residual(1.0, f)
    assert cetlab.kg_retarded is original
    assert cetlab.resolvent.kg_retarded is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "resolvent.commutator_residual"
    kids = [s for s in tracer.spans if s.parent == 0]
    assert sum(s.name == "resolvent.kg_retarded" for s in kids) == 3
    assert counters.c["resolvent.single_samples"] == 3 * t.size


# ------------------------------------------------------------- host speed

def test_rescaling_removes_kernel_time_and_host_slowdown():
    sampler = hostspeed.Sampler("modes")
    ref = hostspeed.REFERENCE_S["modes"]

    def pass_with_two_slow_ticks():
        sampler.spent += 4 * ref
        sampler.ticks += 2

    r = sampler.timed(pass_with_two_slow_ticks)
    assert r["slowdown"] == pytest.approx(2.0)
    assert r["own"] == pytest.approx(r["wall"] - 4 * ref)
    assert r["ref"] == pytest.approx(r["own"] / 2.0)


def test_sampler_ticks_inside_a_pass_and_disarms():
    sampler = hostspeed.Sampler("grid")
    with sampler.running():
        r = sampler.timed(lambda: time.sleep(0.3))
    assert sampler.ticks >= 3
    assert 0.0 < r["own"] < r["wall"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(RuntimeError):
        sampler.timed(lambda: None)


# ----------------------------------------------------------------- counts

def test_desk_counts_match_the_formula():
    cfg, grid = default_run_config()
    n = layers.radial_counts(cfg, grid)
    assert n == {"steps": 3884, "modes": 32, "values_per_step": 139332}
    assert n["values_per_step"] == (grid.n_r + 1) * (4 + 2 * n["modes"])


def test_generated_desk_config_is_the_selftest_run(tmp_path):
    cfg, grid = default_run_config(epsilon=0.02)
    path = workloads.write_desk_config(0.02, str(tmp_path))
    got_cfg, got_grid, cadence, snaps = parse_config(path).build_model()
    assert got_grid == grid and cadence == 10
    assert snaps == (25.0, 50.0, 100.0, 200.0)
    assert np.array_equal(got_cfg.quad.nodes, cfg.quad.nodes)
    assert np.array_equal(got_cfg.quad.weights, cfg.quad.weights)
    for field in ("epsilon", "a_null", "b_bad", "c_grad", "d_quad", "cfl",
                  "t_final", "r_c", "sigma", "velocity_mode", "delta0"):
        assert getattr(got_cfg, field) == getattr(cfg, field), field


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.metric_specs()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_layer_metrics_report_exactly_the_listed_metrics():
    m = layers.layer_metrics([], [], layers.Counters(), 1.0, 1.0, 1.0)
    assert list(m) == [name for name, _, _ in layers.metric_specs()]


# ------------------------------------------------------------ seeded input

@pytest.mark.parametrize("make", [workloads.make_operator_inputs,
                                  workloads.make_free_wave_inputs])
def test_seed_changes_values_not_work(make, tmp_path):
    a = make(1, str(tmp_path))
    b = make(1, str(tmp_path))
    c = make(2, str(tmp_path))
    for key, value in a.items():
        if isinstance(value, cetlab.TimeSeries):
            assert np.array_equal(value.samples, b[key].samples)
            assert value.samples.shape == c[key].samples.shape
    if "signs" in a:
        assert len(a["signs"]) == len(c["signs"]) == 100
        assert not np.array_equal(a["signs"][0].samples,
                                  c["signs"][0].samples)


# ----------------------------------------------------- corrupted results

def _desk_result(reference):
    result, residuals = {}, {}
    for key, value in reference.items():
        if key.startswith("residual_D."):
            residuals[float(key.split(".", 1)[1])] = value
            continue
        node = result
        *path, leaf = key.split(".")
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value
    return result, residuals


def test_desk_check_rejects_corrupted_results():
    reference = workloads.load_reference()["0.01"]
    result, residuals = _desk_result(reference)
    assert workloads.check_desk(0, result, residuals, reference) == []

    assert workloads.check_desk(3, result, residuals, reference)
    bad = json.loads(json.dumps(result))
    bad["m_inf_norm"] = 0.0
    assert workloads.check_desk(0, bad, residuals, reference)
    bad = json.loads(json.dumps(result))
    bad["decay_fits"]["sup_u"]["exponent"] = -0.5
    assert workloads.check_desk(0, bad, residuals, reference)
    flat = dict(residuals)
    flat[100.0] = flat[50.0]
    assert workloads.check_desk(0, result, flat, reference)
    bad = json.loads(json.dumps(result))
    bad["node_beat_period"] *= 1.0 + 1e-5
    assert workloads.check_desk(0, bad, residuals, reference)


def test_operator_checks_reject_corrupted_results():
    quad = cetlab.build_quadrature(workloads.DEFAULT_DENSITY, 8)
    f = workloads._switched_bump(801, 2.0)
    out = cetlab.apply_memory(quad, 0.0, f).samples
    assert workloads.causal_problems(out, f.times, 2.0) == []
    leaked = out.copy()
    leaked[10] = 1e-300
    assert workloads.causal_problems(leaked, f.times, 2.0)

    assert workloads.linearity_problems(out, out) == []
    assert workloads.linearity_problems(out * (1 + 1e-9), out)

    good = {(mu, dt): dt ** 2 for mu in workloads.COMMUTATOR_MUS
            for dt in workloads.COMMUTATOR_DTS}
    assert workloads.commutator_problems(good, {1}) == []
    assert workloads.commutator_problems(good, {1, -1})
    first_order = {k: k[1] for k in good}
    assert workloads.commutator_problems(first_order, {1})

    assert workloads.averaging_problems(1.0, 1.0) == []
    assert workloads.averaging_problems(1.06, 1.0)
    assert workloads.averaging_problems(1.0, 0.8)
    assert workloads._bound(1.03, 1.02, "Duhamel ratio")
    assert workloads._bound(math.sqrt(2) * 1.02 + 1e-9,
                            math.sqrt(2) * 1.02, "mass-weighted ratio")


def test_free_wave_checks_reject_corrupted_results():
    errors = [4.0 ** -k for k in range(5)]
    assert workloads.order_problems(errors) == []
    errors[3] = errors[2] / 2.0
    assert workloads.order_problems(errors)
    assert workloads._bound(2e-10, 1e-10, "padding difference")


def test_failed_or_raising_calls_count_as_failed():
    checks = workloads.Checks()
    checks.call("ok", lambda: [])
    checks.call("bad", lambda: ["wrong"])
    checks.call("raises", lambda: 1 / 0)
    assert (checks.attempted, checks.failed) == (3, 2)
    assert [f["call"] for f in checks.failures] == ["bad", "raises"]
