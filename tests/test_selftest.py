"""The gate's own machinery: when `run_all` prewarms the amplitude sweep,
how `prewarm_sweep` fills the run cache, and criterion 7's runs."""

import concurrent.futures

import pytest

from cetlab import selftest


def _stub(cid):
    return lambda: selftest.CriterionResult(cid, "stub", True, 0.0)


@pytest.mark.parametrize("cids, prewarmed", [
    ((1,), 0), ((8,), 1), ((9,), 1), ((1, 8, 9), 1), ((1, 10), 0)])
def test_run_all_prewarms_for_criteria_8_and_9(monkeypatch, cids,
                                               prewarmed):
    calls = []
    monkeypatch.setattr(selftest, "prewarm_sweep", lambda: calls.append(1))
    for cid in (1, 8, 9, 10):
        monkeypatch.setattr(selftest, f"criterion_{cid}", _stub(cid))
    wanted = tuple(getattr(selftest, f"criterion_{cid}") for cid in cids)
    results = selftest.run_all(wanted)
    assert [r.cid for r in results] == list(cids)
    assert len(calls) == prewarmed


class _FailingPool:
    def __init__(self, *args, **kwargs):
        raise OSError("no processes here")


class _UnusedPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("one CPU runs the sweep in this process")


@pytest.mark.parametrize("cpus, pool", [(2, _FailingPool), (1, _UnusedPool)])
def test_prewarm_sweep_serial_path(monkeypatch, cpus, pool):
    monkeypatch.setattr(selftest, "_run_cache", {})
    monkeypatch.setattr(selftest, "_compute_sweep_run",
                        lambda eps: ("run", eps))
    monkeypatch.setattr(selftest.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    selftest.prewarm_sweep()
    assert selftest._run_cache == {eps: ("run", eps)
                                   for eps in selftest.EPS_SWEEP}


def test_criterion_7_reuses_its_finest_rung(monkeypatch):
    # the n_r = 1024 rung is also the first run of the padding pair, so
    # four runs give the details that five gave before
    evolve = selftest.evolve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(selftest, "evolve", counted)
    res = selftest.criterion_7()
    assert [g.n_r for g in calls] == [256, 512, 1024, 1232]
    assert res.passed
    # as when the padding pair marched its own first run; 1e-12 allows
    # for platform rounding, far below what another grid would move
    d = res.details
    assert d["oracle_errors"] == pytest.approx(
        {256: 0.0002864022096697831, 512: 7.14216046076438e-05,
         1024: 1.782474684931465e-05}, rel=1e-12)
    assert d["orders"] == pytest.approx(
        [2.0036101714289227, 2.0024789595164916], rel=1e-12)
    assert d["padding_diff"] == pytest.approx(1.1059468108925215e-49,
                                              rel=1e-12)
