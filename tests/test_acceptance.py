"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints its pass/fail line (visible with -s or in failure
output) and asserts the criterion verdict.  The desk-scale evolution
runs behind criteria 8 and 9 are computed once and shared.
"""

import math

import pytest

from cetlab import selftest


@pytest.fixture(scope="session")
def sweep_runs():
    """The amplitude sweep's desk runs, marched side by side on the
    available cores before criteria 8 and 9 read them."""
    selftest.prewarm_sweep()


def _run(fn):
    res = fn()
    print()
    print(res.line())
    for key, val in res.details.items():
        print(f"    {key}: {val}")
    assert res.passed, res.details
    return res


def test_criterion_01_spectral_constants():
    res = _run(selftest.criterion_1)
    assert res.runtime_s < 1.0


def test_criterion_02_infrared_sharpness():
    res = _run(selftest.criterion_2)
    assert res.runtime_s < 1.0


def test_criterion_03_memory_operator_properties():
    res = _run(selftest.criterion_3)
    assert res.runtime_s < 10.0


def test_criterion_04_commutator_identity():
    res = _run(selftest.criterion_4)
    assert res.runtime_s < 10.0


def test_criterion_05_spectral_averaging():
    res = _run(selftest.criterion_5)
    assert res.runtime_s < 60.0


def test_criterion_06_mode_stability():
    res = _run(selftest.criterion_6)
    assert res.runtime_s < 10.0
    # every k of both densities has its two real branch roots
    for density in ("powerlaw", "two_atom"):
        counts = res.details[f"scan_counts_{density}"]
        assert [c["k"] for c in counts] == [0.25, 0.5, 1.0, 2.0, 4.0]
        assert all(c["roots"] == 2 for c in counts)


@pytest.mark.slow
def test_criterion_07_solver_verification():
    res = _run(selftest.criterion_7)
    assert res.runtime_s < 120.0


@pytest.mark.slow
def test_criterion_08_desk_scale_stability(sweep_runs):
    res = _run(selftest.criterion_8)
    assert res.runtime_s < 600.0


@pytest.mark.slow
def test_criterion_09_memory_and_scattering(sweep_runs):
    res = _run(selftest.criterion_9)
    assert res.runtime_s < 1800.0
    window = res.details["m_inf_window"]
    assert 0.9 * window["t_last"] <= window["t_first"] < window["t_last"]
    assert window["t_last"] == pytest.approx(200.0, abs=1e-9)
    assert window["n_profiles"] >= 2
    assert math.isfinite(res.details["node_beat_period"])


def test_criterion_10_phenomenology():
    res = _run(selftest.criterion_10)
    assert res.runtime_s < 1.0
