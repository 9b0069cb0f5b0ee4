import math

import numpy as np
import pytest

from cetlab import (DiracComb, PowerLawExp, ValidationError,
                    atomic_no_decay_check, averaged_symbol, decay_bound_check,
                    spectral_constants)
from cetlab.errors import S5RequiredError

from oracles import trapezoid_oracle

UNIT = PowerLawExp(1.0, 1.0, 1.0)


class TestAveragedSymbol:
    def test_scaled_to_zero(self):
        tiny = PowerLawExp(1e-30, 1.0, 1.0)
        assert abs(averaged_symbol(tiny, 10.0, 0.5)) < 1e-25

    def test_single_atom_exact(self):
        comb = DiracComb(((1.0, 2.0),))
        for t, xi in ((3.0, 0.0), (17.0, 1.5)):
            om = math.sqrt(xi ** 2 + 2.0)
            assert averaged_symbol(comb, t, xi) == \
                pytest.approx(math.sin(t * om) / om, rel=1e-14)

    def test_brute_force_oracle(self):
        t, xi = 20.0, 1.0
        val = averaged_symbol(UNIT, t, xi, tol=1e-10)

        def integrand(mu):
            om = np.sqrt(xi ** 2 + mu)
            return UNIT.density(mu) * np.sin(t * om) / om

        oracle = trapezoid_oracle(integrand, 1e-12, 80.0, panels=1_000_000)
        assert abs(val - oracle) < 1e-8

    def test_xi_enters_squared(self):
        a = averaged_symbol(UNIT, 10.0, 2.0)
        b = averaged_symbol(UNIT, 10.0, -2.0)
        assert a == b

    def test_time_positive_required(self):
        with pytest.raises(ValidationError):
            averaged_symbol(UNIT, 0.0, 1.0)


@pytest.fixture(scope="module")
def report():
    return decay_bound_check(UNIT, spectral_constants(UNIT))


class TestDecayBound:
    def test_bound_constant_value(self, report):
        assert report.bound_constant == pytest.approx(2.0 / math.e, rel=1e-9)

    def test_worst_ratio_within_slack(self, report):
        assert report.worst_ratio <= 1.05

    def test_unit_decay_exponent(self, report):
        assert 0.9 <= report.fitted_exponent <= 1.1

    def test_envelope_factor_two(self, report):
        sup = np.max(np.abs(report.symbol), axis=1)
        bound = 2.0 * report.bound_constant * 1.05
        assert np.all(report.t_grid * sup <= bound)

    def test_monotone_tail(self, report):
        sup = np.max(np.abs(report.symbol), axis=1)
        i100 = list(report.t_grid).index(100.0)
        i200 = list(report.t_grid).index(200.0)
        assert sup[i200] <= 0.5 * sup[i100] * 1.2

    def test_one_tail_search_per_call(self, report, monkeypatch):
        # the tail cut depends on rho and tol only: one search serves
        # all 60 (t, xi) pairs, each of whose symbols stays the value
        # averaged_symbol gives with its own search
        calls = []
        mass_above = PowerLawExp.mass_above
        monkeypatch.setattr(PowerLawExp, "mass_above", lambda self, mu: (
            calls.append(mu), mass_above(self, mu))[1])
        averaged_symbol(UNIT, 1.0, 0.0)
        one_search = list(calls)
        calls.clear()
        again = decay_bound_check(UNIT, spectral_constants(UNIT))
        assert one_search and calls == one_search
        assert again.symbol.tobytes() == report.symbol.tobytes()
        monkeypatch.undo()
        assert all(report.symbol[i, j] == averaged_symbol(UNIT, t, xi)
                   for i, t in enumerate(report.t_grid)
                   for j, xi in enumerate(report.xi_grid))

    def test_atoms_rejected(self):
        comb = DiracComb(((1.0, 1.0),))
        with pytest.raises(S5RequiredError):
            decay_bound_check(comb, spectral_constants(comb))


class TestAtomicNoDecay:
    def test_single_atom_keeps_full_envelope(self):
        chk = atomic_no_decay_check(DiracComb(((1.0, 1.0),)))
        assert chk["ratio"] >= 0.5

    def test_two_atoms_keep_half_envelope(self):
        chk = atomic_no_decay_check(DiracComb(((0.5, 1.0), (0.25, 4.0))))
        assert chk["ratio"] >= 0.5
