import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetlab import (ValidationError, ligo_bound, memory_excess_ratio,
                    phase_shift, pulsar_timing_bound, signature_report,
                    tail_amplitude, tail_crossing)
from cetlab.errors import ZeroFrequencyError

pos = st.floats(min_value=1e-6, max_value=1e6)


class TestPhaseShift:
    def test_formula(self):
        assert phase_shift(2.0, 4.0, 3.0) == pytest.approx(0.75)

    def test_doubling_frequency_halves(self):
        a = phase_shift(400.0, 100.0, 1e-20)
        b = phase_shift(400.0, 200.0, 1e-20)
        assert b == pytest.approx(0.5 * a, rel=1e-15)

    def test_doubling_distance_doubles(self):
        a = phase_shift(400.0, 100.0, 1e-20)
        b = phase_shift(800.0, 100.0, 1e-20)
        assert b == pytest.approx(2.0 * a, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(pos, pos, pos, st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneity(self, d, om, l1, c):
        assert phase_shift(c * d, om, l1) == \
            pytest.approx(c * phase_shift(d, om, l1), rel=1e-12)

    def test_si_mode_uses_c3_over_g(self):
        nat = phase_shift(1.0, 1.0, 1.0, units="natural")
        si = phase_shift(1.0, 1.0, 1.0, units="si")
        assert si / nat == pytest.approx(2.99792e8 ** 3 / 6.67430e-11,
                                         rel=1e-12)

    def test_zero_frequency(self):
        with pytest.raises(ZeroFrequencyError):
            phase_shift(1.0, 0.0, 1.0)

    def test_ligo_bound_round_trip(self):
        b = ligo_bound(0.1, 400.0, 100.0)
        assert phase_shift(400.0, 100.0, b) == pytest.approx(0.1, rel=1e-12)


class TestMemoryExcess:
    def test_values(self):
        assert memory_excess_ratio(1.0, 1.0) == 1.0
        assert memory_excess_ratio(0.1, 2.0) == pytest.approx(0.4)

    def test_pulsar_bound(self):
        assert pulsar_timing_bound(0.1, 1.0) == pytest.approx(0.1)
        assert pulsar_timing_bound(0.1, 2.0) == pytest.approx(0.025)

    def test_overflowing_mass_is_a_validation_error(self):
        for fn in (memory_excess_ratio, pulsar_timing_bound):
            with pytest.raises(ValidationError, match="overflows"):
                fn(1.0, 1e200)


class TestTail:
    def test_crossing_values(self):
        assert tail_crossing(1.0) == 1.0
        assert tail_crossing(1e-10) == pytest.approx(46.4, abs=0.1)
        assert tail_crossing(1e-12) == pytest.approx(100.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(pos, st.floats(min_value=0.01, max_value=100.0))
    def test_crossing_homogeneity(self, l1, c):
        assert tail_crossing(c * l1) == \
            pytest.approx(c ** (-1 / 6) * tail_crossing(l1), rel=1e-12)

    def test_amplitude_linear_in_l1(self):
        a = tail_amplitude(1e-10, 0.01, 100.0, 50.0)
        b = tail_amplitude(2e-10, 0.01, 100.0, 50.0)
        assert b == pytest.approx(2.0 * a, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            tail_crossing(0.0)


class TestSignatureReport:
    def test_report_fields(self):
        rep = signature_report(400.0, 100.0, 1e-20, 1e-3)
        assert rep.memory_excess_ratio == pytest.approx(1e-26)
        assert rep.phase_shift_natural > 0
        assert rep.phase_shift_si > rep.phase_shift_natural
        assert "unstated unit convention" in rep.quoted_coeff_note
        d = rep.as_dict()
        assert set(d) == {"memory_excess_ratio", "phase_shift_natural",
                          "phase_shift_si", "tail_crossing",
                          "tail_amplitude_at", "quoted_coeff_note"}
