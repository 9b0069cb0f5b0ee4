import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetlab import (BreitWigner, DiracComb, PowerLawExp, ValidationError,
                    check_conditions, spectral_constants)
from cetlab.spectral import adaptive_constants

from oracles import trapezoid_oracle


def flat_exponential():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PowerLawExp(1.0, 0.0, 1.0)


class TestPowerLaw:
    def test_closed_forms_unit_family(self):
        c = spectral_constants(PowerLawExp(1.0, 1.0, 1.0))
        assert c.l1 == pytest.approx(1.0, rel=1e-12)
        assert c.c_m1 == pytest.approx(1.0, rel=1e-12)
        assert c.c_p1 == pytest.approx(2.0, rel=1e-12)
        assert c.c_prime == pytest.approx(2.0 / math.e, rel=1e-12)
        assert c.c_mhalf == pytest.approx(math.gamma(1.5), rel=1e-12)

    def test_gamma_scaling(self):
        a, b, lam = 0.7, 2.3, 1.9
        c = spectral_constants(PowerLawExp(a, b, lam))
        assert c.l1 == pytest.approx(a * lam ** (b + 1) * math.gamma(b + 1),
                                     rel=1e-12)
        assert c.c_m1 == pytest.approx(a * lam ** b * math.gamma(b), rel=1e-12)
        assert c.c_p1 == pytest.approx(a * lam ** (b + 2) * math.gamma(b + 2),
                                       rel=1e-12)

    def test_adaptive_matches_closed_forms(self):
        tol = 1e-10
        for rho in (PowerLawExp(1.0, 1.0, 1.0), PowerLawExp(0.5, 2.5, 0.7)):
            closed = spectral_constants(rho)
            adaptive = adaptive_constants(rho, tol=tol)
            for name in ("l1", "c_m1", "c_p1", "c_prime", "c_mhalf"):
                ref = getattr(closed, name)
                got = getattr(adaptive, name)
                assert abs(got - ref) / ref <= 10 * tol, name

    def test_beta_zero_infrared_divergence(self):
        c = spectral_constants(flat_exponential())
        assert math.isinf(c.c_m1)
        assert c.l1 == pytest.approx(1.0)
        assert c.c_p1 == pytest.approx(1.0)
        # monotone density: total variation equals the boundary value
        assert c.c_prime == pytest.approx(1.0, rel=1e-12)

    def test_beta_zero_warns(self):
        with pytest.warns(UserWarning):
            PowerLawExp(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, lam", [
        (1.0, 1e6, 1.0), (1.0, 300.0, 1.0), (1.0, 160.0, 1.0),
        (1.0, 1.0, 1e200), (1e-300, 1.0, 1e-100)])
    def test_unrepresentable_constants_rejected(self, alpha, beta, lam):
        # Gamma(beta + 2), lambda^(beta + 2) or the peak value
        # (beta lambda)^beta overflows; or the mass l1 underflows to 0
        with pytest.raises(ValidationError, match="double precision"):
            PowerLawExp(alpha, beta, lam)

    def test_adaptive_flags_beta_zero_divergence(self):
        c = adaptive_constants(flat_exponential())
        assert math.isinf(c.c_m1)


class TestBreitWigner:
    def test_l1_matches_arctan_closed_form(self):
        bw = BreitWigner(1.0, 0.1, 1.0)
        c = spectral_constants(bw)
        assert c.l1 == pytest.approx(bw.total_mass, rel=1e-9)

    def test_c_prime_total_variation(self):
        bw = BreitWigner(1.0, 0.1, 1.0)
        c = spectral_constants(bw)
        exact = 2.0 / 0.1 - 0.1 / (1.0 + 0.01)
        assert c.c_prime == pytest.approx(exact, rel=1e-9)

    def test_finite_moments_against_trapezoid_oracle(self):
        # fixed-panel oracle on (0, mu0 + 50*gamma] plus the analytic
        # arctan tail for the p=0 moment
        bw = BreitWigner(1.0, 0.1, 1.0)
        c = spectral_constants(bw)
        hi = bw.mu0 + 50 * bw.gamma
        oracle_l1 = trapezoid_oracle(bw.density, 1e-9, hi, panels=1_000_000) \
            + bw.alpha * (math.pi / 2 - math.atan((hi - bw.mu0) / bw.gamma))
        assert c.l1 == pytest.approx(oracle_l1, rel=1e-6)
        # substitute mu = s**2 so the inverse-sqrt endpoint is smooth;
        # the arctan tail mass over mu^(1/2) brackets the truncation
        piece = trapezoid_oracle(lambda s: 2.0 * bw.density(s * s), 1e-9,
                                 math.sqrt(hi), panels=1_000_000)
        tail_upper = bw.alpha * (math.pi / 2
                                 - math.atan((hi - bw.mu0) / bw.gamma)) \
            / math.sqrt(hi)
        assert piece - 1e-9 <= c.c_mhalf <= piece + tail_upper + 1e-9

    def test_log_divergent_moments_flagged(self):
        # rho(0+) > 0 makes the infrared moment log-divergent, and the
        # mu^-2 tail makes the ultraviolet moment log-divergent; both
        # must surface as +inf, not as a truncation-dependent number.
        c = spectral_constants(BreitWigner(1.0, 0.1, 1.0))
        assert math.isinf(c.c_m1)
        assert math.isinf(c.c_p1)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            BreitWigner(1.0, 1.0, 0.5)  # needs mu0 > gamma
        with pytest.raises(ValidationError, match="double precision"):
            BreitWigner(1.0, 0.5, 1e200)  # mu0**2 overflows


class TestDiracComb:
    def test_finite_sums(self):
        comb = DiracComb(((0.5, 1.0), (0.25, 4.0)))
        c = spectral_constants(comb)
        assert c.l1 == 0.75
        assert c.c_m1 == 0.5625
        assert c.c_p1 == 1.5
        assert c.c_prime is None

    def test_atom_ordering_enforced(self):
        with pytest.raises(ValidationError):
            DiracComb(((0.5, 2.0), (0.25, 1.0)))
        with pytest.raises(ValidationError):
            DiracComb(((0.5, 1.0), (0.25, 1.0)))


class TestEvalDensity:
    def test_pointwise_values(self):
        assert float(PowerLawExp(1.0, 1.0, 1.0).density(1.0)) == \
            pytest.approx(math.exp(-1.0))
        assert float(PowerLawExp(1.0, 1.0, 1.0).density(1e-12)) == \
            pytest.approx(0.0, abs=1e-11)
        assert float(BreitWigner(1.0, 0.1, 1.0).density(1.0)) == \
            pytest.approx(10.0)

    def test_nonnegative_on_log_grid(self):
        grid = np.geomspace(1e-6, 1e3, 10_000)
        for rho in (PowerLawExp(1.0, 1.0, 1.0), BreitWigner(1.0, 0.1, 1.0),
                    flat_exponential()):
            assert np.all(rho.density(grid) >= 0.0)


class TestConditions:
    def test_unit_powerlaw_all_hold(self):
        rho = PowerLawExp(1.0, 1.0, 1.0)
        rep = check_conditions(rho, spectral_constants(rho))
        assert rep.all_hold
        assert rep.decay_path == "spectral-averaging"

    def test_flat_exponential_fails_s3_only(self):
        rho = flat_exponential()
        rep = check_conditions(rho, spectral_constants(rho))
        assert (rep.s1, rep.s2, rep.s3, rep.s4, rep.s5) == \
            (True, True, False, True, True)

    def test_atoms_fail_s5_only(self):
        rho = DiracComb(((1.0, 1.0),))
        rep = check_conditions(rho, spectral_constants(rho))
        assert (rep.s1, rep.s2, rep.s3, rep.s4, rep.s5) == \
            (True, True, True, True, False)
        assert rep.decay_path == "discrete-spectrum"


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_constants_scale_linearly_in_alpha(self, c):
        base = spectral_constants(PowerLawExp(1.0, 1.5, 1.0))
        scaled = spectral_constants(PowerLawExp(c, 1.5, 1.0))
        for name in ("l1", "c_m1", "c_p1", "c_prime", "c_mhalf"):
            assert getattr(scaled, name) == \
                pytest.approx(c * getattr(base, name), rel=1e-12)

    def test_cauchy_schwarz_between_moments(self):
        for rho in (PowerLawExp(1.0, 1.0, 1.0), PowerLawExp(2.0, 0.5, 3.0),
                    DiracComb(((0.5, 1.0), (0.25, 4.0)))):
            c = spectral_constants(rho)
            if all(c.finite(k) for k in ("c_mhalf", "c_m1", "l1")):
                assert c.c_mhalf ** 2 <= c.c_m1 * c.l1 * (1 + 1e-10)

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            spectral_constants(PowerLawExp(1.0, 1.0, 1.0), tol=1e-3)
