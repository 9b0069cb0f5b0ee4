import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import j0, roots_genlaguerre

from cetlab import (BreitWigner, DiracComb, MassQuadrature, PowerLawExp,
                    ValidationError, build_quadrature, spectral_constants,
                    validate_moments)
from cetlab.quadrature import gauss_laguerre_generalized

UNIT = PowerLawExp(1.0, 1.0, 1.0)


class TestGaussLaguerre:
    @pytest.mark.parametrize("n,beta", [(8, 1.0), (32, 1.0), (24, 2.0),
                                        (64, 0.5)])
    def test_against_scipy_construction(self, n, beta):
        x, w = gauss_laguerre_generalized(n, beta)
        xs, ws = roots_genlaguerre(n, beta)
        assert np.max(np.abs(x - xs)) < 1e-11
        assert np.max(np.abs(w - ws) / ws) < 1e-11

    @pytest.mark.parametrize("beta", [0.0, 1e-12, 0.5, 1.0, 3.7, 99.5,
                                      170.0])
    def test_nodes_bitwise_those_of_the_tridiagonal_solver(self, beta):
        # up to 64 nodes the dense eigvalsh route must give the bits of
        # eigh_tridiagonal, which the run pins were made with (beta stops
        # at 170: Gamma(beta + 1) overflows above it)
        for n in range(1, 66):
            k = np.arange(n, dtype=float)
            ref = eigh_tridiagonal(2.0 * k + 1.0 + beta,
                                   np.sqrt(k[1:] * (k[1:] + beta)),
                                   eigvals_only=True)
            x = gauss_laguerre_generalized(n, beta)[0]
            assert x.tobytes() == np.sort(ref).tobytes(), n

    def test_polynomial_moments_exact(self):
        # a Gauss rule with n nodes integrates mu^p exactly up to 2n-1
        x, w = gauss_laguerre_generalized(8, 1.0)
        for p in range(0, 12):
            exact = math.gamma(p + 2)  # int x^(p+1) e^-x dx
            got = float(np.sum(w * x ** p))
            assert abs(got - exact) / exact < 1e-12, p


class TestBuildPowerLaw:
    def test_zeroth_moment_machine_exact(self):
        quad = build_quadrature(UNIT, 32)
        assert abs(quad.moment(0) - 1.0) < 1e-12
        assert abs(quad.moment(1) - 2.0) < 1e-12

    def test_beta2_moments(self):
        quad = build_quadrature(PowerLawExp(1.0, 2.0, 1.0), 24)
        assert quad.moment_report["p+0"] <= 1e-12
        assert quad.moment_report["p+1"] <= 1e-12

    def test_infrared_moment_error_law(self):
        # mu^-1 is not a polynomial: the rule converges only
        # algebraically, with relative error exactly 1/(n+1) for this
        # family (measured; frozen here as the honest convergence law)
        for n in (8, 16, 32):
            quad = build_quadrature(UNIT, n)
            err = abs(quad.moment(-1) - 1.0)
            assert err == pytest.approx(1.0 / (n + 1), rel=1e-6)

    def test_infrared_error_decreases_with_n(self):
        e8 = abs(build_quadrature(UNIT, 8).moment(-1) - 1.0)
        e32 = abs(build_quadrature(UNIT, 32).moment(-1) - 1.0)
        e64 = abs(build_quadrature(UNIT, 64).moment(-1) - 1.0)
        assert e8 > e32 > e64

    def test_weights_positive_nodes_ascending(self):
        for n in (1, 7, 32, 512):
            quad = build_quadrature(UNIT, n)
            assert np.all(quad.weights > 0)
            assert np.all(np.diff(quad.nodes) > 0)

    def test_node_budget_enforced(self):
        with pytest.raises(ValidationError):
            build_quadrature(UNIT, 513)
        with pytest.raises(ValidationError):
            build_quadrature(UNIT, 0)


class TestWeightFloor:
    def test_gl32_keeps_21_nodes(self):
        quad = build_quadrature(UNIT, 32)
        assert len(quad) == 21
        assert quad.moment_report["dropped_nodes"] == 11
        floor = np.finfo(float).eps * spectral_constants(UNIT).l1
        assert np.all(quad.weights > floor)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 2.5, 10.0, 50.0,
                                      100.0])
    def test_kept_nodes_reproduce_moments(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # beta = 0 warns about c_m1
            rho = PowerLawExp(1.0, beta, 1.0)
        for n in (1, 2, 8, 16, 24, 32, 64, 128, 256, 512):
            rep = build_quadrature(rho, n).moment_report
            assert rep["p+0"] <= 1e-13, n
            assert rep["p+1"] <= 1e-13, n

    def test_lorentzian_keeps_every_node(self):
        for bw in (BreitWigner(1.0, 0.1, 1.0), BreitWigner(0.7, 0.5, 3.0)):
            quad = build_quadrature(bw, 32)
            assert len(quad) == 32
            assert quad.moment_report["dropped_nodes"] == 0


class TestKernelOracle:
    """K(tau) = int mu e^-mu J0(sqrt(mu) tau) dmu = (1 - tau^2/4) e^(-tau^2/4)
    against the node sums sum_j w_j J0(sqrt(mu_j) tau)."""

    @staticmethod
    def kernel(quad, tau):
        return j0(np.sqrt(quad.nodes)[:, None] * tau).T @ quad.weights

    def test_pruned_kernel_matches_full_rule_and_closed_form(self):
        full = MassQuadrature(*gauss_laguerre_generalized(32, 1.0))
        pruned = build_quadrature(UNIT, 32)
        tau = np.linspace(0.0, 60.0, 6001)
        k_full, k_pruned = self.kernel(full, tau), self.kernel(pruned, tau)
        assert np.max(np.abs(k_pruned - k_full)) <= 1e-15
        exact = (1.0 - tau ** 2 / 4.0) * np.exp(-tau ** 2 / 4.0)
        near = tau <= 15.0
        for k in (k_full, k_pruned):
            assert np.max(np.abs(k - exact)[near]) <= 1e-6


class TestBuildBreitWigner:
    def test_total_mass_within_tol(self):
        bw = BreitWigner(1.0, 0.1, 1.0)
        quad = build_quadrature(bw, 64, tol=1e-10)
        assert abs(quad.moment(0) - bw.total_mass) / bw.total_mass < 1e-8

    def test_divergent_moments_marked_undefined(self):
        bw = BreitWigner(1.0, 0.1, 1.0)
        quad = build_quadrature(bw, 32)
        assert quad.moment_report["p-1"] == "moment-undefined"
        assert quad.moment_report["p+1"] == "moment-undefined"

    def test_nodes_positive_and_clustered(self):
        bw = BreitWigner(1.0, 0.05, 2.0)
        quad = build_quadrature(bw, 48)
        assert quad.nodes.min() > 0
        near = np.sum(np.abs(quad.nodes - bw.mu0) < 5 * bw.gamma)
        assert near >= len(quad) // 4


class TestAtoms:
    def test_atoms_pass_through(self):
        comb = DiracComb(((0.5, 1.0), (0.25, 4.0)))
        quad = build_quadrature(comb, 17)
        assert np.array_equal(quad.nodes, [1.0, 4.0])
        assert np.array_equal(quad.weights, [0.5, 0.25])
        assert quad.moment_report["p-1"] == 0.0
        assert quad.moment_report["p+0"] == 0.0
        assert quad.moment_report["p+1"] == 0.0


class TestValidateMoments:
    def test_report_against_constants(self):
        quad = build_quadrature(UNIT, 16)
        consts = spectral_constants(UNIT)
        rep = validate_moments(quad, consts)
        assert rep["p+0"] < 1e-12
        assert rep["p-1"] == pytest.approx(1.0 / 17.0, rel=1e-6)

    def test_infinite_constant_is_undefined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flat = PowerLawExp(1.0, 0.0, 1.0)
        quad = build_quadrature(flat, 16)
        consts = spectral_constants(flat)
        rep = validate_moments(quad, consts)
        assert rep["p-1"] == "moment-undefined"
        assert isinstance(rep["p+0"], float)
