"""The shared Gauss-Legendre panel engine and the flagged integral.

`TestPinnedOutputs` holds digests and reprs recorded before the three
hand-rolled panel rules (integrals, averaging, Breit-Wigner quadrature)
became one; every output of the engine must stay bitwise equal to them.
"""

import hashlib
import math

import numpy as np
import pytest

from cetlab import (BreitWigner, DiracComb, PowerLawExp, build_quadrature,
                    decay_bound_check, spectral_constants)
from cetlab.dispersion import self_energy
from cetlab.spectral import adaptive_constants
from cetlab.errors import QuadratureBudgetError
from cetlab.integrals import (flagged_integral, gauss_panels, leggauss,
                              panel_rule)


def _digest(a) -> str:
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


BW = BreitWigner(1.0, 0.1, 1.0)
PL = PowerLawExp(1.0, 1.0, 1.0)
DENSITIES = {"bw1": BW, "bw2": BreitWigner(0.7, 0.5, 3.0),
             "pl1": PL, "pl2": PowerLawExp(0.5, 2.5, 0.7)}
# (nodes, weights) of the Breit-Wigner rule per density and node count
BW_RULES = {
    ("bw1", 1): ("de480c8e1b3c1f8d", "36c5f7918535c270"),
    ("bw1", 7): ("a56dfed6bc03f4bb", "c97001abd93bdf7f"),
    ("bw1", 8): ("34e9b7b8aa95ca74", "919f969bdbaaa934"),
    ("bw1", 20): ("558a9f419d62c943", "f4d3c45e2c40d9c2"),
    ("bw1", 33): ("ac91872ad82bf5e5", "4ad383a95be2afc7"),
    ("bw1", 64): ("7098024348e097b3", "2be2d15b265fb86e"),
    ("bw1", 100): ("62cba2ee7ba5b13c", "76a5e8f88b072d92"),
    ("bw1", 512): ("8e2c110529cb55b0", "5c1def6b0a17e546"),
    # alpha = 0.7 is not a power of two, so the weights' rounding
    # depends on the order of alpha * half * w
    ("bw2", 7): ("b6e525c1afc30044", "b1c12105d0425ee4"),
    ("bw2", 33): ("f1d75ae61036667f", "7c6f21f87fd263f7"),
    ("bw2", 100): ("1bbd049d035b1d13", "55b412faaa86f228"),
}
# (l1, c_m1, c_p1, c_prime, c_mhalf) on the flagged-quadrature path
ADAPTIVE = {
    "bw1": (3.0419240008922355, math.inf, math.inf, 19.90099009813952,
            3.129896880927036),
    "bw2": (2.0835107831892103, math.inf, math.inf, 2.76216216200511,
            1.256695820382558),
    "pl1": (0.9999999999923704, 0.9999999999701976, 1.9999999999993487,
            0.7357588823130823, 0.8862269254427053),
    "pl2": (0.47685830725654454, 0.2724904612890123, 1.1683028527785588,
            0.3325515044885013, 0.3429999999998883),
}
# digest of the symbol grid and rho(0+) + c_prime of decay_bound_check
DECAY_SYMBOLS = {"bw1": "d25968bbfadf881b", "bw2": "be22512f027585e8",
                 "pl1": "32ea0c4e556be15b", "pl2": "0379a8a482a48077"}
BOUND_CONSTANTS = {"bw1": 19.999999999129617, "bw2": 2.799999999842948,
                   "pl1": 0.7357588823428847, "pl2": 0.3325515044896204}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name, n", sorted(BW_RULES))
    def test_breitwigner_rule(self, name, n):
        quad = build_quadrature(DENSITIES[name], n, 1e-10)
        digests = (_digest(quad.nodes), _digest(quad.weights))
        assert digests == BW_RULES[name, n]

    @pytest.mark.parametrize("name", sorted(ADAPTIVE))
    def test_adaptive_constants(self, name):
        c = adaptive_constants(DENSITIES[name], 1e-10)
        got = (c.l1, c.c_m1, c.c_p1, c.c_prime, c.c_mhalf)
        assert got == ADAPTIVE[name]
        assert all(type(v) is float for v in got)

    def test_self_energy(self):
        assert self_energy(PL, 1.5, 0.5) == 0.0693356915556503
        assert self_energy(BW, 2.0, 1.0) == 0.7531750338231252
        assert self_energy(DENSITIES["bw2"], 4.0, 1.5) == 0.2753944005094975
        assert self_energy(DENSITIES["pl2"], 1.2, 0.8) == 0.10961270162722894

    @pytest.mark.parametrize("name", sorted(DECAY_SYMBOLS))
    def test_decay_symbol_grid(self, name):
        rho = DENSITIES[name]
        rep = decay_bound_check(rho, spectral_constants(rho))
        assert _digest(rep.symbol) == DECAY_SYMBOLS[name]
        assert rep.bound_constant == BOUND_CONSTANTS[name]

    def test_atom_sums(self):
        c = spectral_constants(DiracComb(((0.5, 1.0), (0.25, 4.0))))
        got = (c.l1, c.c_m1, c.c_p1, c.c_prime, c.c_mhalf)
        assert got == (0.75, 0.5625, 1.5, None, 0.625)


class TestPanelRule:
    EDGES = np.array([-1.0, -0.3, 0.1, 0.45, 1.0])

    def test_rule_is_cached_and_read_only(self):
        x, w = leggauss(8)
        assert leggauss(8)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        assert math.isclose(float(np.sum(w)), 2.0, rel_tol=1e-15)

    def test_nodes_and_half_widths(self):
        edges = [0.0, 0.5, 2.0]
        nodes, halfs = panel_rule(edges, 4)
        assert nodes.shape == (2, 4)
        assert np.array_equal(halfs, [0.25, 0.75])
        assert np.all((nodes[0] > 0.0) & (nodes[0] < 0.5))
        assert np.all((nodes[1] > 0.5) & (nodes[1] < 2.0))

    @pytest.mark.parametrize("order", [8, 32])
    def test_exact_to_degree_2n_minus_1(self, order):
        # uneven panels over [-1, 1]; a Legendre series keeps it well posed
        coef = np.random.default_rng(order).standard_normal(2 * order)
        poly = np.polynomial.Legendre(coef)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        got = gauss_panels(poly, self.EDGES, order)
        assert abs(got - exact) <= 1e-14 * np.sum(np.abs(coef))

    def test_order_reaches_the_rule(self):
        # P_16 integrates to 0 over [-1, 1]; 8 nodes a panel miss it
        p16 = np.polynomial.Legendre.basis(16)
        assert abs(gauss_panels(p16, self.EDGES, 8)) > 1e-9
        assert abs(gauss_panels(p16, self.EDGES, 9)) < 1e-15


class TestFlaggedIntegral:
    EDGES = np.geomspace(1e-3, 80.0, 48)

    def test_settling_integrand_is_a_finite_float(self):
        val = flagged_integral(lambda mu: mu * np.exp(-mu), self.EDGES)
        assert type(val) is float
        assert abs(val - 1.0) < 1e-10  # the default tol

    def test_log_divergence_is_inf(self):
        assert flagged_integral(lambda mu: 1.0 / mu, self.EDGES) == math.inf

    def test_slow_tail_exhausts_the_budget(self):
        # slab ratio 2**-0.05 = 0.966 never flags divergence, and the
        # tail needs about 660 doublings to fall below tol
        with pytest.raises(QuadratureBudgetError) as info:
            flagged_integral(lambda mu: (1.0 + mu) ** -1.05, self.EDGES)
        assert "ultraviolet" in str(info.value)
        assert info.value.detail["slabs"] == 400
        assert info.value.detail["achieved_error"] > 0.0
