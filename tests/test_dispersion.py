import math
import warnings

import numpy as np
import pytest

from cetlab import (DiracComb, PowerLawExp, build_quadrature,
                    mode_stability_scan, one_atom_root, self_energy,
                    solve_branch)
from cetlab.dispersion import _SCAN_SEEDS, DEFAULT_K_GRID, SCAN_NODES
from cetlab.errors import PrincipalValueError, ValidationError

from oracles import polish_root, scalar_mode_scan, trapezoid_oracle

UNIT = PowerLawExp(1.0, 1.0, 1.0)


class TestSelfEnergy:
    def test_vanishes_at_k_zero(self):
        for rho in (UNIT, DiracComb(((1.0, 1.0),))):
            assert self_energy(rho, 3.0, 0.0) == 0.0

    def test_one_atom_closed_form(self):
        comb = DiracComb(((0.7, 2.0),))
        got = self_energy(comb, 2.0, 1.0)
        assert got == pytest.approx(0.7 * 1.0 / (4.0 - 1.0 + 2.0), rel=1e-14)

    def test_brute_force_oracle(self):
        val = self_energy(UNIT, 2.0, 1.0)

        def integrand(mu):
            return UNIT.density(mu) / (3.0 + mu)

        oracle = trapezoid_oracle(integrand, 1e-12, 80.0, panels=1_000_000)
        assert abs(val - oracle) < 1e-9

    def test_nonnegative_and_decreasing_on_branch(self):
        k = 1.0
        vals = [self_energy(UNIT, om, k) for om in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(v >= 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_pole_inside_support_rejected(self):
        with pytest.raises(PrincipalValueError):
            self_energy(UNIT, 0.5, 1.0)
        with pytest.raises(PrincipalValueError):
            self_energy(DiracComb(((0.5, 1.0), (0.25, 4.0))), 0.5, 1.5)


class TestPrincipalBranch:
    def test_k_zero_root(self):
        pt = solve_branch(UNIT, 0.0)
        assert pt.omega == 0.0

    def test_one_atom_quadratic_oracle(self):
        pt = solve_branch(DiracComb(((1.0, 1.0),)), 1.0, tol=1e-12)
        assert abs(pt.omega - one_atom_root(1.0, 1.0, 1.0)) <= 1e-10
        assert pt.omega == pytest.approx(1.272020, abs=5e-7)
        assert pt.residual <= 1e-12

    def test_scaling_covariance(self):
        for c in (0.3, 2.0, 7.0):
            pt = solve_branch(DiracComb(((c, 1.5),)), 0.8, tol=1e-12)
            assert abs(pt.omega - one_atom_root(c, 1.5, 0.8)) <= 1e-10

    def test_monotone_and_superluminal(self):
        roots = [solve_branch(UNIT, k, tol=1e-11) for k in (0.5, 1.0, 2.0)]
        assert all(p.omega >= p.k for p in roots)
        assert roots[0].omega < roots[1].omega < roots[2].omega
        for p in roots:
            sigma = self_energy(UNIT, p.omega, p.k)
            assert abs(p.omega ** 2 - p.k ** 2 - sigma) <= 1e-10

    def test_free_limit(self):
        pt = solve_branch(DiracComb(((1e-30, 1.0),)), 1.0, tol=1e-13)
        assert pt.omega == pytest.approx(1.0, abs=1e-12)


class TestStabilityScan:
    def test_powerlaw_no_growing_modes(self):
        scan = mode_stability_scan(UNIT)
        assert scan.max_im <= 1e-8
        assert scan.gaps == ()

    def test_two_atom_no_growing_modes(self):
        scan = mode_stability_scan(DiracComb(((0.5, 1.0), (0.25, 4.0))))
        assert scan.max_im <= 1e-8
        # criterion 6's value, recorded when the scan still built the
        # comb's nodes itself; build_quadrature passes them through bitwise
        assert scan.max_im == 1.249843104915778e-13

    def test_scan_quadrature_is_the_atoms(self):
        comb = DiracComb(((0.3, 0.2), (0.7, 0.9), (2.0, 3.5)))
        quad = build_quadrature(comb, SCAN_NODES)
        assert quad.nodes.tobytes() == comb.masses.tobytes()
        assert quad.weights.tobytes() == comb.weights.tobytes()

    def test_one_atom_both_real_branches(self):
        scan = mode_stability_scan(DiracComb(((1.0, 1.0),)), k_grid=(1.0,))
        roots = scan.roots[1.0]
        target = one_atom_root(1.0, 1.0, 1.0)
        assert scan.max_im <= 1e-10
        found = sorted(z.real for z in roots)
        assert found == pytest.approx([-target, target], abs=1e-9)

    def test_continuation_artifacts_rejected_not_reported(self):
        # the printed symbol continued below the branch point has a
        # spurious imaginary pair; the scan must classify it as outside
        # the resolvent's validity half-plane
        scan = mode_stability_scan(DiracComb(((1.0, 1.0),)), k_grid=(1.0,))
        rejected = scan.rejected[1.0]
        assert any(abs(abs(z.imag) - 0.7861513777) < 1e-6 for z in rejected)

    def test_deterministic(self):
        a = mode_stability_scan(UNIT, k_grid=(0.5, 1.0))
        b = mode_stability_scan(UNIT, k_grid=(0.5, 1.0))
        assert a.max_im == b.max_im
        assert all(np.array_equal(a.roots[k], b.roots[k]) for k in a.roots)


class TestScanAtLargeWeights:
    """At alpha = 1e6 the scan accepts 6 to 10 roots per wavenumber and
    reports max_im 4.46e-8, above criterion 6's 1e-8.  The node symbol
    has only two roots off the rejected half-plane, both real: in
    y = z^2 - k^2 its numerator is a real polynomial of degree m + 1
    with one root below -mu_m, one between each pair of adjacent poles
    -mu_j and one above -mu_1, the only positive one since g < 0 at
    y = 0.  Every accepted root is one
    of those two, spread over about 1e-7 by the scan's tolerance
    (1e-11 (k^2 + l1), about 1e-5 in |g|), wider than the 1e-8 that
    tells roots apart; max_im is that spread."""

    RHO = PowerLawExp(1e6, 1.0, 1.0)
    # accepted roots per wavenumber, pinned
    COUNTS = {0.25: 10, 0.5: 10, 1.0: 6, 2.0: 7, 4.0: 6}

    def test_extra_roots_are_tolerance_copies_of_two_real_roots(self):
        scan = mode_stability_scan(self.RHO)
        assert scan.max_im == pytest.approx(4.46e-8, rel=1e-2)
        assert {k: len(r) for k, r in scan.roots.items()} == self.COUNTS
        quad = build_quadrature(self.RHO, SCAN_NODES)
        for k, roots in scan.roots.items():
            polished = []
            for z in roots:
                root, steps = polish_root(quad, z, k, atol=1e-9)
                # one Newton step at most, and no further than the spread
                assert steps <= 1 and abs(root - z) < 2e-7, (k, z)
                assert abs(root.imag) <= 1e-15 * abs(root.real), (k, z)
                polished.append(root.real)
            top = max(polished)
            assert top > k
            # every copy lands on +-top, to rounding
            assert all(abs(abs(x) - top) <= 1e-14 * top for x in polished)
            assert min(polished) < 0.0


# the cases the batched sweep is checked on against the scalar loop:
# both criterion-6 densities, the one-atom comb with its continuation
# artifacts, overflowing wavenumbers and weights, and k = 0
ORACLE_CASES = {
    "powerlaw": (UNIT, DEFAULT_K_GRID),
    "two-atom": (DiracComb(((0.5, 1.0), (0.25, 4.0))), DEFAULT_K_GRID),
    "one-atom": (DiracComb(((1.0, 1.0),)), (1.0,)),
    "k-1e154": (UNIT, (1e154,)),
    "k-1e300": (UNIT, (1e300,)),
    "alpha-1e200": (PowerLawExp(1e200, 1.0, 1.0), DEFAULT_K_GRID),
    "k-zero": (UNIT, (0.0, 0.5)),
}


def _quiet_scan(rho, k_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mode_stability_scan(rho, k_grid)


class TestBatchedSweep:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_the_scalar_loop(self, case):
        rho, k_grid = ORACLE_CASES[case]
        got = _quiet_scan(rho, k_grid)
        ref = scalar_mode_scan(rho, k_grid)
        assert got.gaps == ref.gaps
        assert abs(got.max_im - ref.max_im) <= 1e-15
        assert got.unconverged == ref.unconverged
        for k in ref.roots:
            for kind in ("roots", "rejected"):
                a, b = getattr(got, kind)[k], getattr(ref, kind)[k]
                assert len(a) == len(b), (k, kind)
                for za, zb in zip(a, b):
                    assert abs(za - zb) <= 1e-13 * max(1.0, abs(zb))

    def test_overflowing_wavenumber_is_a_gap(self):
        scan = _quiet_scan(UNIT, (1e154,))
        assert scan.gaps == (1e154,)
        assert scan.unconverged == {1e154: _SCAN_SEEDS}

    def test_overflowing_weights_find_no_root(self):
        scan = _quiet_scan(PowerLawExp(1e200, 1.0, 1.0), DEFAULT_K_GRID)
        assert scan.max_im == 0.0
        assert all(r == [] for r in scan.roots.values())

    def test_counts_per_wavenumber(self):
        scan = mode_stability_scan(DiracComb(((1.0, 1.0),)), k_grid=(1.0,))
        assert scan.counts() == [{"k": 1.0, "roots": 2, "rejected": 2,
                                  "unconverged": 0}]

    def test_k_zero_root_recorded_once(self):
        # the symbol at k = 0 is z**2: one double root at 0, recorded
        # without Newton seeds; it lies on the edge of the validity
        # half-plane of a density supported from 0 and inside it for atoms
        scan = _quiet_scan(UNIT, (0.0, 0.5))
        assert scan.counts() == [
            {"k": 0.0, "roots": 0, "rejected": 1, "unconverged": 0},
            {"k": 0.5, "roots": 2, "rejected": 2, "unconverged": 0}]
        assert scan.rejected[0.0] == [0j] and scan.gaps == ()
        comb = _quiet_scan(DiracComb(((0.5, 1.0), (0.25, 4.0))), (0.0,))
        assert comb.roots[0.0] == [0j] and comb.max_im == 0.0

    @pytest.mark.parametrize("k, msg", [(-1.0, "k must be nonnegative"),
                                        (math.nan, "k must be finite"),
                                        (math.inf, "k must be finite")])
    def test_bad_wavenumber_is_a_validation_error(self, k, msg):
        for call in (lambda: mode_stability_scan(UNIT, (0.5, k)),
                     lambda: solve_branch(UNIT, k)):
            with pytest.raises(ValidationError, match=msg):
                call()
