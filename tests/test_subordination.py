"""Parameter-region predicates, disk scans, and the axis-minimum gap."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_radii import ConvergenceError, subordination
from coulomb_radii.subordination import axis_minimum_gap, disk_min_real, region_check


class TestRegionCheck:
    def test_both_conditions_hold(self):
        rep = region_check(4 + 1j, 0.5)
        assert rep.re_positive_ok  # (1+1+0.5)^2 = 6.25 <= (4-0.5)^2 = 12.25
        assert rep.starlike_ok  # 0.5 <= 4 - 1/3 - 1/4
        assert rep.margins["disk_gap"] == pytest.approx(6.0)
        assert rep.margins["starlike_gap"] == pytest.approx(4.0 - 1.0 / 3.0 - 0.25 - 0.5)

    def test_positivity_fails(self):
        rep = region_check(1 + 1j, 2.0)
        assert not rep.re_positive_ok  # 16 > 0.25

    def test_starlike_fails(self):
        rep = region_check(4 + 1j, 3.5)
        assert not rep.starlike_ok  # 3.5 > 3.41667
        assert rep.re_positive_ok is False  # (1+1+3.5)^2 = 30.25 > 12.25 too

    @settings(max_examples=80, deadline=None)
    @given(
        re_l=st.floats(min_value=0.0, max_value=8.0),
        im_l=st.floats(min_value=0.0, max_value=4.0),
        eta=st.floats(min_value=0.0, max_value=4.0),
        bump=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_monotonicity(self, re_l, im_l, eta, bump):
        # raising Re L never flips true -> false; raising |eta| never false -> true
        base = region_check(complex(re_l, im_l), eta)
        wider = region_check(complex(re_l + bump, im_l), eta)
        assert not (base.re_positive_ok and not wider.re_positive_ok)
        assert not (base.starlike_ok and not wider.starlike_ok)
        tighter = region_check(complex(re_l, im_l), eta + bump)
        assert not (not base.re_positive_ok and tighter.re_positive_ok)
        assert not (not base.starlike_ok and tighter.starlike_ok)


def horner_min_real(L, eta, quantity, grid_n, radius_cap=0.99):
    """The scan summed by Horner's rule at every grid point, for reference."""
    a = subordination._coeffs_for_disk(complex(L), complex(eta))
    radii = radius_cap * np.arange(1, grid_n + 1) / grid_n
    angles = 2.0 * np.pi * np.arange(4 * grid_n) / (4.0 * grid_n)
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in a[::-1]:
        dp = dp * z + p
        p = p * z + c
    if quantity == "g":
        return float(np.min(p.real))
    return float(np.min((1.0 + z * dp / p).real))


class TestDiskScan:
    @pytest.mark.parametrize("L, eta", [
        (4 + 1j, 0.5), (3 + 1j, 0.25), (5 + 2j, 1.0), (2 + 0.5j, -0.5), (0j, 0j),
    ])
    @pytest.mark.parametrize("quantity", ["g", "zgpg"])
    def test_ring_sums_match_horner(self, L, eta, quantity):
        # P has no zero in the disk, so both real parts are harmonic there and
        # the outer ring of the full grid holds its minimum
        for grid_n in (16, 32, 64):
            assert disk_min_real(L, eta, quantity, grid_n).min_real == pytest.approx(
                horner_min_real(L, eta, quantity, grid_n), rel=1e-13)

    def test_terms_past_the_ring_length_fold_exactly(self, monkeypatch):
        # 97 terms of e^z on 64 angles: n and n + 64 share a column.  The
        # angle pi is on the grid, where Re e^z = e^(-0.99) and Re(1 + z) = 0.01
        # are least
        coeffs = np.array([1.0 / math.factorial(n) for n in range(97)], dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: coeffs)
        assert disk_min_real(0, 0, "g", 16).min_real == pytest.approx(
            math.exp(-0.99), rel=1e-14)
        assert disk_min_real(0, 0, "zgpg", 16).min_real == pytest.approx(0.01, abs=1e-14)
        # the e^z terms past n = 64 are below 1e-89; 97 unit terms are not
        ones = np.ones(97, dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: ones)
        for quantity in ("g", "zgpg"):
            assert disk_min_real(0, 0, quantity, 16).min_real == pytest.approx(
                horner_min_real(0, 0, quantity, 16), rel=1e-13)

    def test_zero_next_to_the_circle_keeps_the_sampled_minimum(self, monkeypatch):
        # P = (1 - z^97)/(1 - z) has its 96 zeros on |z| = 1, 0.01 outside the
        # circle: 64 angles do not resolve z P'/P there, so the ring mean is
        # no integer and the scan reports what it sampled, with a warning
        ones = np.ones(97, dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: ones)
        scan = disk_min_real(0, 0, "zgpg", 16)
        assert scan.zeros_inside == pytest.approx(1.108, abs=1e-3)
        assert scan.min_real == pytest.approx(-57.26, abs=0.01)
        assert scan.warnings == ["zero-near-circle"]

    def test_zero_of_p_on_the_grid_is_a_pole(self, monkeypatch):
        # P(z) = 0.99 - z vanishes at the grid point z = 0.99
        coeffs = np.array([0.99, -1.0], dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: coeffs)
        scan = disk_min_real(0, 0, "zgpg", 16)
        assert scan.min_real == -math.inf
        assert scan.noise_limited
        assert scan.warnings == ["noise-limited", "zero-near-circle"]
        # a double zero at z = 1/2 makes z P'/P = 0/0 there, exactly
        square = np.array([0.25, -1.0, 1.0], dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: square)
        assert disk_min_real(0, 0, "zgpg", 16, radius_cap=0.5).min_real == -math.inf

    @pytest.mark.parametrize("L, eta, count", [
        (0, -3, 1), (0, -10, 2),
        (4 + 1j, 0.5, 0), (3 + 1j, 0.25, 0), (5 + 2j, 1.0, 0), (2 + 0.5j, -0.5, 0),
    ])
    def test_ring_mean_counts_the_zeros_of_p_inside(self, L, eta, count):
        scan = disk_min_real(L, eta, "zgpg", 64)
        assert scan.zeros_inside == pytest.approx(count, abs=1e-12)
        if count:  # Re z g'/g is unbounded below near a zero of P
            assert scan.min_real == -math.inf
            assert scan.warnings == ["zeros-inside"]
        else:
            assert scan.min_real > 0.0
            assert scan.warnings == []
        assert disk_min_real(L, eta, "g", 64).zeros_inside is None

    def test_zeros_counted_at_minus_ten_are_the_real_ones(self):
        # P is real at real (L, eta); its sign changes on [0, 0.99] lie at
        # 0.183 and 0.609, so the two zeros the ring counts there are these
        a = subordination._coeffs_for_disk(0j, -10 + 0j).real
        x = np.linspace(0.0, 0.99, 9901)
        p = np.polyval(a[::-1], x)
        crossings = x[1:][np.sign(p[1:]) != np.sign(p[:-1])]
        assert crossings == pytest.approx([0.183, 0.609], abs=1e-3)

    def test_condition_number_marks_noise(self):
        # sum |a_n| r^n / |P| on the circle stays near 1 on the printed region
        # and passes 2^26 at large |eta|
        assert not disk_min_real(4 + 1j, 0.5, "g", 32).noise_limited
        assert disk_min_real(0, -3, "g", 32).condition == pytest.approx(61.6, rel=0.01)
        noisy = disk_min_real(3 + 2j, 100, "zgpg", 64)
        assert noisy.condition > 1e11
        assert noisy.noise_limited

    def test_center_rings_near_one(self):
        # z g'/g -> 1 at the origin, so a small circle sits near 1
        val = disk_min_real(0.5 + 0j, -0.5 + 0j, "zgpg", grid_n=16, radius_cap=0.05)
        assert val.min_real == pytest.approx(1.0, abs=0.05)

    def test_sine_starlike_in_unit_disk(self):
        # r*(g_{0,0}) = pi/2 > 1, so Re(z g'/g) > 0 on the disk
        assert disk_min_real(0.0 + 0j, 0.0 + 0j, "zgpg", 64, 0.99).min_real > 0.0

    def test_region_parameters_give_positive_scans(self):
        assert disk_min_real(4 + 1j, 0.5, "g", 64, 0.99).min_real > 0.0
        assert disk_min_real(4 + 1j, 0.5, "zgpg", 64, 0.99).min_real > 0.0

    def test_starlike_region_sample_implies_positive_ratio(self):
        # 5-point sample of parameters passing the starlike inequality
        samples = [(4 + 1j, 0.5), (2 + 0.5j, 0.2), (6 + 2j, 1.0), (1.5 + 0j, 0.9), (3 + 1j, 2.0)]
        for L, eta in samples:
            assert region_check(L, eta).starlike_ok
            assert disk_min_real(L, eta, "zgpg", 64, 0.99).min_real > 0.0

    def test_unconverged_coefficients_raise(self):
        with pytest.raises(ConvergenceError):
            disk_min_real(0.0, 1e5, "g", grid_n=16)

    def test_oversized_grid_is_rejected_before_any_allocation(self, monkeypatch):
        # the cap on grid_n is checked before the coefficients are built
        def no_arrays(*args):
            raise AssertionError("disk arrays built before grid_n was checked")
        monkeypatch.setattr(subordination, "_coeffs_for_disk", no_arrays)
        for grid_n in (1025, 100_000):
            with pytest.raises(ValueError, match="grid_n"):
                disk_min_real(4 + 1j, 0.5, "g", grid_n=grid_n)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            disk_min_real(1 + 1j, 0.0, "zgpg", grid_n=4)
        with pytest.raises(ValueError):
            disk_min_real(1 + 1j, 0.0, "nope")
        with pytest.raises(ValueError):
            disk_min_real(1 + 1j, 0.0, "g", radius_cap=1.5)


class TestAxisMinimumGap:
    def test_equality_at_the_minimizing_axis_point(self):
        # z = |z| for the minus bracket, z = -|z| for the plus bracket
        for lam in (0.0, 0.3, 1.0):
            assert axis_minimum_gap(lam, 2.0, 1.0, 0.5, -1) == pytest.approx(
                0.0, abs=1e-14
            )
            assert axis_minimum_gap(lam, 2.0, 1.0, -0.5, 1) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_plus_bracket_positive_at_real_positive_z(self):
        # the plus-bracket gap is strictly positive away from z = -|z|
        assert axis_minimum_gap(0.5, 2.0, 1.0, 0.5, 1) > 0.0

    def test_worked_imaginary_case(self):
        # lam=0, a=2, b=1, z=i/2, minus sign: 0.2 - (-0.5) = 0.7
        got = axis_minimum_gap(0.0, 2.0, 1.0, 0.5j, -1)
        assert got == pytest.approx(0.7, abs=1e-14)

    def test_plus_sign_case_nonnegative(self):
        assert axis_minimum_gap(1.0, 2.0, 1.0, 0.3 + 0.3j, 1) >= 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            axis_minimum_gap(0.5, 1.0, 2.0, 0.1, -1)  # a <= b
        with pytest.raises(ValueError):
            axis_minimum_gap(0.5, 2.0, 1.0, 1.5, -1)  # |z| >= b
        with pytest.raises(ValueError):
            axis_minimum_gap(1.5, 2.0, 1.0, 0.1, -1)  # lam out of range
        with pytest.raises(ValueError):
            axis_minimum_gap(0.5, 2.0, 1.0, 0.1, 2)  # bad sign

    def test_random_admissible_tuples(self):
        rng = random.Random(20240817)
        worst = math.inf
        for _ in range(10_000):
            b = rng.uniform(0.2, 3.0)
            a = b + rng.uniform(1e-6, 3.0)
            lam = rng.random()
            radius = b * math.sqrt(rng.random()) * 0.999
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(radius * math.cos(theta), radius * math.sin(theta))
            sign = 1 if rng.random() < 0.5 else -1
            worst = min(worst, axis_minimum_gap(lam, a, b, z, sign))
        assert worst >= -1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.1, max_value=3.0),
        extra=st.floats(min_value=1e-6, max_value=3.0),
        frac=st.floats(min_value=0.0, max_value=0.999),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        sign=st.sampled_from([1, -1]),
    )
    def test_gap_property(self, lam, b, extra, frac, theta, sign):
        z = b * frac * complex(math.cos(theta), math.sin(theta))
        assert axis_minimum_gap(lam, b + extra, b, z, sign) >= -1e-12
