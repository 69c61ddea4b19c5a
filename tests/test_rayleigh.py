"""Rayleigh sums: log-derivative extraction, closed forms, Euler-Rayleigh bounds."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from coulomb_radii import (
    CoulombError,
    CoulombParams,
    DegenerateRecurrenceError,
    rayleigh,
    verify,
)
from coulomb_radii.equations import ZeroTarget
from coulomb_radii.radii import RadiusQuery, radius
from coulomb_radii.rayleigh import (
    bracket_sums,
    euler_rayleigh_bounds,
    logderiv_coeffs,
    sums,
)

GRID_L = (-0.4, 0.0, 0.5, 1.0, 2.5)
GRID_ETA = (-2.0, -1.0, -0.25, 0.0)


def brute_force_logderiv(c, m_max):
    # oracle: long-division of exact rational polynomials, P'(z)/P(z)
    c = [Fraction(x).limit_denominator(10**12) for x in c]
    deriv = [(k + 1) * c[k + 1] for k in range(len(c) - 1)]
    t = []
    rem = deriv[:]
    for k in range(m_max + 1):
        tk = rem[k]
        for j in range(k + 1, len(rem)):
            rem[j] -= tk * c[j - k]
        t.append(float(tk))
    return t


class TestLogderivCoeffs:
    def test_cosine_series(self):
        cos_c = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0]
        t = logderiv_coeffs(cos_c, 3)
        assert t == pytest.approx([0.0, -1.0, 0.0, -1.0 / 3.0], abs=1e-15)

    def test_sinc_series(self):
        sinc = [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0]
        t = logderiv_coeffs(sinc, 1)
        # S_2 over zeros +-n pi is 2 zeta(2)/pi^2 = 1/3 = -t_1
        assert t[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_theta_sequence_hand_convolution(self):
        # (L=0, eta=-1): c = (n+1) a_n = [1, -2, 1/2, 2/9, -5/72]
        c = [1.0, -2.0, 0.5, 2.0 / 9.0, -5.0 / 72.0]
        t = logderiv_coeffs(c, 2)
        assert t[0] == pytest.approx(-2.0, abs=1e-15)
        assert t[1] == pytest.approx(-3.0, abs=1e-15)
        assert t[2] == pytest.approx(-13.0 / 3.0, abs=1e-14)

    def test_matches_polynomial_long_division(self):
        c = [1.0, -0.7, 0.31, 0.05, -0.02, 0.004, 0.001, -0.0002]
        assert logderiv_coeffs(c, 5) == pytest.approx(
            brute_force_logderiv(c, 5), rel=1e-12
        )

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            logderiv_coeffs([2.0, 1.0, 1.0], 1)


class TestSums:
    def test_extracted_sigma_at_0_minus1(self):
        s = sums(CoulombParams(0.0, -1.0), ZeroTarget.F_PRIME, 4)
        assert s.extracted[2] == pytest.approx(3.0, abs=1e-13)
        assert s.extracted[3] == pytest.approx(13.0 / 3.0, abs=1e-13)

    def test_closed_form_sigma_at_0_minus1_is_flagged(self):
        s = sums(CoulombParams(0.0, -1.0), ZeroTarget.F_PRIME, 3)
        assert s.closed_form[2] == pytest.approx(3.0, abs=1e-13)
        # the printed cubic evaluates to 6 here; extraction gives 13/3
        assert s.closed_form[3] == pytest.approx(6.0, abs=1e-12)
        assert 3 in s.discrepancies and 2 not in s.discrepancies

    def test_varsigma_cosine_sum(self):
        # zeros of cos: sum of 1/xi^2 = (8/pi^2) sum (2n-1)^{-2} = 1
        s = sums(CoulombParams(0.0, 0.0), ZeroTarget.G_PRIME, 3)
        for values in (s.extracted, s.closed_form):
            assert values[2] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("L", GRID_L)
    @pytest.mark.parametrize("eta", GRID_ETA)
    def test_order_two_closed_forms_match_extraction(self, L, eta):
        params = CoulombParams(L, eta)
        for target in (ZeroTarget.F_PRIME, ZeroTarget.G_PRIME):
            s = sums(params, target, 2)
            assert abs(s.closed_form[2] - s.extracted[2]) <= 1e-10 * abs(s.extracted[2])

    def test_extraction_self_consistency(self):
        # S_m from m_max and from 2 m_max coefficients agree
        params = CoulombParams(0.5, -1.0)
        a = sums(params, ZeroTarget.F_PRIME, 8).extracted
        b = sums(params, ZeroTarget.F_PRIME, 16).extracted
        for m in range(2, 9):
            assert a[m] == pytest.approx(b[m], rel=1e-12, abs=1e-12)

    def test_odd_sums_vanish_at_eta_zero(self):
        s = sums(CoulombParams(1.5, 0.0), ZeroTarget.F_PRIME, 8)
        assert s.extracted[3] == 0.0
        assert s.extracted[5] == 0.0
        assert s.extracted[7] == 0.0

    def test_closed_form_beyond_three_unsupported(self):
        # the closed forms give S_2 and S_3 whatever m_max the record extracts
        s = sums(CoulombParams(0.0, -1.0), ZeroTarget.F_PRIME, 8)
        assert sorted(s.closed_form) == [2, 3] and sorted(s.extracted) == list(range(2, 9))
        with pytest.raises(ValueError, match="closed forms give S_2 and S_3 only"):
            s.bracket(4, "closed_form")

    @pytest.mark.parametrize("L, n", [(-1.5, 2), (-2.0, 3)])
    def test_a_pole_of_the_closed_forms_raises_the_recurrence_error(self, L, n):
        # 2L + 3 and L + 2 divide the printed sums; extraction runs first, and
        # the recurrence degenerates at those L before a closed form is formed
        params = CoulombParams(L, -1.0, unsafe=True)
        for target in (ZeroTarget.F_PRIME, ZeroTarget.G_PRIME):
            with pytest.raises(DegenerateRecurrenceError) as exc:
                sums(params, target, 2)
            assert exc.value.n == n

    def test_printed_overflow_leaves_the_extraction(self):
        # the printed polynomials overflow at L = 1e100; the extracted bracket
        # does not, and the closed-form one is refused as a numerical failure
        record = bracket_sums(CoulombParams(1e100, -1.0), "g")
        assert record.bracket(2) == pytest.approx((8.16496580927726e49, 1e100), rel=1e-12)
        assert all(math.isnan(v) for v in record.closed_form.values())
        with pytest.raises(CoulombError, match="not positive"):
            record.bracket(2, "closed_form")

    @pytest.mark.parametrize("L, eta, target", [
        (0.0, -1.0, ZeroTarget.F_PRIME),
        (0.5, -1.0, ZeroTarget.F_PRIME),
        (0.5, -1.0, ZeroTarget.G_PRIME),
    ], ids=["L0-F_prime", "L0.5-F_prime", "L0.5-g_prime"])
    def test_zero_sum_identity_against_refined_zeros(self, L, eta, target):
        # S_2 equals the partial sum over refined zeros plus a tail below the
        # analytic correction bound 1/(s x_N) per side (s = min observed gap).
        # F' and g' are one function at L = 0; at L = 0.5 their S_2 are 1.040
        # and 1.528, so sums over the other target's zeros fail the bound
        from coulomb_radii.zeros import find_zeros

        params = CoulombParams(L, eta)
        zs = find_zeros(params, target, 12, 12)
        assert len(zs.positive) >= 10 and len(zs.negative) >= 10
        partial = sum(x**-2 for x in zs.positive) + sum(y**-2 for y in zs.negative)
        gaps_pos = [b - a for a, b in zip(zs.positive, zs.positive[1:])]
        gaps_neg = [a - b for a, b in zip(zs.negative, zs.negative[1:])]
        tail_bound = 1.0 / (min(gaps_pos) * zs.positive[-1]) + 1.0 / (
            min(gaps_neg) * -zs.negative[-1]
        )
        s2 = sums(params, target, 2).extracted[2]
        assert abs(s2 - partial) <= tail_bound


class TestBounds:
    def test_eta_zero_upper_undefined(self):
        lower, upper = euler_rayleigh_bounds(CoulombParams(0.0, 0.0), "g", 2)
        assert lower == pytest.approx(1.0, abs=1e-13)
        assert upper is None

    @pytest.mark.parametrize("L", [0.0, 1.0, 2.5])
    def test_eta_zero_lower_closed_form(self, L):
        # the printed g-bound reduces to sqrt((2L+3)/3) at eta = 0
        lower, upper = euler_rayleigh_bounds(CoulombParams(L, 0.0), "g", 2)
        assert lower == pytest.approx(math.sqrt((2.0 * L + 3.0) / 3.0), rel=1e-12)
        assert upper is None

    def test_f_bounds_at_0_minus1(self):
        lower, upper = euler_rayleigh_bounds(CoulombParams(0.0, -1.0), "f", 2)
        assert lower == pytest.approx(3.0 ** -0.5, rel=1e-12)
        assert upper == pytest.approx(9.0 / 13.0, rel=1e-12)

    @pytest.mark.parametrize("L", GRID_L)
    @pytest.mark.parametrize("eta", (-2.0, -1.0, -0.25))
    def test_bracketing_on_grid(self, L, eta):
        params = CoulombParams(L, eta)
        for kind in ("f", "g"):
            lower, upper = euler_rayleigh_bounds(params, kind, 2)
            runiv = radius(RadiusQuery(params, kind, "univalent")).value
            assert upper is not None
            assert lower < runiv - 1e-12
            assert runiv < upper - 1e-12
            lower4, _ = euler_rayleigh_bounds(params, kind, 4)
            assert lower4 >= lower - 1e-12

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            euler_rayleigh_bounds(CoulombParams(0.0, -1.0), "f", 3)

    def test_closed_form_method_gives_printed_bounds(self):
        params = CoulombParams(0.0, -1.0)
        lower, upper = bracket_sums(params, "f", 2).bracket(2, "closed_form")
        assert lower == pytest.approx(3.0 ** -0.5, rel=1e-12)
        # printed sigma_3 is 6 here, so the printed upper is 1/2
        assert upper == pytest.approx(0.5, rel=1e-12)


class TestOneRecord:
    """Every bracket and note of a point comes from one RayleighSums record."""

    def test_closed_form_record_holds_the_extracted_bracket(self):
        # the default bracket is the extracted one; the closed-form one and
        # the notes come with every record, of any order
        params = CoulombParams(0.5, -1.0)
        for kind in ("f", "g"):
            for m in (2, 4):
                record = bracket_sums(params, kind, m)
                assert record.bracket(2) == record.bracket(2, "extracted")
                assert record.bracket(2) == euler_rayleigh_bounds(params, kind)
                s2, s3 = record.closed_form[2], record.closed_form[3]
                assert record.bracket(2, "closed_form") == (s2 ** -0.5, s2 / s3)
                assert record.bracket(2, "closed_form") != record.bracket(2)
                assert 3 in record.discrepancies and 2 not in record.discrepancies

    def test_extracted_record_has_no_closed_form_bracket(self):
        # past m = 2 a record's brackets are extracted only: the closed forms
        # give S_2 and S_3, so a higher-order closed-form bracket is refused
        params = CoulombParams(0.0, -1.0)
        record = bracket_sums(params, "f", 4)
        assert sorted(record.closed_form) == [2, 3]
        assert record.bracket(4) == euler_rayleigh_bounds(params, "f", 4)
        with pytest.raises(ValueError, match="closed forms give S_2 and S_3 only"):
            record.bracket(4, "closed_form")

    def test_shorter_extraction_is_a_prefix(self):
        # each coefficient is rounded once from its exact value, so the m = 2
        # bracket of an m_max = 5 record is the one of an m_max = 3 record
        for L, eta in ((0.5, -1.0), (2.5, -2.0), (-0.4, -0.25)):
            params = CoulombParams(L, eta)
            for kind in ("f", "g"):
                assert bracket_sums(params, kind, 4).bracket(2) == euler_rayleigh_bounds(
                    params, kind, 2)

    def test_bracket_outside_the_record_names_its_orders(self):
        record = bracket_sums(CoulombParams(0.5, -1.0), "f", 2)
        assert record.target is ZeroTarget.F_PRIME
        for m in (3, 4):
            with pytest.raises(ValueError, match=rf"holds S_2\.\.S_3; the m = {m} bracket"):
                record.bracket(m)

    def test_bracket_refuses_an_odd_order(self):
        # S_3 of this record gives (2.913, 0.966) around a univalence radius
        # of 2.419: with zeros of both signs an odd sum bounds nothing
        record = bracket_sums(CoulombParams(1.0, -0.25), "f", 4)
        for bracket in (lambda: record.bracket(3), lambda: record.bracket(3, "extracted")):
            with pytest.raises(ValueError, match="even"):
                bracket()
        assert record.bracket(4) == euler_rayleigh_bounds(CoulombParams(1.0, -0.25), "f", 4)

    def test_sums_refuse_the_zeros_of_F(self, extractions):
        with pytest.raises(ValueError, match="not F"):
            sums(CoulombParams(0.0, -1.0), ZeroTarget.F)
        assert extractions == []

    def test_bad_order_is_refused_before_any_extraction(self, extractions):
        params = CoulombParams(0.0, -1.0)
        for m in (3, 0, 1):
            with pytest.raises(ValueError, match="even"):
                bracket_sums(params, "f", m)
        with pytest.raises(ValueError, match="m_max must be >= 2"):
            sums(params, ZeroTarget.F_PRIME, 1)
        assert extractions == []

    def test_bound_bracketing_extracts_once_per_point(self, extractions):
        assert verify.run_criterion(5).passed
        counts = Counter(extractions)
        assert len(counts) == 30 and set(counts.values()) == {1}

    def test_import_leaves_the_solvers_unloaded(self):
        code = ("import sys, coulomb_radii.rayleigh; "
                "print(sorted(m for m in sys.modules if m.startswith('coulomb_radii')))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(rayleigh.__file__)))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert "coulomb_radii.radii" not in out and "coulomb_radii.zeros" not in out
        assert "coulomb_radii.rayleigh" in out
