"""Series core: coefficients, evaluation, ratios, normalization, Bessel oracle."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_radii import series
from coulomb_radii import (
    ConvergenceError,
    CoulombDomainError,
    CoulombParams,
    DegenerateRecurrenceError,
    PoleError,
    bessel_j,
    coefficients,
    conv_ratio,
    eval_point,
    eval_series,
    normalization_constant,
    star_ratio,
)

P00 = CoulombParams(0.0, 0.0)
P0M1 = CoulombParams(0.0, -1.0)


def sine_taylor(n):
    # coefficients of sin z / z = sum (-1)^k z^{2k} / (2k+1)!
    out = []
    for i in range(n + 1):
        if i % 2:
            out.append(0.0)
        else:
            out.append((-1.0) ** (i // 2) / math.factorial(i + 1))
    return out


class TestCoefficients:
    def test_sine_collapse_coefficients(self):
        table = coefficients(P00, 8)
        for got, want in zip(table.a, sine_taylor(8)):
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300)

    def test_hand_recurrence_eta_minus_one(self):
        # two-term window applied by hand: 1, -1, 1/6, 1/18, -1/72
        table = coefficients(P0M1, 4)
        want = [1.0, -1.0, 1.0 / 6.0, 1.0 / 18.0, -1.0 / 72.0]
        for got, expect in zip(table.a, want):
            assert got == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("L,eta", [(0.0, 0.0), (2.5, -2.0), (-0.4, -0.25), (0.5, -1.0)])
    def test_leading_coefficient_is_one(self, L, eta):
        assert coefficients(CoulombParams(L, eta), 4).a[0] == 1.0

    def test_degenerate_denominator_reports_index(self):
        # n(n+2L+1) = 0 at n = 2 for L = -3/2 (reachable only via unsafe params)
        with pytest.raises(DegenerateRecurrenceError) as exc:
            coefficients(CoulombParams(-1.5, -1.0, unsafe=True), 8)
        assert exc.value.n == 2

    def test_L_minus_one_rejected(self):
        with pytest.raises(CoulombDomainError):
            coefficients(CoulombParams(-1.0, 0.0, unsafe=True), 4)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(min_value=-0.95, max_value=4.0),
        eta=st.floats(min_value=-3.0, max_value=0.0),
    )
    def test_recurrence_residual(self, L, eta):
        table = coefficients(CoulombParams(L, eta), 64)
        a = table.a
        for n in range(2, 65):
            den = n * (n + 2.0 * L + 1.0)
            resid = den * a[n] - 2.0 * eta * a[n - 1] + a[n - 2]
            assert abs(resid) <= 1e-14 * max(1.0, abs(a[n]) * den)

    def test_parity_at_eta_zero(self):
        table = coefficients(CoulombParams(1.7, 0.0), 32)
        assert all(table.a[n] == 0.0 for n in range(1, 33, 2))


class TestEvalSeries:
    def test_origin(self):
        sv = eval_point(P00, 0.0)
        assert sv.p0 == 1.0
        assert sv.p1 == 0.0

    def test_first_derivative_at_origin_is_a1(self):
        params = CoulombParams(0.7, -1.3)
        sv = eval_point(params, 0.0)
        assert sv.p1 == pytest.approx(params.eta / (params.L + 1.0), rel=1e-15)

    def test_sine_value_at_one(self):
        sv = eval_point(P00, 1.0)
        assert sv.p0 == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_sine_collapse_on_0_10(self):
        # z P(z) vs sin z, 1e-12 relative across [0, 10]
        for k in range(1, 101):
            z = 0.1 * k
            sv = eval_point(P00, z)
            assert z * sv.p0 == pytest.approx(math.sin(z), rel=1e-12)

    def test_heavy_cancellation_near_tenth_zero(self):
        # largest term ~ e^31; plain doubles would be ~1e-5 off here
        z = 31.415
        sv = eval_point(P00, z)
        assert z * sv.p0 == pytest.approx(math.sin(z), rel=1e-12)

    def test_tail_failure_instructs_regeneration(self):
        table = coefficients(P00, 8)
        with pytest.raises(ConvergenceError, match="n_max"):
            eval_series(table, 9.0)

    def test_table_built_once_per_params(self, monkeypatch):
        builds = []
        build = series.coefficients

        def counting(params, n_max):
            builds.append((params, n_max))
            return build(params, n_max)

        monkeypatch.setattr(series, "coefficients", counting)
        series._table.cache_clear()
        params = CoulombParams(0.123, -0.456)
        for r in (0.25, 0.5, 1.0):
            star_ratio(params, "g", r)
            conv_ratio(params, "f", r)
            eval_point(params, -r)
        assert builds == [(params, series.DEFAULT_N_MAX)]

    def test_shared_memo_under_threads(self):
        # more parameter pairs than memo slots, so threads evict each other's tables
        grid = [CoulombParams(0.1 * k, -0.2 * k) for k in range(20)]
        expected = {p: eval_point(p, 2.5) for p in grid}
        errors = []

        def worker(offset):
            for i in range(3 * len(grid)):
                p = grid[(i + offset) % len(grid)]
                if eval_point(p, 2.5) != expected[p]:
                    errors.append(p)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_range_guard(self):
        with pytest.raises(ConvergenceError):
            eval_point(P00, 200.0)

    def test_evenness_at_eta_zero(self):
        params = CoulombParams(0.5, 0.0)
        for z in (0.3, 1.1, 2.7):
            a = eval_point(params, z)
            b = eval_point(params, -z)
            assert a.p0 == pytest.approx(b.p0, rel=1e-14)
            assert a.p1 == pytest.approx(-b.p1, rel=1e-14)

    def test_against_mpmath_recurrence(self):
        # independent arithmetic: 40-digit mpmath run of the same recurrence,
        # with P' and P'' summed termwise
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cases = [(0.3, -1.2, 7.5), (2.5, -2.0, 20.0), (-0.4, -0.25, 3.0), (0.0, 0.0, 30.0),
                 (0.3, -1.2, 1e-200), (0.3, -1.2, 1e-11), (0.3, -1.2, 1e-4), (1.5, -12.0, 2.0),
                 (0.5, -1.0, -7.5), (0.0, -100.0, 1.0), (4.0, -3.0, 40.0)]
        for (L, eta, z) in cases:
            Lm, em, zm = mp.mpf(L), mp.mpf(eta), mp.mpf(z)
            a = [mp.mpf(1), em / (Lm + 1)]
            for n in range(2, 200):
                a.append((2 * em * a[n - 1] - a[n - 2]) / (n * (n + 2 * Lm + 1)))
            want = (
                float(sum(a[n] * zm**n for n in range(200))),
                float(sum(n * a[n] * zm ** (n - 1) for n in range(1, 200))),
                float(sum(n * (n - 1) * a[n] * zm ** (n - 2) for n in range(2, 200))),
            )
            sv = eval_point(CoulombParams(L, eta), z)
            for k, (got, v) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                assert abs(got - v) <= 5e-13 * abs(v) + sv.noise[k], (L, eta, z, k)


class TestRatios:
    def test_star_g_cotangent(self):
        assert star_ratio(P00, "g", 1.0) == pytest.approx(
            math.cos(1.0) / math.sin(1.0), rel=1e-13
        )

    def test_star_f_via_bessel_closed_form(self):
        # F_{1,0}(z) = sin z / z - cos z, so F'(1) = cos 1 and
        # r F'/F at r=1 equals cos1/(sin1-cos1) ~ 1.79402
        rff = math.cos(1.0) / (math.sin(1.0) - math.cos(1.0))
        assert star_ratio(CoulombParams(1.0, 0.0), "f", 1.0) == pytest.approx(
            rff / 2.0, rel=1e-12
        )

    def test_star_tends_to_one(self):
        for kind in ("f", "g"):
            assert star_ratio(CoulombParams(0.5, -1.0), kind, 1e-8) == pytest.approx(
                1.0, abs=1e-7
            )

    def test_conv_g_tangent(self):
        assert conv_ratio(P00, "g", 0.5) == pytest.approx(
            1.0 - 0.5 * math.tan(0.5), rel=1e-13
        )

    def test_conv_f_equals_g_at_L_zero(self):
        assert conv_ratio(P00, "f", 0.5) == pytest.approx(
            conv_ratio(P00, "g", 0.5), rel=1e-14
        )

    def test_conv_tends_to_one(self):
        for kind in ("f", "g"):
            assert conv_ratio(CoulombParams(1.0, -0.5), kind, 1e-8) == pytest.approx(
                1.0, abs=1e-7
            )

    def test_pole_error_at_zero_of_g(self):
        with pytest.raises(PoleError):
            star_ratio(P00, "g", math.pi)

    def test_conv_f_requires_L_above_minus_half(self):
        with pytest.raises(CoulombDomainError):
            conv_ratio(CoulombParams(-0.7, -1.0), "f", 0.1)
        # explicit unsafe marker overrides the gate
        conv_ratio(CoulombParams(-0.7, -1.0, unsafe=True), "f", 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(min_value=-0.9, max_value=3.0),
        eta=st.floats(min_value=-2.0, max_value=0.0),
        r=st.floats(min_value=0.01, max_value=0.4),
    )
    def test_f_g_ratio_identity(self, L, eta, r):
        # exact algebraic link between the two displayed log-derivative ratios
        params = CoulombParams(L, eta)
        lhs = star_ratio(params, "f", r)
        rhs = (L + star_ratio(params, "g", r)) / (L + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestNormalizationConstant:
    def test_integer_eta_zero(self):
        assert normalization_constant(0.0, 0.0) == 1.0
        assert normalization_constant(1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_eta_branch_value(self):
        want = math.sqrt(2.0 * math.pi / (1.0 - math.exp(-2.0 * math.pi)))
        got = normalization_constant(0.0, -1.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(2.50897205016855, rel=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.5, 0.25, 2.75])
    def test_duplication_form_at_eta_zero(self, L):
        # C_L(0)^{-1} = 2^{L+1} Gamma(L+3/2) / sqrt(pi)
        dup = math.sqrt(math.pi) / (2.0 ** (L + 1.0) * math.exp(math.lgamma(L + 1.5)))
        assert normalization_constant(L, 0.0) == pytest.approx(dup, rel=1e-12)

    def test_integer_product_matches_gamma_route(self):
        # dual route: finite product vs |Gamma| via the non-integer branch
        got_prod = normalization_constant(2.0, -0.75)
        got_gamma = normalization_constant(2.0 + 1e-13, -0.75)
        assert got_prod == pytest.approx(got_gamma, rel=1e-9)

    def test_requires_L_above_minus_one(self):
        with pytest.raises(CoulombDomainError):
            normalization_constant(-1.2, 0.0)


class TestBesselOracle:
    def test_half_order_is_sine(self):
        for x in (0.5, 1.0, 2.0, math.pi):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_zero_argument(self):
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(0.0, 0.0) == 1.0

    def test_first_zero_of_j1_by_bisection(self):
        lo, hi = 3.0, 4.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j(1.0, lo) * bessel_j(1.0, mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(3.8317059702, abs=1e-9)
        assert abs(bessel_j(1.0, 3.8317059702)) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, -0.5)


class TestBesselConsistency:
    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 1.5])
    def test_series_matches_duplication_normalized_bessel(self, L):
        # z P(z) = C_L(0)^{-1} z^{-L} sqrt(pi z/2) J_{L+1/2}(z) on (0, 3]
        params = CoulombParams(L, 0.0)
        c_inv = 2.0 ** (L + 1.0) * math.exp(math.lgamma(L + 1.5)) / math.sqrt(math.pi)
        for k in range(1, 31):
            z = 0.1 * k
            lhs = z * eval_point(params, z).p0
            rhs = c_inv * z ** (-L) * math.sqrt(math.pi * z / 2.0) * bessel_j(L + 0.5, z)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestParams:
    def test_region_gate(self):
        with pytest.raises(CoulombDomainError):
            CoulombParams(0.0, 1.0)
        with pytest.raises(CoulombDomainError):
            CoulombParams(-2.0, 0.0)
        p = CoulombParams(0.0, 1.0, unsafe=True)
        assert not p.in_certified_region
