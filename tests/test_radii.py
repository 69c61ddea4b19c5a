"""Radius solvers: starlikeness, convexity, univalence."""

import math

import pytest

from coulomb_radii import CoulombDomainError, CoulombParams, series
from coulomb_radii.radii import (
    Kind,
    RadiusProperty,
    RadiusQuery,
    radius,
)
from coulomb_radii.zeros import ZeroTarget, find_zeros

P00 = CoulombParams(0.0, 0.0)

GRID = [
    CoulombParams(L, eta)
    for L in (-0.4, 0.0, 0.5, 1.0, 2.5)
    for eta in (-2.0, -1.0, -0.25, 0.0)
]


def bisect(f, lo, hi, iters=100):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestStarlike:
    def test_sine_beta_zero_both_kinds(self):
        for kind in ("g", "f"):
            res = radius(RadiusQuery(P00, kind, "starlike", 0.0))
            assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_sine_beta_half(self):
        # oracle: independent bisection on r cot r = 1/2
        oracle = bisect(lambda r: r * math.cos(r) / math.sin(r) - 0.5, 1.0, 1.5)
        res = radius(RadiusQuery(P00, "g", "starlike", 0.5))
        assert res.value == pytest.approx(oracle, abs=1e-10)
        assert res.value == pytest.approx(1.16556118520721, abs=1e-9)

    def test_result_diagnostics(self):
        res = radius(RadiusQuery(P00, "g", "starlike", 0.25))
        lo, hi = res.bracket
        assert lo < res.value < hi
        assert abs(res.residual) <= 1e-10
        assert res.value < res.domain_cap
        assert res.domain_cap == pytest.approx(math.pi, abs=1e-9)
        assert res.iterations > 0


class TestConvex:
    def test_sine_beta_zero_both_kinds(self):
        oracle = bisect(lambda r: r * math.tan(r) - 1.0, 0.5, 1.2)
        for kind in ("g", "f"):
            res = radius(RadiusQuery(P00, kind, "convex", 0.0))
            assert res.value == pytest.approx(oracle, abs=1e-10)
            assert res.value == pytest.approx(0.8603335890, abs=1e-9)

    def test_sine_beta_half(self):
        oracle = bisect(lambda r: r * math.tan(r) - 0.5, 0.3, 1.0)
        res = radius(RadiusQuery(P00, "g", "convex", 0.5))
        assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_f_requires_L_above_minus_half(self):
        with pytest.raises(CoulombDomainError):
            radius(RadiusQuery(CoulombParams(-0.7, -1.0), "f", "convex", 0.0))


class TestUnivalence:
    def test_sine_is_pi_half(self):
        for kind in ("g", "f"):
            res = radius(RadiusQuery(P00, kind, "univalent"))
            assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)
            assert "univalent" in res.flags

    def test_bracket_straddles_pi_half(self):
        res = radius(RadiusQuery(P00, "g", "univalent"))
        lo, hi = res.bracket
        assert lo <= math.pi / 2.0 <= hi
        assert hi - lo <= 2e-13
        assert 0 < res.iterations <= 200

    @pytest.mark.parametrize("beta", [0.5, 1e-300])
    def test_nonzero_beta_is_rejected(self, beta):
        # univalence is the starlike radius at beta = 0; a query may not carry
        # another beta that the solver would then ignore
        with pytest.raises(ValueError, match="beta"):
            RadiusQuery(P00, "g", "univalent", beta)

    def test_f_eta_minus_one_inside_rayleigh_bracket(self):
        res = radius(RadiusQuery(CoulombParams(0.0, -1.0), "f", "univalent"))
        assert 3.0 ** -0.5 < res.value < 9.0 / 13.0


class TestProperties:
    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"L{p.L}_eta{p.eta}")
    def test_convex_below_starlike(self, params):
        for kind in ("g", "f"):
            star = radius(RadiusQuery(params, kind, "starlike", 0.0))
            conv = radius(RadiusQuery(params, kind, "convex", 0.0))
            assert conv.value <= star.value + 1e-12

    def test_monotone_in_beta(self):
        for params in (P00, CoulombParams(1.0, -1.0), CoulombParams(-0.4, -0.25)):
            for prop in ("starlike", "convex"):
                values = [
                    radius(RadiusQuery(params, "g", prop, b)).value
                    for b in (0.0, 0.25, 0.5, 0.75)
                ]
                assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "params",
        [CoulombParams(0.0, -1.0), CoulombParams(2.5, -2.0), CoulombParams(-0.4, -0.25)],
        ids=lambda p: f"L{p.L}_eta{p.eta}",
    )
    def test_ratio_and_direct_forms_agree(self, params):
        for kind in ("g", "f"):
            for prop in ("starlike", "convex"):
                for beta in (0.0, 0.5):
                    q = RadiusQuery(params, kind, prop, beta)
                    a = radius(q, form="ratio").value
                    b = radius(q, form="direct").value
                    assert abs(a - b) <= 1e-10 * abs(a)

    def test_beta_zero_ratio_stays_below_the_domain_cap(self):
        # the first zero of g' lies past the first zero of F here, so a
        # scan on g' alone used to report a radius beyond the cap
        params = CoulombParams(-0.7, -5.0)
        for kind in ("g", "f"):
            q = RadiusQuery(params, kind, "starlike", 0.0)
            ratio = radius(q, form="ratio")
            assert ratio.value < ratio.domain_cap
            direct = radius(q, form="direct").value
            assert abs(ratio.value - direct) <= 1e-13 * max(1.0, ratio.value)

    def test_univalence_equals_starlike_at_beta_zero(self):
        params = CoulombParams(1.0, -1.0)
        for kind in ("g", "f"):
            st = radius(RadiusQuery(params, kind, "starlike", 0.0))
            un = radius(RadiusQuery(params, kind, "univalent"))
            assert un.value == pytest.approx(st.value, abs=1e-11)


class TestEvaluationCounts:
    def test_series_evaluations_per_radius(self, monkeypatch):
        # deterministic gate on the solver: the cap scan with its Halley
        # refine, the Halley steps of the radius from the scan step that
        # brackets it and the residual, over every query shape at (0.5, -1),
        # univalent at beta = 0 only (mean 13.9, max 15; 19.35 and 20 when
        # the radius was a second ITP solve on [0, cap])
        calls = []
        eval_series = series.eval_series
        monkeypatch.setattr(series, "eval_series",
                            lambda table, z: calls.append(z) or eval_series(table, z))
        params = CoulombParams(0.5, -1.0)
        counts = []
        for kind in ("f", "g"):
            for prop in ("starlike", "convex", "univalent"):
                for beta in (0.0,) if prop == "univalent" else (0.0, 0.5):
                    for form in ("ratio", "direct"):
                        calls.clear()
                        radius(RadiusQuery(params, kind, prop, beta), form=form)
                        counts.append(len(calls))
        assert sum(counts) / len(counts) <= 15
        assert max(counts) <= 17


class TestLargeEta:
    """Radii where the first zeros of F crowd the origin; oracle: mpmath.coulombf."""

    @staticmethod
    def starlike_g_equation(mpmath, L, eta, beta, r):
        # r g'/g = beta  <=>  r F'(r) - (L + beta) F(r) = 0, positive at 0+
        F = lambda t: mpmath.coulombf(L, eta, t)  # noqa: E731
        return r * mpmath.diff(F, r) - (L + beta) * F(r)

    @pytest.mark.parametrize("L", [0.0, 2.5])
    def test_g_starlike_half_is_the_smallest_root(self, L):
        mpmath = pytest.importorskip("mpmath")
        for eta in range(-7, -17, -1):
            r = radius(RadiusQuery(CoulombParams(L, eta), "g", "starlike", 0.5)).value
            d = 1e-9 * max(1.0, r)
            h = lambda t: self.starlike_g_equation(mpmath, L, eta, 0.5, t)  # noqa: E731
            assert h(r - d) > 0 > h(r + d), (L, eta, r)
            assert all(h((r - d) * k / 40) > 0 for k in range(1, 40)), (L, eta, r)

    def test_g_starlike_half_check_value(self):
        r = radius(RadiusQuery(CoulombParams(0.0, -16.0), "g", "starlike", 0.5)).value
        assert r == pytest.approx(0.0264706376462, abs=1e-12)

    def test_f_starlike_near_L_minus_one(self):
        # the first zeros of F' and F sit at 0.0015 and 0.018 here
        mpmath = pytest.importorskip("mpmath")
        res = radius(RadiusQuery(CoulombParams(-0.9, -6.0), "f", "starlike", 0.0))
        assert res.value == pytest.approx(0.00153759627180, abs=1e-13)
        # f-starlike at beta = 0 is F'(r) = 0
        dF = lambda t: mpmath.diff(lambda x: mpmath.coulombf(-0.9, -6, x), t)  # noqa: E731
        assert dF(res.value * (1 - 1e-9)) > 0 > dF(res.value * (1 + 1e-9))


class TestLargeL:
    """Radii whose cap, the first zero of F or F', lies beyond |z| = 55."""

    @staticmethod
    def equations(mpmath, L, eta):
        # r g'/g = r F'/F - L, and the f-convex ratio of the radii docstring
        F = lambda t: mpmath.coulombf(L, eta, t)  # noqa: E731
        dF = lambda t, n=1: mpmath.diff(F, t, n)  # noqa: E731
        return {
            ("g", "starlike"): lambda r: r * dF(r) / F(r) - L,
            ("f", "convex"): lambda r: 1 + r * dF(r, 2) / dF(r) - L / (L + 1) * r * dF(r) / F(r),
        }

    @pytest.mark.parametrize("kind,prop,L,eta", [("g", "starlike", 48.0, 0.0),
                                                 ("f", "convex", 60.0, -1.0)])
    def test_radius_without_the_cap(self, kind, prop, L, eta):
        mpmath = pytest.importorskip("mpmath")
        res = radius(RadiusQuery(CoulombParams(L, eta), kind, prop, 0.0))
        assert res.domain_cap is None
        assert "domain-cap-beyond-range" in res.flags
        cap_target = ZeroTarget.F if prop == "starlike" else ZeroTarget.F_PRIME
        assert find_zeros(CoulombParams(L, eta), cap_target, 1, 0).positive == ()
        r = res.value
        h = self.equations(mpmath, L, eta)[kind, prop]
        d = 1e-9 * r
        assert h(r - d) > 0 > h(r + d), (kind, L, eta, r)
        assert all(h(r * k / 16) > 0 for k in range(1, 16)), (kind, L, eta, r)

    def test_direct_form_agrees(self):
        for kind, prop, L, eta in (("g", "starlike", 48.0, 0.0), ("f", "convex", 60.0, -1.0)):
            q = RadiusQuery(CoulombParams(L, eta), kind, prop, 0.0)
            a, b = radius(q, form="ratio"), radius(q, form="direct")
            assert abs(a.value - b.value) <= 1e-13 * a.value
            assert b.domain_cap is None


class TestDomainCap:
    """The cap is the first positive pole; for eta <= 0 it is also the
    smallest-modulus zero, so no radius needs the negative axis."""

    CASES = [("g", "starlike", ZeroTarget.F), ("f", "convex", ZeroTarget.F_PRIME),
             ("g", "convex", ZeroTarget.G_PRIME)]

    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"L{p.L}_eta{p.eta}")
    def test_cap_is_the_smallest_modulus_zero(self, params):
        for kind, prop, target in self.CASES:
            cap = radius(RadiusQuery(params, kind, prop, 0.0)).domain_cap
            zs = find_zeros(params, target, 1, 1)
            assert abs(cap - min(zs.positive[0], -zs.negative[0])) <= 1e-12


class TestUnsafe:
    def test_region_violation_requires_unsafe(self):
        with pytest.raises(CoulombDomainError):
            CoulombParams(0.0, 0.5)

    def test_unsafe_result_carries_no_certificate(self):
        params = CoulombParams(0.0, 0.1, unsafe=True)
        res = radius(RadiusQuery(params, "g", "starlike", 0.0))
        assert "no-certificate" in res.flags
        assert res.value > 0.0
