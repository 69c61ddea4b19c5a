"""Radius solvers: starlikeness, convexity, univalence."""

import functools
import json
import math
import os
import random
import re

import pytest

from coulomb_radii import CoulombDomainError, CoulombParams, conv_ratio, star_ratio
from coulomb_radii.errors import ConvergenceError, MonotonicityError
from coulomb_radii.equations import derivative_target
from coulomb_radii.radii import (
    Kind,
    RadiusProperty,
    RadiusQuery,
    domain_cap,
    radius,
)
from coulomb_radii.rayleigh import bracket_sums
from coulomb_radii.series import Evaluator
from coulomb_radii.zeros import ZeroTarget, find_zeros, scan

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
        query = RadiusQuery(P00, "g", "starlike", 0.25)
        res = radius(query)
        lo, hi = res.bracket
        assert lo < res.value < hi
        assert abs(res.residual) <= 1e-10
        assert res.value < domain_cap(query)
        assert domain_cap(query) == pytest.approx(math.pi, abs=1e-9)
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

    def test_f_convexity_rule_is_one_rule(self):
        # radius and conv_ratio refuse with the same message, and unsafe
        # params run both, the radius uncertified
        safe, unsafe = CoulombParams(-0.7, -1.0), CoulombParams(-0.7, -1.0, unsafe=True)
        with pytest.raises(CoulombDomainError) as by_radius:
            radius(RadiusQuery(safe, "f", "convex", 0.0))
        with pytest.raises(CoulombDomainError) as by_ratio:
            conv_ratio(safe, "f", 0.1)
        assert str(by_radius.value) == str(by_ratio.value)
        assert "L > -1/2" in str(by_ratio.value)
        res = radius(RadiusQuery(unsafe, "f", "convex", 0.0))
        assert "no-certificate" in res.flags and res.value > 0.0
        assert math.isfinite(conv_ratio(unsafe, "f", 0.1))


def test_kind_rule_is_one_rule():
    # the ratios, the radius query and the Rayleigh record all decide the
    # kind by Kind(kind), with one message
    params = CoulombParams(0.5, -1.0)
    calls = (lambda: star_ratio(params, "x", 0.5), lambda: conv_ratio(params, "x", 0.5),
             lambda: RadiusQuery(params, "x", "starlike"), lambda: bracket_sums(params, "x"))
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"'x' is not a valid Kind"}


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

    def test_exact_zero_of_the_equation_widens_the_bracket(self):
        # the f-univalence solve at (-0.4, -4) lands on an exact zero of its
        # computed ratio form, where refine_bracket closes the bracket to that
        # point; the bracket is widened by the equation's noise over its slope
        # and holds mpmath's root, the first zero of F' (the solves at
        # (0.5, -1) and (0, -2) did so from other first points of the refine,
        # and the one at (-0.4, -3) with the forward sums of the origin's table)
        mpmath = pytest.importorskip("mpmath")
        res = radius(RadiusQuery(CoulombParams(-0.4, -4.0), "f", "univalent"))
        lo, hi = res.bracket
        assert res.residual == 0.0
        assert lo < res.value < hi and hi - lo <= 1e-13
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda t: mpmath.diff(lambda u: mpmath.coulombf(-0.4, -4, u), t),
                                   res.value)
            assert lo <= root <= hi

    @pytest.mark.parametrize("beta", [0.5, 1e-300])
    def test_nonzero_beta_is_rejected(self, beta):
        # univalence is the starlike radius at beta = 0; a query may not carry
        # another beta that the solver would then ignore
        with pytest.raises(ValueError, match="beta"):
            RadiusQuery(P00, "g", "univalent", beta)

    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"L{p.L}_eta{p.eta}")
    def test_radius_is_the_first_zero_of_the_derivative_target(self, params):
        # r g'/g and r F'/F vanish with g' and F': the univalence radius of
        # each kind is the first positive zero of its derivative target
        for kind in Kind:
            x = find_zeros(params, derivative_target(kind), 1, 0).positive[0]
            value = radius(RadiusQuery(params, kind, "univalent")).value
            assert abs(value - x) <= 1e-12 * max(1.0, x)

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
            assert ratio.value < domain_cap(q)
            direct = radius(q, form="direct").value
            assert abs(ratio.value - direct) <= 1e-13 * max(1.0, ratio.value)

    def test_univalence_equals_starlike_at_beta_zero(self):
        params = CoulombParams(1.0, -1.0)
        for kind in ("g", "f"):
            st = radius(RadiusQuery(params, kind, "starlike", 0.0))
            un = radius(RadiusQuery(params, kind, "univalent"))
            assert un.value == pytest.approx(st.value, abs=1e-11)


class TestEvaluationCounts:
    def test_series_evaluations_per_radius(self, evaluations):
        # deterministic gate on the solver: the scan up to the step that
        # brackets the radius, the Halley steps of the radius from that step
        # and the residual, over every query shape at (0.5, -1), univalent at
        # beta = 0 only.  Every radius there, and each point of its solve,
        # lies within the reach of the origin's table: no sum (mean 4.3, max
        # 5 when the scan ran on to the cap; 11.65 and 13 with every point
        # summed, 19.35 and 20 when the radius was a second ITP solve on
        # [0, cap])
        params = CoulombParams(0.5, -1.0)
        counts = []
        for kind in ("f", "g"):
            for prop in ("starlike", "convex", "univalent"):
                for beta in (0.0,) if prop == "univalent" else (0.0, 0.5):
                    for form in ("ratio", "direct"):
                        evaluations.clear()
                        radius(RadiusQuery(params, kind, prop, beta), form=form)
                        counts.append(len(evaluations))
        assert max(counts) == 0


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
        query = RadiusQuery(CoulombParams(L, eta), kind, prop, 0.0)
        res = radius(query)
        assert domain_cap(query) is None
        assert res.flags == ()  # the cap is its own query; the CLI flags its absence
        cap_target = ZeroTarget.F if prop == "starlike" else ZeroTarget.F_PRIME
        assert find_zeros(CoulombParams(L, eta), cap_target, 1, 0).positive == ()
        r = res.value
        h = self.equations(mpmath, L, eta)[kind, prop]
        d = 1e-9 * r
        assert h(r - d) > 0 > h(r + d), (kind, L, eta, r)
        assert all(h(r * k / 16) > 0 for k in range(1, 16)), (kind, L, eta, r)

    @pytest.mark.parametrize("L", [60.0, 80.0, 100.0])
    def test_radius_beyond_the_range_is_a_convergence_error(self, L):
        # below the turning point sqrt(L(L+1)) > 55 at eta = 0, F and F' stay
        # positive, so r F'/F > 0 up to |z| = 55: no scan step brackets the
        # f-starlike radius, and the error names the range
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(ConvergenceError, match=r"the scan ends at \|z\| = 55, or where"):
            radius(RadiusQuery(CoulombParams(L, 0.0), "f", "starlike"))
        assert mpmath.diff(lambda t: mpmath.coulombf(L, 0.0, t), 55.0) > 0

    def test_direct_form_agrees(self):
        for kind, prop, L, eta in (("g", "starlike", 48.0, 0.0), ("f", "convex", 60.0, -1.0)):
            q = RadiusQuery(CoulombParams(L, eta), kind, prop, 0.0)
            a, b = radius(q, form="ratio"), radius(q, form="direct")
            assert abs(a.value - b.value) <= 1e-13 * a.value
            assert domain_cap(q) is None


class TestDomainCap:
    """The cap is the first positive pole; for eta <= 0 it is also the
    smallest-modulus zero, so no radius needs the negative axis."""

    CASES = [("g", "starlike", ZeroTarget.F), ("f", "convex", ZeroTarget.F_PRIME),
             ("g", "convex", ZeroTarget.G_PRIME)]

    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"L{p.L}_eta{p.eta}")
    def test_cap_is_the_smallest_modulus_zero(self, params):
        for kind, prop, target in self.CASES:
            cap = domain_cap(RadiusQuery(params, kind, prop, 0.0))
            zs = find_zeros(params, target, 1, 1)
            assert abs(cap - min(zs.positive[0], -zs.negative[0])) <= 1e-12

    # (L, eta, kind, property, beta, form) with the result the solve gives:
    # value, bracket and residual as hex floats, and the iterations; each
    # bracket holds the 50-digit root of the direct form (TestBracketHoldsTheRoot)
    # and the value lies within 4e-14 of it (the first lands on an exact zero
    # of its equation)
    HOLDS_THE_CAP = [
        ((0.5, -1.0, "f", "convex", 0.0, "ratio"),
         ("0x1.1bd01caac6b9cp-1", "0x1.1bd01caac6b92p-1", "0x1.1bd01caac6ba6p-1",
          "0x0.0p+0", 3)),
        ((0.0, 0.0, "g", "convex", 0.5, "ratio"),
         ("0x1.4e798f9ffa915p-1", "0x1.4e798f9ffa7adp-1", "0x1.4e798f9ffaa7dp-1",
          "0x1.3e80000000000p-44", 8)),
        ((-0.9470250013088233, -2.651393115070862, "g", "convex", 0.0, "direct"),
         ("0x1.5093b4a355112p-8", "0x1.5093b4a34e05fp-8", "0x1.5093b4a35c1c6p-8",
          "-0x1.4caf000000000p-38", 5)),
    ]

    @pytest.mark.parametrize("case,pinned", HOLDS_THE_CAP,
                             ids=[f"{c[2]}-{c[3]}-L{c[0]:.3g}-eta{c[1]:.3g}"
                                  for c, _ in HOLDS_THE_CAP])
    def test_a_bracketing_step_that_holds_the_cap(self, case, pinned):
        # the scan step that brackets the radius holds x1 too, so the solve
        # refines x1 and takes [t_prev, x1] as its bracket
        L, eta, kind, prop, beta, form = case
        query = RadiusQuery(CoulombParams(L, eta), kind, prop, beta)
        res = radius(query, form=form)
        cap = domain_cap(query)
        step = next(s for s in scan(Evaluator(query.params), derivative_target(kind))
                    if s.zero is not None)
        assert step.zero == cap and step.t_prev < res.bracket[0] < res.value < cap
        value, lo, hi, residual, iterations = pinned
        assert (res.value, res.bracket, res.residual, res.iterations) == (
            float.fromhex(value), (float.fromhex(lo), float.fromhex(hi)),
            float.fromhex(residual), iterations)


class TestUnsafe:
    def test_region_violation_requires_unsafe(self):
        with pytest.raises(CoulombDomainError):
            CoulombParams(0.0, 0.5)

    def test_unsafe_result_carries_no_certificate(self):
        params = CoulombParams(0.0, 0.1, unsafe=True)
        res = radius(RadiusQuery(params, "g", "starlike", 0.0))
        assert "no-certificate" in res.flags
        assert res.value > 0.0

    def test_a_rising_ratio_is_refused(self):
        # at (0.5, 2) r g'/g = r F'/F - L rises between two points the solver
        # visits (mpmath: 1.0807 at 0.0625, 2.1081 at 1.6333), so no radius is
        # returned
        mpmath = pytest.importorskip("mpmath")
        query = RadiusQuery(CoulombParams(0.5, 2.0, unsafe=True), "g", "starlike", 0.0)
        with pytest.raises(MonotonicityError, match=r"between r=0\.0625 and r=1\.6333") as exc:
            radius(query)
        r1, r2 = (float(r) for r in re.findall(r"r=([0-9.]+)", str(exc.value)))
        with mpmath.workdps(30):
            F = lambda t: mpmath.coulombf(0.5, 2.0, t)  # noqa: E731
            ratio = [float(r * mpmath.diff(F, r) / F(r)) - 0.5 for r in (r1, r2)]
        assert ratio == pytest.approx([1.0807, 2.1081], abs=1e-4)


class TestBracketHoldsTheRoot:
    """Every radius bracket straddles the root of the exact equation.

    The oracle shares no code with the package: (P, r P', r^2 P'') summed
    from the coefficient recurrence at 50 digits, and (N, D) formed as in the
    equations.radius_terms docstring; the direct form N - beta D has the sign
    of the ratio form wherever D > 0, and stays finite at the domain cap."""

    GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "cli_golden.json")

    @staticmethod
    def direct_form(mp, L, eta, kind, prop, beta, r):
        with mp.workdps(50):
            Lm, em, rm = mp.mpf(L), mp.mpf(eta), mp.mpf(r)
            t2, t1 = mp.mpf(0), mp.mpf(1)
            p0, p1, p2 = mp.mpf(1), mp.mpf(0), mp.mpf(0)  # P, r P', r^2 P''
            n = 0
            while n <= 2 * abs(r) + 10 or (abs(t1) + abs(t2)) * n * n > mp.mpf(10) ** -45:
                n += 1
                t = (2 * em * rm * t1 - rm * rm * t2) / (n * (n + 2 * Lm + 1))
                p0, p1, p2 = p0 + t, p1 + n * t, p2 + n * (n - 1) * t
                t2, t1 = t1, t
            s = Lm if kind == "f" else mp.mpf(0)
            b = p1 + (s + 1) * p0
            if prop != "convex":
                num, den = b, (s + 1) * p0
            elif kind == "g":
                num, den = p0 + 3 * p1 + p2, b
            else:
                f2 = Lm * (Lm + 1) * p0 + 2 * (Lm + 1) * p1 + p2
                num, den = (Lm + 1) * p0 * (f2 + b) - Lm * b * b, (Lm + 1) * p0 * b
            return num - beta * den

    def assert_straddles(self, mp, L, eta, kind, prop, beta, form, bracket):
        lo, hi = bracket
        h = functools.partial(self.direct_form, mp, L, eta, kind, prop, beta)
        assert h(lo) >= 0 >= h(hi), (L, eta, kind, prop, beta, form, bracket)

    def test_golden_brackets(self):
        # each radius result of the golden file, at most 2e-13 max(1, r) wide
        mp = pytest.importorskip("mpmath")
        with open(self.GOLDEN) as fh:
            golden = json.load(fh)
        checked = 0
        for name, case in golden.items():
            if not name.startswith("radius-"):
                continue
            argv = case["argv"]
            kind, prop, form = (argv[argv.index(flag) + 1] if flag in argv else "ratio"
                                for flag in ("--kind", "--property", "--form"))
            out = json.loads(case["stdout"])
            for point in out.get("results", [out]):
                params, result = point["params"], point["result"]
                lo, hi = result["bracket"]
                assert hi - lo <= 2e-13 * max(1.0, result["value"]), (name, lo, hi)
                self.assert_straddles(mp, params["L"], params["eta"], kind, prop,
                                      params["beta"], form, (lo, hi))
                checked += 1
        assert checked == 42

    def test_random_queries(self):
        # three seeded (L, eta) per kind x property x beta x form: L in
        # (-1, 5], (-1/2, 5] for f-convex, and eta in [-12, 0]
        mp = pytest.importorskip("mpmath")
        rng = random.Random(28)
        for kind in ("f", "g"):
            for prop in ("starlike", "convex", "univalent"):
                for beta in (0.0,) if prop == "univalent" else (0.0, 0.25, 0.5, 0.75):
                    for form in ("ratio", "direct"):
                        for _ in range(3):
                            L = 5.0 - rng.random() * (5.5 if (kind, prop) == ("f", "convex")
                                                      else 6.0)
                            eta = -12.0 * rng.random()
                            res = radius(RadiusQuery(CoulombParams(L, eta), kind, prop, beta),
                                         form=form)
                            self.assert_straddles(mp, L, eta, kind, prop, beta, form,
                                                  res.bracket)

    def test_a_widening_below_half_an_ulp_keeps_the_root(self, monkeypatch):
        # the refine is made to close on the double just below the root of the
        # g-starlike equation at (48, 0), and the residual there to carry a
        # floor whose widening noise/|slope| is 0.4 ulp, as a summed residual
        # does (7.2e-16 against half an ulp of 8.9e-16): rounded to nearest,
        # both ends would fall back onto that double and miss the root; each
        # end steps one double outward instead
        mp = pytest.importorskip("mpmath")
        from coulomb_radii import equations, radii

        L, eta = 48.0, 0.0
        h = functools.partial(self.direct_form, mp, L, eta, "g", "starlike", 0.0)
        with mp.workdps(50):
            root = mp.findroot(h, (mp.mpf(9.9), mp.mpf(9.91)), solver="anderson")
        x = float(root)
        x = x if x < root else math.nextafter(x, 0.0)
        refine, equation = radii.refine_bracket, equations.equation

        def collapsed(*args):
            found = refine(*args)
            return type(found)(root=x, lo=x, hi=x, iterations=found.iterations)

        def sharp(num, den, noise_n, noise_d, r, beta, form):
            jet, noise = equation(num, den, noise_n, noise_d, r, beta, form)
            return jet, (0.4 * math.ulp(x) * abs(jet[1]) if r == x else noise)

        monkeypatch.setattr(radii, "refine_bracket", collapsed)
        monkeypatch.setattr(equations, "equation", sharp)
        lo, hi = radius(RadiusQuery(CoulombParams(L, eta), "g", "starlike", 0.0)).bracket
        assert lo < x < hi
        self.assert_straddles(mp, L, eta, "g", "starlike", 0.0, "ratio", (lo, hi))
