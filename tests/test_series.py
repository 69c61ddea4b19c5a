"""Series core: coefficients, evaluation, ratios; the series against the Bessel oracle."""

import math
import random
import sys
import threading
from array import array
from fractions import Fraction

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
    coefficients,
    conv_ratio,
    eval_point,
    eval_series,
    star_ratio,
)
from coulomb_radii.equations import ZeroTarget, noise_limited, target_jet
from coulomb_radii.verify import bessel_j
from coulomb_radii.zeros import find_zeros

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

    @pytest.mark.parametrize("L, eta", [
        (4 + 1j, 0.5), (3 + 1j, 0.25), (5 + 2j, 1.0), (2 + 0.5j, -0.5), (0.3 + 0.7j, -1.5 + 0.4j),
    ])
    def test_complex_coefficients_match_the_plain_loop(self, L, eta):
        # the recurrence as written, converting and doubling inside the loop:
        # hoisting those must leave every coefficient bit-identical
        want = [1.0 + 0j, complex(eta) / (complex(L) + 1.0)]
        for n in range(2, 1537):
            den = n * (n + 2.0 * complex(L) + 1.0)
            want.append((2.0 * complex(eta) * want[n - 1] - want[n - 2]) / den)
        assert series.complex_coefficients(L, eta, 1536) == tuple(want)


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

    def test_shared_memo_under_threads(self):
        # twenty parameter pairs over four threads, read from eval_point's
        # memo after one serial pass fills it: every value equals the serial one
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

    def test_growth_under_threads(self):
        # four threads evaluate one pair at |z| from 0.5 to 44 at once, in
        # scattered orders, filling eval_point's memo from empty: every value
        # equals a serial sum made apart from the memo
        params = CoulombParams(0.3, -2.0)
        zs = [0.5 + 1.5 * k for k in range(30)]
        expected = {z: repr(series.sum_point(params, z)) for z in zs}
        errors = []

        def worker(offset):
            for i in range(len(zs)):
                z = zs[(7 * i + offset) % len(zs)]
                if repr(eval_point(params, z)) != expected[z]:
                    errors.append(z)

        eval_point.cache_clear()
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

    def test_noise_limited_value_is_the_flagged_one(self):
        # at (0.5, -2000), z = 1 the terms reach 1e55 and P = -3.54e-5: the sum
        # takes more than 192 bits and returns mpmath's double, unflagged.  At
        # (0, -6000), z = 50 the bound asks for more than the 2048-bit cap, so
        # the value keeps a bound far above it and equations.noise_limited
        # flags it
        sv = eval_point(CoulombParams(0.5, -2000.0), 1.0)
        want = mpmath_series(0.5, -2000.0, 1.0)
        assert (sv.p0, sv.p1, sv.p2) == want
        assert sv.p0 == pytest.approx(-3.540304e-05, rel=1e-6)
        assert not noise_limited(sv.p0, sv.noise[0])
        sv = eval_point(CoulombParams(0.0, -6000.0), 50.0)
        assert noise_limited(sv.p0, sv.noise[0])
        assert sv.noise[0] > 1e6

    def test_small_z_floors_cover_the_double_error(self):
        # at |z| = 5e-13 the sums of z P' and z^2 P'' start at z and z^2, and
        # each value, p0 included, lies within its bound of a 50-digit sum
        mp = pytest.importorskip("mpmath")
        L, eta, z = 0.3, -1.2, 5e-13
        sv = eval_point(CoulombParams(L, eta), z)
        with mp.workdps(50):
            Lm, em, zm = mp.mpf(L), mp.mpf(eta), mp.mpf(z)
            a = [mp.mpf(1), em / (Lm + 1)]
            for n in range(2, 40):
                a.append((2 * em * a[n - 1] - a[n - 2]) / (n * (n + 2 * Lm + 1)))
            errors = (
                abs(sv.p0 - sum(a[n] * zm ** n for n in range(40))),
                abs(sv.p1 - sum(n * a[n] * zm ** (n - 1) for n in range(1, 40))),
                abs(sv.p2 - sum(n * (n - 1) * a[n] * zm ** (n - 2) for n in range(2, 40))),
            )
        assert errors[0] <= sv.noise[0]
        assert errors[1] <= sv.noise[1]
        assert errors[2] <= sv.noise[2]

    def test_wide_grid_against_mpmath(self):
        # eta from 0 to -2000, |z| up to 55, both signs: each of p0, p1, p2
        # lies within its bound of an mpmath sum carried at the digits the
        # largest term needs (plus the half ulp to which that sum is rounded
        # for the comparison); where P itself is beyond the double range
        # (deep in the forbidden region of the reflected axis), evaluation
        # raises ConvergenceError
        checked = 0
        for L in (-0.7, 0.0, 2.5, 9.0):
            for eta in (0.0, -0.5, -3.0, -25.0, -300.0, -2000.0):
                for z in (0.7, -3.3, 12.9, -21.0, 37.5, 55.0, -55.0):
                    want = mpmath_series(L, eta, z)
                    if any(math.isinf(w) for w in want):
                        with pytest.raises(ConvergenceError):
                            eval_point(CoulombParams(L, eta), z)
                        continue
                    sv = eval_point(CoulombParams(L, eta), z)
                    for k, (got, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                        # the bound is on the exact value; w is it rounded once
                        assert abs(got - w) <= sv.noise[k] + 0.5 * math.ulp(w), (L, eta, z, k)
                    checked += 1
        assert checked >= 150


def _mp_series(mp, L, eta, z):
    """(P, P') at z as mpmath numbers at the working precision."""
    t2, t1 = mp.mpf(0), mp.mpf(1)
    s0, s1 = mp.mpf(1), mp.mpf(0)
    n = 0
    while True:
        n += 1
        t = (2 * eta * z * t1 - z * z * t2) / (n * (n + 2 * L + 1))
        s0, s1 = s0 + t, s1 + n * t
        t2, t1 = t1, t
        if n > 2 * abs(z) + 10 and (abs(t1) + abs(t2)) * n * n < mp.mpf(10) ** (-mp.mp.dps - 5):
            return s0, s1 / z


def mpmath_series(L, eta, z):
    """(P, P', P'') at z as doubles, summed by mpmath at the digits the
    largest term, about e^(|z| + 2 sqrt(2 |eta z|)), leaves to spare; a value
    beyond the double range comes back infinite."""
    mp = pytest.importorskip("mpmath")
    digits = 40 + int((abs(z) + 2.0 * math.sqrt(2.0 * abs(eta * z))) / 2.3)
    with mp.workdps(digits):
        Lm, em, zm = mp.mpf(L), mp.mpf(eta), mp.mpf(z)
        t2, t1 = mp.mpf(0), mp.mpf(1)
        s0, s1, s2 = mp.mpf(1), mp.mpf(0), mp.mpf(0)
        n = 0
        while True:
            n += 1
            t = (2 * em * zm * t1 - zm * zm * t2) / (n * (n + 2 * Lm + 1))
            s0, s1, s2 = s0 + t, s1 + n * t, s2 + n * (n - 1) * t
            t2, t1 = t1, t
            if n > 2 * abs(z) + 10 and (abs(t1) + abs(t2)) * n * n < mp.mpf(10) ** (5 - digits):
                break
        out = []
        for v in (s0, s1 / zm, s2 / zm ** 2):
            try:
                out.append(float(v))
            except OverflowError:
                out.append(math.inf)
        return tuple(out)


# --- exact references: coefficients in fractions.Fraction, sums in mpmath ----


def reference_coefficients(params, n_max):
    L, eta = Fraction(params.L), Fraction(params.eta)
    a = [Fraction(1), eta / (L + 1)]
    for n in range(2, n_max + 1):
        a.append((2 * eta * a[n - 1] - a[n - 2]) / (n * (n + 2 * L + 1)))
    return tuple(float(x) for x in a[:n_max + 1])


def outcome(fn, *args):
    # repr of the result, or the error's type, message and index
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc).__name__, str(exc), getattr(exc, "n", None))


def fields(sv):
    return (sv.p0, sv.p1, sv.p2, sv.truncation_terms, sv.tail_estimate, sv.noise)


class TestPointMemo:
    """eval_point's memo: keyed by the exact (L, eta, float(z)), bounded,
    never holding an error, and out of reach of the zero scan and the radius
    solve."""

    def test_warm_value_is_the_cold_one(self):
        params = CoulombParams(0.5, -1.0)
        for z in (0.3, -7.9, 31.4):
            eval_point.cache_clear()
            cold = eval_point(params, z)
            warm = eval_point(params, z)
            assert warm is cold
            assert fields(warm) == fields(cold) == fields(series.sum_point(params, z))

    def test_second_call_sums_nothing(self, evaluations):
        params = CoulombParams(2.5, -3.0)
        eval_point(params, 12.5)
        eval_point(params, 12.5)
        eval_point(CoulombParams(2.5, -3.0), 12.5)
        assert evaluations == [12.5]

    def test_equal_abscissae_share_an_entry(self, evaluations):
        params = CoulombParams(0.7, -1.3)
        assert fields(eval_point(params, 0.0)) == fields(eval_point(params, -0.0))
        assert fields(eval_point(params, 1)) == fields(eval_point(params, 1.0))
        assert evaluations == [0.0, 1.0]
        assert type(evaluations[1]) is float
        assert eval_point.cache_info().currsize == 2

    def test_errors_are_raised_on_every_call(self):
        eval_point.cache_clear()
        for k in range(3):
            with pytest.raises(ConvergenceError):
                eval_point(P0M1, 60.0)
            with pytest.raises(ValueError):
                eval_point(P0M1, math.nan)
            info = eval_point.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 2 * (k + 1), 0)

    def test_memo_stays_within_its_bound(self):
        eval_point.cache_clear()
        bound = eval_point.cache_info().maxsize
        assert bound == 512
        for k in range(bound + 100):
            eval_point(P0M1, 1e-3 * (k + 1))
            assert eval_point.cache_info().currsize == min(k + 1, bound)
        # the oldest points left first
        misses = eval_point.cache_info().misses
        eval_point(P0M1, 1e-3 * (bound + 100))
        eval_point(P0M1, 1e-3)
        assert eval_point.cache_info().misses == misses + 1

    def test_queries_never_reach_the_memo(self):
        from coulomb_radii.radii import RadiusQuery, radius
        from coulomb_radii.rayleigh import euler_rayleigh_bounds

        params = CoulombParams(0.5, -1.0)
        eval_point.cache_clear()
        eval_point(params, 2.0)
        before = eval_point.cache_info()
        find_zeros(params, ZeroTarget.F, 3, 3)
        find_zeros(CoulombParams(2.0, -20.0), ZeroTarget.G_PRIME, 0, 2)
        for kind, prop, beta in (("g", "starlike", 0.5), ("f", "convex", 0.0)):
            radius(RadiusQuery(params, kind, prop, beta))
            radius(RadiusQuery(params, kind, prop, beta), form="direct")
        euler_rayleigh_bounds(params, "g", 4)
        assert eval_point.cache_info() == before


class TestLocalSums:
    """eval_near: P summed about a direct sum's point, against mpmath."""

    def check(self, params, base, hs):
        # each value lies within its bound of mpmath's, rounded; returns how
        # many were summed about the base
        local = 0
        z0 = base._base[2]
        for h in hs:
            z = z0 + h
            want = mpmath_series(params.L, params.eta, z)
            if abs(z) > series.EVAL_Z_MAX or any(map(math.isinf, want)):
                continue
            sv = series.eval_near(base, z)
            local += sv._base is None
            for k, (got, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                assert abs(got - w) <= sv.noise[k] + 0.5 * math.ulp(w), (params, z0, h, k)
        return local

    def test_grid_against_mpmath(self):
        # L from -0.9 to 9, eta from 0 to -25, both axes; h from tol/4 up to
        # the reach of the local sum, on both sides of the base
        tried = local = 0
        for L in (-0.9, 0.0, 2.5, 9.0):
            for eta in (0.0, -3.0, -25.0):
                params = CoulombParams(L, eta)
                for z0 in (2.9, -7.3, 21.7, -38.1):
                    try:
                        base = eval_point(params, z0)
                    except ConvergenceError:  # P beyond the double range
                        continue
                    reach = 0.99 * series._reach(base)
                    hs = (2.5e-13, -3e-7, 0.4 * reach, -reach)
                    local += self.check(params, base, hs)
                    tried += len(hs)
        assert tried >= 150
        assert local >= 0.6 * tried

    def test_bases_next_to_zeros_of_P_and_P_prime(self):
        # a base within 1e-9 of a zero of P or of P' (so |P| or |P'| is some
        # 1e-9 of its size), and points from tol/4 to the reach on both sides
        local = tried = 0
        for L, eta in ((0.5, -1.0), (-0.9, -25.0), (9.0, -3.0)):
            params = CoulombParams(L, eta)
            zs = find_zeros(params, ZeroTarget.F, 4, 3)
            points = list(zs.positive + zs.negative)
            # P' changes sign between consecutive zeros of P
            for side in (zs.positive, zs.negative):
                for lo, hi in zip(side, side[1:]):
                    neg = eval_point(params, lo).p1 < 0.0
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        lo, hi = (mid, hi) if (eval_point(params, mid).p1 < 0.0) == neg else (lo, mid)
                    points.append(lo)
            for x in points:
                base = eval_point(params, x + 1e-9)
                reach = 0.99 * series._reach(base)
                hs = (2.5e-13, -2.5e-13, 1e-4, -0.5 * reach, reach)
                local += self.check(params, base, hs)
                tried += len(hs)
        assert tried >= 100
        assert local >= 0.6 * tried

    def test_tail_estimate_bounds_the_discarded_tail(self):
        # the Taylor coefficients about z0 from the recurrence in mpmath,
        # started at mpmath's P(z0) and P'(z0): the terms past the last one
        # summed add up to at most tail_estimate
        mp = pytest.importorskip("mpmath")
        checked = 0
        for L, eta, z0, hs in ((0.5, -1.0, 10.3, (0.2, -0.4)), (-0.9, -25.0, 3.1, (0.02, -0.025)),
                               (9.0, -3.0, -21.7, (0.6, -0.9)), (2.5, 0.0, 37.1, (1.1, -0.4))):
            base = eval_point(CoulombParams(L, eta), z0)
            with mp.workdps(60):
                Lm, em, wm = mp.mpf(L), mp.mpf(eta), mp.mpf(z0)
                c = [None, *_mp_series(mp, Lm, em, wm)[:2]]
                for k in range(0, 200):
                    c.append((-(k + 1) * (k + 2 * Lm + 2) * c[k + 2] - (wm - 2 * em) * c[k + 1]
                              - (c[k] if k else 0)) / (wm * (k + 2) * (k + 1)))
                c = c[1:]
                for h in hs:
                    sv = series.eval_near(base, z0 + h)
                    assert sv._base is None, (L, eta, z0, h)
                    hm = mp.mpf(z0 + h) - wm
                    tail = sum(c[k] * hm ** k for k in range(sv.truncation_terms, 200))
                    assert abs(tail) <= sv.tail_estimate, (L, eta, z0, h)
                    checked += 1
        assert checked == 8

    def test_local_values_are_no_base(self):
        params = CoulombParams(0.5, -1.0)
        near = series.eval_near(eval_point(params, 10.0), 10.1)
        assert near._base is None
        with pytest.raises(ValueError):
            series.eval_near(near, 10.2)

    def test_base_at_the_origin_is_summed_directly(self, evaluations):
        params = CoulombParams(0.5, -1.0)
        origin = eval_point(params, 0.0)
        evaluations.clear()
        sv = series.eval_near(origin, 0.3)
        assert evaluations == [0.3]
        assert sv._base is not None  # a direct sum
        assert repr(sv) == repr(eval_point(params, 0.3))

    def test_far_point_is_summed_directly(self, evaluations):
        # h/z0 = 0.5: 128 terms estimated against the base's 59
        params = CoulombParams(0.5, -1.0)
        base = eval_point(params, 10.0)
        sv = series.eval_near(base, 15.0)
        assert sv._base is not None
        assert repr(sv) == repr(eval_point(params, 15.0))


class TestCounting:
    """series.counting(): the record of the sums made inside a block."""

    def test_find_zeros_record(self):
        with series.counting() as counts:
            find_zeros(CoulombParams(0.5, -1.0), ZeroTarget.F, 10, 10)
        totals = counts.totals()
        assert (totals["evals"], totals["local_evals"], totals["terms"],
                totals["refine_steps"]) == (117, 56, 5925, 70)
        assert totals["local_fallbacks"] == 0

    def test_radius_record(self):
        from coulomb_radii.radii import RadiusQuery, radius

        with series.counting() as counts:
            radius(RadiusQuery(CoulombParams(0.5, -1.0), "g", "starlike", 0.5))
        totals = counts.totals()
        assert (totals["evals"], totals["terms"], totals["refine_steps"]) == (12, 307, 6)
        assert totals["local_evals"] == totals["base_terms"] == 0

    def test_radius_solve_sums_from_the_origin(self):
        # at (60, -1) the f-convex solve summed 4 of its points about a scan
        # step, each carrying that step's sum deeper first
        from coulomb_radii.radii import RadiusQuery, radius

        with series.counting() as counts:
            res = radius(RadiusQuery(CoulombParams(60.0, -1.0), "f", "convex", 0.0))
        assert counts.local_evals == counts.base_terms == 0
        assert res.value == 39.54609038197775

    def test_nothing_is_recorded_outside_a_block(self):
        params = CoulombParams(0.5, -1.0)
        with series.counting() as counts:
            pass
        assert series._record.get() is None
        find_zeros(params, ZeroTarget.F, 2, 2)
        series.eval_near(series.sum_point(params, 10.0), 10.1)
        assert counts == series.SumCounts()

    def test_failed_sum_counts_with_no_terms(self):
        with series.counting() as counts:
            with pytest.raises(ConvergenceError):
                series.sum_point(P0M1, 60.0)
        assert counts.points == [60.0] and counts.terms == 0

    def test_nested_block_adds_to_the_enclosing_one(self):
        params = CoulombParams(0.5, -1.0)
        with series.counting() as outer:
            series.sum_point(params, 1.0)
            with series.counting() as inner:
                find_zeros(params, ZeroTarget.F, 1, 0)
                assert outer.points == [1.0] and outer.refine_steps == 0
            assert len(inner.points) > 1 and inner.refine_steps > 0
        assert outer.points == [1.0, *inner.points]
        assert outer.terms == series.sum_point(params, 1.0).truncation_terms + inner.terms
        assert outer.refine_steps == inner.refine_steps

    def test_other_threads_count_only_in_a_copy_of_the_context(self):
        import contextvars

        params = CoulombParams(0.5, -1.0)
        with series.counting() as counts:
            plain = threading.Thread(target=series.sum_point, args=(params, 2.0))
            plain.start()
            plain.join(timeout=60)
            assert not plain.is_alive() and counts.points == []
            copied = threading.Thread(target=contextvars.copy_context().run,
                                      args=(series.sum_point, params, 3.0))
            copied.start()
            copied.join(timeout=60)
            assert not copied.is_alive()
        assert counts.points == [3.0]


class TestInlinedKernels:
    """The integer loops of coefficients and eval_series against exact
    references: the recurrence in fractions, and mpmath sums."""

    @staticmethod
    def grid():
        rng = random.Random(20261018)
        points = [(0.0, 0.0), (0.5, -1.0), (12.0, 0.0), (-0.99, -40.0), (0.3, 5.0)]
        # L in (-1, 12], eta in [-40, 5]
        points += [(12.0 - 13.0 * rng.random(), rng.uniform(-40.0, 5.0)) for _ in range(60)]
        return [CoulombParams(L, eta, unsafe=True) for L, eta in points]

    @staticmethod
    def abscissae(rng):
        return [0.0, 1e-200, -1e-200, rng.uniform(-1e-12, 1e-12), rng.uniform(-1.0, 0.0),
                rng.uniform(0.0, 5.0), rng.uniform(-50.0, -5.0), rng.uniform(5.0, 50.0),
                rng.choice((-50.0, 50.0))]

    def test_tables_match(self):
        # each a_n is its exact value rounded once
        for k, params in enumerate(self.grid()):
            n_max = 64 if k % 8 else 256
            assert coefficients(params, n_max).a == reference_coefficients(params, n_max), params

    def test_sums_match(self):
        # the table's length plays no part, and every value lies within its
        # bound of mpmath's, rounded (P'(0) = a_1 and P''(0) = 2 a_2 at the
        # origin)
        rng = random.Random(55)
        for params in self.grid()[::4]:
            tables = [coefficients(params, n) for n in (1, 256)]
            for z in self.abscissae(rng):
                got = outcome(eval_series, tables[0], z)
                assert got == outcome(eval_series, tables[1], z) == outcome(eval_point, params, z)
                if isinstance(got, tuple):  # P beyond the double range
                    assert got[0] == "ConvergenceError" and any(
                        map(math.isinf, mpmath_series(params.L, params.eta, z))), (params, z)
                    continue
                sv = eval_point(params, z)
                if z == 0.0:
                    a = reference_coefficients(params, 2)
                    want = (1.0, a[1], 2.0 * a[2])
                else:
                    want = mpmath_series(params.L, params.eta, z)
                for k, (v, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                    assert abs(v - w) <= sv.noise[k] + 0.5 * math.ulp(w), (params, z, k)

    def test_same_errors(self):
        table = coefficients(P0M1, 256)
        for z in (55.5, -60.0, 1e3):
            got = outcome(eval_series, table, z)
            assert got == outcome(eval_point, P0M1, z)
            assert got[0] == "ConvergenceError"
        for L in (-1.5, -2.5):
            params = CoulombParams(L, -1.0, unsafe=True)
            got = outcome(coefficients, params, 64)
            assert got == outcome(eval_point, params, 0.5)
            assert got[0] == "DegenerateRecurrenceError" and got[2] == -(2 * L + 1)
            with pytest.raises(ZeroDivisionError):
                reference_coefficients(params, 64)


class TestTableContinuation:
    """A table's values do not depend on its length, and an evaluation does not
    depend on what was evaluated before."""

    def test_continued_tables_match_fresh(self):
        # every table is the start of each longer one, bit for bit
        for params in TestInlinedKernels.grid()[::4]:
            longest = coefficients(params, 256)
            for n_max in range(32, 257, 16):
                # the bytes of every double: -0.0 and NaNs told apart
                assert (array("d", coefficients(params, n_max).a).tobytes()
                        == array("d", longest.a[:n_max + 1]).tobytes()), (params, n_max)

    def test_degenerate_index_matches_past_the_start_size(self):
        # n(n+2L+1) = 0 at n = 40 for L = -20.5: every table that reaches it,
        # and every evaluation, reports that index
        params = CoulombParams(-20.5, -1.0, unsafe=True)
        for n_max in (40, 48, 64):
            got = outcome(coefficients, params, n_max)
            assert got[0] == "DegenerateRecurrenceError" and got[2] == 40
        assert coefficients(params, 39).a == reference_coefficients(params, 39)

    def test_eval_point_refuses_a_degenerate_recurrence(self):
        # the tail bound needs n + 2L + 2 > 0, so no sum stops short of a_40
        with pytest.raises(DegenerateRecurrenceError) as exc:
            eval_point(CoulombParams(-20.5, -1.0, unsafe=True), 0.5)
        assert exc.value.n == 40

    def test_evaluation_sequence_matches_fresh_memo(self):
        # a small |z|, a jump to 50, a small |z| again: each value equals the
        # one of the reversed sequence, and eval_series on a table of any length
        params = CoulombParams(0.5, -1.0)
        zs = (0.5, 50.0, 1.0)
        in_sequence = [repr(eval_point(params, z)) for z in zs]
        assert in_sequence == [repr(eval_point(params, z)) for z in reversed(zs)][::-1]
        for n_max in (1, 8, 256):
            table = coefficients(params, n_max)
            assert in_sequence == [repr(eval_series(table, z)) for z in zs]

    def test_cold_far_evaluation_is_one_sum(self, evaluations):
        # one sum per evaluation, at any |z|; the value is mpmath's double in
        # all three places
        sv = eval_point(CoulombParams(0.5, -1.0), 50.0)
        assert evaluations == [50.0]
        assert (sv.p0, sv.p1, sv.p2) == mpmath_series(0.5, -1.0, 50.0)
        assert repr(sv) == (
            "SeriesValue(p0=-0.00038823599095620453, p1=-0.0013756501456219433, "
            "p2=0.0004863044393317693, truncation_terms=175, "
            "tail_estimate=3.3087224532935986e-24, noise=(2.7108363059834453e-20, "
            "1.0843179787811117e-19, 2.7145354576862276e-20))")


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


    def test_ratios_against_mpmath_off_eta_zero(self):
        # the four defining ratios against mpmath.coulombf and mpmath.diff, at
        # 0.2, 0.5 and 0.9 of each one's cap (first zero of F, g' or F'); with
        # g = F t^(-L), r g'/g = r F'/F - L
        mp = pytest.importorskip("mpmath")
        from coulomb_radii.zeros import find_zeros
        for L in (-0.4, 0.5, 2.5):
            for eta in (-1.0, -5.0, -12.0):
                params = CoulombParams(L, eta)
                with mp.workdps(30):
                    Lm, em = mp.mpf(L), mp.mpf(eta)
                    F = lambda t: mp.coulombf(Lm, em, t)  # noqa: E731
                    g = lambda t: F(t) * t ** -Lm  # noqa: E731
                    cases = [
                        (star_ratio, "g", ZeroTarget.F,
                         lambda r: r * mp.diff(F, r) / F(r) - Lm),
                        (star_ratio, "f", ZeroTarget.F,
                         lambda r: r * mp.diff(F, r) / F(r) / (Lm + 1)),
                        (conv_ratio, "g", ZeroTarget.G_PRIME,
                         lambda r: 1 + r * mp.diff(g, r, 2) / mp.diff(g, r)),
                        (conv_ratio, "f", ZeroTarget.F_PRIME,
                         lambda r: 1 + r * mp.diff(F, r, 2) / mp.diff(F, r)
                         - Lm / (Lm + 1) * r * mp.diff(F, r) / F(r)),
                    ]
                    for ratio, kind, target, ref in cases:
                        cap = find_zeros(params, target, 1, 0).positive[0]
                        for frac in (0.2, 0.5, 0.9):
                            r = frac * cap
                            want = float(ref(mp.mpf(r)))
                            got = ratio(params, kind, r)
                            assert abs(got - want) <= 1e-12 * abs(want), (L, eta, kind, frac)

    def test_target_slopes_against_mpmath(self):
        # T'/T and T''/T of each zero target against mpmath.diff of
        # coulombf(L, eta, z)/z^(L+1) and its F' and g' forms; on z < 0 the
        # reference is coulombf at (-eta, -z), as P(z) at eta is P(-z) at -eta.
        # The last point is at |z| = 5e-13, where the sums of z P' and
        # z^2 P'' start at z and z^2
        mp = pytest.importorskip("mpmath")
        for L, eta, z in [(0.5, -1.0, 2.0), (0.5, -1.0, -2.0), (2.5, -2.0, 7.3),
                          (-0.4, -0.25, -3.1), (0.3, -1.2, 5e-13)]:
            sv = eval_point(CoulombParams(L, eta), z)
            with mp.workdps(50):
                Lm, em, zm, s = mp.mpf(L), mp.mpf(eta), mp.mpf(z), (1 if z > 0 else -1)
                # nested differences: the inner step far below the outer one
                h, h_in = abs(zm) * mp.mpf(10) ** -10, abs(zm) * mp.mpf(10) ** -25
                u = lambda t: mp.coulombf(Lm, s * em, s * t)  # C |t|^(L+1) P(t)
                refs = {
                    ZeroTarget.F: lambda t: u(t) / abs(t) ** (Lm + 1),
                    ZeroTarget.F_PRIME: lambda t: s * mp.diff(u, t, h=h_in) / abs(t) ** Lm,
                    ZeroTarget.G_PRIME: lambda t: mp.diff(
                        lambda r: r * u(r) / abs(r) ** (Lm + 1), t, h=h_in),
                }
                for target, T in refs.items():
                    t0 = T(zm)
                    want = [float(mp.diff(T, zm, n, h=h) / t0) for n in (1, 2)]
                    (val, *slopes), _ = target_jet(L, eta, target, z, sv)
                    got = [d / val for d in slopes]
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (L, eta, z, target)

    def test_radius_jets_against_mpmath(self):
        # (value, d/dr, d^2/dr^2) of N, D and of both forms of each radius
        # equation, against mpmath: P^(k)(r), k <= 4, from mpmath.diff of
        # coulombf/(coulombc t^(L+1)), so P''' and P'''' do not come from the
        # Coulomb equation; N and D are then formed from P's Taylor polynomial
        # at r, exact to the second derivative, and differentiated by mpmath
        from coulomb_radii import equations
        mp = pytest.importorskip("mpmath")
        beta = 0.5
        for L, eta, r in [(0.5, -1.0, 0.4), (0.5, -1.0, 1.1), (2.5, -2.0, 1.7),
                          (-0.4, -0.25, 0.9), (0.0, -5.0, 0.05)]:
            sv = eval_point(CoulombParams(L, eta), r)
            with mp.workdps(40):
                Lm, em, rm = mp.mpf(L), mp.mpf(eta), mp.mpf(r)
                c = mp.coulombc(Lm, em)
                pk = list(mp.diffs(lambda t: mp.coulombf(Lm, em, t) / (c * t ** (Lm + 1)),
                                   rm, 4))

                def d(j, h):  # P^(j)(r + h) from the Taylor polynomial
                    return sum(pk[k] * h ** (k - j) / mp.factorial(k - j) for k in range(j, 5))

                def terms(kind, convex, h):
                    t, p0, p1, p2 = rm + h, d(0, h), d(1, h), d(2, h)
                    if not convex:
                        s = Lm + 1 if kind == "f" else 1
                        return t * p1 + s * p0, s * p0
                    if kind == "g":
                        gp, gpp = p0 + t * p1, 2 * p1 + t * p2
                        return gp + t * gpp, gp
                    b = (Lm + 1) * p0 + t * p1
                    f2 = Lm * (Lm + 1) * p0 + 2 * (Lm + 1) * t * p1 + t * t * p2
                    return (Lm + 1) * p0 * (f2 + b) - Lm * b * b, (Lm + 1) * p0 * b

                for kind in ("f", "g"):
                    for convex in (False, True):
                        num, den, noise = equations.radius_terms(L, eta, kind, convex, r, sv)
                        refs = {
                            "N": (num, lambda h: terms(kind, convex, h)[0]),
                            "D": (den, lambda h: terms(kind, convex, h)[1]),
                            "direct": (equations.equation(num, den, noise, r, beta, "direct"),
                                       lambda h: (lambda n, q: n - beta * q)(
                                           *terms(kind, convex, h))),
                            "ratio": (equations.equation(num, den, noise, r, beta, "ratio"),
                                      lambda h: (lambda n, q: n / q - beta)(
                                          *terms(kind, convex, h))),
                        }
                        for name, (jet, ref) in refs.items():
                            want = [ref(mp.mpf(0))] + [mp.diff(ref, mp.mpf(0), n) for n in (1, 2)]
                            scale = max(abs(float(w)) for w in want)
                            for n, (g, w) in enumerate(zip(jet, want)):
                                assert abs(g - float(w)) <= 1e-13 * scale, (
                                    L, eta, r, kind, convex, name, n)


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
