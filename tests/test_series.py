"""Series core: coefficients, evaluation, ratios; the series against the Bessel oracle."""

import dataclasses
import math
import pickle
import random
import sys
import threading
from array import array
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
from coulomb_radii.zeros import REFINE_TOL, find_zeros, scan

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
        expected = {z: repr(series.Evaluator(params).sum(z)) for z in zs}
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
            assert fields(warm) == fields(cold) == fields(series.Evaluator(params).sum(z))

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


def _mp_values(mp, L, eta, z):
    """(P, P', P'') at the double z as mpmath numbers, summed from the origin
    at 60 digits, or more where the largest term, about
    e^(|z| + 2 sqrt(2 |eta z|)), would leave fewer than 40 to spare."""
    digits = max(60, 40 + int((abs(z) + 2.0 * math.sqrt(2.0 * abs(eta * z))) / 2.3))
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
                return s0, s1 / zm, s2 / zm ** 2


def _step(L, eta, t):
    """The zero scan's grid step at t: half the Sturm spacing (zeros module
    docstring)."""
    return 0.5 * math.pi / math.sqrt(1.0 + max(0.0, -2.0 * eta) / t
                                     + max(0.0, -L * (L + 1.0)) / (t * t))


def _m3_refuses(L, eta, z0, z):
    """Whether a 32-term Taylor sum about z0 would refuse z if it took the
    recurrence's coefficients at m = 3 as bounds on every later term: the
    bound a + sqrt(b) + c^(1/3) on the dominant root of
    rho^3 = a rho^2 + b rho + c, a = |h/z0| max(1, |3+2L|/3),
    b = |z0 - 2 eta| h^2/(6 |z0|), c = |h|^3/(6 |z0|), after one Newton step,
    has rho 33/31 >= 1."""
    h = abs(z - z0)
    a, b, c = h / abs(z0) * max(1.0, abs(3.0 + 2.0 * L) / 3.0), \
        abs(z0 - 2.0 * eta) * h * h / (6.0 * abs(z0)), h ** 3 / (6.0 * abs(z0))
    rho = a + math.sqrt(b) + c ** (1.0 / 3.0)
    rho -= (((rho - a) * rho - b) * rho - c) / ((3.0 * rho - 2.0 * a) * rho - b)
    return rho * series._UP * 33.0 / 31.0 >= 1.0


def _full_reach(L, eta, z0, value):
    """The reach of the 32 rows of the table at value, the sum of (L, eta)
    at z0."""
    table = series._Table.at(L, eta, z0, value)
    table._grow(math.inf)
    return table.reach[-1]


def _grid_step_jets():
    """Seeded inputs (L, eta, t0, sign, side, e) of
    test_jet_lies_within_its_noise_of_mpmath: points one and two grid steps
    from a base at z0 = sign t0, L from -0.9 to 10, eta from -25 to 0, t0
    up to 50; the m = 3 bound refused most of them (_m3_refuses)."""
    rng = random.Random(33)
    for _ in range(40):
        L, eta, t0 = rng.uniform(-0.9, 10.0), rng.uniform(-25.0, 0.0), rng.uniform(0.5, 50.0)
        sign, side = rng.choice((1.0, -1.0)), rng.choice((1.0, -1.0))
        reach = 0.5 * t0
        for k in (1, 2):
            if k * _step(L, eta, t0) < reach:
                yield L, eta, t0, sign, side, math.log2(reach / (k * _step(L, eta, t0)))


def _with_grid_step_jets(test):
    for args in _grid_step_jets():
        test = example(*args)(test)
    return test


class TestJets:
    """P, P', P'' next to a sum, read from a fresh table of its Taylor
    coefficients in doubles (series._Table.at, as Evaluator.sum makes it)."""

    @_with_grid_step_jets
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 5.0, exclude_min=True), st.floats(-25.0, 0.0),
           st.floats(0.05, 55.0), st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0)),
           st.floats(0.0, 40.0))
    def test_jet_lies_within_its_noise_of_mpmath(self, L, eta, t0, sign, side, e):
        # h log-uniform across the whole reach, up to |z0|/2, on both sides
        mp = pytest.importorskip("mpmath")
        z0 = sign * t0
        try:
            base = series.Evaluator(CoulombParams(L, eta)).sum(z0)
        except ConvergenceError:  # P beyond the double range
            assume(False)
        reach = 0.5 * t0
        table = series._Table.at(L, eta, z0, base)
        assert table.value(z0 + side * 1.001 * reach - z0) is None
        z = z0 + side * reach * 2.0 ** -e
        sv = table.value(z - z0)
        if sv is None:  # past its 32 rows or noise-limited;
            return      # test_jets_are_taken_on_a_grid counts these
        want = _mp_values(mp, L, eta, z)
        with mp.workdps(60):
            for k, (got, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                assert abs(mp.mpf(got) - w) <= sv.noise[k], (L, eta, z0, z, k)

    def test_jets_are_taken_on_a_grid(self):
        # L from -0.9 to 5, eta from 0 to -25, both axes, h up to 2^-12 |z0|,
        # where every jet is taken, and on to 0.49 |z0|, near the edge of the
        # reach, where the table runs out of rows unless z0 is small; each
        # point taken lies within its noise of mpmath
        mp = pytest.importorskip("mpmath")
        near = near_taken = far = far_taken = 0
        for L in (-0.9, 0.0, 2.5, 5.0):
            for eta in (0.0, -3.0, -25.0):
                params = CoulombParams(L, eta)
                for z0 in (0.05, 2.9, -7.3, 21.7, -38.1, 54.9):
                    try:
                        base = series.Evaluator(params).sum(z0)
                    except ConvergenceError:
                        continue
                    for h in (2.5e-13, -3e-7, 2.0 ** -13 * z0, -0.99 * 2.0 ** -12 * z0,
                              2.0 ** -2 * z0, -2.0 ** -2 * z0, -0.49 * z0):
                        is_near = abs(h) <= 2.0 ** -12 * abs(z0)
                        near += is_near
                        far += not is_near
                        sv = series._Table.at(L, eta, z0, base).value(z0 + h - z0)
                        if sv is None:
                            continue
                        near_taken += is_near
                        far_taken += not is_near
                        want = _mp_values(mp, L, eta, z0 + h)
                        with mp.workdps(60):
                            for k, got in enumerate((sv.p0, sv.p1, sv.p2)):
                                assert abs(mp.mpf(got) - want[k]) <= sv.noise[k], (L, eta, z0, h)
        assert near >= 250
        assert near_taken == near
        assert far_taken >= 20

    def test_jets_reach_two_grid_steps(self):
        # every seeded jet one or two grid steps from its base is served,
        # most of them where the m = 3 bound refused it
        served = refused_at_m3 = 0
        for L, eta, t0, sign, side, e in _grid_step_jets():
            z0 = sign * t0
            z = z0 + side * 0.5 * t0 * 2.0 ** -e
            base = series.Evaluator(CoulombParams(L, eta)).sum(z0)
            assert series._Table.at(L, eta, z0, base).value(z - z0) is not None, (L, eta, z0, z)
            served += 1
            refused_at_m3 += _m3_refuses(L, eta, z0, z)
        assert served >= 70 and refused_at_m3 >= served / 2

    def test_no_jet_past_the_reach_of_32_rows(self):
        # where the 32 rows of the table at the sum do not reach the point,
        # the table gives None and counts no jet; more than 80 points
        rng = random.Random(34)
        refused = 0
        for _ in range(2000):
            L, eta, t0 = rng.uniform(-0.9, 10.0), rng.uniform(-25.0, 0.0), rng.uniform(0.05, 50.0)
            z0 = rng.choice((1.0, -1.0)) * t0
            z = z0 + rng.choice((1.0, -1.0)) * 0.5 * t0 * 2.0 ** -rng.uniform(0, 6)
            try:
                base = series.Evaluator(CoulombParams(L, eta)).sum(z0)
            except ConvergenceError:
                continue
            if abs(z - z0) <= _full_reach(L, eta, z0, base):
                continue
            with series.counting() as counts:
                assert series._Table.at(L, eta, z0, base).value(z - z0) is None, (L, eta, z0, z)
            assert counts.jets == 0
            refused += 1
        assert refused >= 80

    def test_no_jet_beyond_its_reach(self):
        # the reach is |z0|/2, the largest share of |z0| where h = z - z0 is
        # exact (Sterbenz); next to the origin the terms about z0 fall fast
        # enough for points close to its edge
        params = CoulombParams(0.5, -1.0)
        for z0 in (0.3, -2.0, 10.0, -40.0):
            table = series._Table.at(0.5, -1.0, z0, series.Evaluator(params).sum(z0))
            reach = 0.5 * abs(z0)
            assert table._far < reach
            for h in (reach, -reach):
                beyond = math.nextafter(z0 + h, math.copysign(math.inf, h))
                assert table.value(beyond - z0) is None
        table = series._Table.at(0.0, 0.0, 0.05, series.Evaluator(CoulombParams(0.0, 0.0)).sum(0.05))
        for frac in (0.98, -0.98):
            assert table.value(0.05 * (1.0 + frac * 0.5) - 0.05) is not None
        origin = series.Evaluator(params).sum(0.0)
        assert series._Table.at(0.5, -1.0, 0.0, origin).value(1e-300) is None  # no reach at 0

    def test_no_jet_where_its_value_is_noise_limited(self):
        # at (0, -6000), z = 50 the sum keeps a bound far above its value
        # (the scan's cut-off), and the jet carries it
        base = series.Evaluator(CoulombParams(0.0, -6000.0)).sum(50.0)
        assert noise_limited(base.p0, base.noise[0])
        assert series._Table.at(0.0, -6000.0, 50.0, base).value(50.001 - 50.0) is None

    def test_bases_next_to_zeros_of_P_and_P_prime(self):
        # a base within 1e-9 of a zero of P or of P' (so |P| or |P'| is some
        # 1e-9 of its size), and points from 2.5e-13 to 2^-3 |z0| on both
        # sides: every jet taken lies within its noise of mpmath, and those
        # within 1e-4 are all taken
        mp = pytest.importorskip("mpmath")
        tried = taken = 0
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
                z0 = x + 1e-9
                base = series.Evaluator(params).sum(z0)
                for h in (2.5e-13, -2.5e-13, 1e-4, -2.0 ** -6 * z0, 2.0 ** -3 * z0):
                    tried += 1
                    sv = series._Table.at(L, eta, z0, base).value(z0 + h - z0)
                    if sv is None:
                        assert abs(h) > 1e-4, (L, eta, z0, h)
                        continue
                    taken += 1
                    want = _mp_values(mp, L, eta, z0 + h)
                    with mp.workdps(60):
                        for k, got in enumerate((sv.p0, sv.p1, sv.p2)):
                            assert abs(mp.mpf(got) - want[k]) <= sv.noise[k], (L, eta, z0, h, k)
        assert tried >= 100
        assert taken >= 0.6 * tried

    def test_tail_estimate_bounds_the_discarded_tail(self):
        # the Taylor coefficients about z0 from the recurrence in mpmath,
        # started at mpmath's P(z0) and P'(z0): the terms past the last one
        # summed add up to at most tail_estimate
        mp = pytest.importorskip("mpmath")
        checked = 0
        for L, eta, z0, hs in ((0.5, -1.0, 10.3, (0.2, -0.4)), (-0.9, -25.0, 3.1, (0.02, -0.025)),
                               (9.0, -3.0, -21.7, (0.6, -0.9)), (2.5, 0.0, 37.1, (1.1, -0.4))):
            base = series.Evaluator(CoulombParams(L, eta)).sum(z0)
            with mp.workdps(60):
                Lm, em, wm = mp.mpf(L), mp.mpf(eta), mp.mpf(z0)
                c = [None, *_mp_series(mp, Lm, em, wm)[:2]]
                for k in range(0, 200):
                    c.append((-(k + 1) * (k + 2 * Lm + 2) * c[k + 2] - (wm - 2 * em) * c[k + 1]
                              - (c[k] if k else 0)) / (wm * (k + 2) * (k + 1)))
                c = c[1:]
                for h in hs:
                    sv = series._Table.at(L, eta, z0, base).value(z0 + h - z0)
                    assert sv is not None, (L, eta, z0, h)
                    hm = mp.mpf(z0 + h) - wm
                    tail = sum(c[k] * hm ** k for k in range(sv.truncation_terms, 200))
                    assert abs(tail) <= sv.tail_estimate, (L, eta, z0, h)
                    checked += 1
        assert checked == 8

    def test_jets_are_no_bases(self):
        # the evaluator keeps a table at each of its sums alone: a jet it
        # reads is no kept base, so no table is made at it
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        base = values.sum(10.0)
        sv = values.value(10.1)
        assert sv is not None and sv is not base
        assert values._ts == [10.0] and [table.base for table in values._kept] == [base]
        assert values.value(10.1002) is not None and values._ts == [10.0]

    def test_a_jet_at_its_sum_is_the_sum(self):
        # t at a kept sum: the sum itself, with no sum made, no row built at
        # it and no jet counted
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        base = values.sum(10.0)
        with series.counting() as counts:
            assert values.value(10.0) is base and values.sum(10) is base
        assert counts.points == [] and counts.jets == counts.table_points == 0
        assert values._kept[0].rows == []

    def test_a_jet_is_counted_apart_from_the_sums(self):
        # one point and the rows its fresh table builds; the point beyond the
        # reach builds none
        params = CoulombParams(0.5, -1.0)
        base = series.Evaluator(params).sum(10.0)
        with series.counting() as counts:
            table = series._Table.at(0.5, -1.0, 10.0, base)
            sv = table.value(10.001 - 10.0)
            table.value(16.0 - 10.0)  # beyond the reach: no jet, and no sum
        rows = sv.truncation_terms
        assert 4 <= rows <= series._TABLE_TERMS
        assert counts.totals() == {**series.SumCounts().totals(), "jets": 1, "table_rows": rows,
                                   "refused_past_reach": 1}

    def test_a_value_has_no_dict(self):
        # SeriesValue has slots: a value is a few doubles, nothing kept beside
        sv = series.Evaluator(CoulombParams(0.5, -1.0)).sum(10.0)
        assert not hasattr(sv, "__dict__")
        assert [f.name for f in dataclasses.fields(sv)] == [
            "p0", "p1", "p2", "truncation_terms", "tail_estimate", "noise"]


def _summed(values, sv):
    """Whether sv is a sum the evaluator values keeps, the base of one of its
    tables."""
    return any(sv is table.base for table in values._kept)


class TestEvaluator:
    """series.Evaluator: each point past the origin's table is read from the
    table at a sum it keeps on either side of it, the nearer first, the same
    bits as a fresh table at that sum, or, past every kept sum, from the sum at the point
    ahead that the caller names; a point is summed from the origin, and
    kept, only where those tables refuse it."""

    def test_the_farther_side_serves_where_the_nearer_refuses(self):
        # 4.9 lies 2.9 above the sum at 2, past its |z0|/2, and 3.1 below
        # the sum at 8, whose table serves it
        values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        lo, hi = values.sum(2.0), values.sum(8.0)
        assert series._Table.at(0.5, 1.0, 2.0, lo).value(4.9 - 2.0) is None
        with series.counting() as counts:
            sv = values.value(4.9)
        # refused unread by the origin's table and by the sum at 2's
        assert counts.points == [] and counts.jets == 1 and counts.refused_past_reach == 2
        assert sv == series._Table.at(0.5, 1.0, 8.0, hi).value(4.9 - 8.0)

    def test_a_point_past_every_sum_is_read_back_from_the_sum_ahead(self):
        # 9 lies past the reach of the sum at 5: the sum at 11 is made and
        # kept, and 9 is read back from its table
        values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        values.sum(5.0)
        with series.counting() as counts:
            sv = values.value(9.0, 11.0)
        assert counts.points == [11.0] and counts.jets == 1
        assert values._ts == [5.0, 11.0]
        assert sv == series._Table.at(0.5, 1.0, 11.0, values.sum(11.0)).value(9.0 - 11.0)
        # without a point ahead, the point itself is summed
        other = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        other.sum(5.0)
        sv = other.value(9.0)
        assert other._ts == [5.0, 9.0] and sv is other.sum(9.0)

    def test_the_point_is_summed_where_the_sum_ahead_fails_it(self):
        # a sum ahead whose table refuses the point (9 lies past 30/2 of 30),
        # or one past |z| = 55 that raises ConvergenceError: 9 is summed too
        for ahead, kept in ((30.0, [5.0, 9.0, 30.0]), (60.0, [5.0, 9.0])):
            values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
            values.sum(5.0)
            with series.counting() as counts:
                sv = values.value(9.0, ahead)
            assert counts.points == [ahead, 9.0] and values._ts == kept, ahead
            assert sv is values.sum(9.0)

    def test_no_sum_ahead_where_the_origin_serves_or_below_every_sum(self):
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        with series.counting() as counts:
            near = values.value(0.5, 3.0)  # the origin's table
            values.sum(20.0)
            below = values.value(10.0, 12.0)  # below every kept sum: summed
        assert near == values.table(0.5) and counts.points == [20.0, 10.0]
        assert values._ts == [10.0, 20.0] and below is values.sum(10.0)

    def test_points_are_jets_of_the_nearer_end(self):
        # on the negative side of (0.5, -1): the positive side of (0.5, 1)
        values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        lo, hi = values.sum(10.0), values.sum(11.5)
        with series.counting() as counts:
            first = values.value(10.001)  # a jet of the nearer end, 10
            second = values.value(11.4999)  # a jet of 11.5
            third = values.value(10.75)  # the midpoint: a jet of the larger end
        assert counts.points == [] and counts.jets == 3
        assert first == series._Table.at(0.5, 1.0, 10.0, lo).value(10.001 - 10.0)
        assert second == series._Table.at(0.5, 1.0, 11.5, hi).value(11.4999 - 11.5)
        assert third == series._Table.at(0.5, 1.0, 11.5, hi).value(10.75 - 11.5)

    def test_a_tie_goes_to_the_larger_abscissa(self):
        # the sums are kept by abscissa, not in the order they were made
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        hi, lo = values.sum(11.5), values.sum(10.0)
        assert (values.value(10.75) == series._Table.at(0.5, -1.0, 11.5, hi).value(10.75 - 11.5)
                != series._Table.at(0.5, -1.0, 10.0, lo).value(10.75 - 10.0))

    def test_the_origin_is_no_sum(self):
        # the origin is served by the table of the origin's coefficients, as
        # (1, a_1, 2 a_2) within their bounds, and so is a point next to it;
        # no sum is made, and sum(0.0) is the exact value, whose table
        # serves no point
        params = CoulombParams(0.5, -1.0)
        values = series.Evaluator(params)
        with series.counting() as counts:
            at_origin = values.value(0.0)
            first = values.value(0.001)
        assert counts.points == [] and counts.jets == 0 and counts.table_points == 2
        exact = series._origin(0.5, -1.0)
        assert at_origin.p0 == 1.0 and at_origin.p1 == exact.p1 == -1.0 / 1.5  # a_1
        assert abs(at_origin.p2 - exact.p2) <= at_origin.noise[2]
        assert first == values.table(0.001)
        summed = values.sum(0.0)
        assert fields(summed) == fields(exact) and values._ts == [0.0]
        assert values._kept[0].value(0.001) is None

    def test_a_point_is_summed_once(self):
        # sum(t) at a kept abscissa is the kept sum, whether sum or value made it
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        with series.counting() as counts:
            first = values.sum(2.0)
            again = values.sum(2.0)
            served = values.value(0.001)  # the table's: no sum
            summed = values.sum(0.001)
            resummed = values.sum(0.001)
        assert counts.points == [2.0, 0.001]
        assert again is first and resummed is summed
        assert not _summed(values, served) and _summed(values, summed)
        assert values._ts == [0.001, 2.0]

    def test_each_kept_sum_has_one_table(self):
        # every kept sum comes with its own table, made with it, and a table
        # whose sum no point has asked about builds no row
        values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        values.sum(11.0)
        values.sum(5.0)
        table = series._Table.at(0.5, 1.0, 11.0, values.sum(11.0))
        assert values.value(11.4) == table.value(11.4 - 11.0)
        values.value(20.0, 23.0)  # past the reach of the sum at 11: the sum at 23 is made
        ts, kept = values._ts, values._kept
        assert ts == [5.0, 11.0, 23.0] and len(kept) == len(ts)
        params = values.params
        assert [table.base for table in kept] == [series.eval_point(params, t) for t in ts]
        assert [table._far for table in kept] == [math.nextafter(0.5 * t, 0.0) for t in ts]
        assert len({id(table) for table in kept}) == len(ts)
        assert kept[0].rows == [] and kept[1].rows and kept[2].rows

    def test_later_points_are_jets_of_the_nearest_sum(self):
        # past the table's reach: a point beyond the jet's reach of every
        # kept sum is summed, and later points are jets of the nearest sum
        values = series.Evaluator(CoulombParams(0.5, 1.0, unsafe=True))
        start = values.sum(5.0)
        with series.counting() as counts:
            first = values.value(5.5)  # a jet of 5
            second = values.value(20.0)  # beyond |z0|/2 of 5: summed
            third = values.value(19.0)  # a jet of 20, the nearer sum
        assert values._table.reach[-1] < 5.0
        assert counts.points == [20.0] and counts.jets == 2 and counts.table_points == 0
        assert first == series._Table.at(0.5, 1.0, 5.0, start).value(5.5 - 5.0)
        assert second is values.sum(20.0)
        assert third == series._Table.at(0.5, 1.0, 20.0, second).value(19.0 - 20.0)

    def test_no_jet_below_the_lowest_sum(self):
        # at (48, 0) the origin's table reaches 10.6; the table at a sum at
        # 12.5 would serve 11.5, towards the origin, with a bound of 1.0e-13
        # on P = 0.51, so the point is summed, and a point next to it is read
        # from the table at that sum
        values = series.Evaluator(CoulombParams(48.0, 0.0))
        end = values.sum(12.5)
        assert values.table(11.5) is None and values._table.reach[-1] < 11.5
        assert series._Table.at(48.0, 0.0, 12.5, end).value(11.5 - 12.5).noise[0] > 5e-14
        with series.counting() as counts:
            first = values.value(11.5)
            second = values.value(11.5001)
        assert counts.points == [11.5] and counts.jets == 1
        assert first is values.sum(11.5)
        assert second == series._Table.at(48.0, 0.0, 11.5, first).value(11.5001 - 11.5)

    def test_a_refused_point_is_summed_once_and_serves_later_points(self):
        # in the step (6, 24] the point 10.5 lies beyond the reach of both
        # ends, so one refine sums it; asked again it is that sum, and a
        # later point next to it, of another refine, is a jet of it
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        values.sum(6.0)
        values.sum(24.0)
        with series.counting() as counts:
            first = values.value(10.5)
            again = values.value(10.5)
            later = values.value(10.55)
        assert counts.points == [10.5] and counts.jets == 1
        assert first is values.sum(10.5) and again is first
        assert later == series._Table.at(0.5, -1.0, 10.5, first).value(10.55 - 10.5)

    def test_noise_limited_jet_is_summed_instead(self):
        # at (0, -6000), z = 50 the sum's bound lies far above its value, so
        # a jet of it is noise-limited: the point is summed
        values = series.Evaluator(CoulombParams(0.0, -6000.0))
        values.sum(49.0)
        end = values.sum(50.0)
        with series.counting() as counts:
            first = values.value(49.999)
            second = values.value(49.9991)
        assert noise_limited(end.p0, end.noise[0])
        assert counts.points == [49.999, 49.9991] and counts.jets == 0
        assert first is values.sum(49.999) and second is values.sum(49.9991)

    def test_refined_zeros_match_direct_sums(self, monkeypatch):
        # every refine point summed from the origin instead gives zeros within
        # the refine tolerance of these
        params = CoulombParams(4.105, -22.918)
        jets = find_zeros(params, ZeroTarget.F_PRIME, 10, 10)
        value = series._Table.value
        monkeypatch.setattr(series._Table, "value",
                            lambda self, x, flip=1.0: value(self, x, flip) if self._origin else None)
        summed = find_zeros(params, ZeroTarget.F_PRIME, 10, 10)
        assert len(jets.positive) == len(summed.positive) == 10
        assert len(jets.negative) == len(summed.negative) and jets.truncated == summed.truncated
        for a, b in zip(jets.positive + jets.negative, summed.positive + summed.negative):
            assert abs(a - b) <= REFINE_TOL, (a, b)


def _full_table(L, eta):
    """The table of the origin's coefficients of (L, eta), grown to its cap."""
    table = series._Table.origin(L, eta)
    table._grow(math.inf)
    return table


class TestTable:
    """series.Evaluator's table of the origin's coefficients: points near the
    origin as forward sums in doubles, within a proven bound, the same bits
    whatever the evaluator did before."""

    @staticmethod
    def points():
        """300 seeded (L, eta, t): L from -0.999 to 10 (a quarter within 0.05
        of -1), eta from -12 to 0, t from 0 up to the table's reach."""
        rng = random.Random(35)
        for j in range(300):
            L = rng.uniform(-0.999, -0.95) if j % 4 == 0 else rng.uniform(-0.95, 10.0)
            eta = rng.choice((0.0, rng.uniform(-12.0, 0.0), rng.uniform(-3.0, 0.0)))
            reach = _full_table(L, eta).reach[-1]
            t = reach * rng.choice((0.0, 2.0 ** -rng.uniform(0.0, 30.0), rng.random(),
                                    rng.random(), 1.0))
            yield L, eta, t

    def test_points_lie_within_their_noise_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        served = 0
        for L, eta, t in self.points():
            sv = series.Evaluator(CoulombParams(L, eta)).table(t)
            if sv is None:  # P near its zeros, or lost to cancellation
                continue
            served += 1
            assert sv.truncation_terms <= series._TABLE_TERMS
            if t == 0.0:  # (1, a_1, 2 a_2)
                with mp.workdps(60):
                    a1 = mp.mpf(eta) / (mp.mpf(L) + 1)
                    want = (mp.mpf(1), a1, (2 * mp.mpf(eta) * a1 - 1) / (2 * mp.mpf(L) + 3))
            else:
                want = _mp_values(mp, L, eta, t)
            with mp.workdps(60):
                for k, (got, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                    assert abs(mp.mpf(got) - w) <= sv.noise[k], (L, eta, t, k)
        assert served >= 180  # 200 of the 300

    def test_tail_estimate_bounds_the_discarded_tail(self):
        # the terms a_n t^n past the last one summed, from the recurrence in
        # mpmath, add up to at most tail_estimate
        mp = pytest.importorskip("mpmath")
        checked = 0
        for L, eta in ((5.0, 0.0), (2.0, 0.0), (4.0, -0.3), (0.5, -1.0)):
            table = _full_table(L, eta)
            with mp.workdps(60):
                a = [mp.mpf(1), mp.mpf(eta) / (mp.mpf(L) + 1)]
                for n in range(2, 200):
                    a.append((2 * mp.mpf(eta) * a[-1] - a[-2]) / (n * (n + 2 * mp.mpf(L) + 1)))
                for share in (0.01, 0.3, 0.6, 1.0):
                    t = share * table.reach[-1]
                    sv = table.value(t)
                    if sv is None:
                        continue
                    tail = sum(a[n] * mp.mpf(t) ** n for n in range(sv.truncation_terms, 200))
                    assert abs(tail) <= sv.tail_estimate, (L, eta, t)
                    checked += 1
        assert checked >= 12

    def test_same_bits_from_two_evaluators(self):
        # one evaluator asks the points in ascending order, another in a
        # seeded random order after a sum and a point past the reach, and a
        # third only the one point; the table grows differently in each
        rng = random.Random(36)
        served = 0
        for L, eta in ((0.5, -1.0), (-0.9, -6.0), (4.0, -0.3), (0.0, 0.0)):
            params = CoulombParams(L, eta)
            reach = _full_table(L, eta).reach[-1]
            ts = sorted(rng.uniform(0.0, reach) for _ in range(40))
            up = series.Evaluator(params)
            first = {t: up.table(t) for t in ts}
            other = series.Evaluator(params)
            other.sum(1.3)
            other.value(2.0 * reach)
            for t in rng.sample(ts, len(ts)):
                again, alone = other.table(t), series.Evaluator(params).table(t)
                assert (first[t] is None) == (again is None) == (alone is None), (L, eta, t)
                if again is not None:
                    assert TestReflection.bits(again, 1.0) == TestReflection.bits(first[t], 1.0)
                    assert TestReflection.bits(alone, 1.0) == TestReflection.bits(first[t], 1.0)
            served += sum(v is not None for v in first.values())
        assert served >= 80

    def test_a_reflected_evaluator_shares_the_table_bit_for_bit(self):
        # the evaluator of (L, -eta) that find_zeros builds for the negative
        # side reads the table of (L, eta) at -t, P' negated: the bits of a
        # table of its own, and no second table
        rng = random.Random(37)
        served = 0
        for L, eta in ((0.5, -1.0), (-0.9, -6.0), (4.0, -0.3), (2.0, -20.0)):
            values = series.Evaluator(CoulombParams(L, eta))
            mirror = values.reflected()
            assert mirror.params.eta == -eta and mirror._table is values._table
            reach = _full_table(L, -eta).reach[-1]
            for t in sorted(rng.uniform(0.0, 1.2 * reach) for _ in range(30)):
                got, own = mirror.table(t), series.Evaluator(CoulombParams(L, -eta, unsafe=True)).table(t)
                assert (got is None) == (own is None), (L, eta, t)
                if got is not None:
                    served += 1
                    assert TestReflection.bits(got, 1.0) == TestReflection.bits(own, 1.0), (L, eta, t)
        assert served >= 60

    def test_a_point_past_the_reach_is_summed(self):
        params = CoulombParams(5.0, 0.0)
        values = series.Evaluator(params)
        reach = _full_table(5.0, 0.0).reach[-1]
        inside, past = reach, math.nextafter(reach, math.inf)
        with series.counting() as counts:
            assert values.table(inside) is not None and values.table(past) is None
            assert values.direct(past) is values.sum(past)
            assert not _summed(values, values.value(inside))
        assert counts.points == [past] and counts.table_points == 2

    def test_a_noise_limited_point_is_summed(self):
        # at pi, the first zero of P = sin(t)/t at (0, 0), the bound of P
        # passes _TABLE_BUDGET of P; at (-0.9856, -9.3253), next to a zero of
        # P', P' is noise-limited; both points lie within the reach, and the
        # evaluator sums them
        for L, eta, t, k in ((0.0, 0.0, math.pi, 0),
                             (-0.9855735062608232, -9.325273674641638, 0.08021906645079305, 1)):
            values = series.Evaluator(CoulombParams(L, eta))
            assert t < _full_table(L, eta).reach[-1]
            with series.counting() as counts:
                assert values.table(t) is None
                sv = values.value(t)
            assert counts.points == [t] and counts.table_points == 0 and sv is values.sum(t)
            assert abs((sv.p0, sv.p1)[k]) < 1e-12

    def test_no_table_point_past_the_evaluation_range(self):
        # at (1e4, 0) the table reaches past |z| = 100, but like a sum or a
        # jet it serves nothing beyond |z| = 55
        values = series.Evaluator(CoulombParams(1e4, 0.0))
        assert _full_table(1e4, 0.0).reach[-1] > 100.0
        assert values.table(55.0) is not None and values.table(100.0) is None
        with pytest.raises(ConvergenceError):
            values.value(100.0)

    def test_powers_below_the_normal_range_are_summed(self):
        # at t = 1e-300 the powers t^n underflow, and the tail bound with
        # them: the table refuses the point, and the evaluator sums it; at
        # 1e-75 the four rows of the smallest table keep t^4 normal
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        assert values.table(1e-300) is None and values.table(1e-75) is not None
        with series.counting() as counts:
            assert values.value(1e-300) is values.sum(1e-300)
        assert counts.points == [1e-300]

    def test_rows_past_the_double_range_are_refused(self):
        # at |eta| = 1e200 the rows a_n overflow a double from n = 2 on: the
        # table holds them as infinities and refuses every point, and the
        # sum the evaluator then makes overflows too
        for eta in (-1e200, 1e200):
            values = series.Evaluator(CoulombParams(0.0, eta, unsafe=True))
            assert values.table(1e-200) is None and values.table(1.0) is None
            with pytest.raises(ConvergenceError):
                values.value(1e-200)

    def test_table_values_are_no_bases(self):
        values = series.Evaluator(CoulombParams(0.5, -1.0))
        sv = values.value(0.5)
        assert sv == values.table(0.5) and values._kept == []
        assert values.value(0.51) == values.table(0.51) and values._kept == []

    def test_no_table_below_L_minus_one(self):
        # c_1 = 2 (L + 1) <= 0: the evaluator sums every point, the origin
        # (its exact value, one term) included
        values = series.Evaluator(CoulombParams(-1.3, -5.0, unsafe=True))
        with series.counting() as counts:
            assert values.table(0.0) is None and values.table(0.01) is None
            origin, near = values.value(0.0), values.value(0.01)
        assert counts.points == [0.0, 0.01] and counts.table_points == 0
        assert fields(origin) == fields(series._origin(-1.3, -5.0))
        assert near is values.sum(0.01)


class TestTablesAtSums:
    """The table of the Taylor coefficients at a sum: points within a proven
    bound of the exact value, the same bits however the table grew."""

    @staticmethod
    def points():
        """300 seeded (L, eta, z0, base, z), base the sum at z0: L from -0.999 to 10 (a quarter within
        0.05 of -1), eta from -25 to 0, z0 of either sign up to 50, and |h|
        up to the reach of the table's 32 rows."""
        rng = random.Random(36)
        found = 0
        while found < 300:
            L = rng.uniform(-0.999, -0.95) if found % 4 == 0 else rng.uniform(-0.95, 10.0)
            eta = rng.choice((rng.uniform(-25.0, 0.0), rng.uniform(-3.0, 0.0)))
            z0 = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 50.0)
            try:
                base = series.Evaluator(CoulombParams(L, eta)).sum(z0)
            except ConvergenceError:  # P beyond the double range: no base
                continue
            reach = min(_full_reach(L, eta, z0, base), series._Table.at(L, eta, z0, base)._far)
            h = reach * rng.choice((1.0, -1.0)) * rng.choice(
                (2.0 ** -rng.uniform(0.0, 30.0), rng.random(), rng.random(), 1.0))
            found += 1
            yield L, eta, z0, base, z0 + h

    def test_points_lie_within_their_noise_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        served = 0
        for L, eta, z0, base, z in self.points():
            sv = series._Table.at(L, eta, z0, base).value(z - z0)
            if sv is None:  # noise-limited
                continue
            served += 1
            want = _mp_values(mp, L, eta, z)
            with mp.workdps(60):
                for k, (got, w) in enumerate(zip((sv.p0, sv.p1, sv.p2), want)):
                    assert abs(mp.mpf(got) - w) <= sv.noise[k], (L, eta, z0, z, k)
        assert served >= 270

    def test_same_bits_whatever_grew_the_table(self):
        # one evaluator asks a point near the reach of the table's 32 rows
        # first, which grows it far, then points near the sum; another asks
        # the near points first and the far one last; a fresh table serves
        # each point alone
        rng = random.Random(37)
        served = 0
        for L, eta, z0 in ((0.5, -1.0, 40.0), (-0.9, -6.0, 7.3), (4.0, -20.0, 25.0),
                           (0.0, 0.0, 3.1), (2.0, -8.0, 12.0)):
            params = CoulombParams(L, eta)
            step = 0.5 * math.pi / math.sqrt(1.0 + 2.0 * abs(eta) / z0)
            # above the sum: an evaluator sums a point below every kept sum
            near = [z0 + step * 2.0 ** -rng.uniform(0.0, 20.0) for _ in range(20)]
            first, last = series.Evaluator(params), series.Evaluator(params)
            base = first.sum(z0)
            last.sum(z0)
            far = z0 + 0.9 * min(_full_reach(L, eta, z0, base), series._Table.at(L, eta, z0, base)._far)
            got = {far: first.value(far)} | {z: first.value(z) for z in near}
            again = {z: last.value(z) for z in near} | {far: last.value(far)}
            assert len(first._kept[first._ts.index(z0)].rows) > 0
            for z, sv in got.items():
                # a point the origin's table serves is that table's, and any
                # other the jet of the sum
                alone = first.table(z) or series._Table.at(L, eta, z0, first.sum(z0)).value(z - z0)
                assert TestReflection.bits(sv, 1.0) == TestReflection.bits(again[z], 1.0), (L, eta, z)
                assert alone is not None and TestReflection.bits(sv, 1.0) == TestReflection.bits(alone, 1.0)
                served += 1
        assert served == 105


class TestHornerBound:
    """One Horner pass rounds the term of row n of P at most 2n + 2 times,
    the row's own rounding included (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., eq. 5.3), and those of P' and P'' fewer.
    So each value a table computes lies within the gamma part of its bound,
    sum gamma_(2n+2) |c_n| |h|^n (and n |c_n| |h|^(n-1), n(n-1) |c_n|
    |h|^(n-2)), of the polynomial of its stored rows, computed exactly.  The
    points include those next to zeros of P and those the origin's budget
    refuses, read with the budget switched off, and the bound is sharp
    enough that a twentieth of it fails."""

    @staticmethod
    def origin_points():
        """240 seeded (table, x), x of either sign up to the reach of the
        table's 32 rows, a third of them next to the first zero of P on
        either side."""
        rng = random.Random(42)
        points = []
        while len(points) < 240:
            L = rng.uniform(-0.95, 8.0)
            eta = rng.choice((0.0, rng.uniform(-12.0, 0.0), rng.uniform(-3.0, 0.0)))
            table = _full_table(L, eta)
            reach = table.reach[-1]
            if len(points) % 3:
                x = rng.choice((1.0, -1.0)) * reach * rng.choice((rng.random(), rng.random(),
                                                                  2.0 ** -rng.uniform(0.0, 20.0)))
            else:
                zs = find_zeros(CoulombParams(L, eta), ZeroTarget.F, 1, 1)
                x = rng.choice(zs.positive + zs.negative) * (
                    1.0 + rng.choice((1.0, -1.0)) * 2.0 ** -rng.uniform(8.0, 50.0))
                if not abs(x) < reach:
                    continue
            points.append((table, x))
        return points

    @staticmethod
    def base_points():
        """240 seeded (table at a sum z0, h): z0 of either sign up to 50 and
        h of either sign up to the table's reach, a third of them with z0 + h
        next to a zero of P."""
        rng = random.Random(43)
        points = []
        while len(points) < 240:
            L = rng.uniform(-0.95, 8.0)
            eta = rng.choice((0.0, rng.uniform(-25.0, 0.0), rng.uniform(-3.0, 0.0)))
            sign = rng.choice((1.0, -1.0))
            params = CoulombParams(L, sign * eta, unsafe=True)
            if len(points) % 3:
                z0 = rng.uniform(0.5, 50.0)
            else:
                # a zero of P on the positive side, and a sum a share of a
                # scan step from it
                zs = find_zeros(params, ZeroTarget.F, 4, 0).positive
                if not zs:
                    continue
                zero = rng.choice(zs)
                z0 = zero + rng.uniform(-0.5, 0.5) * _step(L, sign * eta, zero)
            try:
                base = series.Evaluator(params).sum(sign * z0)
            except ConvergenceError:  # P beyond the double range: no base
                continue
            table = series._Table.at(params.L, params.eta, sign * z0, base)
            table._grow(math.inf)
            reach = min(table.reach[-1], table._far)
            if len(points) % 3:
                h = rng.choice((1.0, -1.0)) * reach * rng.choice((rng.random(), rng.random(),
                                                                  2.0 ** -rng.uniform(0.0, 20.0)))
            else:
                h = sign * (zero - z0) * (1.0 + rng.choice((1.0, -1.0)) * 2.0 ** -rng.uniform(8.0, 50.0))
                if not abs(h) < reach:
                    continue
            points.append((table, h))
        return points

    @staticmethod
    def ratios(table, x):
        """The error of each of P, P' and P'' at z0 + x over its gamma part,
        and whether the bound of P passes 1e-13 of P, or None where a value
        is noise-limited."""
        sv = table.value(x)
        if sv is None:
            return None
        n, t, X = sv.truncation_terms - 1, abs(x), Fraction(x)
        rows, gammas = table.rows, series._TABLE_GAMMA
        out = []
        for k, got in enumerate((sv.p0, sv.p1, sv.p2)):
            exact = Fraction(0)
            for m in range(n, k - 1, -1):
                exact = exact * X + math.perm(m, k) * Fraction(rows[m][0])
            part = sum(gammas[m] * math.perm(m, k) * abs(rows[m][0]) * t ** (m - k)
                       for m in range(k, n + 1))
            error = abs(Fraction(got) - exact)
            out.append(0.0 if not error else float(error) / part)
        return out, not sv.noise[0] <= 1e-13 * abs(sv.p0)

    @pytest.fixture
    def unbudgeted(self, monkeypatch):
        """Origin tables that serve every point within their reach that is
        not noise-limited."""
        monkeypatch.setattr(series, "_TABLE_BUDGET", math.inf)

    def test_origin_values_lie_within_the_gamma_part(self, unbudgeted):
        # the largest error is 0.43 of its gamma part; the budget refuses
        # 86 of the 233 points read (7 are noise-limited)
        checked = [r for r in (self.ratios(table, x) for table, x in self.origin_points()) if r]
        assert len(checked) >= 200
        assert 0.05 < max(max(ratios) for ratios, _ in checked) <= 1.0
        assert sum(over for _, over in checked) >= 50

    def test_values_at_sums_lie_within_the_gamma_part(self):
        # the largest error is 0.42 of its gamma part; the bound of P passes
        # 1e-13 of P at 87 of the 240 points read
        checked = [r for r in (self.ratios(table, h) for table, h in self.base_points()) if r]
        assert len(checked) >= 200
        assert 0.05 < max(max(ratios) for ratios, _ in checked) <= 1.0
        assert sum(over for _, over in checked) >= 50


class TestReflection:
    """P(-t) at eta is P(t) at -eta bit for bit, P' negated, for sums and jets
    alike: the zero scan's negative side rests on it."""

    @staticmethod
    def bits(sv, sign):
        """The bits of P, sign P', P'', the bounds and the tail, and the terms."""
        return ([x.hex() for x in (sv.p0, sign * sv.p1, sv.p2, *sv.noise, sv.tail_estimate)],
                sv.truncation_terms)

    @staticmethod
    def pairs():
        """300 seeded (L, eta, sum at -t of (L, eta), sum at t of (L, -eta), t)."""
        rng = random.Random(29)
        for _ in range(300):
            L = rng.choice((0.0, 0.5, 2.0, rng.uniform(-0.99, 8.0)))
            eta = rng.choice((0.0, rng.uniform(-25.0, 0.0), rng.uniform(-3.0, 0.0)))
            t = rng.uniform(0.01, 50.0)
            yield (L, eta, series.Evaluator(CoulombParams(L, eta)).sum(-t),
                   series.Evaluator(CoulombParams(L, -eta, unsafe=True)).sum(t), t)

    def test_sums_are_mirror_images(self):
        for L, eta, neg, pos, t in self.pairs():
            assert self.bits(neg, -1.0) == self.bits(pos, 1.0), (L, eta, t)

    def test_jets_are_mirror_images(self):
        rng = random.Random(30)
        served = 0
        for L, eta, neg, pos, t in self.pairs():
            z = t * (1.0 + rng.uniform(-0.2, 0.2))
            jet_neg = series._Table.at(L, eta, -t, neg).value(-z - -t)
            jet_pos = series._Table.at(L, -eta, t, pos).value(z - t)
            assert (jet_neg is None) == (jet_pos is None), (L, eta, t, z)
            if jet_pos is not None:
                served += 1
                assert self.bits(jet_neg, -1.0) == self.bits(jet_pos, 1.0), (L, eta, t, z)
        assert served >= 100


class TestCounting:
    """series.counting(): the record of the sums made inside a block."""

    def test_find_zeros_record(self):
        with series.counting() as counts:
            find_zeros(CoulombParams(0.5, -1.0), ZeroTarget.F, 10, 10)
        totals = counts.totals()
        # the points near the origin from the table of its coefficients, and
        # past its reach every scan step and refine point read from the table
        # at a kept sum on either side, else, past the anchor, from the sum
        # two grid steps ahead, summed where no table serves it.  16 sums and
        # 1251 terms with the sum at the point itself (1191 when the scan summed every third grid point past the origin
        # table's reach, 1185 when that table weighed every row with
        # gamma_34); 20 and 1258 with no table, 32 and 2110 with every second
        # scan step summed, 47 and 3566 with every scan step summed, 67 and
        # 5305 with each refine's first point summed from the origin too, 117
        # and 10198 with every point summed from the origin
        assert (totals["evals"], totals["terms"], totals["refine_steps"],
                totals["jets"], totals["table_points"]) == (10, 779, 70, 101, 8)
        # the table refuses 4 points after reading its rows, and 115 past
        # its reach or far end (4 and 121 with the sum at the point itself);
        # no refine point is noise-limited on F
        assert (totals["refused_in_reach"], totals["refused_past_reach"]) == (4, 115)
        assert totals["refine_unresolved"] == 0

    def test_refine_points_within_the_noise_floor_are_counted(self):
        # F' and g' at (0.5, -1): refine points whose target value lies
        # within its noise floor, whose signs the refine decides all the same
        for target, unresolved in ((ZeroTarget.F_PRIME, 13), (ZeroTarget.G_PRIME, 15)):
            with series.counting() as counts:
                find_zeros(CoulombParams(0.5, -1.0), target, 10, 10)
            assert counts.refine_unresolved == unresolved, target
            assert 0 < counts.refine_unresolved < counts.refine_steps

    def test_find_zeros_sums_only_its_scan_steps(self):
        # the negative side is summed as the positive side of (L, -eta); every
        # sum is made at a scan step, at the step itself or, for 8 of the 10,
        # two grid steps ahead of it, and the 37 of the 47 scan steps whose
        # value is no sum are jets or table points
        params = CoulombParams(0.5, -1.0)
        with series.counting() as counts:
            find_zeros(params, ZeroTarget.F, 10, 10)
        sums, ahead = [], 0
        for side in (params, CoulombParams(0.5, 1.0, unsafe=True)):
            walk = scan(series.Evaluator(side), ZeroTarget.F, skip_free=True)
            grid, made, found = [], [], 0
            while found < 10:
                with series.counting() as step_counts:
                    step = next(walk)
                grid.append(step.t)
                made.append(step_counts.points)
                found += step.zero is not None
            for k, points in enumerate(made):
                assert set(points) <= {grid[k], *grid[k + 2:k + 3]}, (side, grid[k])
                ahead += sum(z != grid[k] for z in points)
            sums += [z for points in made for z in points]
        assert counts.points == sums and len(sums) == 10 and ahead == 8

    def test_radius_record(self):
        from coulomb_radii.radii import RadiusQuery, radius

        with series.counting() as counts:
            radius(RadiusQuery(CoulombParams(0.5, -1.0), "g", "starlike", 0.5))
        totals = counts.totals()
        # the scan stops at the step that brackets the radius, within the
        # reach of the origin's table, so the scan steps, the solve's points
        # and the residual are all the table's (2 sums and 62 terms when the
        # scan ran on to the cap, 5 and 117 with no table, 12 and 307 with
        # every point summed)
        assert (totals["evals"], totals["terms"], totals["refine_steps"],
                totals["jets"], totals["table_points"]) == (0, 0, 3, 0, 9)

    def test_radius_solve_sums_from_the_origin(self):
        # at (60, -1) the f-convex scan stops at the step that brackets the
        # radius, 30 of the 40 steps to its end: its steps within the reach of
        # the origin's table are the table's, past it each step is read from
        # the table at the nearest kept sum or, where that refuses it, summed,
        # and every sum is a scan step's, from the origin (9 sums and 15 jets
        # when the scan summed every third grid point).  Every point of the
        # solve and the residual are read from the table at the nearest of
        # those sums (mpmath's root lies 5.2e-13 from this one, well inside
        # the bracket's noise margin of 2.1e-7; 7.7e-13 when the origin's
        # table weighed every row with gamma_34, and 3.3e-12 when the scan ran
        # on to its end and the solve read a table at a sum past the bracket).  The origin's table serves the first 10 steps,
        # to 10.02; with its tighter weights it no longer reaches the 11th
        from coulomb_radii.radii import RadiusQuery, domain_cap, radius

        query = RadiusQuery(CoulombParams(60.0, -1.0), "f", "convex", 0.0)
        with series.counting() as counts:
            res = radius(query)
        values = series.Evaluator(query.params)
        steps = []
        for step in scan(values, ZeroTarget.F_PRIME):
            steps.append(step)
            if step.t >= res.value:
                break
        assert steps[-1].t_prev < res.bracket[0] < res.bracket[1] < steps[-1].t
        summed = [step.t for step in steps if _summed(values, step.sv)]
        tabled = [step.t for step in steps
                  if not _summed(values, step.sv) and step.sv == values.table(step.t)]
        # the solve's 3 points and the residual are read from tables at sums,
        # as are the scan's steps that are neither summed nor the origin
        # table's; the origin is the origin table's for the scan and the solve
        assert counts.jets == 4 + len(steps) - len(summed) - len(tabled) == 16
        assert counts.table_points == len(tabled) + 2 == 12
        assert counts.refine_steps == 3
        assert counts.points == summed and len(summed) == 8 and len(steps) == 30
        assert res.value == 39.54609038197617
        # the cap lies past |z| = 55
        assert domain_cap(query) is None

    def test_nothing_is_recorded_outside_a_block(self):
        params = CoulombParams(0.5, -1.0)
        with series.counting() as counts:
            pass
        assert series._record.get() is None
        find_zeros(params, ZeroTarget.F, 2, 2)
        values = series.Evaluator(params)
        values.sum(10.0)
        values.value(10.1)
        assert counts == series.SumCounts()

    def test_failed_sum_counts_with_no_terms(self):
        with series.counting() as counts:
            with pytest.raises(ConvergenceError):
                series.Evaluator(P0M1).sum(60.0)
        assert counts.points == [60.0] and counts.terms == 0

    def test_nested_block_adds_to_the_enclosing_one(self):
        params = CoulombParams(0.5, -1.0)
        with series.counting() as outer:
            series.Evaluator(params).sum(1.0)
            with series.counting() as inner:
                find_zeros(params, ZeroTarget.F, 2, 0)
                assert outer.points == [1.0] and outer.refine_steps == 0
            assert len(inner.points) > 1 and inner.refine_steps > 0
        assert outer.points == [1.0, *inner.points]
        assert outer.terms == series.Evaluator(params).sum(1.0).truncation_terms + inner.terms
        assert outer.refine_steps == inner.refine_steps

    def test_other_threads_count_only_in_a_copy_of_the_context(self):
        import contextvars

        params = CoulombParams(0.5, -1.0)
        with series.counting() as counts:
            plain = threading.Thread(target=series.Evaluator(params).sum, args=(2.0,))
            plain.start()
            plain.join(timeout=60)
            assert not plain.is_alive() and counts.points == []
            copied = threading.Thread(target=contextvars.copy_context().run,
                                      args=(series.Evaluator(params).sum, 3.0))
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

    def test_degenerate_index_is_refused_before_the_first_term(self):
        # at L = -10.5, n(n+2L+1) = 0 at n = 20: the origin needs a_1 and a_2
        # only, and a sum elsewhere raises before it sums a term
        params = CoulombParams(-10.5, -1.0, unsafe=True)
        a = reference_coefficients(params, 2)
        sv = series.Evaluator(params).sum(0.0)
        assert (sv.p0, sv.p1, sv.p2) == (1.0, a[1], 2.0 * a[2])
        with series.counting() as counts:
            with pytest.raises(DegenerateRecurrenceError) as exc:
                series.Evaluator(params).sum(0.5)
        assert exc.value.n == 20
        assert counts.points == [0.5] and counts.terms == 0

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


class TestSeriesValue:
    """SeriesValue builds through its own __init__ and keeps the frozen
    dataclass's contract: fields read-only, equality, repr and
    dataclasses.replace."""

    FIELDS = (0.25, -1.5, 3.0, 17, 1e-30, (1e-16, 2e-16, 3e-16))

    def test_assigning_a_field_raises(self):
        sv = series.SeriesValue(*self.FIELDS)
        for f in dataclasses.fields(sv):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sv, f.name, getattr(sv, f.name))
        assert sv.p0 == 0.25

    def test_assigning_or_deleting_any_name_raises(self):
        # a name that is no field as well: the pair dataclass generates for
        # a frozen class with slots raised TypeError there on 3.10 and 3.11
        sv = series.SeriesValue(*self.FIELDS)
        for name in ("extra", "p0"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sv, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(sv, name)
        assert not hasattr(sv, "extra") and sv.p0 == 0.25

    def test_pickling_keeps_every_slot(self):
        sv = series.SeriesValue(*self.FIELDS)
        back = pickle.loads(pickle.dumps(sv))
        assert back == sv and back.noise == self.FIELDS[5]

    def test_equality_and_repr(self):
        one, other = series.SeriesValue(*self.FIELDS), series.SeriesValue(*self.FIELDS)
        assert one == other and hash(one) == hash(other)
        assert repr(one) == repr(other) == (
            "SeriesValue(p0=0.25, p1=-1.5, p2=3.0, truncation_terms=17, "
            "tail_estimate=1e-30, noise=(1e-16, 2e-16, 3e-16))")
        assert one != series.SeriesValue(0.5, *self.FIELDS[1:])

    def test_replace_overrides_a_field(self):
        sv = series.SeriesValue(*self.FIELDS)
        noisy = dataclasses.replace(sv, noise=(1.0, 1.0, 1.0))
        assert noisy.noise == (1.0, 1.0, 1.0) and noisy != sv
        assert (noisy.p0, noisy.truncation_terms) == (sv.p0, sv.truncation_terms)

    def test_positional_and_keyword_construction_agree(self):
        names = [f.name for f in dataclasses.fields(series.SeriesValue)]
        positional = series.SeriesValue(*self.FIELDS)
        keyword = series.SeriesValue(**dict(zip(names, self.FIELDS)))
        assert positional == keyword
        assert [getattr(positional, n) for n in names] == [getattr(keyword, n) for n in names]
        # a sum and a table point build theirs positionally
        summed = series.Evaluator(CoulombParams(0.5, -1.0)).sum(10.0)
        assert summed == series.SeriesValue(**{n: getattr(summed, n) for n in names})


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
                        num, den, noise_n, noise_d = equations.radius_terms(
                            L, eta, kind, convex, r, sv)
                        forms = {form: equations.equation(num, den, noise_n, noise_d, r, beta,
                                                          form)[0]
                                 for form in ("direct", "ratio")}
                        refs = {
                            "N": (num, lambda h: terms(kind, convex, h)[0]),
                            "D": (den, lambda h: terms(kind, convex, h)[1]),
                            "direct": (forms["direct"], lambda h: (lambda n, q: n - beta * q)(
                                *terms(kind, convex, h))),
                            "ratio": (forms["ratio"], lambda h: (lambda n, q: n / q - beta)(
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

    def test_L_minus_one_refused_even_unsafe(self):
        # a_1 = eta/(L+1): the one check of L != -1 is at construction
        with pytest.raises(CoulombDomainError, match="requires L != -1"):
            CoulombParams(-1.0, 0.0, unsafe=True)
        with pytest.raises(CoulombDomainError, match="outside the certified region"):
            CoulombParams(-1.0, 0.0)
