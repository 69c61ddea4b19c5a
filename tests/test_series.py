"""Series core: coefficients, evaluation, ratios; the series against the Bessel oracle."""

import math
import random
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_radii import _ddouble as dd
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
from coulomb_radii.rayleigh import euler_rayleigh_bounds
from coulomb_radii.verify import bessel_j

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
        # one build from a_0 per params; every later build continues the
        # memo's current table, whether eval_point or rayleigh grows it
        builds = []
        build = series.coefficients

        def counting(params, n_max, base=None):
            table = build(params, n_max, base)
            builds.append((params, n_max, base, table))
            return table

        monkeypatch.setattr(series, "coefficients", counting)
        series._memo.clear()
        params = CoulombParams(0.123, -0.456)
        for r in (0.25, 0.5, 1.0, 4.0, 9.0, 20.0):
            star_ratio(params, "g", r)
            conv_ratio(params, "f", r)
            eval_point(params, -r)
        euler_rayleigh_bounds(params, "f", 400)
        assert len(builds) >= 3
        assert builds[0][:3] == (params, 32, None)
        for (p, n_max, base, _), prev in zip(builds[1:], builds):
            assert p == params and base is prev[3] and n_max > base.n_max
        assert series.shared_table(params) is builds[-1][3]

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

    def test_growth_under_threads(self):
        # four threads grow one pair's table from different |z| at once: every
        # value equals a fresh-memo one, and no thread sees the table shrink
        params = CoulombParams(0.3, -2.0)
        zs = [0.5 + 1.5 * k for k in range(30)]
        expected = {}
        for z in zs:
            series._memo.clear()
            expected[z] = repr(eval_point(params, z))
        series._memo.clear()
        errors = []

        def worker(offset):
            seen = 0
            for i in range(len(zs)):
                z = zs[(7 * i + offset) % len(zs)]
                if repr(eval_point(params, z)) != expected[z]:
                    errors.append(z)
                n_max = series.shared_table(params).n_max
                if n_max < seen:
                    errors.append((seen, n_max))
                seen = n_max

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
        # at (0.5, -2000), z = 1 the terms reach 1e49: p0 reads -1.58e17 where
        # P = -3.54e-5, and equations.noise_limited flags it; at (0.5, -1) the
        # value is good to 1e-12 and not flagged
        mp = pytest.importorskip("mpmath")
        for (L, eta), limited in (((0.5, -2000.0), True), ((0.5, -1.0), False)):
            sv = eval_point(CoulombParams(L, eta), 1.0)
            with mp.workdps(80):
                a = [mp.mpf(1), mp.mpf(eta) / (mp.mpf(L) + 1)]
                for n in range(2, 400):
                    a.append((2 * eta * a[n - 1] - a[n - 2]) / (n * (n + 2 * mp.mpf(L) + 1)))
                want = float(sum(a))
            assert noise_limited(sv.p0, sv.noise[0]) is limited
            assert (abs(sv.p0 - want) > 1e6 * abs(want)) is limited

    def test_small_z_floors_cover_the_double_error(self):
        # below |z| = 1e-12 P' and P'' are formed in doubles from a_1..a_3, so
        # their floors must cover double rounding, not the pair's (50 digits)
        mp = pytest.importorskip("mpmath")
        L, eta, z = 0.3, -1.2, 5e-13
        sv = eval_point(CoulombParams(L, eta), z)
        with mp.workdps(50):
            Lm, em, zm = mp.mpf(L), mp.mpf(eta), mp.mpf(z)
            a = [mp.mpf(1), em / (Lm + 1)]
            for n in range(2, 40):
                a.append((2 * em * a[n - 1] - a[n - 2]) / (n * (n + 2 * Lm + 1)))
            errors = (
                abs(sv.p1 - sum(n * a[n] * zm ** (n - 1) for n in range(1, 40))),
                abs(sv.p2 - sum(n * (n - 1) * a[n] * zm ** (n - 2) for n in range(2, 40))),
            )
        assert errors[0] <= sv.noise[1]
        assert errors[1] <= sv.noise[2]


# --- reference kernels: the two hot loops written with _ddouble calls ---------


def reference_coefficients(params, n_max):
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    L, eta = params.L, params.eta
    if L == -1.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    pairs = [(1.0, 0.0)]
    pairs.append(dd.div(dd.from_float(eta), dd.two_sum(L, 1.0)))
    two_eta = 2.0 * eta
    two_L = 2.0 * L
    for n in range(2, n_max + 1):
        den = dd.mul_d(dd.two_sum(two_L, n + 1.0), float(n))
        if den[0] == 0.0 or abs(n + two_L + 1.0) < 1e-14:
            raise DegenerateRecurrenceError(n, L)
        num = dd.sub(dd.mul_d(pairs[n - 1], two_eta), pairs[n - 2])
        pairs.append(dd.div(num, den))
    return series.CoefficientTable(
        params=params,
        n_max=n_max,
        a=tuple(p[0] + p[1] for p in pairs),
        a_pairs=tuple(pairs),
    )


def reference_eval_series(table, z):
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if abs(z) > series.EVAL_Z_MAX:
        raise ConvergenceError(
            f"|z|={abs(z):.3g} is beyond the double-double evaluation range "
            f"(~{series.EVAL_Z_MAX:g}); cancellation noise would swamp the result"
        )
    L, eta = table.params.L, table.params.eta
    az = abs(z)
    pairs = table.a_pairs
    eps, tiny, safety = series._EPS, series._TINY, series._NOISE_SAFETY

    s0 = s1 = (0.0, 0.0)
    g0 = g1 = 0.0
    zn = (1.0, 0.0)
    run = 0
    for n in range(table.n_max + 1):
        t = dd.mul(pairs[n], zn)
        s0 = dd.add(s0, t)
        s1 = dd.add(s1, dd.mul_d(t, float(n)))
        t0m = abs(t[0])
        t1m = n * t0m
        g0 += t0m
        g1 += t1m

        small = (
            t0m <= eps * abs(s0[0]) + dd.EPS * g0 + tiny
            and t1m <= eps * abs(s1[0]) + dd.EPS * g1 + tiny
        )
        run = run + 1 if small else 0
        if run >= 3 and n >= 4:
            q = az * (2.0 * abs(eta) + max(1.0, az)) / ((n + 1.0) * (n + 2.0 * L + 2.0))
            if 0.0 <= q < 0.9:
                qa = q * (n + 3.0) / (n + 1.0)
                fac = qa / (1.0 - qa)
                if all(
                    tm * fac <= max(series.DEFAULT_TOL * abs(s[0]),
                                    0.25 * safety * dd.EPS * g, tiny)
                    for tm, s, g in ((t0m, s0, g0), (t1m, s1, g1))
                ):
                    break
        zn = dd.mul_d(zn, z)
    else:
        raise ConvergenceError(
            f"tail bound not achieved within n_max={table.n_max} at z={z:.6g}; "
            "regenerate the table with a larger n_max"
        )
    if az >= series._SMALL_Z:
        d1 = dd.div(s1, (z, 0.0))
        lin = dd.add(dd.mul(dd.two_sum(2.0 * L, 2.0), d1), dd.mul(dd.two_sum(z, -2.0 * eta), s0))
        p1, p2 = dd.to_float(d1), -dd.to_float(dd.div(lin, (z, 0.0)))
        g1 /= az
        g2 = (abs(2.0 * L + 2.0) * g1 + abs(z - 2.0 * eta) * g0) / az
        eps12 = dd.EPS
    else:
        _, a1, a2, a3 = table.a[:4]
        p1, p2 = a1 + 2.0 * a2 * z, 2.0 * a2 + 6.0 * a3 * z
        g1 = abs(a1) + abs(2.0 * a2 * z)
        g2 = abs(2.0 * a2) + abs(6.0 * a3 * z)
        eps12 = eps
    return series.SeriesValue(
        p0=dd.to_float(s0),
        p1=p1,
        p2=p2,
        truncation_terms=n + 1,
        tail_estimate=t0m * fac,
        noise=(safety * dd.EPS * g0, safety * eps12 * g1, safety * eps12 * g2),
    )


def outcome(fn, *args):
    # repr of the result, or the error's type, message and index
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc).__name__, str(exc), getattr(exc, "n", None))


class TestInlinedKernels:
    """coefficients and eval_series agree bit for bit with the _ddouble loops."""

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
        for params in self.grid():
            for n_max in (4, 256, 512, 1024):
                assert (coefficients(params, n_max).a_pairs
                        == reference_coefficients(params, n_max).a_pairs), (params, n_max)

    def test_sums_match(self):
        rng = random.Random(55)
        for params in self.grid():
            tables = [coefficients(params, n) for n in (256, 512, 1024)]
            for z in self.abscissae(rng):
                for table in tables:
                    assert (outcome(eval_series, table, z)
                            == outcome(reference_eval_series, table, z)), (params, z)

    def test_regrowth_chain_matches(self):
        # from 8 terms, doubling by continuation as eval_point does: the same
        # ConvergenceError at every short table, then the same value
        for params, z in ((CoulombParams(0.5, -1.0), 10.0), (CoulombParams(2.0, -20.0), -45.0)):
            n_max, steps, table = 8, [], None
            while True:
                table = coefficients(params, n_max, table)
                got = outcome(eval_series, table, z)
                assert got == outcome(reference_eval_series, table, z), (params, z, n_max)
                steps.append(got)
                if isinstance(got, str):
                    break
                n_max *= 2
            assert len(steps) >= 3 and steps[0][0] == "ConvergenceError"

    def test_same_errors(self):
        table = coefficients(P0M1, 256)
        for z in (55.5, -60.0, 1e3):
            got = outcome(eval_series, table, z)
            assert got == outcome(reference_eval_series, table, z)
            assert got[0] == "ConvergenceError"
        for L in (-1.5, -2.5):
            params = CoulombParams(L, -1.0, unsafe=True)
            got = outcome(coefficients, params, 64)
            assert got == outcome(reference_coefficients, params, 64)
            assert got[0] == "DegenerateRecurrenceError" and got[2] == -(2 * L + 1)


def table_bits(table):
    # params, length and the bytes of every double: -0.0 and NaNs told apart
    doubles = array("d", table.a)
    doubles.extend(x for pair in table.a_pairs for x in pair)
    return table.params, table.n_max, doubles.tobytes()


class TestTableContinuation:
    """Tables continued from shorter ones, and the memo that grows them."""

    def test_continued_tables_match_fresh(self):
        # +16 at a time, as eval_point grows ahead of need
        for params in TestInlinedKernels.grid():
            table = coefficients(params, 32)
            for n_max in range(48, 257, 16):
                table = coefficients(params, n_max, table)
                assert table_bits(table) == table_bits(coefficients(params, n_max)), (params, n_max)

    def test_doubling_chain_to_the_cap_matches_fresh(self):
        for params in TestInlinedKernels.grid()[:8]:
            table = coefficients(params, 32)
            while table.n_max < series.N_MAX_CAP:
                table = coefficients(params, 2 * table.n_max, table)
                assert (table_bits(table)
                        == table_bits(coefficients(params, table.n_max))), (params, table.n_max)

    def test_degenerate_index_matches_past_the_start_size(self):
        # n(n+2L+1) = 0 at n = 40 for L = -20.5, beyond the 32-term start table
        params = CoulombParams(-20.5, -1.0, unsafe=True)
        short = coefficients(params, 32)
        for n_max in (40, 48, 64):
            got = outcome(coefficients, params, n_max, short)
            assert got == outcome(coefficients, params, n_max)
            assert got == outcome(reference_coefficients, params, n_max)
            assert got[0] == "DegenerateRecurrenceError" and got[2] == 40
        assert (table_bits(coefficients(params, 39, short))
                == table_bits(reference_coefficients(params, 39)))

    def test_base_must_be_a_shorter_table_of_the_same_params(self):
        table = coefficients(P0M1, 32)
        with pytest.raises(ValueError):
            coefficients(P0M1, 16, table)
        with pytest.raises(ValueError):
            coefficients(P00, 64, table)

    def test_eval_point_refuses_a_degenerate_recurrence(self):
        # the tail bound needs n + 2L + 2 > 0, so no sum stops short of a_40,
        # and growing the 32-term start table to it raises, as a 256-term
        # start table did
        series._memo.clear()
        with pytest.raises(DegenerateRecurrenceError) as exc:
            eval_point(CoulombParams(-20.5, -1.0, unsafe=True), 0.5)
        assert exc.value.n == 40

    def test_evaluation_sequence_matches_fresh_memo(self):
        # a short table, a jump that exhausts it, then a small |z| again: each
        # value equals one on a fresh memo and one on a 256-term table
        params = CoulombParams(0.5, -1.0)
        zs = (0.5, 50.0, 1.0)
        series._memo.clear()
        in_sequence = [repr(eval_point(params, z)) for z in zs]
        fresh = []
        for z in zs:
            series._memo.clear()
            fresh.append(repr(eval_point(params, z)))
        long = coefficients(params, 256)
        assert in_sequence == fresh == [repr(eval_series(long, z)) for z in zs]

    def test_cold_far_evaluation_is_one_sum(self, monkeypatch):
        # the 32-term start table cannot pass the tail test at |z| = 50, so
        # the first sum runs on the length its doubling chain reaches there
        # (256), not on 32, 64 and 128 terms that each run out first; the
        # value is the one those four sums gave
        calls = []
        monkeypatch.setattr(series, "eval_series",
                            lambda table, z: calls.append(table.n_max) or eval_series(table, z))
        series._memo.clear()
        sv = eval_point(CoulombParams(0.5, -1.0), 50.0)
        assert calls == [256]
        assert repr(sv) == (
            "SeriesValue(p0=-0.0003882359909327768, p1=-0.001375650145603863, "
            "p2=0.0004863044393063197, truncation_terms=157, "
            "tail_estimate=1.6479530543944906e-15, noise=(4.252056726522638e-12, "
            "4.0800045312659705e-12, 4.666939267459501e-12))")

    def test_table_grows_ahead_of_need(self):
        # an evaluation that used more than n_max - 8 terms adds 16 terms
        params = CoulombParams(0.5, -1.0)
        series._memo.clear()
        assert eval_point(params, 0.5).truncation_terms <= 24
        assert series.shared_table(params).n_max == 32
        assert 24 < eval_point(params, 3.0).truncation_terms <= 32
        assert series.shared_table(params).n_max == 48

    def test_memo_never_replaces_a_table_with_a_shorter_one(self):
        series._memo.clear()
        params = CoulombParams(0.25, -0.75)
        start = series.shared_table(params)
        longer = series.shared_table(params, 100)
        # a thread still holding the start table grows it less far
        assert series._memo.grow(start, 48) is longer
        assert series._memo._store(coefficients(params, 64, start)) is longer
        assert series.shared_table(params) is longer
        assert series.shared_table(params, 100) is longer

    def test_memo_holds_sixteen_pairs(self):
        series._memo.clear()
        grid = [CoulombParams(0.01 * k, -1.0) for k in range(20)]
        for p in grid:
            eval_point(p, 1.0)
        assert list(series._memo._tables) == grid[4:]


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
        # The last point is in the small-|z| path of eval_series
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
