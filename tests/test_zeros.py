"""Zero localization; the found zeros against the interlacing chain and the
truncated Weierstrass product of the acceptance matrix."""

import dataclasses
import itertools
import math
import random

import pytest

from coulomb_radii import CoulombParams, series, zeros
from coulomb_radii.verify import _interlaced, _product, bessel_j
from coulomb_radii.zeros import ZeroTarget, _jet_start, find_zeros, refine_bracket

P00 = CoulombParams(0.0, 0.0)


def mpmath_zero_cells(L, eta, t_end, step):
    """Grid cells of (0, t_end] that hold the zeros of F, F' and g', by target.

    Only mpmath.coulombf is sampled, once per grid point.  F changes sign in
    (t_{k-1}, t_k] where its samples do.  F' and g' = d/dt (F/t^L), up to C,
    change sign in (t_{k-1}, t_{k+1}) where the slope of the samples of F or
    of F/t^L does at t_k.  Every target is > 0 just right of the origin, where
    F and F/t^L vanish.
    """
    mpmath = pytest.importorskip("mpmath")
    n = math.ceil(t_end / step)
    grid = [0.0] + [t_end * k / n for k in range(1, n + 1)]
    f = [0.0] + [mpmath.coulombf(L, eta, t) for t in grid[1:]]
    g = [0.0] + [v / t ** L for v, t in zip(f[1:], grid[1:])]

    def cells(values, lo_offset):
        out, prev_pos = [], True
        for k in range(1, len(grid)):
            pos = values[k] > 0
            if pos != prev_pos:
                out.append((grid[max(k - 1 - lo_offset, 0)], grid[k]))
            prev_pos = pos
        return out

    # entry k of a slope list is the slope on (t_{k-1}, t_k)
    slope = lambda v: [0.0] + [b - a for a, b in zip(v, v[1:])]
    return {ZeroTarget.F: cells(f, 0),
            ZeroTarget.F_PRIME: cells(slope(f), 1),
            ZeroTarget.G_PRIME: cells(slope(g), 1)}


def bisect(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestFindZeros:
    def test_sine_zeros(self):
        zs = find_zeros(P00, ZeroTarget.F, 3, 0)
        for got, n in zip(zs.positive, (1, 2, 3)):
            assert got == pytest.approx(n * math.pi, abs=1e-10)
        assert not zs.truncated

    def test_cosine_zeros_of_g_prime(self):
        zs = find_zeros(P00, "g_prime", 2, 0)
        assert zs.positive[0] == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert zs.positive[1] == pytest.approx(3.0 * math.pi / 2.0, abs=1e-10)

    def test_half_order_matches_bessel_oracle(self):
        # first zero of F_{1/2,0} equals the first zero of J_1
        zs = find_zeros(CoulombParams(0.5, 0.0), ZeroTarget.F, 1, 0)
        oracle = bisect(lambda x: bessel_j(1.0, x), 3.0, 4.5)
        assert zs.positive[0] == pytest.approx(oracle, abs=1e-9)
        assert zs.positive[0] == pytest.approx(3.8317059702, abs=1e-9)

    def test_negative_side_mirrors_at_eta_zero(self):
        zs = find_zeros(CoulombParams(1.0, 0.0), ZeroTarget.F, 4, 4)
        for x, y in zip(zs.positive, zs.negative):
            assert y == pytest.approx(-x, abs=zs.refine_tol * 10)

    def test_ordering_invariants(self):
        zs = find_zeros(CoulombParams(0.5, -1.0), ZeroTarget.F, 4, 4)
        assert all(a < b for a, b in zip(zs.positive, zs.positive[1:]))
        assert all(a > b for a, b in zip(zs.negative, zs.negative[1:]))
        assert all(y < 0 for y in zs.negative)

    def test_residuals_below_tolerance(self):
        from coulomb_radii import eval_point

        params = CoulombParams(1.0, -1.0)
        zs = find_zeros(params, ZeroTarget.F, 4, 0)
        for x in zs.positive:
            sv = eval_point(params, x)
            assert abs(sv.p0) <= zs.refine_tol * max(1.0, abs(sv.p1) * x)

    def test_no_skip_under_resolution_doubling(self):
        # differential: every sign change of mpmath's F, F' and g' on a grid
        # much finer than the zero spacing is one found zero, and nothing else
        # is.  The side z < 0 is mpmath's positive axis at -eta; at (-0.5, -5)
        # it lies where interlacing is unproven and the half step is a margin
        cases = [(0.0, -1.0, +1, 0.05), (2.5, -2.0, +1, 0.05), (-0.4, -0.25, +1, 0.05),
                 (0.0, -20.0, +1, 0.005), (-0.5, -5.0, -1, 0.1)]
        for L, eta, side, grid_step in cases:
            found = {}
            for target in ZeroTarget:
                zs = find_zeros(CoulombParams(L, eta), target, 10 * (side > 0), 10 * (side < 0))
                found[target] = zs.positive if side > 0 else tuple(-x for x in zs.negative)
                assert len(found[target]) == 10 and not zs.truncated
            t_end = max(x[-1] for x in found.values()) + 2.0 * grid_step
            oracle = mpmath_zero_cells(L, side * eta, t_end, grid_step)
            for target, xs in found.items():
                cells = [c for c in oracle[target] if c[0] < xs[-1]]
                assert len(cells) == 10, (L, eta, target)
                for (lo, hi), x in zip(cells, xs):
                    assert lo < x <= hi, (L, eta, target)

    def test_truncation_flag_past_precision_horizon(self):
        zs = find_zeros(P00, ZeroTarget.F, 60, 0)
        assert zs.truncated
        assert 10 <= len(zs.positive) < 60
        # what was found is still correct
        for n, x in enumerate(zs.positive, start=1):
            assert x == pytest.approx(n * math.pi, abs=1e-9)

    def test_count_does_not_move_the_horizon(self):
        # the first zeros of F at (10, 0) lie past 1.5*4*pi; asking for four
        # must give the first four of the count-10 answer, not a truncated two
        params = CoulombParams(10.0, 0.0)
        four = find_zeros(params, ZeroTarget.F, 4, 0)
        ten = find_zeros(params, ZeroTarget.F, 10, 0)
        assert not four.truncated
        assert four.positive == ten.positive[:4]
        assert four.positive[2:] == pytest.approx((22.66272065813593, 26.142767643379223),
                                                  abs=1e-10)

    def test_last_step_ends_on_the_evaluator_range(self):
        # the scan's last step ends at |z| = 55 instead of stepping past it
        # into ConvergenceError, so the 12th negative zero (mpmath:
        # -53.9715732732457) is found; then the scan stops there
        params = CoulombParams(5.0, -3.0)
        twelve = find_zeros(params, ZeroTarget.F, 0, 12)
        assert len(twelve.negative) == 12 and not twelve.truncated
        assert twelve.negative[-1] == pytest.approx(-53.9715732732457, abs=1e-10)
        thirteen = find_zeros(params, ZeroTarget.F, 0, 13)
        assert thirteen.truncated and thirteen.negative == twelve.negative

    def test_zero_in_the_last_step_is_kept(self):
        # a half step from below 53.86 would land past 55; mpmath: -53.8595891391723
        zs = find_zeros(CoulombParams(-0.5, -25.0), ZeroTarget.F_PRIME, 0, 1)
        assert not zs.truncated
        assert zs.negative == pytest.approx((-53.8595891391723,), abs=1e-10)

    def test_zero_counts_allowed(self):
        zs = find_zeros(P00, ZeroTarget.F, 0, 0)
        assert zs.positive == () and zs.negative == ()

    def test_first_positive_zero_of_g_prime(self):
        zs = find_zeros(P00, ZeroTarget.G_PRIME, 1, 0)
        assert zs.positive[0] == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert zs.negative == () and not zs.truncated


class TestZeroFreeStart:
    """find_zeros with L >= 0 skips the grid points in (0, t*] on both sides,
    where q (r for g') < 0 and no target zero lies (zeros module docstring);
    its negative side is the positive side of (L, -eta)."""

    def test_stretch_constant_per_target(self):
        # t* = eta + sqrt(eta^2 + c): c = L(L+1) of q for F and F', 2L of r for g'
        from coulomb_radii.equations import centrifugal

        assert centrifugal(2.0, ZeroTarget.F) == centrifugal(2.0, ZeroTarget.F_PRIME) == 6.0
        assert centrifugal(2.0, ZeroTarget.G_PRIME) == 4.0

    def test_no_zero_skipped_at_eta_minus_20(self):
        # negative-axis zeros of (L, eta) are the positive zeros of (L, -eta)
        L, eta, step = 2.0, -20.0, 0.05
        t_star = {ZeroTarget.F: 20.0 + math.sqrt(400.0 + L * (L + 1.0)),
                  ZeroTarget.G_PRIME: 20.0 + math.sqrt(400.0 + 2.0 * L)}
        t_star[ZeroTarget.F_PRIME] = t_star[ZeroTarget.F]
        params, mirrored = CoulombParams(L, eta), CoulombParams(L, -eta, unsafe=True)
        for target, t in t_star.items():
            # the first step is (0, t_k], t_k the last grid point at or below t*
            steps = zeros.scan(series.Evaluator(mirrored), target, skip_free=True)
            first, second = itertools.islice(steps, 2)
            assert first.t_prev == 0.0 and first.t <= t < second.t, target
        found = {target: tuple(-x for x in find_zeros(params, target, 0, 3).negative)
                 for target in ZeroTarget}
        assert all(found.values())
        oracle = mpmath_zero_cells(L, -eta, max(x[-1] for x in found.values()) + 2.0 * step, step)
        for target, xs in found.items():
            cells = [c for c in oracle[target] if c[0] < xs[-1]]
            assert all(hi > t_star[target] for _, hi in cells), target
            assert len(cells) == len(xs), target
            for (lo, hi), x in zip(cells, xs):
                assert lo < x <= hi, target

    @pytest.mark.parametrize("L, eta, count, gate", [(2.0, -20.0, 3, 17), (0.0, -25.0, 2, 8)])
    def test_evaluation_count(self, evaluations, L, eta, count, gate):
        # deterministic gates: 5 and 2 sums (7 and 3 with every second scan
        # step summed, 13 and 6 with every scan step summed, 15 and 6 with
        # every refine point summed too), against 41 and 37 with every grid
        # point of (0, t*] evaluated
        find_zeros(CoulombParams(L, eta), ZeroTarget.F, 0, count)
        assert 0 < len(evaluations) <= gate

    def test_unsafe_L_below_minus_one_is_not_skipped(self):
        # L(L+1) > 0 here too, but u u' < 0 at the origin, so (0, t* = 10.04]
        # is not zero-free; mpmath: 0.039019553515725 and 15.5805095145986
        params = CoulombParams(-1.3, -5.0, unsafe=True)
        zs = find_zeros(params, ZeroTarget.F, 0, 2)
        assert not zs.truncated
        assert zs.negative == pytest.approx((-0.039019553515725, -15.5805095145986), abs=1e-10)
        # ... in a half step from the first grid point, not in a skipped stretch
        mirrored = CoulombParams(-1.3, 5.0, unsafe=True)
        step = next(s for s in zeros.scan(series.Evaluator(mirrored), ZeroTarget.F,
                                          skip_free=True) if s.zero is not None)
        assert 0.0 < step.t_prev < 0.039 < step.t < 2.0

    @pytest.mark.parametrize("L", [0.0, 0.5, 2.0, 6.0])
    @pytest.mark.parametrize("eta", [0.0, -1.0, -8.0, -20.0])
    def test_skipping_finds_the_zeros_of_every_step(self, L, eta):
        # the zeros of a scan that evaluates every grid point, on both sides
        params = CoulombParams(L, eta)
        for target in ZeroTarget:
            zs = find_zeros(params, target, 4, 4)
            mirrored = CoulombParams(L, -eta, unsafe=True)
            for side, found in ((params, zs.positive), (mirrored, [-x for x in zs.negative])):
                every = [s.zero for s in zeros.scan(series.Evaluator(side), target)
                         if s.zero is not None]
                assert found and every[:len(found)] == list(found), (target, side)

    @pytest.mark.parametrize("L, eta, target", [
        (3.884621665193355, 14.881297333751107, ZeroTarget.F),
        (0.08736309839802359, 13.919133248750512, ZeroTarget.F),
        (0.010649173215207863, 18.570237236214105, ZeroTarget.F_PRIME)])
    def test_no_sum_ahead_at_or_before_the_anchor(self, L, eta, target):
        # no grid point up to the anchor asks for a sum two steps ahead, so
        # the walks with and without skip_free sum the same points from the
        # anchor on; with a sum ahead before the anchor too, each of these
        # (unsafe, eta > 0) differs in a last bit
        params = CoulombParams(L, eta, unsafe=True)
        walks = [[s.zero for s in zeros.scan(series.Evaluator(params), target, skip_free=skip)
                  if s.zero is not None][:6] for skip in (True, False)]
        assert len(walks[0]) >= 3 and walks[0] == walks[1]

    def test_walks_with_and_without_skip_free_agree(self):
        # 200 seeded cases, L in [0, 8] and eta in [-30, 30] (unsafe where
        # eta > 0), the targets in turn: the first six zeros are the same
        # doubles with and without skip_free, and where the origin's table
        # serves the anchor, the walk that evaluates the zero-free stretch
        # keeps no sum below it, so that both walks read the same tables
        # from it on
        rng = random.Random(45)
        tabled = 0
        for target in itertools.islice(itertools.cycle(ZeroTarget), 200):
            L, eta = rng.uniform(0.0, 8.0), rng.uniform(-30.0, 30.0)
            params = CoulombParams(L, eta, unsafe=eta > 0.0)
            skipped = zeros.scan(series.Evaluator(params), target, skip_free=True)
            anchor = next(skipped)
            values = series.Evaluator(params)
            walks = [list(itertools.islice((s.zero for s in walk if s.zero is not None), 6))
                     for walk in (itertools.chain([anchor], skipped), zeros.scan(values, target))]
            assert walks[0] == walks[1], (L, eta, target)
            if anchor.sv._at is None:
                assert values._ts == [] or values._ts[0] >= anchor.t, (L, eta, target)
                tabled += 1
        assert tabled >= 50


def itp_iterates(f, lo, hi, f_lo, f_hi, tol):
    """The points ITP alone evaluates: refine_bracket's fallback written out on
    its own, as it stood before the Halley steps, for a value-only f."""
    width = hi - lo
    n_max = math.ceil(math.log2(width / tol)) + 1 if width > tol else 0
    aim = max(tol - 4.0 * math.ulp(max(abs(lo), abs(hi))), 0.5 * tol)
    xs = []
    while hi - lo > tol and len(xs) < 80:
        mid = 0.5 * (lo + hi)
        x = mid
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            x_f = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            sigma = math.copysign(1.0, mid - x_f)
            delta = 0.2 * (hi - lo) ** 2 / width
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            x_t = min(max(x_t, lo + 0.25 * tol), hi - 0.25 * tol)
            r = aim * 2.0 ** (n_max - len(xs) - 1) - 0.5 * (hi - lo)
            x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        xs.append(x)
        f_x = f(x)
        if f_x == 0.0:
            lo = hi = x
        elif (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return xs


def no_slopes(f):
    return lambda x: (f(x), math.nan, math.nan)


def pole(x):
    return 1.0 - x / (1.0 - x) if x < 1.0 else -math.inf


def poly_jet(coeffs):
    """fn -> (p, p', p'') of the polynomial sum coeffs[k] x^k."""
    def fn(x):
        p = d1 = d2 = 0.0
        for a in reversed(coeffs):
            d2 = d2 * x + 2.0 * d1
            d1 = d1 * x + p
            p = p * x + a
        return p, d1, d2
    return fn


def poly_from_roots(roots, factor=(1.0,)):
    """Coefficients of factor(x) * prod(x - r), constant term first."""
    coeffs = list(factor)
    for r in roots:
        coeffs = [(coeffs[k - 1] if k else 0.0) - (r * coeffs[k] if k < len(coeffs) else 0.0)
                  for k in range(len(coeffs) + 1)]
    return coeffs


class TestRefineBracket:
    """Guarded Halley steps and the ITP fallback keep the sign-change bracket
    and bisection's worst case plus one step."""

    # (fn -> (f, f', f''), lo, hi, root).  No slopes: a sign step
    # (interpolation has nothing to use), a flat root where regula falsi
    # crawls, and -inf at or near hi (a pole).  Slopes: exact ones, on a
    # smooth root, on x^9 where Halley's step crawls and at the pole, and
    # deliberately wrong ones, of varying sign and size
    CASES = {
        "sign-step": (no_slopes(lambda x: 1.0 if x < 1.0 / 3.0 else -1.0), 0.0, 1.0, 1.0 / 3.0),
        "x9": (no_slopes(lambda x: x ** 9 - 0.5), 0.0, 2.0, 0.5 ** (1.0 / 9.0)),
        "pole-at-hi": (no_slopes(pole), 0.0, 1.0, 0.5),
        "inf-near-hi": (no_slopes(lambda x: 0.2 - x if x <= 0.9 else -math.inf), 0.0, 1.0, 0.2),
        "cos-slopes": (lambda x: (math.cos(x), -math.sin(x), -math.cos(x)), 1.0, 2.0,
                       0.5 * math.pi),
        "x9-slopes": (lambda x: (x ** 9 - 0.5, 9.0 * x ** 8, 72.0 * x ** 7), 0.0, 2.0,
                      0.5 ** (1.0 / 9.0)),
        "pole-at-hi-slopes": (lambda x: (pole(x), -1.0 / (1.0 - x) ** 2, -2.0 / (1.0 - x) ** 3)
                              if x < 1.0 else (-math.inf, math.nan, math.nan), 0.0, 1.0, 0.5),
        "wrong-slopes": (lambda x: (1.0 / 3.0 - x, 1e3 * math.sin(50.0 * x),
                                    1e5 * math.cos(70.0 * x)), 0.0, 1.0, 1.0 / 3.0),
        "wrong-sign-slopes": (lambda x: (math.cos(x), math.sin(x), math.cos(x)), 0.0, 3.0,
                              0.5 * math.pi),
    }

    # a smooth root with exact slopes: at most 3 steps from the interpolated
    # start (5 from Halley steps alone; ITP alone: 5, 8 and 9)
    HALLEY_STEPS = {"cos-slopes": 3}

    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-13])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_worst_case_bracket_and_root(self, name, tol):
        fn, lo, hi, root = self.CASES[name]
        calls = []
        ref = refine_bracket(lambda x: calls.append(x) or fn(x), lo, hi, fn(lo), fn(hi), tol)
        assert ref.iterations == len(calls)
        assert ref.iterations <= self.HALLEY_STEPS.get(
            name, math.ceil(math.log2((hi - lo) / tol)) + 1)
        assert all(lo < x < hi for x in calls)
        assert lo <= ref.lo <= ref.hi <= hi and ref.hi - ref.lo <= tol
        f_lo, f_hi = fn(ref.lo)[0], fn(ref.hi)[0]
        assert 0.0 in (f_lo, f_hi) or (f_lo < 0.0) != (f_hi < 0.0)
        assert abs(ref.root - root) <= tol
        if math.isnan(fn(lo)[1]):
            # with no slopes the steps are ITP's, point for point
            f = lambda x: fn(x)[0]
            assert calls == itp_iterates(f, lo, hi, f(lo), f(hi), tol)

    # (coefficients, lo, hi, root): degrees 1 to 5, one root in the bracket,
    # in the middle, near an end, and in a wide bracket
    POLYS = [
        (poly_from_roots([0.5], (2.0,)), 0.0, 3.0, 0.5),
        (poly_from_roots([0.3], (1.0, 0.0, 1.0)), 0.0, 1.0, 0.3),
        (poly_from_roots([0.01, 2.0, -1.0, -5.0], (-1.0,)), 0.0, 1.0, 0.01),
        (poly_from_roots([1.7, -2.0, 4.0], (0.5, 0.0, 1.0)), 1.0, 3.0, 1.7),
        (poly_from_roots([7.25, 20.0, -3.0], (5.0, -2.0, 1.0)), 0.0, 10.0, 7.25),
        (poly_from_roots([2.0 ** 0.5, 3.0, -3.0, 0.5, -0.5], (-1e-6,)), 1.0, 2.0, 2.0 ** 0.5),
    ]

    @pytest.mark.parametrize("case", range(len(POLYS)))
    def test_interpolated_root_of_a_quintic_is_its_root(self, case):
        # the quintic Hermite interpolant of a polynomial of degree <= 5 is
        # the polynomial itself, so the first point sits delta towards the
        # midpoint from its root, delta = 2.5e-5 of the width clamped to
        # [4 tol, width/4]
        coeffs, lo, hi, root = self.POLYS[case]
        fn = poly_jet(coeffs)
        tol = 1e-12
        x = _jet_start(lo, hi, fn(lo), fn(hi), tol)
        delta = min(max(2.5e-5 * (hi - lo), 4.0 * tol), 0.25 * (hi - lo))
        assert x - root == pytest.approx(math.copysign(delta, 0.5 * (lo + hi) - root), abs=1e-14)
        calls = []
        ref = refine_bracket(lambda t: calls.append(t) or fn(t), lo, hi, fn(lo), fn(hi), tol)
        assert calls[0] == x
        assert abs(ref.root - root) <= tol
        assert ref.iterations <= math.ceil(math.log2((hi - lo) / tol)) + 1

    # (lo, hi, root, tol, first point): the shift 2.5e-5 of the width, raised
    # to 4 tol, capped at width/4, and the midpoint where the shift passes it
    SHIFTS = [(0.0, 1.0, 0.9, 1e-12, 0.9 - 2.5e-5), (0.0, 1e-9, 0.25e-9, 1e-12, 0.25e-9 + 4e-12),
              (0.0, 1.0, 0.1, 0.1, 0.35), (0.0, 1.0, 0.4, 0.1, 0.5)]

    @pytest.mark.parametrize("case", range(len(SHIFTS)))
    def test_interpolated_point_shift_is_clamped(self, case):
        lo, hi, root, tol, first = self.SHIFTS[case]
        fn = poly_jet((-root, 1.0))
        assert _jet_start(lo, hi, fn(lo), fn(hi), tol) == pytest.approx(first, rel=1e-12)

    @pytest.mark.parametrize("case", range(len(POLYS)))
    def test_one_interpolant_root_per_refine(self, case, monkeypatch):
        # finite end jets: one quintic and one root of it, no cubic
        calls, poly_root = [], zeros._poly_root

        def counting(*args):
            calls.append(args)
            return poly_root(*args)

        monkeypatch.setattr(zeros, "_poly_root", counting)
        coeffs, lo, hi, root = self.POLYS[case]
        fn = poly_jet(coeffs)
        refine_bracket(fn, lo, hi, fn(lo), fn(hi), 1e-12)
        assert len(calls) == 1 and len(calls[0][0]) == 6

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_non_finite_end_entry_takes_no_interpolated_point(self, end, entry):
        # NaN slopes (after a step that ends on a zero) or an infinite value
        # (a pole) at either end: no interpolated point; the refine starts with a Halley
        # or ITP step and keeps the worst case
        coeffs, lo, hi, root = self.POLYS[3]
        fn, tol = poly_jet(coeffs), 1e-12
        ends = {"lo": list(fn(lo)), "hi": list(fn(hi))}
        value = ends[end][0]
        ends[end][entry] = math.copysign(math.inf, value) if entry == 0 else math.nan
        at_lo, at_hi = tuple(ends["lo"]), tuple(ends["hi"])
        assert _jet_start(lo, hi, at_lo, at_hi, tol) is None
        calls = []
        ref = refine_bracket(lambda t: calls.append(t) or fn(t), lo, hi, at_lo, at_hi, tol)
        assert calls[0] != _jet_start(lo, hi, fn(lo), fn(hi), tol)
        assert ref.iterations <= math.ceil(math.log2((hi - lo) / tol)) + 1
        assert abs(ref.root - root) <= tol

    def test_zero_next_to_an_extremum_of_an_end(self, monkeypatch):
        # at (4.105, -22.918) the end of the first F bracket with the smaller
        # |f| sits near an extremum, so a Halley step from it moves 3% of the
        # width; started there the refine took 12 steps, from the
        # interpolated point it takes 4
        steps = []

        def counting(*args):
            ref = refine_bracket(*args)
            steps.append(ref.iterations)
            return ref

        monkeypatch.setattr(zeros, "refine_bracket", counting)
        zs = find_zeros(CoulombParams(4.105, -22.918), ZeroTarget.F, 1, 0)
        assert zs.positive[0] == pytest.approx(0.99368, abs=1e-5)
        assert steps == [steps[0]] and steps[0] <= 5

    def test_find_zeros_evaluation_count(self, evaluations):
        # deterministic gates: the scan steps of 20 zeros, one
        # half-Sturm-spacing step for every target, the zero-free start of the
        # negative axis unevaluated, the points near the origin from the
        # table of its coefficients, past its reach every scan step a jet of
        # a kept sum on either side, else read back from the sum two grid
        # steps ahead, summed where no table serves it, each refine started
        # at the interpolated point of the scan's end jets and every refine
        # point a jet of a kept sum (10, 11 and 10; 16, 15 and 14 with the
        # sum at the point itself and the nearest kept sum alone; 16
        # each when the scan summed every third grid point, 20 for each target
        # with no table, 32, 31 and 30 with every second scan step summed, 47, 45
        # and 44 with every scan step summed, 67, 65 and 64 with each refine's
        # first point summed too, 117, 118 and 114 with every refine point
        # summed, 118, 119 and 115 with the zero-free start evaluated too, 139,
        # 138 and 138 from Halley steps alone, 223, 220 and 221 with ITP steps
        # alone); jets and table points are no sums
        gates = {ZeroTarget.F: 10, ZeroTarget.F_PRIME: 11, ZeroTarget.G_PRIME: 10}
        for target, gate in gates.items():
            evaluations.clear()
            zs = find_zeros(CoulombParams(0.5, -1.0), target, 10, 10)
            assert len(zs.positive) == len(zs.negative) == 10
            assert len(evaluations) <= gate, target


def _tables_at_sums(monkeypatch, replace):
    """Every value a table at a sum serves, replaced by replace(value); the
    origin's table is left as it is."""
    value = series._Table.value

    def patched(self, x, flip=1.0):
        sv = value(self, x, flip)
        return sv if self._origin or sv is None else replace(sv)

    monkeypatch.setattr(series._Table, "value", patched)


class TestAlternateSteps:
    """The scan takes its anchor from Evaluator.direct and every other grid
    point from Evaluator.value, asked with the grid point two steps on: the
    origin's table, else the table at a kept sum on either side of it, else
    the table at the sum two steps ahead, else a sum; a point whose target
    is noise-limited there is summed instead."""

    SIDES = (CoulombParams(0.5, -1.0), CoulombParams(0.5, 1.0, unsafe=True),
             CoulombParams(2.0, -8.0), CoulombParams(0.0, 20.0, unsafe=True),
             CoulombParams(-0.5, -3.0))

    @staticmethod
    def tabled(values, step):
        """Whether the step's value is the table's."""
        return step.sv._at is None and step.sv == values.table(step.t)

    def test_grid_points_are_the_evaluators_values(self, monkeypatch):
        # every grid point past the anchor is the value Evaluator.value
        # returns with the sums kept before it, asked with the grid point two
        # steps on: the origin table's, else the table's at a kept sum on
        # either side, else the table's at the sum two steps ahead, else a
        # sum; where that value is noise-limited on the target, the scan's
        # value is the sum at the point
        counts = dict.fromkeys(("served", "backward", "summed", "tabled", "ahead", "resummed"), 0)
        value = series.Evaluator.value
        asked = []

        def recorded(self, t, ahead=None):
            asked.append((t, ahead))
            return value(self, t, ahead)

        monkeypatch.setattr(series.Evaluator, "value", recorded)

        def walk(params, target):
            values = series.Evaluator(params)
            steps = zeros.scan(values, target, skip_free=True)
            anchor = next(steps)
            assert anchor.sv == values.direct(anchor.t)
            walked = []
            for _ in range(60):
                kept = list(values._ts), [table.base for table in values._kept]
                asked.clear()
                step = next(steps, None)
                if step is None:
                    break
                # the grid point is the first point asked, before its refine
                t, ahead = asked[0]
                assert t == step.t and ahead is not None, (params, target, t)
                walked.append((step, ahead, kept))
            # the sum ahead is the grid point two steps on
            for (step, ahead, _), (later, _, _) in zip(walked, walked[2:]):
                assert ahead == later.t, (params, target, step.t)
            for step, ahead, (ts, sums) in walked:
                fresh = series.Evaluator(params)
                fresh._ts, fresh._kept = list(ts), [series._Table.at(sv) for sv in sums]
                sv = value(fresh, step.t, ahead)
                if step.sv._at is not None and sv._at is None:
                    (f, _, _), noise = zeros.target_jet(params.L, params.eta, target, step.t, sv)
                    assert zeros.noise_limited(f, noise), (params, target, step.t)
                    assert step.sv._at[2] == step.t
                    counts["resummed"] += 1
                    continue
                assert step.sv == sv, (params, target, step.t)
                if step.sv._at is not None:
                    # summed: every table refuses it, or no sum lies below it
                    assert step.sv._at[2] == step.t and values.table(step.t) is None
                    counts["summed"] += 1
                elif self.tabled(values, step):
                    counts["tabled"] += 1
                elif ahead not in ts and ahead in fresh._ts:
                    # read back from the sum it made two steps ahead
                    counts["ahead"] += 1
                else:
                    counts["served"] += 1
                    counts["backward"] += step.t < fresh._ts[-1] and any(
                        z0 > step.t and table.value(step.t - z0) == sv
                        for z0, table in zip(fresh._ts, fresh._kept))
            # the evaluator keeps no jet and no table value
            assert all(table.base._at is not None for table in values._kept)

        for params in self.SIDES:
            for target in ZeroTarget:
                walk(params, target)
        assert counts["served"] >= 300 and counts["summed"] >= 100, counts
        assert counts["tabled"] >= 30 and counts["ahead"] >= 80, counts
        assert counts["backward"] >= 80 and counts["resummed"] == 0, counts
        # the values with an odd number of rows from tables at sums, their
        # bounds raised past every value: the scan sums those points instead
        _tables_at_sums(monkeypatch, lambda sv: dataclasses.replace(sv, noise=(1e300,) * 3)
                        if sv.truncation_terms % 2 else sv)
        for target in ZeroTarget:
            walk(self.SIDES[0], target)
        assert counts["resummed"] >= 40, counts

    def test_refines_take_jets_of_sums_alone(self, monkeypatch):
        # every base a table is built at, for the scan and for its refines,
        # is a sum, and those tables serve at least 500 points
        bases = []
        at = series._Table.at.__func__

        def recorded(cls, value):
            bases.append(value)
            return at(cls, value)

        monkeypatch.setattr(series._Table, "at", classmethod(recorded))
        with series.counting() as counts:
            for params in self.SIDES:
                for target in ZeroTarget:
                    values = series.Evaluator(params)
                    refined = [s for s in zeros.scan(values, target) if s.zero is not None][:6]
                    assert refined, (params, target)
                    assert all(table.base._at is not None for table in values._kept)
        assert counts.jets >= 500 and all(sv._at is not None for sv in bases)

    def test_jet_noise_limited_on_the_target_is_summed_instead(self, monkeypatch):
        # jets with their bounds raised past every value: the scan sums each
        # such point and walks the same grid to the same zeros
        params = CoulombParams(0.5, -1.0)
        plain = list(itertools.islice(zeros.scan(series.Evaluator(params), ZeroTarget.F_PRIME),
                                      30))
        _tables_at_sums(monkeypatch, lambda sv: dataclasses.replace(sv, noise=(1e300,) * 3))
        values = series.Evaluator(params)
        summed = list(itertools.islice(zeros.scan(values, ZeroTarget.F_PRIME), 30))
        assert sum(step.sv._at is None and not self.tabled(values, step) for step in plain) >= 10
        # the steps near the origin are still the table's, which takes no jet
        assert all(step.sv._at is not None or self.tabled(values, step) for step in summed)
        assert [s.t for s in summed] == [s.t for s in plain]
        assert [s.zero is None for s in summed] == [s.zero is None for s in plain]

    @staticmethod
    def grid():
        """Seeded (L, eta) pairs, with the noise-limited (0, -6000) and the
        large-eta (10, -25) and (0, -20)."""
        rng = random.Random(30)
        yield from ((0.0, -6000.0), (10.0, -25.0), (0.0, -20.0))
        for _ in range(9):
            L = rng.uniform(-0.9, 8.0)
            yield L, rng.choice((rng.uniform(-25.0, 0.0), rng.uniform(-3.0, 0.0)))

    def test_horizon_matches_every_step_summed(self, monkeypatch):
        # a jet noise-limited on the target is summed instead, so the scan
        # stops where summing every step stops: same counts, same flags
        found = {(L, eta, target): find_zeros(CoulombParams(L, eta), target, 12, 12)
                 for L, eta in self.grid() for target in ZeroTarget}
        _tables_at_sums(monkeypatch, lambda sv: None)
        truncated = 0
        for (L, eta, target), zs in found.items():
            summed = find_zeros(CoulombParams(L, eta), target, 12, 12)
            assert zs.truncated == summed.truncated, (L, eta, target)
            assert len(zs.positive) == len(summed.positive), (L, eta, target)
            assert len(zs.negative) == len(summed.negative), (L, eta, target)
            truncated += zs.truncated
        assert truncated >= 3


class TestExactGridZero:
    """A grid value of exactly 0.0 is a zero of a smooth target like any
    other: the scan reports it once, on the grid point, and the zeros on
    either side do not move."""

    PARAMS = CoulombParams(2.0, -3.0)

    @staticmethod
    def grid_values(params, count):
        """The zeros of F and the target at every grid point of find_zeros's
        positive side, as the scan computes them."""
        seen = {}
        target_jet = zeros.target_jet

        def recorded(L, eta, target, t, sv):
            seen[t] = out = target_jet(L, eta, target, t, sv)
            return out

        steps = list(itertools.islice(zeros.scan(series.Evaluator(params), ZeroTarget.F,
                                                 skip_free=True), 4 * count))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros, "target_jet", recorded)
            found = find_zeros(params, ZeroTarget.F, count, 0).positive
        return found, [s.t for s in steps], seen

    @pytest.mark.parametrize("index, positive_before", [(3, True), (2, False)])
    def test_grid_zero_is_reported_once(self, monkeypatch, index, positive_before):
        # the target less its own grid value at t_g times a C2 bump of
        # half-width w about t_g: a simple zero of a smooth function at t_g,
        # in place of the index-th zero next to it, and the same target
        # beyond t_g +- w
        params, count = self.PARAMS, 6
        found, grid, seen = self.grid_values(params, count)
        zero = found[index - 1]
        g = min(range(1, len(grid) - 1), key=lambda j: abs(grid[j] - zero))
        t_g = grid[g]
        w = 0.9 * min(t_g - grid[g - 1], grid[g + 1] - t_g)
        c = seen[t_g][0][0]
        assert abs(t_g - zero) < 0.5 * w and c != 0.0
        assert (seen[grid[g - 1]][0][0] > 0.0) == positive_before
        target_jet, on_grid = zeros.target_jet, []

        def shifted(L, eta, target, t, sv):
            (f, d1, d2), noise = target_jet(L, eta, target, t, sv)
            x = (t - t_g) / w
            if abs(x) < 1.0:
                u = 1.0 - x * x
                f, d1, d2 = (f - c * u ** 3, d1 + 6.0 * c * x * u * u / w,
                             d2 + c * (6.0 * u * u - 24.0 * x * x * u) / (w * w))
            if t == t_g:
                on_grid.append(f)
            return (f, d1, d2), noise

        monkeypatch.setattr(zeros, "target_jet", shifted)
        moved = find_zeros(params, ZeroTarget.F, count, 0)
        assert on_grid == [0.0]
        assert len(moved.positive) == count and not moved.truncated
        near = [x for x in moved.positive if abs(x - t_g) < w]
        assert len(near) == 1 and abs(near[0] - t_g) <= zeros.REFINE_TOL, (near, t_g)
        assert [x for x in moved.positive if x not in near] == [
            x for x in found if x != zero]

    def test_noise_floor_ends_the_scan(self, monkeypatch):
        # one grid sum with its bound raised past its value: the scan stops
        # there and find_zeros returns the zeros before it, truncated.  The
        # sum is the first made past the fourth zero's step, at 21.80, two
        # grid steps ahead of the step at 18.81 that makes it; that step
        # finds the table at the sum noise-limited and sums its own point,
        # and the zeros below 21.80 are the clean walk's seven, bit for bit
        # (the first sum past the fourth zero's step, at 15.84, had five
        # zeros below it when each sum lay at the point that asked for it;
        # four when the scan summed every third grid point)
        params = CoulombParams(0.5, -1.0)
        walk = zeros.scan(series.Evaluator(params), ZeroTarget.F, skip_free=True)
        steps = []
        for _ in range(24):
            with series.counting() as made:
                steps.append((next(walk), made.points))
        fourth = [s.t for s, _ in steps if s.zero is not None][3]
        stop = next(points[0] for s, points in steps if s.t > fourth and points)
        before = tuple(s.zero for s, _ in steps if s.zero is not None and s.t < stop)
        direct = series._direct

        def noisy(L, eta, z):
            sv = direct(L, eta, z)
            if (L, eta, z) == (params.L, params.eta, stop):
                sv = dataclasses.replace(sv, noise=(1.0, 1.0, 1.0))
            return sv

        monkeypatch.setattr(series, "_direct", noisy)
        zs = find_zeros(params, ZeroTarget.F, len(before) + 3, 0)
        assert zs.truncated and len(before) == 7
        assert zs.positive == before


def test_zero_read_from_a_far_table_at_a_sum():
    # the 9th negative zero of g' at this (L, eta) lies 2.5e-13 from mpmath's
    # root.  With 48 rows a table (at the sum at 25.20 of (L, -eta)) reaches
    # the step (36.19, 37.76] and its refine, and reads the target there with
    # noise 3.4e-8 where |g'| < 1.4e-6: the zero moves 1.3e-10.  No table at a
    # sum refuses a point for the size of its bound, so longer tables fail here
    zs = find_zeros(CoulombParams(3.3043765656145294, -1.9119683311281697), "g_prime", 10, 10)
    x = zs.negative[8]
    assert len(zs.negative) == 10 and not zs.truncated
    assert abs(x - -37.155255549761911828) <= 5e-13 * max(1.0, abs(x)), x


class TestLargeEta:
    """Zeros crowd the origin as eta -> -inf; the oracle is mpmath.coulombf."""

    def test_first_zeros_at_eta_minus_20(self):
        mpmath = pytest.importorskip("mpmath")
        zs = find_zeros(CoulombParams(0.0, -20.0), ZeroTarget.F, 2, 0)
        for x, want in zip(zs.positive, (0.0916922474875766, 0.3068310134599343)):
            oracle = float(mpmath.findroot(lambda t: mpmath.coulombf(0, -20, t), want))
            assert x == pytest.approx(oracle, abs=1e-12)
            assert x == pytest.approx(want, abs=1e-12)

    def test_simple_zeros_at_large_L_are_not_refused(self):
        # P = F/(C z^(L+1)) shrinks like z^-(L+1): near 44.74 both P and P' are
        # below 1e-9, yet F has no multiple zero at z != 0 (u'' + q u = 0), so
        # every sign change is one simple zero
        mpmath = pytest.importorskip("mpmath")
        zs = find_zeros(CoulombParams(10.0, -2.0), "F", 12, 0)
        assert len(zs.positive) == 12 and not zs.truncated
        for x in zs.positive:
            oracle = float(mpmath.findroot(lambda t: mpmath.coulombf(10, -2, t), x))
            assert x == pytest.approx(oracle, abs=1e-11)

    def test_zeros_past_the_old_noise_floor_at_eta_minus_25(self):
        # at (10, -25), |P| near the zeros of F past 17.5 is far below what a
        # 106-bit sum resolves; summed at the precision each point needs,
        # zeros 11-16 and the 12th zero of F' lie within the refine tolerance
        # of mpmath, and neither scan is truncated
        mpmath = pytest.importorskip("mpmath")
        params = CoulombParams(10.0, -25.0)
        zs = find_zeros(params, ZeroTarget.F, 16, 0)
        fp = find_zeros(params, ZeroTarget.F_PRIME, 12, 0)
        assert len(zs.positive) == 16 and not zs.truncated
        assert len(fp.positive) == 12 and not fp.truncated
        with mpmath.workdps(40):
            F = lambda t: mpmath.coulombf(10, -25, t)  # noqa: E731
            for x in zs.positive[10:]:
                oracle = float(mpmath.findroot(F, mpmath.mpf(x)))
                assert abs(x - oracle) <= zeros.REFINE_TOL * max(1.0, abs(x)), x
            x = fp.positive[11]
            oracle = float(mpmath.findroot(lambda t: mpmath.diff(F, t), mpmath.mpf(x)))
            assert abs(x - oracle) <= zeros.REFINE_TOL * max(1.0, abs(x))

    def test_no_zero_skipped_at_eta_minus_100(self):
        zs = find_zeros(CoulombParams(0.0, -100.0), ZeroTarget.F, 12, 0)
        assert len(zs.positive) == 12 and zs.positive[-1] < 1.85
        cells = mpmath_zero_cells(0.0, -100.0, 1.85, 0.0025)[ZeroTarget.F]
        assert len(cells) == 12
        for (lo, hi), x in zip(cells, zs.positive):
            assert lo < x <= hi


class TestInterlacing:
    def test_classical_sine_cosine(self):
        zf = find_zeros(P00, ZeroTarget.F, 4, 4)
        zfp = find_zeros(P00, ZeroTarget.F_PRIME, 4, 4)
        assert not (zf.truncated or zfp.truncated)
        assert _interlaced(zf, zfp)

    def test_half_order_bessel_chain(self):
        params = CoulombParams(0.5, 0.0)
        assert _interlaced(
            find_zeros(params, ZeroTarget.F, 4, 4),
            find_zeros(params, ZeroTarget.F_PRIME, 4, 4),
        )

    def test_acceptance_grid_case(self):
        params = CoulombParams(1.0, -1.0)
        zf = find_zeros(params, ZeroTarget.F, 4, 4)
        zfp = find_zeros(params, ZeroTarget.F_PRIME, 4, 4)
        assert not (zf.truncated or zfp.truncated)
        assert _interlaced(zf, zfp)

    def test_chain_sees_a_skipped_zero(self):
        zf = find_zeros(P00, ZeroTarget.F, 4, 4)
        zfp = find_zeros(P00, ZeroTarget.F_PRIME, 4, 4)
        skipped = dataclasses.replace(zf, positive=zf.positive[:1] + zf.positive[2:])
        assert not _interlaced(skipped, zfp)
        skipped = dataclasses.replace(zfp, negative=zfp.negative[:1] + zfp.negative[2:])
        assert not _interlaced(zf, skipped)

    @pytest.mark.parametrize("eta", [0.0, -1.0, -5.0, -20.0])
    @pytest.mark.parametrize("L", [-0.9, -0.5, 0.0, 2.5, 10.0])
    def test_derivative_zeros_interlace_wide_grid(self, L, eta):
        # one zero of F' and of g' below the first zero of F and one between
        # neighbours, on both sides, also at L <= -1/2 and large |eta|.  Only
        # the precision horizon ends a scan: every list is full except the
        # negative side at eta = -20 (it sees -eta = 20), which stops after
        # one or two zeros, so there the chain runs as far as both lists reach
        params = CoulombParams(L, eta)
        full = eta > -20.0
        zf = find_zeros(params, ZeroTarget.F, 4, 4)
        for target in (ZeroTarget.F_PRIME, ZeroTarget.G_PRIME):
            zd = find_zeros(params, target, 4, 4)
            assert _interlaced(zf, zd), target
            for zs in (zf, zd):
                assert len(zs.positive) == 4
                assert len(zs.negative) == 4 if full else len(zs.negative) >= 1
                assert zs.truncated is not full


class TestProductEval:
    def test_explicit_zero_factor(self):
        zs = find_zeros(P00, ZeroTarget.F, 3, 3)
        assert _product(P00, zs.positive, zs.negative, 0.0, 2) == 0.0
        # z equal to a stored zero kills its factor exactly
        assert _product(P00, zs.positive, zs.negative, zs.positive[0], 3) == 0.0

    def test_sine_product_with_oracle_zeros(self):
        zeros = [n * math.pi for n in range(1, 801)]
        mirrored = [-x for x in zeros]
        value = _product(P00, zeros, mirrored, 1.0, 100)
        rel = abs(value - math.sin(1.0)) / math.sin(1.0)
        assert rel <= 2.1e-3
        # error contracts by at least 1/0.75 per doubling of K
        errs = []
        for K in (100, 200, 400, 800):
            v = _product(P00, zeros, mirrored, 1.0, K)
            errs.append(abs(v - math.sin(1.0)))
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.75 * a

    def test_product_converges_to_series_value(self):
        from coulomb_radii import eval_point

        params = CoulombParams(1.0, -1.0)
        zs = find_zeros(params, ZeroTarget.F, 8, 8)
        z = 0.8 * zs.positive[0]
        want = z * eval_point(params, z).p0
        errs = [abs(_product(params, zs.positive, zs.negative, z, K) - want)
                for K in (2, 4, 8)]
        assert errs[1] <= 0.75 * errs[0]
        assert errs[2] <= 0.75 * errs[1]
