"""Zero localization; the found zeros against the interlacing chain and the
truncated Weierstrass product of the acceptance matrix."""

import dataclasses
import itertools
import math

import pytest

from coulomb_radii import CoulombParams, series, zeros
from coulomb_radii.verify import _interlaced, _product, bessel_j
from coulomb_radii.zeros import ZeroTarget, _jet_roots, _jet_start, find_zeros, refine_bracket

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
    """The negative axis with L >= 0 skips the grid points in (0, t*], where
    q (r for g') < 0 and no target zero lies (zeros module docstring)."""

    def test_no_zero_skipped_at_eta_minus_20(self):
        # negative-axis zeros of (L, eta) are the positive zeros of (L, -eta)
        L, eta, step = 2.0, -20.0, 0.05
        t_star = {ZeroTarget.F: 20.0 + math.sqrt(400.0 + L * (L + 1.0)),
                  ZeroTarget.G_PRIME: 20.0 + math.sqrt(400.0 + 2.0 * L)}
        t_star[ZeroTarget.F_PRIME] = t_star[ZeroTarget.F]
        params = CoulombParams(L, eta)
        for target, t in t_star.items():
            # the first step is (0, t_k], t_k the last grid point at or below t*
            first, second = itertools.islice(zeros.scan(params, target, -1.0), 2)
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
        # deterministic gates: 15 and 6 evaluations, against 41 and 37 with
        # every grid point of (0, t*] evaluated
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
        step = next(s for s in zeros.scan(params, ZeroTarget.F, -1.0) if s.zero is not None)
        assert 0.0 < step.t_prev < 0.039 < step.t < 2.0


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
        # the polynomial itself, and the cubic one for degree <= 3
        coeffs, lo, hi, root = self.POLYS[case]
        fn = poly_jet(coeffs)
        x_q, x_c = _jet_roots(lo, hi, fn(lo), fn(hi))
        assert x_q == pytest.approx(root, abs=1e-14)
        if len(coeffs) <= 4:
            assert x_c == pytest.approx(root, abs=1e-14)
        # the first point sits delta towards the midpoint, delta >= 4 tol
        tol = 1e-12
        x = _jet_start(lo, hi, fn(lo), fn(hi), tol)
        delta = min(max(0.05 * abs(x_q - x_c), 4.0 * tol), 0.25 * (hi - lo))
        assert x - x_q == pytest.approx(math.copysign(delta, 0.5 * (lo + hi) - x_q), rel=1e-9)
        calls = []
        ref = refine_bracket(lambda t: calls.append(t) or fn(t), lo, hi, fn(lo), fn(hi), tol)
        assert calls[0] == x
        assert abs(ref.root - root) <= tol
        assert ref.iterations <= math.ceil(math.log2((hi - lo) / tol)) + 1

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_non_finite_end_entry_takes_no_interpolated_point(self, end, entry):
        # NaN slopes (the scan's origin) or an infinite value (a pole) at
        # either end: no interpolated point; the refine starts with a Halley
        # or ITP step and keeps the worst case
        coeffs, lo, hi, root = self.POLYS[3]
        fn, tol = poly_jet(coeffs), 1e-12
        ends = {"lo": list(fn(lo)), "hi": list(fn(hi))}
        value = ends[end][0]
        ends[end][entry] = math.copysign(math.inf, value) if entry == 0 else math.nan
        at_lo, at_hi = tuple(ends["lo"]), tuple(ends["hi"])
        assert _jet_roots(lo, hi, at_lo, at_hi) is None
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
        # deterministic gates: the scan steps plus the refine steps of 20
        # zeros, one half-Sturm-spacing step for every target, each refine
        # started at the interpolated point of the scan's end jets, the
        # zero-free start of the negative axis unevaluated (F 117, F' 118,
        # g' 114; 118, 119 and 115 with it evaluated, 139, 138 and 138 from
        # Halley steps alone, 223, 220 and 221 with ITP steps alone); the
        # refine steps count whether summed directly or about a scan step
        gates = {ZeroTarget.F: 119, ZeroTarget.F_PRIME: 120, ZeroTarget.G_PRIME: 116}
        for target, gate in gates.items():
            evaluations.clear()
            zs = find_zeros(CoulombParams(0.5, -1.0), target, 10, 10)
            assert len(zs.positive) == len(zs.negative) == 10
            assert len(evaluations) <= gate, target


class TestLocalRefine:
    """Refine steps sum about the nearer scan step; the radius solve sums
    from the origin."""

    def test_every_base_is_a_scan_step(self, monkeypatch):
        # each base is the direct sum of one end of the scan step that holds
        # the point, the nearer one, and the scan's own value there
        from coulomb_radii import radii
        from coulomb_radii.radii import RadiusQuery

        seen = []
        near = zeros.eval_near

        def recording(base, z):
            seen.append((base, z))
            return near(base, z)

        monkeypatch.setattr(zeros, "eval_near", recording)
        params = CoulombParams(0.5, -1.0)
        steps = {}
        for sign in (1.0, -1.0):
            for step in itertools.islice(zeros.scan(params, ZeroTarget.F, sign), 12):
                steps[sign * step.t] = step
        assert seen
        for base, z in seen:
            assert base._base is not None  # a direct sum
            t0 = base._base[2]
            assert t0 in steps and repr(steps[t0].sv) == repr(base)
            step = next(s for s in steps.values() if s.t_prev < abs(z) < s.t)
            assert abs(abs(z) - abs(t0)) <= 0.5 * (step.t - step.t_prev)
        # a radius in another step than its cap: only the cap refine sums
        # locally, about the ends of the cap's step
        params = CoulombParams(2.5, -3.0)
        cap_step = next(s for s in zeros.scan(params, ZeroTarget.G_PRIME) if s.zero is not None)
        seen.clear()
        res = radii.radius(RadiusQuery(params, "g", "convex", 0.5))
        assert res.value < cap_step.t_prev
        assert seen
        for base, z in seen:
            assert base._base is not None
            assert base._base[2] in (cap_step.t_prev, cap_step.t)
            assert cap_step.t_prev < z < cap_step.t

    def test_refined_zeros_match_direct_sums(self, monkeypatch):
        # every refine step summed from the origin instead gives the same zeros
        params = CoulombParams(4.105, -22.918)
        local = find_zeros(params, ZeroTarget.F_PRIME, 10, 10)
        monkeypatch.setattr(zeros, "eval_near",
                            lambda base, z: series.eval_point(params, z))
        assert find_zeros(params, ZeroTarget.F_PRIME, 10, 10) == local


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
