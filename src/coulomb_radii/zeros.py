"""Real-zero localization for F, F' and g'.

Targets are reduced to the series factor P (values and noise floors live in
the equations module):

    F        -> P(z)                 (the nontrivial zeros; z = 0 excluded)
    F_prime  -> (L+1) P(z) + z P'(z)
    g_prime  -> P(z) + z P'(z)

Zeros are swept outward from the origin, bracketed by sign change, and
refined by Halley steps guarded by ITP (interpolate, truncate, project; see
refine_bracket), which keep the bracket.  Every evaluation returns P' and
P'' with P, and equations.target_jet turns them into the target's slope
and curvature, so the Halley steps cost no evaluation beyond the step's own,
and the scan hands the refine the jets it has at both ends.  The refine's
first point is the root of the quintic Hermite interpolant of those two
jets, moved 2.5e-5 of the step towards the midpoint so that it cuts off the
long side of the bracket (refine_bracket); it costs no evaluation, and a
zero takes about 3.3 refine steps over the first 180 seeded zero-scan
operations of perfbench.  The scan walks the positive axis only.  P(-t) at
eta is P(t) at -eta, sum for sum and table point for table point, bit for
bit (P' flips sign, P and P'' do not), so find_zeros finds the negative
zeros of (L, eta) as the positive zeros of (L, -eta), negated, on an
evaluator that shares the origin's table (Evaluator.reflected).

Every target is stepped by half the Sturm spacing, 0.5 pi/sqrt(Q(t)).
u = F/C solves u'' + q u = 0, q(t) = 1 - 2 eta/t - L(L+1)/t^2 (DLMF
33.2), and on [t, inf) q stays below Q = 1 + max(0, -2 eta)/t +
max(0, -L(L+1))/t^2.  Scaled Pruefer variables u = rho sin(theta),
u' = sqrt(Q) rho cos(theta) give

    theta' = sqrt(Q) cos^2(theta) + (q/sqrt(Q)) sin^2(theta) <= sqrt(Q),

so theta rises by at most pi/2 over a step, and it passes each multiple of
pi once, upward (theta' = sqrt(Q) there).  Each target's zeros sit at a
fixed phase of theta mod pi: F at 0, F' at pi/2, g' (u' = (L/z) u) at
phi(z) = arccot(L/(z sqrt(Q))).  So a step holds at most one zero of F.
On a side where a target's zeros interlace with those of F, theta passes a
multiple of pi between two of its zeros and rises by pi + phi(z2) - phi(z1):
pi for F', at least pi for g' with L >= 0 (phi rises with z), more than
pi/2 for g' with L < 0 (phi falls by less than pi/2).  Consecutive zeros
are then more than a step apart, and a step holds at most one of them.

Interlacing is proven where q, or r = 1 - 2 eta/t - 2L/t^2 for g', changes
sign at most once, from - to + (at a zero of F', F'' = -q F, so where q > 0
every critical point of F is a strict extremum): for all L > -1 when
eta <= 0, and for L >= 0 at any eta.  That covers the positive axis of
certified parameters, and their negative axis (the positive axis at
-eta >= 0) for L >= 0.  The proof stops where eta > 0 and -1 < L < 0 with
eta^2 > -L(L+1) (F') or eta^2 > -2L (g'), unsafe eta > 0 included: there q
or r dips below zero on an interval, and the half step is a margin only.
On 270 such cases it found the same zeros as a scan at 1/32 of the spacing.

The scan starts with a zero-free stretch (0, t*] where L >= 0, with
t* = eta + sqrt(eta^2 + L(L+1)) for F and F', and eta + sqrt(eta^2 + 2L)
for g'.  Where t* > 0 (L > 0, or L = 0 with eta > 0), q (r for g') < 0 on
(0, t*).  There u'' = -q u has the sign of u, so
(u u')' = u'^2 - q u^2 > 0, and u ~ t^(L+1) gives u u' > 0 just right of the
origin: neither u nor u' vanishes on (0, t*].  For g', v = t^(-L) u = t P has
v' proportional to g', and (t^(2L) v')' = -r t^(2L) v gives
(v t^(2L) v')' = t^(2L) (v'^2 - r v^2) > 0 with v v' > 0 at 0+.  Both
products are positive at t* itself, so a t* rounded a few ulps high holds no
zero either.  With skip_free the scan walks its grid through (0, t*]
unevaluated and takes (0, t_k] as its first step, t_k the last grid point
at or below t*; the grid is the one it would have walked, and it sums the
same points of it either way (below), so every later step, refine and zero
is the same double.  find_zeros skips the stretch on
both sides.  The radius solver keeps every step: it reads its equation off
each step of the cap scan, and a first step (0, t*] widens the radius
bracket (at (48, 0), g-starlike, the direct and ratio forms then differ by
1.4e-12).  L > -1 is needed: for unsafe L < -1, L(L+1) > 0 too, but u u' < 0
at the origin, and at (-1.3, 5) F vanishes at z = 0.039.

The scan runs until it has the requested count or reaches the precision
horizon: the first step where the target, summed, is within eight of its
error bounds of zero (and the bound exceeds 1e-14; equations.noise_limited), so
its sign is no longer resolvable, or the end of the evaluator's range: the
last step ends exactly at |z| = EVAL_Z_MAX (55) and the scan stops there (a
point whose value overflows a double raises ConvergenceError, which also
ends the scan).  The series is summed at the precision each point needs,
so inside the range the horizon is reached only where that precision
passes the series module's cap.
Running past that horizon would report garbage zeros, so the result is
flagged truncated instead.  The horizon, and every point the scan sums,
depend on (L, eta) and the target alone, never on the count asked, so the
first k zeros of a request do not depend on how many more were requested.

Each sign change is refined as one zero, with no check for a multiple one:
refine_bracket converges on any sign change, and F has only simple zeros at
z != 0 (a solution of u'' + q u = 0 that vanishes with its slope there is
zero throughout).  A value of exactly 0.0 counts as non-negative.  A grid
point on a zero then shows the sign change in the step beside it whose
other end is negative, and that step's refine converges onto it within
REFINE_TOL, the next zero lying more than a step away.  The series is
evaluated only at scan steps and refine steps, never at the refined root
itself, and every value comes from one series.Evaluator of (L, eta), which
the caller builds and the scan asks.  The first step starts at its value at
the origin, from the origin's table (series module docstring, Tables),
which is no sum.  The anchor, the last grid point of the zero-free stretch
(0, t*] where L >= 0 and there is one, else the first grid point, is
Evaluator.direct: the origin table's value within its reach, and past it a
sum from the origin (Evaluator.sum), which the evaluator keeps with its
table; a table builds its rows as points ask.  Every other point, of the
grid or of a refine, is Evaluator.value: the origin table's value, or else
that of the table at a kept sum on either side of the point, the nearer
first, summed and kept instead where those tables refuse it (past their
reach, or noise-limited) or where the point lies below every kept sum.
Past the anchor the scan asks each grid point with the grid point two steps
on: where no table serves a point past every kept sum, the evaluator sums
that point ahead and keeps it, reads the point back from its table, and
sums the point itself only where that table refuses it (or where the sum
ahead raises ConvergenceError).  So each table at a sum serves points on
both sides of it, and a point is summed only where no table serves it.  A
grid point where the target is noise_limited is summed too, which for a
summed point is its kept sum again; so the scan stops where one that sums
every step stops, and every sign of a grid point is decided against a
proven bound.  The anchor is the same with and without skip_free, and no
grid point up to it asks for a sum ahead.  Where the anchor is summed,
every later point's kept sums are the anchor's or later ones, and where the
origin's table serves it and every grid point before it there is no sum
below it; either way both walks sum the same points from t_k on and take
the same steps, bit for bit.  A sum ahead asked before the anchor would
break that: a sum the walk with skip_free never makes would serve the walk
without it (at (3.88, 14.88) for F a zero then moves by a last bit).
The rule names no count, so a walk sums the same points whatever count its
consumer wants; a walk that ends at its first zero may have summed a point
two steps past it.  The radius solver's scan asks ahead too, up to the step
that brackets the radius.  A table point costs a few double operations a
row instead of a sum, and no table value is the base of a table, so errors
never chain.  Each lies within its noise of P, P' and P'', and the zeros
move by less than the refine tolerance against summing every point.

scan is the package's one scan, a generator of steps that find_zeros and
the radius solver both consume, and refine_bracket its one bracketed root
finder.  What serves a point is the evaluator's choice alone: the scan
asks Evaluator.direct at its anchor and Evaluator.value everywhere else,
names the point ahead, and sums a point itself only where the target is
noise-limited there.  The radius solver reads its equation off the series
value of each step and refines the step that brackets the radius with the
slopes of the equation's jet (see the radii module).  refine_bracket
decides signs without a noise-floor check; series.counting() counts its
steps, and as refine_unresolved the scan's refine points whose target
value lies within its noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .equations import ZeroTarget, centrifugal, noise_limited, target_jet
from .errors import ConvergenceError
from .params import CoulombParams
from .series import EVAL_Z_MAX, Evaluator, SeriesValue, _record

REFINE_TOL = 1e-12
_BISECT_CAP = 80


@dataclass(frozen=True)
class ZeroSet:
    """Refined real zeros of one target, split by sign.

    positive is strictly increasing; negative is strictly decreasing (all
    values < 0, moduli increasing).  truncated marks a partial result: the
    requested count was not reachable within the precision horizon.
    """

    params: CoulombParams
    target: ZeroTarget
    positive: tuple[float, ...]
    negative: tuple[float, ...]
    refine_tol: float
    truncated: bool = False


@dataclass(frozen=True)
class _Refined:
    root: float
    lo: float
    hi: float
    iterations: int


def _poly_root(coeffs: tuple[float, ...], u: float, neg_at_0: bool) -> float:
    """A root in [0, 1] of the polynomial sum coeffs[k] u^k, whose value is
    negative at 0 iff neg_at_0 and has the other sign at 1: Newton from u,
    bisecting the bracket of the iterates wherever a step leaves it."""
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_CAP):
        p = dp = 0.0
        for a in reversed(coeffs):
            dp = dp * u + p
            p = p * u + a
        if p == 0.0:
            return u
        if (p < 0.0) == neg_at_0:
            lo = u
        else:
            hi = u
        v = u - p / dp if dp else math.nan
        if not lo < v < hi:
            v = 0.5 * (lo + hi)
        if abs(v - u) <= 1e-15:
            return v
        u = v
    return u


_START_SHARE = 2.5e-5  # the first point's shift towards the midpoint, over the width


def _jet_start(lo: float, hi: float, at_lo: tuple[float, float, float],
               at_hi: tuple[float, float, float], tol: float) -> float | None:
    """The first point of a refine with both end jets (value, slope,
    curvature): the root x_q in [lo, hi] of their quintic Hermite interpolant,
    moved towards the midpoint by delta = _START_SHARE w, w = hi - lo,
    clamped to [4 tol, w/4], or the midpoint where delta passes it; None
    unless all six entries are finite.  The quintic is written in
    u = (x - lo)/w, with slopes scaled by w and curvatures by w^2, and its
    root is taken from the secant point; it costs no evaluation of fn."""
    f0, s0, c0 = at_lo
    f1, s1, c1 = at_hi
    w = hi - lo
    a1, a2 = w * s0, 0.5 * w * w * c0
    # the u^3..u^5 terms meet (f1, w s1, w^2 c1) at u = 1
    A, B, C = f1 - f0 - a1 - a2, w * s1 - a1 - 2.0 * a2, w * w * c1 - 2.0 * a2
    quintic = (f0, a1, a2, 10.0 * A - 4.0 * B + 0.5 * C, -15.0 * A + 7.0 * B - C,
               6.0 * A - 3.0 * B + 0.5 * C)
    if not all(map(math.isfinite, quintic)):
        return None
    x_q = lo + w * _poly_root(quintic, f0 / (f0 - f1) if f0 != f1 else 0.5, f0 < 0.0)
    mid = 0.5 * (lo + hi)
    delta = min(max(_START_SHARE * w, 4.0 * tol), 0.25 * w)
    return x_q + math.copysign(delta, mid - x_q) if delta <= abs(mid - x_q) else mid


def refine_bracket(fn: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
                   at_lo: tuple[float, float, float], at_hi: tuple[float, float, float],
                   tol: float) -> _Refined:
    """Guarded Halley steps on a sign-change bracket, with ITP (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) as the fallback.

    fn returns (f, f', f'') at x, and at_lo and at_hi are fn at the ends, of
    which one f is < 0 and the other not.  A caller with no slopes returns NaN
    for f' and f'', and then every step is ITP's.  Each step evaluates fn once.

    Interpolated start: where all six end entries are finite, the first point
    comes from the quintic Hermite interpolant of the two end jets, which
    costs no evaluation.  Its root (safeguarded Newton on the polynomial,
    from the secant point) lands about 1e-5 of the width from the root, on
    either side, so taken as is it rarely halves the bracket, and the
    worst-case guard below then refuses the next Halley step.  It is moved
    towards the midpoint by delta = 2.5e-5 of the width, clamped to
    [4 tol, width/4]: the evaluation lands just short of the root and cuts
    off the long side.  Every bracket refined is one scan step or part of
    one, at most pi/2 wide, so the share clears the interpolation error
    wherever the end jets resolve it.  The point is taken if it passes the same guard as a
    Halley point; the Halley step after it measures its lengthening against
    the width.  Any non-finite entry (an infinite value at a pole, the NaN
    slopes of a value-only caller) skips it, so a value-only caller gets
    ITP's iterates point for point.

    Halley: from the end evaluated last (at the start, the end with the
    smaller |f|) the step is s = -2 f f'/(2 f'^2 - f f''), lengthened past the
    root by an estimate of Halley's own error, |s| (s/step)^2 with step the
    previous step's length, or by tol/2 once |s| < tol/4.  Plain Halley points
    tend to approach from one side and leave the far end where the caller put
    it; lengthened ones land across the root, so both ends close in.  The
    point is taken if it is finite, strictly inside the bracket and at most
    half the previous step away, and if the bracket, were the step to gain
    nothing, would still fit the worst case below.

    ITP otherwise: the regula falsi point, moved towards the midpoint by
    k1 (hi-lo)^k2 (k1 = 0.2 over the first width, k2 = 2), kept tol/4 inside
    the bracket, then projected into the ball around the midpoint that keeps
    the bisection worst case plus n0 = 1 step: ceil(log2(width/tol)) + 1.
    While an end value is infinite (a pole counted as one side) the ITP step
    is the midpoint.  All three kinds of step keep that worst case.

    Stops once hi - lo <= tol or after 80 steps; root is the midpoint of the
    final bracket.
    """
    width = hi - lo
    n_max = math.ceil(math.log2(width / tol)) + 1 if width > tol else 0
    # projections aim a few ulps inside tol, so rounding cannot cost a step
    aim = max(tol - 4.0 * math.ulp(max(abs(lo), abs(hi))), 0.5 * tol)
    f_lo, f_hi = at_lo[0], at_hi[0]
    x0, (f0, d1, d2) = (lo, at_lo) if abs(f_lo) <= abs(f_hi) else (hi, at_hi)
    start = _jet_start(lo, hi, at_lo, at_hi, tol)
    step = width
    iters = 0
    while hi - lo > tol and iters < _BISECT_CAP:
        if start is None:
            den = 2.0 * d1 * d1 - f0 * d2
            s = -2.0 * f0 * d1 / den if den else 0.0
            if s:  # NaN included; a zero step is refused below
                s += math.copysign(0.5 * tol if abs(s) < 0.25 * tol
                                   else abs(s) * (s / step) * (s / step), s)
            x = x0 + s if abs(s) <= 0.5 * step else math.nan
        else:
            x = start
        # were the step to gain nothing, the next ITP projection radius must
        # still be nonnegative: iters + 1 + ceil(log2((hi-lo)/aim)) <= n_max
        if not (lo < x < hi and hi - lo <= aim * 2.0 ** (n_max - iters - 1)):
            start = None
            mid = 0.5 * (lo + hi)
            x = mid
            if math.isfinite(f_lo) and math.isfinite(f_hi):
                x_f = lo + (hi - lo) * f_lo / (f_lo - f_hi)
                sigma = math.copysign(1.0, mid - x_f)
                delta = 0.2 * (hi - lo) ** 2 / width
                x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
                # once the interpolant sits on an end, where rounding would
                # repeat it, a step tol/4 inside closes the bracket around it
                x_t = min(max(x_t, lo + 0.25 * tol), hi - 0.25 * tol)
                r = aim * 2.0 ** (n_max - iters - 1) - 0.5 * (hi - lo)
                x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        # the interpolated point is no Halley step: the Halley step after it
        # measures its lengthening against the width
        if start is None:
            step = abs(x - x0)
        start = None
        x0, (f0, d1, d2) = x, fn(x)
        if f0 == 0.0:
            lo = hi = x
        elif (f0 < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f0
        else:
            hi, f_hi = x, f0
        iters += 1
    counts = _record.get()  # series.counting() counts the steps with the sums
    if counts is not None:
        counts.refine_steps += iters
    return _Refined(root=0.5 * (lo + hi), lo=lo, hi=hi, iterations=iters)


class ScanStep(NamedTuple):
    """One step (t_prev, t] of the scan along the positive axis.

    sv is the series at t: the origin table's value, a sum, or the value of
    the table at a kept sum on either side of t; zero is the target's zero
    in the step, refined, or None.
    """

    t_prev: float
    t: float
    sv: SeriesValue
    zero: float | None


def scan(values: Evaluator, target: ZeroTarget, *, skip_free: bool = False) -> Iterator[ScanStep]:
    """The one zero scan of values.params: half-Sturm-spacing steps along the
    positive axis from the origin, each with the target's zero in it refined,
    up to the precision horizon (module docstring).  The consumer stops it
    once it has what it needs.  The anchor, the last grid point of the
    zero-free stretch (0, t*] (the first grid point where there is none), is
    values.direct, the table's or a sum; every other point, of the grid or
    of a refine, is values.value, and a grid point where the target is
    noise-limited is values.sum.  Past the anchor a grid point is
    values.value(t, ahead), ahead the grid point two steps on (module
    docstring).  A value of 0.0 counts as non-negative.  A
    step that holds a zero adds the refine's steps, and counts those of its
    points whose target is noise-limited.  With skip_free and L >= 0 the
    first step is (0, t_k], t_k the anchor (module docstring)."""
    L, eta = values.params.L, values.params.eta
    # Q(t) = 1 + a/t + b/t^2 of the module docstring
    a = max(0.0, -2.0 * eta)
    b = max(0.0, -L * (L + 1.0))
    # Start below the first zero of every target.  With lam = L+1 > 0 and
    # x = t max(e/lam, 2e, 1), e = |eta|, the recurrence bounds |a_n| t^n by x^n,
    # and a target's |c_n/c_0| t^n by (n+1) max(1, 1/lam) x^n.  For
    # x = 1/(4 max(1, 1/lam)) those terms sum below 1 on |z| <= t: no zero there.
    lam, e = L + 1.0, abs(eta)
    t = 0.25 / (max(1.0, 1.0 / lam) * max(e / lam, 2.0 * e, 1.0))

    def after(t: float) -> float:
        # half the Sturm spacing, the last step ending on the evaluator's range
        return min(t + 0.5 * math.pi / math.sqrt(1.0 + a / t + b / (t * t)), EVAL_Z_MAX)

    # No target zero lies in (0, t_free] with L >= 0 (module docstring).  The
    # anchor is the grid's last point there; skip_free walks the grid up to
    # it unevaluated.  Both walks sum the same points from it on, so every
    # later step is the same double.
    c = centrifugal(L, target)
    t_free = eta + math.sqrt(eta * eta + c) if L >= 0.0 else 0.0
    anchor, nxt = t, after(t)
    while anchor < nxt <= t_free:
        anchor, nxt = nxt, after(nxt)
    if skip_free:
        t = anchor

    def jet(s: float) -> tuple[float, float, float]:
        # a refine point; one whose value lies within its noise floor is counted
        cur, noise = target_jet(L, eta, target, s, values.value(s))
        if noise_limited(cur[0], noise):
            counts = _record.get()
            if counts is not None:
                counts.refine_unresolved += 1
        return cur

    t_prev, prev = 0.0, target_jet(L, eta, target, 0.0, values.value(0.0))[0]
    t1 = after(t)
    t2 = after(t1)  # the grid points one and two steps on
    while t_prev < EVAL_Z_MAX:
        try:
            # the anchor is summed unless the origin's table serves it, so that
            # both walks keep the same sums from it on; past it a point no
            # table serves is read back from a sum two grid steps ahead
            if t == anchor:
                sv = values.direct(t)
            elif t > anchor:
                sv = values.value(t, t2)
            else:
                sv = values.value(t)
            cur, noise = target_jet(L, eta, target, t, sv)
            if noise_limited(cur[0], noise):  # a summed point is its kept sum again
                sv = values.sum(t)
                cur, noise = target_jet(L, eta, target, t, sv)
        except ConvergenceError:
            return
        if noise_limited(cur[0], noise):
            return  # sign no longer resolvable against the cancellation floor
        zero = None
        if (prev[0] < 0.0) != (cur[0] < 0.0):  # 0.0 counts as non-negative
            zero = refine_bracket(jet, t_prev, t, prev, cur, REFINE_TOL).root
        yield ScanStep(t_prev, t, sv, zero)
        t_prev, prev = t, cur
        t, t1, t2 = t1, t2, after(t2)


def _zeros(values: Evaluator, target: ZeroTarget, count: int) -> tuple[list[float], bool]:
    """The first count positive zeros, and whether fewer were found."""
    found: list[float] = []
    if count > 0:
        for step in scan(values, target, skip_free=True):
            if step.zero is not None:
                found.append(step.zero)
                if len(found) == count:
                    break
    return found, len(found) < count


def find_zeros(params: CoulombParams, target: ZeroTarget | str, count_pos: int,
               count_neg: int) -> ZeroSet:
    """First count_pos positive and count_neg negative zeros, none skipped where
    the module docstring proves the scan step (for F, everywhere).

    The negative zeros are the positive zeros of (L, -eta), negated.  Refined
    by refine_bracket to REFINE_TOL on the abscissa.  If a requested count is
    not reachable within the precision horizon (see the module docstring),
    the partial result carries truncated=True.
    """
    target = ZeroTarget(target)
    if count_pos < 0 or count_neg < 0:
        raise ValueError("zero counts must be >= 0")
    # both sides share one table of the origin's coefficients
    values = Evaluator(params)
    pos, trunc_pos = _zeros(values, target, count_pos)
    neg, trunc_neg = _zeros(values.reflected(), target, count_neg)
    return ZeroSet(
        params=params,
        target=target,
        positive=tuple(pos),
        negative=tuple(-x for x in neg),
        refine_tol=REFINE_TOL,
        truncated=trunc_pos or trunc_neg,
    )
