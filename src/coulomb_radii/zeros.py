"""Real-zero localization for F, F' and g'.

Targets are reduced to the series factor P (values and noise floors live in
the equations module):

    F        -> P(z)                 (the nontrivial zeros; z = 0 excluded)
    F_prime  -> (L+1) P(z) + z P'(z)
    g_prime  -> P(z) + z P'(z)

Zeros are swept outward from the origin, bracketed by sign change, and
refined by Halley steps guarded by ITP (interpolate, truncate, project; see
refine_bracket), which keep the bracket.  Every evaluation returns P' and
P'' with P, and equations.target_slopes turns them into the target's slope
and curvature, so the Halley steps cost no evaluation beyond the step's own,
and the scan hands the refine the values it has at both ends.  The negative
axis reuses the same code path through the reflected function z -> P(-z),
which is P at -eta; write eta_s for eta on the positive axis and -eta on
the negative one.

Every target is stepped by half the Sturm spacing, 0.5 pi/sqrt(Q(t)).
u = F/C solves u'' + q u = 0, q(t) = 1 - 2 eta_s/t - L(L+1)/t^2 (DLMF
33.2), and on [t, inf) q stays below Q = 1 + max(0, -2 eta_s)/t +
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

Interlacing is proven where q, or r = 1 - 2 eta_s/t - 2L/t^2 for g', changes
sign at most once, from - to + (at a zero of F', F'' = -q F, so where q > 0
every critical point of F is a strict extremum): for all L > -1 when
eta_s <= 0, and for L >= 0 on both sides.  That covers the whole positive
axis for eta <= 0 and the negative axis for L >= 0.  The proof stops where
eta_s > 0 and -1 < L < 0 with eta_s^2 > -L(L+1) (F') or eta_s^2 > -2L (g'),
unsafe eta > 0 on the positive axis included: there q or r dips below zero
on an interval, and the half step is a margin only.  On 270 such cases it
found the same zeros as a scan at 1/32 of the spacing.

The scan runs until it has the requested count or reaches the precision
horizon: the first step where the target is within eight cancellation-noise
floors of zero (and the floor exceeds 1e-14; equations.noise_limited), so
its sign is no longer resolvable, or the end of the evaluator's range: the
last step ends exactly at |z| = EVAL_Z_MAX (55) and the scan stops there (a
table that cannot converge below it raises ConvergenceError, which also
ends the scan).
Running past that horizon would report garbage zeros, so the result is
flagged truncated instead.  The horizon depends on (L, eta) and the target
alone, never on the count asked, so the first k zeros of a request do not
depend on how many more were requested.

Each sign change is refined as one zero, with no check for a multiple one:
refine_bracket converges on any sign change, and F has only simple zeros at
z != 0 (a solution of u'' + q u = 0 that vanishes with its slope there is
zero throughout).  The series is evaluated only at scan steps and refine
steps, never at the refined root itself.

find_zeros is the package's one scan and refine_bracket its one bracketed
root finder, which the radius solvers also run on their own equations, with
no slopes, so there every step is ITP's (see the radii module).
refine_bracket decides signs without a noise-floor check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .equations import (
    ZeroTarget,
    noise_limited,
    target_at_origin,
    target_slopes,
    target_value,
)
from .errors import ConvergenceError, CoulombDomainError
from .params import CoulombParams
from .series import EVAL_Z_MAX, eval_point

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


def refine_bracket(fn: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
                   at_lo: tuple[float, float, float], at_hi: tuple[float, float, float],
                   tol: float) -> _Refined:
    """Guarded Halley steps on a sign-change bracket, with ITP (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) as the fallback.

    fn returns (f, f', f'') at x, and at_lo and at_hi are fn at the ends, whose
    f have opposite signs.  A caller with no slopes returns NaN for f' and
    f'', and then every step is ITP's.  Each step evaluates fn once.

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
    is the midpoint.  Both kinds of step keep that worst case.

    Stops once hi - lo <= tol or after 80 steps; root is the midpoint of the
    final bracket.
    """
    width = hi - lo
    n_max = math.ceil(math.log2(width / tol)) + 1 if width > tol else 0
    # projections aim a few ulps inside tol, so rounding cannot cost a step
    aim = max(tol - 4.0 * math.ulp(max(abs(lo), abs(hi))), 0.5 * tol)
    f_lo, f_hi = at_lo[0], at_hi[0]
    x0, (f0, d1, d2) = (lo, at_lo) if abs(f_lo) <= abs(f_hi) else (hi, at_hi)
    step = width
    iters = 0
    while hi - lo > tol and iters < _BISECT_CAP:
        den = 2.0 * d1 * d1 - f0 * d2
        s = -2.0 * f0 * d1 / den if den else 0.0
        if s:  # NaN included; a zero step is refused below
            s += math.copysign(0.5 * tol if abs(s) < 0.25 * tol
                               else abs(s) * (s / step) * (s / step), s)
        x = x0 + s
        # were the step to gain nothing, the next ITP projection radius must
        # still be nonnegative: iters + 1 + ceil(log2((hi-lo)/aim)) <= n_max
        if not (lo < x < hi and abs(s) <= 0.5 * step
                and hi - lo <= aim * 2.0 ** (n_max - iters - 1)):
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
        step = abs(x - x0)
        x0, (f0, d1, d2) = x, fn(x)
        if f0 == 0.0:
            lo = hi = x
        elif (f0 < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f0
        else:
            hi, f_hi = x, f0
        iters += 1
    return _Refined(root=0.5 * (lo + hi), lo=lo, hi=hi, iterations=iters)


def _scan_one_sign(params: CoulombParams, target: ZeroTarget, sign: float,
                   count: int) -> tuple[list[float], bool]:
    if count <= 0:
        return [], False
    L = params.L

    def h(t: float) -> tuple[tuple[float, float, float], float]:
        # (value, slope, curvature) along t, and the noise floor; on the
        # negative axis the slope flips sign and the curvature does not
        z = sign * t
        sv = eval_point(params, z)
        val, noise = target_value(L, target, z, sv)
        d1, d2 = target_slopes(L, params.eta, target, z, sv)
        return (val, sign * d1, d2), noise

    # Q(t) = 1 + a/t + b/t^2 of the module docstring; the side z < 0 sees -eta
    a = max(0.0, -2.0 * sign * params.eta)
    b = max(0.0, -L * (L + 1.0))
    # Start below the first zero of every target.  With lam = L+1 > 0 and
    # x = t max(e/lam, 2e, 1), e = |eta|, the recurrence bounds |a_n| t^n by x^n,
    # and a target's |c_n/c_0| t^n by (n+1) max(1, 1/lam) x^n.  For
    # x = 1/(4 max(1, 1/lam)) those terms sum below 1 on |z| <= t: no zero there.
    lam, e = L + 1.0, abs(params.eta)
    if lam == 0.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    t = 0.25 / (max(1.0, 1.0 / lam) * max(e / lam, 2.0 * e, 1.0))
    found: list[float] = []
    t_prev = 0.0
    prev = (target_at_origin(L, target), math.nan, math.nan)
    while len(found) < count and t_prev < EVAL_Z_MAX:
        try:
            cur, noise = h(t)
        except ConvergenceError:
            break
        val = cur[0]
        if noise_limited(val, noise):
            break  # sign no longer resolvable against the cancellation floor
        if val == 0.0:
            # grid point sits exactly on a (simple) zero; the sign flips there
            found.append(t)
            cur = (-prev[0], math.nan, math.nan)
        elif (prev[0] < 0.0) != (val < 0.0):
            found.append(refine_bracket(lambda s: h(s)[0], t_prev, t, prev, cur,
                                        REFINE_TOL).root)
        t_prev, prev = t, cur
        # half the Sturm spacing, the last step ending on the evaluator's range
        t = min(t + 0.5 * math.pi / math.sqrt(1.0 + a / t + b / (t * t)), EVAL_Z_MAX)
    return found, len(found) < count


def find_zeros(params: CoulombParams, target: ZeroTarget | str, count_pos: int,
               count_neg: int) -> ZeroSet:
    """First count_pos positive and count_neg negative zeros, none skipped where
    the module docstring proves the scan step (for F, everywhere).

    Refined by refine_bracket to REFINE_TOL on the abscissa.  If a requested
    count is not reachable within the precision horizon (see the module
    docstring), the partial result carries truncated=True.
    """
    target = ZeroTarget(target)
    if count_pos < 0 or count_neg < 0:
        raise ValueError("zero counts must be >= 0")
    pos, trunc_pos = _scan_one_sign(params, target, +1.0, count_pos)
    neg_mod, trunc_neg = _scan_one_sign(params, target, -1.0, count_neg)
    return ZeroSet(
        params=params,
        target=target,
        positive=tuple(pos),
        negative=tuple(-m for m in neg_mod),
        refine_tol=REFINE_TOL,
        truncated=trunc_pos or trunc_neg,
    )
