"""Series core for the regular Coulomb wave function.

Everything in this package is reduced to the entire series factor

    P(z) = sum_{n>=0} a_n z^n,   a_0 = 1,  a_1 = eta/(L+1),
    n(n+2L+1) a_n = 2 eta a_{n-1} - a_{n-2},

so that F(z) = C_L(eta) z^{L+1} P(z).  The wave function itself is never
evaluated with the z^{L+1} prefactor (fractional powers for non-integer L);
derivative combinations are rewritten via

    F  = C z^{L+1} P
    F' = C z^L     [(L+1) P + z P']
    F''= C z^{L-1} [L(L+1) P + 2(L+1) z P' + z^2 P'']

and the normalization constant C cancels from every ratio used downstream.

The series alternates, and its largest term grows like e^|z| (like
e^(2 sqrt(2|eta z|)) at large |eta|) while the value stays O(1), so doubles
lose the low digits long before the tenth zero.  eval_series therefore sums
in fixed point on Python integers.  L, eta and z enter exactly, as the
dyadic rationals of float.as_integer_ratio, and the terms t_n = a_n z^n come
straight from

    n(n+2L+1) t_n = 2 eta z t_{n-1} - z^2 t_{n-2},   t_{-1} = 0, t_0 = 1,

each scaled by 2^s and floor-divided once.  Three integer sums give P,
z P' and z^2 P'' (the last is sum n(n-1) t_n), and each is rounded once to
a double.  Below |z| = 1, s carries two bits per halving of |z| beyond the
working precision, so z P' and z^2 P'', which start at z and z^2, keep it.

The error is bounded, not estimated.  Each floor errs by less than one
unit 2^-s, and the errors travel through the same recurrence, so
|T_n - 2^s t_n| <= E_n with

    E_n = (|2 eta z| E_{n-1} + z^2 E_{n-2}) / |c_n| + 1,   c_n = n(n+2L+1).

E is carried in doubles next to the sum until c_n reaches
2(|2 eta z| + z^2); from there on E_n <= E_{n-1}/2 + 1, so E stays below
its last value (taken at least 2) and is no longer stepped.  The sums of
n T_n and n(n-1) T_n carry at most N and N(N-1) times the sum of the E_n.
The tail is bounded from the same recurrence: once c_m grows for m > N,
a = |2 eta z|/c_(N+1) and b = z^2/c_(N+1) bound every later coefficient, and
the root rho of rho^2 = a rho + b gives |t_(N+j)| <= B rho^j with
B = max(|T_N| + E_N, rho (|T_(N-1)| + E_(N-1))) 2^-s.  Where
rho (N+2)/N < 1 the tails of all three sums are geometric, and the sum
stops at the first N where each tail lies below 2^-58 of its sum or below
its floor errors.  Floor errors plus tail bound each sum, and
SeriesValue.noise adds half an ulp of each rounded double.

Precision follows the point.  A sum starts at 192 bits; where a sum does
not clear its bound by 56 bits (cancellation beyond ~2^130, or a point
next to a zero of P, P' or P''), eval_series sums again, in the same call,
at the precision that bound asks for, up to 2048 bits.  A point still short
there returns with its true, large bound, and equations.noise_limited
flags it.  Beyond |z| = 55, and where a value or its bound overflows a
double, evaluation raises ConvergenceError.

Local sums.  eval_near sums P about a point z0 != 0 whose direct sum a
caller already holds (the zero scan's steps), instead of about 0.  The
Coulomb equation (DLMF 33.2.1) written for P,

    z P'' + 2(L+1) P' + (z - 2 eta) P = 0,

gives for P(z0 + h) = sum c_k h^k

    z0 (k+2)(k+1) c_(k+2) = -(k+1)(k+2L+2) c_(k+1) - (z0 - 2 eta) c_k - c_(k-1),

so the terms u_k = c_k h^k follow from

    z0 n(n-1) u_n = -(n-1)(n+2L) h u_(n-1) - (z0 - 2 eta) h^2 u_(n-2) - h^3 u_(n-3),

with u_0 = P(z0) and u_1 = h P'(z0) taken from the base's exact integer
sums of P and z0 P'.  They are summed as above: L, eta, z0 and h = z - z0
enter as exact dyadics, each U_n is one floor division in the base's unit
2^-s, and the sums of u_k, k u_k and k(k-1) u_k give P, h P' and h^2 P''.
The majorant E starts at the base's error bounds, E_0 = r_0 and
E_1 = r_1 |h/z0| + 1, and follows

    E_n = |n+2L| |h/z0| E_(n-1)/n + (|z0 - 2 eta| h^2 E_(n-2) + |h|^3 E_(n-3))
          / (|z0| n(n-1)) + 1,

no longer stepped once the three coefficients sum to at most 1/2 for every
later n.  For m > N they are at most a = |h/z0| max(1, |N+1+2L|/(N+1)),
b = |z0 - 2 eta| h^2/(|z0| (N+1) N) and c = |h|^3/(|z0| (N+1) N), so a rho
at or above the dominant root of rho^3 = a rho^2 + b rho + c gives
|u_(N+j)| <= B rho^j with B = max(|U_N| + E_N, rho (|U_(N-1)| + E_(N-1)),
rho^2 (|U_(N-2)| + E_(N-2))) 2^-s.  The stop, the bounds, the 56-bit guard
and the rounding are those of the direct sum.

The second solution of the Coulomb equation is singular at 0, so the series
about z0 converges like (h/z0)^k; where |h/z0| is small it takes far fewer
terms than the sum from 0 (about 19 against 71 at the refine points of the
zero scan).  eval_near sums directly instead where z0 is the origin, where
twice the estimate 64 / log2|z0/h| of the local terms, plus 30, is not
below the base's truncation_terms (the estimate runs low at few terms, a
local term costs about 1.2 direct ones, and the set-up and the base's
deeper sum, shared by its few uses, some 30 more), where
the local sum reaches the base's truncation_terms,
where its sums do not clear their bounds by 56 bits, or where the base's
bounds pass 2^512 units (a base summed at well over 600 bits), too large to
start E in doubles.

P(z) summed about z0 can be no more accurate, in absolute terms, than
P(z0).  A direct sum stops once its tail is below 2^-58 of its value,
while the refine steps of a zero come within ~1e-12 of it, where P (or P'
or P'') is some 2^-40 of its size at z0.  So a direct value keeps its loop
state, and the first time it serves as a base its sum is carried on from
there until each tail lies below 2^-112 of its sum (some 24 more terms);
that deeper sum is kept with the value for its later uses as a base.  The
value itself, its repr and its equality do not change.  A local value keeps
nothing and is refused as a base, so errors never chain.

coefficients builds a_0..a_{n_max} for the Rayleigh sums from exact integer
numerators and denominators, each rounded once.  The evaluation does not
read them.  Only eval_point keeps values between calls, a memo of the last
512 keyed by the exact (L, eta, z); sum_point, eval_series and eval_near sum
on every call, and the zero scan and the radius solve, whose points never
repeat, use them.  counting() counts every sum made inside its block, where
it is made, and the steps of zeros.refine_bracket; outside a block a sum
pays one ContextVar lookup.
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

from .errors import (
    ConvergenceError,
    CoulombDomainError,
    DegenerateRecurrenceError,
)
from .params import CoulombParams

N_MAX_CAP = 4096
EVAL_Z_MAX = 55.0

_START_BITS = 192
_MAX_BITS = 2048
_GUARD_BITS = 56  # bits by which a sum must clear its error bound
_TAIL_BITS = 58  # the tail bound stops the sum below 2^-58 of it
_BASE_TAIL_BITS = 112  # ... and below 2^-112 of it at a base of local sums
_UP = 1.0 + 2.0 ** -30  # covers the roundings of the doubles in the bound
_BIG, _SMALL = 2.0 ** 512, 2.0 ** -512  # rescaling of E, kept in range
_ESTIMATE_BITS = 64  # a local sum is estimated to stop once (h/z0)^k < 2^-64
# ... and tried where _LOCAL_COST times that estimate, plus _LOCAL_SETUP, stays
# below the direct sum's terms: the estimate runs low by some 6 terms, a local
# term costs some 1.2 direct ones, and the set-up and the base's deeper sum,
# shared by the base's few uses, cost some 30
_LOCAL_COST = 2
_LOCAL_SETUP = 30
_MEMO_SIZE = 512  # eval_point's values kept, about 1 KB each with their loop state


@dataclass
class SumCounts:
    """The sums of one counting() block: points holds the abscissa of every
    direct sum (one that fails included) and local sum, in order; terms their
    truncation_terms plus base_terms; local_evals and local_terms the local
    sums alone; base_terms the terms by which direct sums were carried on the
    first time each served as a base; local_fallbacks the local sums given up
    for a direct one, whose terms are not counted; refine_steps the
    iterations of zeros.refine_bracket."""

    points: list[float] = field(default_factory=list)
    terms: int = 0
    local_evals: int = 0
    local_terms: int = 0
    base_terms: int = 0
    local_fallbacks: int = 0
    refine_steps: int = 0

    def totals(self) -> dict[str, int]:
        """The counts as a dict, with evals = len(points) for points."""
        return {"evals": len(self.points),
                **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}


_record: ContextVar[SumCounts | None] = ContextVar("coulomb_radii.series.record", default=None)


@contextlib.contextmanager
def counting() -> Iterator[SumCounts]:
    """Count the sums made inside the block into the SumCounts it yields.

    A nested block adds its counts to the enclosing one on exit.  The record
    belongs to the context the block runs in: a thread started inside the
    block starts outside it (in an empty context, on CPython's default
    build), while code run in a copy of the block's context
    (contextvars.copy_context().run) counts into the same, unlocked, record.
    """
    outer, counts = _record.get(), SumCounts()
    token = _record.set(counts)
    try:
        yield counts
    finally:
        _record.reset(token)
        if outer is not None:
            outer.points += counts.points
            for f in fields(counts)[1:]:
                setattr(outer, f.name, getattr(outer, f.name) + getattr(counts, f.name))


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients a_0..a_{n_max} for fixed (L, eta), each a double rounded
    once from its exact value.  eval_series reads only params."""

    params: CoulombParams
    n_max: int
    a: tuple[float, ...]


def _exact_coefficients(L: float, eta: float, n_max: int) -> list[tuple[int, int]]:
    """a_0..a_{n_max} as exact (numerator, denominator) pairs.

    With L = Ln/Ld, eta = En/Ed and m_n = n (n Ld + 2 Ln + Ld) = Ld n(n+2L+1),
    the denominators D_n = D_{n-1} Ed m_n take
    N_n = Ld (2 En N_{n-1} - Ed^2 m_{n-1} N_{n-2}).
    """
    if L == -1.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    Ln, Ld = L.as_integer_ratio()
    En, Ed = eta.as_integer_ratio()
    c = 2 * Ln + Ld
    out = [(1, 1)]
    num1, num, den, m = 0, 1, 1, 0
    for n in range(1, n_max + 1):
        m_prev, m = m, n * (n * Ld + c)
        if m == 0:
            raise DegenerateRecurrenceError(n, L)
        num1, num = num, Ld * (2 * En * num - Ed * Ed * m_prev * num1)
        den *= Ed * m
        out.append((num, den))
    return out


def coefficients(params: CoulombParams, n_max: int) -> CoefficientTable:
    """a_0..a_{n_max} from the two-term recurrence, in exact arithmetic.

    Raises DegenerateRecurrenceError if n(n+2L+1) vanishes for some index up
    to n_max (reachable only for unsafe L <= -3/2) and CoulombDomainError at
    L = -1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exact = _exact_coefficients(params.L, params.eta, n_max)
    return CoefficientTable(params, n_max, tuple(num / den for num, den in exact))


def complex_coefficients(L: complex, eta: complex, n_max: int) -> tuple[complex, ...]:
    """Same recurrence with complex parameters, in plain complex arithmetic.

    Used for unit-disk checks where |z| < 1 keeps the sum well conditioned.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if L == -1:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    two_l = 2.0 * complex(L)
    two_eta = 2.0 * complex(eta)
    prev, cur = 1.0 + 0j, complex(eta) / (complex(L) + 1.0)
    a = [prev, cur]
    for n in range(2, n_max + 1):
        den = n * (n + two_l + 1.0)  # summed as (n + 2L) + 1, as a_n is defined
        if abs(den) < 1e-14:
            raise DegenerateRecurrenceError(n, L)  # type: ignore[arg-type]
        prev, cur = cur, (two_eta * cur - prev) / den
        a.append(cur)
    return tuple(a)


class _Sums(NamedTuple):
    """The integer sums of P and z P' in units of 2^-shift, and their error
    bounds."""

    s0: int
    s1: int
    r0: int
    r1: int
    shift: int


@dataclass(frozen=True)
class SeriesValue:
    """P, P' and P'' at one point, each a double, with their error bounds.

    noise[k] bounds |p_k - exact| for the double p_k as returned: the floor
    errors of the fixed-point sum carried through the recurrence, the bound
    on the discarded tail, and half an ulp of p_k.  truncation_terms counts
    the terms summed, and tail_estimate bounds the discarded tail of the P
    sum (both of the last pass, at the precision that was kept).  A direct
    sum (eval_point, sum_point, eval_series) also keeps what eval_near needs
    about its point, outside the value's repr and equality; a local sum
    (eval_near) keeps nothing.
    """

    p0: float
    p1: float
    p2: float
    truncation_terms: int
    tail_estimate: float
    noise: tuple[float, float, float]
    # a direct sum's (L, eta, z, bits, loop state); None for a local sum
    _base: tuple | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def _deep(self) -> _Sums:
        """The direct sum carried on from its loop state until each tail lies
        below 2^-_BASE_TAIL_BITS of its sum: summed the first time the value
        serves as a base, and kept with it."""
        L, eta, z, bits, state = self._base
        (s0, s1, _), (r0, r1, _), shift, n, *_ = _fixed_point_sum(
            L, eta, z, bits, _BASE_TAIL_BITS, state)
        counts = _record.get()
        if counts is not None:
            counts.base_terms += n - state[0]
            counts.terms += n - state[0]
        return _Sums(s0, s1, r0, r1, shift)


def eval_series(table: CoefficientTable, z: float) -> SeriesValue:
    """P, P' and P'' at real z for table.params, summed in fixed point.

    The terms come from the recurrence in z, not from the table's
    coefficients, so its length does not limit the sum.
    """
    return _direct(table.params.L, table.params.eta, z)


def eval_point(params: CoulombParams, z: float) -> SeriesValue:
    """P, P' and P'' of params at z, summed in fixed point from the origin.

    Kept in a memo of the last _MEMO_SIZE values, keyed by the exact
    (L, eta, float(z)); errors are not kept.  eval_point.cache_info() and
    eval_point.cache_clear() are the memo's.
    """
    return _memo(params.L, params.eta, float(z))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(L: float, eta: float, z: float) -> SeriesValue:
    return _direct(L, eta, z)


eval_point.cache_info, eval_point.cache_clear = _memo.cache_info, _memo.cache_clear


def sum_point(params: CoulombParams, z: float) -> SeriesValue:
    """eval_point without the memo: one sum from the origin on every call."""
    return _direct(params.L, params.eta, z)


def eval_near(base: SeriesValue, z: float) -> SeriesValue:
    """P, P' and P'' at z, summed about the point of base (module docstring).

    base is a direct sum (eval_point, sum_point or eval_series); its
    (L, eta) are those of the result.  A local sum is refused as a base, so
    errors never chain.  The value means what a direct sum's does, its noise
    included.  Summed directly instead where base is the origin, where the
    local sum would not take clearly fewer terms than base did, or where its
    sums do not clear their bounds by 56 bits.
    """
    kept = base._base
    if kept is None:
        raise ValueError("eval_near needs a direct sum (eval_point, sum_point, eval_series)")
    z = float(z)
    if z == kept[2]:
        return base
    if abs(z - kept[2]) < _reach(base) and abs(z) <= EVAL_Z_MAX:
        near = _local(base, z)
        counts = _record.get()
        if near is None:
            if counts is not None:
                counts.local_fallbacks += 1
        else:
            if counts is not None:
                counts.points.append(z)
                counts.local_evals += 1
                counts.terms += near.truncation_terms
                counts.local_terms += near.truncation_terms
            return near
    return _direct(kept[0], kept[1], z)


def _reach(base: SeriesValue) -> float:
    """The largest |z - z0| at which eval_near tries a local sum about the
    point z0 of the direct sum base: where _LOCAL_COST times its estimated
    terms 64 / log2|z0/h|, plus _LOCAL_SETUP, stay below base's; 0 at the
    origin."""
    spare = base.truncation_terms - _LOCAL_SETUP
    return abs(base._base[2]) * 2.0 ** (-_ESTIMATE_BITS * _LOCAL_COST / spare) if spare > 0 else 0.0


def _direct(L: float, eta: float, z: float) -> SeriesValue:
    """The sum from the origin, at the precision its bounds ask for."""
    z = float(z)
    counts = _record.get()
    if counts is not None:
        counts.points.append(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if abs(z) > EVAL_Z_MAX:
        raise ConvergenceError(
            f"|z|={abs(z):.3g} is beyond the evaluation range (~{EVAL_Z_MAX:g})"
        )
    if L == -1.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    if z == 0.0:
        # P'(0) = a_1 and P''(0) = 2 a_2, each rounded once
        values = (1.0, *(k * num / den for k, (num, den)
                         in enumerate(_exact_coefficients(L, eta, 2)[1:], 1)))
        if counts is not None:
            counts.terms += 1
        return SeriesValue(*values, truncation_terms=1, tail_estimate=0.0,
                           noise=tuple(0.5 * math.ulp(v) for v in values),
                           _base=(L, eta, z, 0, None))
    bits = _START_BITS
    while True:
        sums, errs, shift, n, tau, state = _fixed_point_sum(L, eta, z, bits, _TAIL_BITS)
        missing = _missing_bits(sums, errs)
        if missing <= 0 or bits >= _MAX_BITS:
            break
        bits = min(bits + missing, _MAX_BITS)
    sv = _rounded(sums, errs, shift, n, tau, z.as_integer_ratio(), z, (L, eta, z, bits, state))
    if counts is not None:
        counts.terms += sv.truncation_terms
    return sv


def _missing_bits(sums: tuple[int, int, int], errs: tuple[int, int, int]) -> int:
    """Bits by which the sums fall short of clearing their bounds by _GUARD_BITS."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    return max(r0.bit_length() - abs(s0).bit_length(), r1.bit_length() - abs(s1).bit_length(),
               r2.bit_length() - abs(s2).bit_length()) + _GUARD_BITS + 1


def _rounded(sums: tuple[int, int, int], errs: tuple[int, int, int], shift: int, n: int,
             tau: int, x: tuple[int, int], z: float, base: tuple | None) -> SeriesValue:
    """The SeriesValue at z of the sums of u_k, k u_k and k(k-1) u_k in units
    of 2^-shift, u_k = c_k x^k with c_k the Taylor coefficients of P about
    the point summed from and x = Xn/Xd the distance from there: each of P,
    P', P'' and its bound rounds once, and _UP covers the rounding of each
    bound and of the sum with half an ulp."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    unit = 1 << shift
    Xn, Xd = x
    q1, q2 = Xn * unit, Xn * Xn * unit
    try:
        p0, p1, p2 = s0 / unit, s1 * Xd / q1, s2 * Xd * Xd / q2
        b0, b1, b2 = r0 / unit, r1 * Xd / abs(q1), r2 * Xd * Xd / q2
    except OverflowError:
        raise ConvergenceError(
            f"P, P' or P'' at z={z:.6g}, or its error bound, overflows a double"
        ) from None
    return SeriesValue(p0, p1, p2, truncation_terms=n + 1, tail_estimate=tau / unit * _UP,
                       noise=((b0 + 0.5 * math.ulp(p0)) * _UP, (b1 + 0.5 * math.ulp(p1)) * _UP,
                              (b2 + 0.5 * math.ulp(p2)) * _UP),
                       _base=base)


def _fixed_point_sum(L: float, eta: float, z: float, bits: int, tail_bits: int,
                     state: tuple | None = None):
    """One summation at bits below min(1, z^2), until each tail lies below
    2^-tail_bits of its sum or below its floor errors; from the origin, or
    on from the state a shorter summation returned.

    Returns the integer sums of t_n, n t_n and n(n-1) t_n and their error
    bounds, all in units of 2^-shift, then shift, the last index N, the
    bound tau on the tail of the t_n sum and the loop state at N.
    """
    Ln, Ld = L.as_integer_ratio()
    En, Ed = eta.as_integer_ratio()
    Zn, Zd = z.as_integer_ratio()
    # T_n = floor((A T_{n-1} - B T_{n-2}) / (D m_n)), m_n = n (n Ld + 2 Ln + Ld)
    A, B, D = 2 * En * Zn * Zd * Ld, Ed * Zn * Zn * Ld, Ed * Zd * Zd
    common = math.gcd(A, B, D)
    A, B, D = A // common, B // common, D // common
    shift = bits + 2 * max(0, -math.frexp(z)[1])
    eta_z, zz, l1 = 2.0 * abs(eta * z), z * z, 2.0 * L + 1.0
    settle = 2.0 * (eta_z + zz)
    big, small, up = _BIG, _SMALL, _UP
    if state is None:
        # T_n and T_(n-1); s0 sums T_n; h1 and h2 sum its partial sums once and
        # twice, which give sum n T_n and sum n(n-1) T_n exactly without a
        # product per term; E_n, E_(n-1) and sum E_n in units of 2^scale
        state = (0, 1 << shift, 0, 1 << shift, 0, 0, 0.0, 0.0, 0.0, 1.0, 0, True)
    n0, t, t1, s0, h1, h2, e, e1, g, one, scale, live = state
    # D m_n by its differences
    den, step, step2 = D * n0 * (n0 * Ld + 2 * Ln + Ld), 2 * D * ((n0 + 1) * Ld + Ln), 2 * D * Ld
    lag = tail_bits + 8  # the tail test runs once T_n < 2^-lag of the sum
    for n in range(n0 + 1, N_MAX_CAP + 1):
        den += step
        step += step2
        if not den:
            raise DegenerateRecurrenceError(n, L)
        t, t1 = (A * t - B * t1) // den, t
        if live:
            c = n * (n + l1)
            e, e1 = (eta_z * e + zz * e1) / (c if c > 0.0 else -c) + one, e
            if e > big:
                e, e1, g, one, scale = e * small, e1 * small, g * small, one * small, scale + 512
            if c >= settle:
                # from here on |2 eta z| + z^2 <= c_m / 2, so E_m <= E_(m-1)/2 + 1
                # stays below this E once it is at least 2
                live = False
                e = e1 = max(e, e1, 2.0 * one)
        g += e
        h2 += h1
        h1 += s0
        s0 += t
        tb = t.bit_length()
        if tb > s0.bit_length() - lag and tb > 1:
            continue
        c = (n + 1.0) * (n + 1.0 + l1)
        if c <= 0.0:
            continue
        a, b = eta_z / c, zz / c
        rho = 0.5 * (a + math.sqrt(a * a + 4.0 * b)) * up
        r = rho * (n + 2.0) / n  # bounds the growth of the weights n, n(n-1) too
        if r >= 1.0:
            continue
        # |t_(N+j)| <= B rho^j, B = max(|T_N| + E_N, rho (|T_(N-1)| + E_(N-1))) < 2^xb
        xb = max((abs(t) + ((int(e * up) + 1) << scale)).bit_length(),
                 (abs(t1) + ((int(e1 * up) + 1) << scale)).bit_length() + math.frexp(rho)[1])
        tau = 1 << max(0, xb + math.frexp(rho / (1.0 - r) * up)[1])
        gi = (int(g * up) + 1) << scale
        s1 = n * s0 - h1
        s2 = 2 * (h2 + (n - 1) * s1) - n * (n - 1) * s0
        # bits by which each weighted tail bound exceeds 2^-tail_bits of its sum
        # and the floor errors made so far, the larger of the two
        short = max(tau.bit_length() - max(gi, abs(s0) >> tail_bits).bit_length(),
                    ((n + 1) * tau).bit_length() - max(n * gi, abs(s1) >> tail_bits).bit_length(),
                    ((n + 1) * n * tau).bit_length()
                    - max(n * (n - 1) * gi, abs(s2) >> tail_bits).bit_length()) + 1
        if short <= 0:
            break
        lag = s0.bit_length() - tb + short  # test again once T_n is that much smaller
    else:
        raise ConvergenceError(f"tail bound not reached within {N_MAX_CAP} terms at z={z:.6g}")
    return ((s0, s1, s2), _errors(n, gi, tau), shift, n, tau,
            (n, t, t1, s0, h1, h2, e, e1, g, one, scale, live))


def _errors(n: int, gi: int, tau: int) -> tuple[int, int, int]:
    """Bounds on the three sums: the floor errors gi, with the weights k and
    k(k-1) at most N and N(N-1), plus the weighted tail bounds."""
    return gi + tau, n * gi + (n + 1) * tau, n * (n - 1) * gi + (n + 1) * n * tau


def _local(base: SeriesValue, z: float) -> SeriesValue | None:
    """P, P' and P'' at z, within _reach(base) of the point z0 != 0 of the
    direct sum base, summed about z0 (module docstring); None where that
    takes as many terms as base did, or does not clear its bounds by
    _GUARD_BITS."""
    L, eta, z0 = base._base[:3]
    base_terms = base.truncation_terms
    b = base._deep
    r0, r1 = b.r0, b.r1
    if (r0 | r1).bit_length() > 512:
        return None  # E starts at the base's bounds, in doubles
    Ln, Ld = L.as_integer_ratio()
    En, Ed = eta.as_integer_ratio()
    Wn, Wd = z0.as_integer_ratio()
    Zn, Zd = z.as_integer_ratio()
    d = max(Wd, Zd)  # h = z - z0 = Hn/Hd exactly, both denominators powers of two
    Hn, Hd = Zn * (d // Zd) - Wn * (d // Wd), d
    hf, az = abs(Hn / Hd), abs(z0)
    # z0 n(n-1) u_n = -(n-1)(n+2L) h u_{n-1} - (z0-2 eta) h^2 u_{n-2} - h^3 u_{n-3}
    # times Ld Ed Wd Hd^3: K n(n-1) U_n = (n-1)(n Ld + 2 Ln) G U_{n-1} + B U_{n-2} + C U_{n-3}
    K = Wn * Ld * Ed * Hd ** 3
    G = -Hn * Ed * Wd * Hd * Hd
    B = -(Wn * Ed - 2 * En * Wd) * Ld * Hn * Hn * Hd
    C = -Ld * Ed * Wd * Hn ** 3
    common = math.gcd(K, G, B, C) * (1 if K > 0 else -1)
    K, G, B, C = K // common, G // common, B // common, C // common
    den, step, step2 = 0, 2 * K, 2 * K  # K n(n-1) by its differences
    coef, cstep, cstep2 = 0, 2 * G * (Ld + Ln), 2 * G * Ld  # (n-1)(n Ld + 2 Ln) G
    qa = hf / az * _UP
    qb = abs(z0 - 2.0 * eta) * hf * hf / az * _UP
    qc = hf * hf * hf / az * _UP
    l2 = 2.0 * L
    tail_bits, big, small, up = _TAIL_BITS, _BIG, _SMALL, _UP
    # U_0 and U_1 = s1 h/z0 from the base's sums, with its bounds as E_0 and E_1
    t2, t1, t = 0, b.s0, (b.s1 * Hn * Wd) // (Hd * Wn)
    e2, e1, e = 0.0, float(r0), r1 * qa + 1.0
    s0, h1, h2 = t1 + t, t1, 0
    g = e1 + e
    one, scale, live = 1.0, 0, True
    lag = tail_bits + 8
    for n in range(2, base_terms):
        den += step
        step += step2
        coef += cstep
        cstep += cstep2
        t, t1, t2 = (coef * t + B * t1 + C * t2) // den, t, t1
        if live:
            growth = abs(n + l2) / n * qa
            e, e1, e2 = growth * e + (qb * e1 + qc * e2) / (n * (n - 1.0)) + one, e, e1
            if e > big:
                e, e1, e2, g, one, scale = (e * small, e1 * small, e2 * small, g * small,
                                            one * small, scale + 512)
            if max(growth, qa) + (qb + qc) / (n * (n - 1.0)) <= 0.5:
                # from here on E_m <= max(E_(m-1), E_(m-2), E_(m-3))/2 + 1
                live = False
                e = e1 = e2 = max(e, e1, e2, 2.0 * one)
        g += e
        h2 += h1
        h1 += s0
        s0 += t
        tb = t.bit_length()
        if tb > s0.bit_length() - lag and tb > 1:
            continue
        # every later coefficient is at most a, b, c: rho bounds the root of
        # rho^3 = a rho^2 + b rho + c, |u_(N+j)| <= B rho^j
        m = n + 1.0
        a = qa * max(1.0, abs(m + l2) / m)
        bb, cc = qb / (m * n), qc / (m * n)
        rho = a + math.sqrt(bb) + cc ** (1.0 / 3.0)
        rho -= (((rho - a) * rho - bb) * rho - cc) / ((3.0 * rho - 2.0 * a) * rho - bb)
        rho *= up
        r = rho * (n + 2.0) / n
        if r >= 1.0:
            continue
        xr = math.frexp(rho)[1]
        xb = max((abs(t) + ((int(e * up) + 1) << scale)).bit_length(),
                 (abs(t1) + ((int(e1 * up) + 1) << scale)).bit_length() + xr,
                 (abs(t2) + ((int(e2 * up) + 1) << scale)).bit_length() + 2 * xr)
        tau = 1 << max(0, xb + math.frexp(rho / (1.0 - r) * up)[1])
        gi = (int(g * up) + 1) << scale
        s1 = n * s0 - h1
        s2 = 2 * (h2 + (n - 1) * s1) - n * (n - 1) * s0
        short = max(tau.bit_length() - max(gi, abs(s0) >> tail_bits).bit_length(),
                    ((n + 1) * tau).bit_length() - max(n * gi, abs(s1) >> tail_bits).bit_length(),
                    ((n + 1) * n * tau).bit_length()
                    - max(n * (n - 1) * gi, abs(s2) >> tail_bits).bit_length()) + 1
        if short <= 0:
            break
        lag = s0.bit_length() - tb + short
    else:
        return None  # no cheaper than the direct sum
    sums, errs = (s0, s1, s2), _errors(n, gi, tau)
    if _missing_bits(sums, errs) > 0:
        return None
    return _rounded(sums, errs, b.shift, n, tau, (Hn, Hd), z, None)
