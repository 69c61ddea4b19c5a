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
SeriesValue.noise adds half an ulp of each rounded double.  Where n(n+2L+1)
vanishes at some n = -(2L+1) <= N_MAX_CAP (unsafe L <= -3/2 only), the tail
test, which needs (n+1)(n+2L+2) > 0, lets no sum stop short of it, so such a
sum raises DegenerateRecurrenceError before its first term.

Precision follows the point.  A sum starts at 192 bits; where a sum does
not clear its bound by 56 bits (cancellation beyond ~2^130, or a point
next to a zero of P, P' or P''), eval_series sums again, in the same call,
at the precision that bound asks for, up to 2048 bits.  A point still short
there returns with its true, large bound, and noise_limited flags it.
Beyond |z| = 55, and where a value or its bound overflows a double,
evaluation raises ConvergenceError.

Jets.  jet serves a point z next to a sum at z0 without a sum.  The
Coulomb equation (DLMF 33.2.1) written for P,

    z P'' + 2(L+1) P' + (z - 2 eta) P = 0,

gives for P(z0 + h) = sum c_k h^k

    z0 (k+2)(k+1) c_(k+2) = -(k+1)(k+2L+2) c_(k+1) - (z0 - 2 eta) c_k - c_(k-1),

so the terms u_k = c_k h^k follow from

    z0 n(n-1) u_n = -(n-1)(n+2L) h u_(n-1) - (z0 - 2 eta) h^2 u_(n-2) - h^3 u_(n-3).

jet runs this recurrence in doubles from u_0 = P(z0) and u_1 = h P'(z0),
and the sums of u_k, k u_k and k(k-1) u_k give P, h P' and h^2 P''.  Its
reach is |z - z0| < |z0|/2, the largest share of |z0| within which
z0/2 <= z <= 2 z0 on both sides, so that h = z - z0 is exact (Sterbenz).
The second solution of the Coulomb equation is singular at 0, so the
terms about z0 fall like (h/z0)^k at best, and the jet gives up after
_JET_TERMS = 32 terms; the recurrence's h^2 and h^3 terms narrow it
further where |z0 - 2 eta| is large.  Its noise is a bound of three parts.
The base's noise is carried through a majorant of the recurrence: E_0 and
E_1 are the base's bounds, and
    E_n = |n+2L|/n |h/z0| F_(n-1)
          + (|z0 - 2 eta| h^2 F_(n-2) + |h|^3 F_(n-3)) / (|z0| n(n-1)),
with F_k = E_k + 16 eps |u_k| for the roundings u_k brings into the terms
after it (eps = 2^-53).  A running rounding bound covers the three sums in
doubles: (N+1) eps times the sums of |u_k|, k |u_k| and k(k-1) |u_k|.  The
tail bound is geometric.  For every m > N the three coefficients of the
recurrence are at most those at m = N+1, a = |h/z0| max(1, |N+1+2L|/(N+1)),
b = |z0 - 2 eta| h^2/((N+1) N |z0|) and c = |h|^3/((N+1) N |z0|): (m+2L)/m
falls with m for L >= 0, stays below 1 for -m/2 <= L < 0, and |m+2L|/m
falls with m below that.  So a rho at or above the dominant root of
rho^3 = a rho^2 + b rho + c gives |u_(N+j)| <= B rho^j, by induction on j,
with B = max(|u_N| + F_N, rho (|u_(N-1)| + F_(N-1)),
rho^2 (|u_(N-2)| + F_(N-2))), and where rho (N+2)/N < 1 the weighted tails
are geometric too.  Once |u_N| lies below the error bound of the P sum, the
jet takes rho and stops if each weighted tail bound lies below the error
bound of its sum.  jet returns None beyond its reach and past |z| = 55;
within them it refuses a point only where that test stops no N below
_JET_TERMS, or where P, P' or P'' is noise_limited by its bound.  The caller
then sums the point.  The origin's exact value, a sum at z = 0, has no
reach: it serves z = 0 alone (the points next to the origin come from the
table, below).  A jet keeps no point, so it is the base of no jet, and
errors never chain.  At (0.5, -1), |z| = 40, a jet one scan step (about 1.5) from
its base takes 22 terms and about a sixth of the time of the 151-term sum
it replaces, one two steps away 28 terms and about a fifth, one 0.01 away
9 terms and about a tenth.

Table.  An Evaluator of (L, eta) with L > -1, where every
c_n = n(n+2L+1) is positive, serves the points next to the origin from a
table of the origin's coefficients in doubles, grown as far as the points
asked need and to at most _TABLE_TERMS = 32 rows: from a_0 = 1 and
a_(-1) = 0,

    a_n = (2 eta a_(n-1) - a_(n-2)) / c_n,   c_n = n (n + (2L+1)),

with c_n within three roundings of its value (2L+1 is exact by Sterbenz
where it is negative, and positive elsewhere), so that the running majorant

    e_n = ((|2 eta| e_(n-1) + e_(n-2)) + 6 eps (|2 eta a_(n-1)| + |a_(n-2)|)) / c_n

bounds |a_n - exact a_n| (eps = 2^-53; the three roundings of a_n and the
three of c_n, each majorant step rounded up by _UP).  A point 0 <= t takes
the rows 0..N: P, P' and P'' are the forward sums of a_n t^n, n a_n t^(n-1)
and n(n-1) a_n t^(n-2), in plain floats and a fixed order, each power the
last one times t.  Each term rounds at most N+1 times, its coefficient's
product by n or n(n-1) included, so each sum errs by at most gamma_(N+1)
times the sum of its terms' moduli (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sections 3.1 and 4.2,
gamma_k = k eps/(1 - k eps)), plus the coefficient errors e_n t^n with the
same weights.  A row folds both into w_n = |a_n| + e_n/((n+2) eps), which
gamma_(N+2) >= (n+2) eps scales to at least both.  The tail is bounded as
in a sum from the origin, at m = N+1: c_m >= c_(N+1) bounds the
recurrence's coefficients for every later term by a = |2 eta|/c_(N+1) and
b = 1/c_(N+1), and the root rho' of rho'^2 = a rho' + b gives
|a_(N+j)| <= B rho'^j, B = max(|a_N| + e_N, rho' (|a_(N-1)| + e_(N-1))), so
with r = rho' t (N+2)/N < 1 and K = B rho' the three tails are at most
K t^(N+1)/(1-r), (N+1) K t^N/(1-r) and (N+1) N K t^(N-1)/(1-r).  The reach
of the rows 0..N is the largest t with r <= 1/2 that puts the largest of
them, that of P'', below _TABLE_TAIL = 2^-56; a point takes the fewest rows
whose reach holds it, so its value depends on (L, eta, t) alone and not on
how far the table has grown.  The table refuses a point past the reach of
its 32 rows or past |z| = 55, one where t^(N+1) > 0 leaves the normal
range (its powers and tail bound would lose their relative error bounds),
one where the bound of P passes _TABLE_BUDGET = 1e-13 of |P| (next to a
zero of P, or where the terms cancel), and one where P' or P'' is
noise_limited.  A table value keeps no point, so it is the base of no jet.  At (0.5, -1) the table
reaches |z| = 3.8; a point at z = 0.5 takes 17 terms and about a third of
the time of a sum, and building the 32 rows costs about two sums.

coefficients builds a_0..a_{n_max} for the Rayleigh sums from exact integer
numerators and denominators, each rounded once.  The evaluation does not
read them.  eval_point keeps the last 512 values in a memo keyed by the
exact (L, eta, z); eval_series sums on every call.  An Evaluator keeps the
table of the origin's coefficients and the sums of one query at one
(L, eta), and it alone picks what serves a point: the zero scan takes
every third grid point from the table within its reach and sums it past
(Evaluator.direct; Evaluator.sum sums a point once per query), and every
other point of the scan, of its refines and of the radius solve is
Evaluator.value: the table's value, or else a jet of the nearest kept sum,
or else a sum that is kept.  A point below every kept sum is summed rather
than taken from a jet that runs towards the origin, where the second
solution of the Coulomb equation is singular: at (48, 0) the table reaches
10.7, and a jet from a sum at 12.5 to 10.9 carries a bound of 2.4e-11 on
P = 0.55.  counting() counts every sum made inside its block, where it is
made, the jets, the table points, the steps of zeros.refine_bracket and
the hits and misses of eval_point's memo; outside a block a sum, a jet, a
table point or a memo lookup pays one ContextVar lookup.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Iterator

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
_UP = 1.0 + 2.0 ** -30  # covers the roundings of the doubles in the bound
_BIG, _SMALL = 2.0 ** 512, 2.0 ** -512  # rescaling of E, kept in range
_MEMO_SIZE = 512  # eval_point's values kept
_JET_REACH = 0.5  # jet serves points within this share of |z0| of its base, where h is exact
_JET_TERMS = 32  # ... and gives up on a jet that needs this many terms
_EPS = 2.0 ** -53  # the unit roundoff of a double
_JET_ROUND = 16.0 * _EPS  # bounds the roundings of one jet term against its parts
_TINY = 2.0 ** -1060  # ... plus this, for a term that leaves the normal range
_NORMAL = 2.0 ** -1022  # the smallest normal double
_TABLE_TERMS = 32  # the origin's table holds at most this many coefficients
_TABLE_TAIL = 2.0 ** -56  # a table point takes the terms that put each tail below this
_TABLE_BUDGET = 1e-13  # ... and is refused where the bound of P passes this share of P


@dataclass
class SumCounts:
    """The sums of one counting() block: points holds the abscissa of every
    sum (one that fails included), in order, find_zeros's negative side at
    +t of (L, -eta) (zeros module docstring); terms their truncation_terms;
    refine_steps the iterations of zeros.refine_bracket; jets the values
    served by jet and table_points those served by an Evaluator's table of
    the origin's coefficients, neither of them sums; memo_hits and
    memo_misses the lookups in eval_point's memo, each miss also a sum."""

    points: list[float] = field(default_factory=list)
    terms: int = 0
    refine_steps: int = 0
    jets: int = 0
    table_points: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

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
    to n_max (reachable only for unsafe L <= -3/2; params refuse L = -1).
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


@dataclass(frozen=True, slots=True)
class SeriesValue:
    """P, P' and P'' at one point, each a double, with their error bounds.

    noise[k] bounds |p_k - exact| for the double p_k as returned: the floor
    errors of the fixed-point sum carried through the recurrence, the bound
    on the discarded tail, and half an ulp of p_k.  truncation_terms counts
    the terms summed, and tail_estimate bounds the discarded tail of the P
    sum (both of the last pass, at the precision that was kept).  A sum and
    the origin's exact value keep their (L, eta, z) for jet, outside the
    value's repr and equality; a jet and a table point keep none.
    """

    p0: float
    p1: float
    p2: float
    truncation_terms: int
    tail_estimate: float
    noise: tuple[float, float, float]
    # a sum's or the origin's (L, eta, z); None for a jet
    _at: tuple[float, float, float] | None = field(default=None, repr=False, compare=False)


def noise_limited(value: float, noise: float) -> bool:
    """True where value lies within eight cancellation-noise floors of zero
    (and the floor exceeds 1e-14), so its sign is not resolved."""
    return abs(value) <= 8.0 * noise and noise > 1e-14


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
    z = float(z)
    counts = _record.get()
    if counts is None:
        return _memo(params.L, params.eta, z)
    summed = len(counts.points)
    try:
        return _memo(params.L, params.eta, z)
    finally:
        # only a miss sums, and every direct sum adds its abscissa to points
        if len(counts.points) == summed:
            counts.memo_hits += 1
        else:
            counts.memo_misses += 1


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(L: float, eta: float, z: float) -> SeriesValue:
    return _direct(L, eta, z)


eval_point.cache_info, eval_point.cache_clear = _memo.cache_info, _memo.cache_clear


def jet(value: SeriesValue, z: float) -> SeriesValue | None:
    """P, P' and P'' at z from the Taylor jet of the sum value at z0, in
    doubles (module docstring, Jets); None where |z - z0| >= |z0|/2, past
    |z| = 55, where no tail test within _JET_TERMS terms stops the jet, or
    where P, P' or P'' is noise_limited by the jet's bound.

    value is a sum or the origin's exact value (no reach); a jet or a table
    point is refused as a base, so errors never chain.  The noise means what
    a sum's does.
    """
    at = value._at
    if at is None:
        raise ValueError("jet needs a sum (eval_point, eval_series, Evaluator.sum)")
    L, eta, z0 = at
    z = float(z)
    if z == z0:
        return value
    h = z - z0  # exact within the reach, where z0/2 <= z <= 2 z0
    ah = abs(h)
    # strict: a z just past z0/2 may round h to -z0/2
    if not ah < _JET_REACH * abs(z0) or abs(z) > EVAL_Z_MAX:
        return None
    # n(n-1) u_n = -(n-1)(n+2L) qa u_(n-1) - qb u_(n-2) - qc u_(n-3), u_k = c_k h^k
    qa, qb, qc = h / z0, (z0 - 2.0 * eta) * (h * h) / z0, h * h * h / z0
    ma, mb, mc = abs(qa) * _UP, abs(qb) * _UP, abs(qc) * _UP  # the majorant's
    l2, eps, up, rnd = 2.0 * L, _EPS, _UP, _JET_ROUND
    # E_k bounds the error of u_k, from the base's bounds at E_0 and E_1, and
    # F_k = E_k + rnd |u_k| adds the roundings u_k brings into later terms:
    # E_n = (|n+2L|/n ma F_(n-1) + (mb F_(n-2) + mc F_(n-3))/(n(n-1))) + _TINY;
    # g0, g1, g2 sum E_k, k E_k and k(k-1) E_k
    u2, u1, u3 = value.p0, h * value.p1, 0.0
    a2, a1, a3 = abs(u2), abs(u1), 0.0
    e2, e1 = value.noise[0], ah * value.noise[1] * up + eps * a1
    f3, f2, f1 = 0.0, e2 + rnd * a2, e1 + rnd * a1
    s0, s1, s2 = u2 + u1, u1, 0.0
    g0, g1, g2 = e2 + e1, e1, 0.0
    # the sums of |u_k|, k |u_k| and k(k-1) |u_k|: N + 1 terms summed in
    # doubles err by at most (N + 1) eps times these, the products k u_k included
    m0, m1, m2 = a2 + a1, a1, 0.0
    for n in range(2, _JET_TERMS):
        k = n * (n - 1.0)
        c = (n - 1.0) * (n + l2)
        u = -(c * qa * u1 + qb * u2 + qc * u3) / k
        au = abs(u)
        e = (abs(c) * ma * f1 + mb * f2 + mc * f3) / k + _TINY
        s0 += u
        s1 += n * u
        s2 += k * u
        m0 += au
        m1 += n * au
        m2 += k * au
        g0 += e
        g1 += n * e
        g2 += k * e
        u3, u2, u1, a3, a2, a1, f3, f2, f1 = u2, u1, u, a2, a1, au, f2, f1, e + rnd * au
        # stop once each weighted tail bound lies below the error bound of its
        # sum, which is at least 3 eps times it; tau is at least |u_n| rho
        roundoff = (n + 1.0) * eps
        err0 = g0 + roundoff * m0
        if au > err0:
            continue
        rho = _tail_root(ma, mb, mc, l2, n + 1)
        ratio = rho * (n + 2.0) / n
        if ratio >= 1.0:
            continue
        # F_k >= E_k bounds |u_k| - |computed u_k| as well
        tau = max(a1 + f1, rho * (a2 + f2), rho * rho * (a3 + f3)) * rho / (1.0 - ratio) * up
        err1, err2 = g1 + roundoff * m1, g2 + roundoff * m2
        if tau <= err0 and (n + 1.0) * tau <= err1 and (n + 1.0) * n * tau <= err2:
            break
    else:
        return None
    # P = s0, P' = s1/h and P'' = s2/h^2, each division rounded once
    p0, p1, p2 = s0, s1 / h, s2 / h / h
    b0 = (err0 + tau) * up
    b1 = ((err1 + (n + 1.0) * tau) / ah + eps * abs(p1)) * up
    b2 = ((err2 + (n + 1.0) * n * tau) / ah / ah + 2.0 * eps * abs(p2)) * up
    if (not b0 + b1 + b2 + abs(p0) + abs(p1) + abs(p2) < math.inf
            or noise_limited(p0, b0) or noise_limited(p1, b1) or noise_limited(p2, b2)):
        return None
    counts = _record.get()
    if counts is not None:
        counts.jets += 1
    return SeriesValue(p0, p1, p2, truncation_terms=n + 1, tail_estimate=tau, noise=(b0, b1, b2))


class _OriginTable:
    """The coefficients a_0..a_N of one (L, eta), L > -1, in doubles, grown
    as far as the points asked need (module docstring, Table).

    Row n holds a_n, n a_n and n(n-1) a_n, then w_n = |a_n| + e_n/((n+2) eps),
    n w_n and n(n-1) w_n, which bound their moduli and errors; reach[N - 2]
    is the largest t up to which the rows 0..N put each tail below
    _TABLE_TAIL, at least that of every shorter table, and tails[N - 2]
    holds the rho' and K of their tail bound.
    """

    __slots__ = ("_l1", "_te", "_last", "_far", "rows", "reach", "tails")

    def __init__(self, L: float, eta: float):
        self._l1, self._te = 2.0 * L + 1.0, 2.0 * eta
        self.rows: list[tuple[float, ...]] = [(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)]
        self.reach: list[float] = []
        self.tails: list[tuple[float, float]] = []
        self._last = (0.0, 0.0, 1.0, 0.0)  # a_(n-2), e_(n-2), a_(n-1), e_(n-1); a_(-1) = 0
        # the reach of the rows 0..N is at most N/(2(N+2) rho'), which grows
        # with N: no table reaches past its value for the full table, nor
        # past |z| = 55
        m = _TABLE_TERMS - 1.0
        far = m / (2.0 * (m + 2.0) * _tail_ratio(abs(self._te), (m + 1.0) * (m + 1.0 + self._l1)))
        self._far = far if far < EVAL_Z_MAX else EVAL_Z_MAX
        self._grow(0.0)

    def _grow(self, t: float) -> None:
        """Rows until the reach passes t or the table is full: c_n = n(n + 2L+1)
        and a_n = (2 eta a_(n-1) - a_(n-2))/c_n in doubles, with
        e_n = ((|2 eta| e_(n-1) + e_(n-2)) + 6 eps (|2 eta a_(n-1)| + |a_(n-2)|))/c_n,
        and from N = 2 on the reach of the rows 0..N (module docstring, Table)."""
        rows, reach, tails = self.rows, self.reach, self.tails
        te, l1 = self._te, self._l1
        ate, eps, up, tiny = abs(te), _EPS, _UP, _TINY
        a2, e2, a1, e1 = self._last
        u2, u1 = abs(a2), abs(a1)
        last = reach[-1] if reach else 0.0
        n = len(rows)
        c = n * (n + l1)
        while True:
            a = (te * a1 - a2) / c
            e = ((ate * e1 + e2) + 6.0 * eps * (ate * u1 + u2)) / c * up
            u = abs(a)
            k = n * (n - 1.0)
            w = u + e / ((n + 2.0) * eps)
            rows.append((a, n * a, k * a, w, n * w, k * w))
            a2, e2, u2, a1, e1, u1 = a1, e1, u1, a, e, u
            n += 1
            c = n * (n + l1)
            if n < 3:
                continue
            # the rows 0..N, N = n - 1: c_m >= c_(N+1) = c for every m > N
            m = n - 1.0
            rho = _tail_ratio(ate, c)
            big, prev = u1 + e1, rho * (u2 + e2)
            big = (big if big > prev else prev) * rho * up + tiny
            r = m / (2.0 * (m + 2.0) * rho)
            tail = (_TABLE_TAIL / (2.0 * (m + 1.0) * m * big)) ** (1.0 / (m - 1.0))
            r = r if r < tail else tail
            last = r if r > last else last
            reach.append(last)
            tails.append((rho, big))
            if last >= t or n == _TABLE_TERMS:
                break
        self._last = a2, e2, a1, e1

    def value(self, t: float) -> SeriesValue | None:
        """P, P' and P'' at 0 <= t <= 55 within the reach, as forward sums of
        the rows, or None where the table refuses t (module docstring, Table)."""
        reach = self.reach
        if not 0.0 <= t <= self._far:
            return None
        if reach[-1] < t:
            if len(self.rows) < _TABLE_TERMS:
                self._grow(t)
            if reach[-1] < t:
                return None
        n = bisect.bisect_left(reach, t) + 2
        # p0, p1 and p2 are t^n, t^(n-1) and t^(n-2) at row n, each power
        # rounded once more than the last
        s0 = s1 = s2 = m0 = m1 = m2 = p1 = p2 = 0.0
        p0 = 1.0
        for a, b, d, w0, w1, w2 in self.rows[:n + 1]:
            s0 += a * p0
            s1 += b * p1
            s2 += d * p2
            m0 += w0 * p0
            m1 += w1 * p1
            m2 += w2 * p2
            p2, p1, p0 = p1, p0, p0 * t
        if 0.0 < t and p0 < _NORMAL:  # a power, t^(n+1) the least, below the normal range
            return None
        rho, big = self.tails[n - 2]
        q = big / (1.0 - rho * t * (n + 2.0) / n)  # rho t (n+2)/n <= 1/2 within the reach
        gamma = (n + 2.0) * _EPS / (1.0 - (n + 2.0) * _EPS)
        b0 = (gamma * m0 + q * p0) * _UP
        b1 = (gamma * m1 + (n + 1.0) * q * p1) * _UP
        b2 = (gamma * m2 + (n + 1.0) * n * q * p2) * _UP
        if not (abs(s0) + abs(s1) + abs(s2) + b1 + b2 < math.inf
                and b0 <= _TABLE_BUDGET * abs(s0)) or noise_limited(s1, b1) or noise_limited(s2, b2):
            return None
        counts = _record.get()
        if counts is not None:
            counts.table_points += 1
        return SeriesValue(s0, s1, s2, truncation_terms=n + 1, tail_estimate=q * p0 * _UP,
                           noise=(b0 + _TINY, b1 + _TINY, b2 + _TINY))


class Evaluator:
    """P, P' and P'' of one (L, eta) at every point one query asks for.

    It keeps the table of the origin's coefficients (L > -1) and every sum
    it makes, by abscissa, for one query in one thread.  sum(t) is the value
    kept at t, or a new sum from the origin; direct(t) is the table's value
    at t, or sum(t) past the table's reach or where it refuses t; value(t)
    is the table's value, or else the jet of the kept sum nearest t (the
    larger abscissa at equal distance), or else sum(t), which a point below
    every kept sum takes at once.  Neither table values nor jets are kept,
    so errors never chain.
    """

    def __init__(self, params: CoulombParams):
        self.params = params
        self._ts: list[float] = []
        self._sums: list[SeriesValue] = []
        # every c_m = m(m+2L+1) is positive exactly where L > -1
        self._table = _OriginTable(params.L, params.eta) if params.L > -1.0 else None

    def sum(self, t: float) -> SeriesValue:
        ts, i = self._ts, bisect.bisect_left(self._ts, t)
        if i == len(ts) or ts[i] != t:
            self._sums.insert(i, _direct(self.params.L, self.params.eta, t))
            ts.insert(i, t)
        return self._sums[i]

    def table(self, t: float) -> SeriesValue | None:
        """The table's value at t, or None where there is none."""
        return None if self._table is None else self._table.value(t)

    def direct(self, t: float) -> SeriesValue:
        sv = self.table(t)
        return self.sum(t) if sv is None else sv

    def value(self, t: float) -> SeriesValue:
        sv = self.table(t)
        ts = self._ts
        if sv is None and ts and t >= ts[0]:
            i = bisect.bisect_left(ts, t)
            if i == len(ts) or (i and t - ts[i - 1] < ts[i] - t):
                i -= 1
            sv = jet(self._sums[i], t)
        return self.sum(t) if sv is None else sv


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
    if z == 0.0:
        if counts is not None:
            counts.terms += 1
        return _origin(L, eta)
    bits = _START_BITS
    while True:
        sums, errs, shift, n, tau = _fixed_point_sum(L, eta, z, bits)
        missing = _missing_bits(sums, errs)
        if missing <= 0 or bits >= _MAX_BITS:
            break
        bits = min(bits + missing, _MAX_BITS)
    sv = _rounded(sums, errs, shift, n, tau, (L, eta, z))
    if counts is not None:
        counts.terms += sv.truncation_terms
    return sv


def _origin(L: float, eta: float) -> SeriesValue:
    """The exact series value at z = 0, (1, a_1, 2 a_2) each rounded once; no
    sum, so counting() does not count it."""
    values = (1.0, *(k * num / den for k, (num, den)
                     in enumerate(_exact_coefficients(L, eta, 2)[1:], 1)))
    return SeriesValue(*values, truncation_terms=1, tail_estimate=0.0,
                       noise=tuple(0.5 * math.ulp(v) for v in values), _at=(L, eta, 0.0))


def _missing_bits(sums: tuple[int, int, int], errs: tuple[int, int, int]) -> int:
    """Bits by which the sums fall short of clearing their bounds by _GUARD_BITS."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    return max(r0.bit_length() - abs(s0).bit_length(), r1.bit_length() - abs(s1).bit_length(),
               r2.bit_length() - abs(s2).bit_length()) + _GUARD_BITS + 1


def _rounded(sums: tuple[int, int, int], errs: tuple[int, int, int], shift: int, n: int,
             tau: int, at: tuple[float, float, float]) -> SeriesValue:
    """The SeriesValue at at = (L, eta, z) of the sums of t_n, n t_n and
    n(n-1) t_n in units of 2^-shift, t_n = a_n z^n: each of P, P', P'' and
    its bound rounds once, and _UP covers the rounding of each bound and of
    the sum with half an ulp."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    unit = 1 << shift
    Zn, Zd = at[2].as_integer_ratio()
    q1, q2 = Zn * unit, Zn * Zn * unit
    try:
        p0, p1, p2 = s0 / unit, s1 * Zd / q1, s2 * Zd * Zd / q2
        b0, b1, b2 = r0 / unit, r1 * Zd / abs(q1), r2 * Zd * Zd / q2
    except OverflowError:
        raise ConvergenceError(
            f"P, P' or P'' at z={at[2]:.6g}, or its error bound, overflows a double"
        ) from None
    return SeriesValue(p0, p1, p2, truncation_terms=n + 1, tail_estimate=tau / unit * _UP,
                       noise=((b0 + 0.5 * math.ulp(p0)) * _UP, (b1 + 0.5 * math.ulp(p1)) * _UP,
                              (b2 + 0.5 * math.ulp(p2)) * _UP),
                       _at=at)


def _fixed_point_sum(L: float, eta: float, z: float, bits: int):
    """One summation from the origin at bits below min(1, z^2), until each
    tail lies below 2^-_TAIL_BITS of its sum or below its floor errors.

    Returns the integer sums of t_n, n t_n and n(n-1) t_n and their error
    bounds, all in units of 2^-shift, then shift, the last index N and the
    bound tau on the tail of the t_n sum.
    """
    Ln, Ld = L.as_integer_ratio()
    En, Ed = eta.as_integer_ratio()
    Zn, Zd = z.as_integer_ratio()
    # m_n = 0 at k = -(2L+1) alone, which every sum reaches (module docstring)
    k, rem = divmod(-(2 * Ln + Ld), Ld)
    if not rem and 1 <= k <= N_MAX_CAP:
        raise DegenerateRecurrenceError(k, L)
    # T_n = floor((A T_{n-1} - B T_{n-2}) / (D m_n)), m_n = n (n Ld + 2 Ln + Ld)
    A, B, D = 2 * En * Zn * Zd * Ld, Ed * Zn * Zn * Ld, Ed * Zd * Zd
    common = math.gcd(A, B, D)
    A, B, D = A // common, B // common, D // common
    shift = bits + 2 * max(0, -math.frexp(z)[1])
    eta_z, zz, l1 = 2.0 * abs(eta * z), z * z, 2.0 * L + 1.0
    settle = 2.0 * (eta_z + zz)
    big, small, up, tail_bits = _BIG, _SMALL, _UP, _TAIL_BITS
    # T_n and T_(n-1); s0 sums T_n; h1 and h2 sum its partial sums once and
    # twice, which give sum n T_n and sum n(n-1) T_n exactly without a product
    # per term; E_n, E_(n-1) and sum E_n in units of 2^scale
    t, t1, s0, h1, h2 = 1 << shift, 0, 1 << shift, 0, 0
    e = e1 = g = 0.0
    one, scale, live = 1.0, 0, True
    # D m_n by its differences
    den, step, step2 = 0, 2 * D * (Ld + Ln), 2 * D * Ld
    lag = tail_bits + 8  # the tail test runs once T_n < 2^-lag of the sum
    for n in range(1, N_MAX_CAP + 1):
        den += step
        step += step2
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
    return (s0, s1, s2), _errors(n, gi, tau), shift, n, tau


def _tail_root(ma: float, mb: float, mc: float, l2: float, m: int) -> float:
    """An upper bound, within a few ulps, on the dominant root of
    rho^3 = a rho^2 + b rho + c with the jet's bounds at m on the
    coefficients of every later term, a = ma max(1, |m+2L|/m),
    b = mb/(m(m-1)) and c = mc/(m(m-1)) (module docstring, Jets):
    a + sqrt(b) + c^(1/3), which lies above it, then one Newton step, which
    stays above it, and _UP."""
    k = m * (m - 1.0)
    a, b, c = ma * max(1.0, abs(m + l2) / m), mb / k, mc / k
    rho = a + math.sqrt(b) + c ** (1.0 / 3.0)
    rho -= (((rho - a) * rho - b) * rho - c) / ((3.0 * rho - 2.0 * a) * rho - b)
    return rho * _UP


def _tail_ratio(a: float, c: float) -> float:
    """rho' of the table's tail bound, rounded up: the root of
    rho'^2 = (a rho' + 1)/c, a = |2 eta| and c = c_(N+1)."""
    alpha = a / c
    return 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0 / c)) * _UP


def _errors(n: int, gi: int, tau: int) -> tuple[int, int, int]:
    """Bounds on the three sums: the floor errors gi, with the weights k and
    k(k-1) at most N and N(N-1), plus the weighted tail bounds."""
    return gi + tau, n * gi + (n + 1) * tau, n * (n - 1) * gi + (n + 1) * n * tau
