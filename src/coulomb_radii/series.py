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

Tables.  A point next to the origin or to a sum an Evaluator keeps, at z0,
is read from a table of the Taylor coefficients c_n of P about z0 in
doubles, grown as far as the points asked need, to at most _TABLE_TERMS = 32
rows.  At the origin (L > -1) c_n = a_n, each within one rounding of its
exact value plus a proven floor-error term.  The terms t_n = a_n R^n of the
sum at R = 2^k, the least power of two past the table's far end (and at
least 2^-8), come from the recurrence above in fixed point, with L, eta and
R exact: T_n = floor((2 eta R T_(n-1) - R^2 T_(n-2))/d_n) in units of
2^-s, d_n = n(n+2L+1) > 0, where every denominator but d_n's is a power of
two.  Each T_n rounds once to a double and scales back by R^-n exactly, and
e_n = (|2 eta| e_(n-1) + e_(n-2))/d_n + 2^-(s+kn) bounds the floors' errors
carried into a_n (each step rounded up by _UP).  Where T_n and T_(n-1) both
fall below 2^(53 + _GUARD_BITS), as the terms of a large L do, both move up
to that many bits, exactly, so e_n stays _GUARD_BITS below the rounding of
a_n.  The rows are those of -|eta|, the odd ones negated where eta has its
sign bit clear, so the rows of (L, -eta) are (-1)^n those of (L, eta),
exactly.  At a sum, the Coulomb equation (DLMF 33.2.1) written for P,
z P'' + 2(L+1) P' + (z - 2 eta) P = 0, gives from c_0 = P(z0), c_1 = P'(z0)

    z0 n(n-1) c_n = -(n-1)(n+2L) c_(n-1) - (z0 - 2 eta) c_(n-2) - c_(n-3),

and from e_0 and e_1, the sum's bounds,
e_n = (|(n-1)(n+2L)| f_(n-1) + |z0 - 2 eta| f_(n-2) + f_(n-3))/(|z0| n(n-1)),
f_k = e_k + 16 eps |c_k| for the (at most seven) roundings c_k brings into
a later row (eps = 2^-53).  The tails are geometric.  At the origin
d_m >= d_(N+1) for m > N, and the root sigma of
sigma^2 = (|2 eta| sigma + 1)/d_(N+1) bounds every later ratio.  At a sum
the recurrence's coefficients for m > N are at
most those at m = N+1, A = max(1, |m+2L|/m)/|z0|, B = |z0 - 2 eta|/(m(m-1)|z0|)
and C = 1/(m(m-1)|z0|) ((m+2L)/m falls with m for L >= 0, stays below 1 for
-m/2 <= L < 0, and |m+2L|/m falls with m below that), and so does a sigma at
or above the dominant root of sigma^3 = A sigma^2 + B sigma + C: one Newton
step from the last row's sigma, which lies above it.  By induction
|c_(N+j)| <= B sigma^j, B the largest of sigma^k (|c_(N-k)| + e_(N-k)) for
k = 0, 1 (and 2 at a sum); with K = B sigma and r = sigma |h| (N+2)/N < 1 the
tails of the three sums below are at most K |h|^(N+1)/(1-r),
(N+1) K |h|^N/(1-r) and (N+1) N K |h|^(N-1)/(1-r).

A point z0 + h takes the rows 0..N in one Horner pass over the rows N..0
at the signed h, s2 = s2 h + s1, s1 = s1 h + s0, s0 = s0 h + c_n, which
leaves P, P' and P''/2.  Along each of its paths the term of row n of P
rounds at most 2n + 1 times, and once more as a row at the origin, and
those of P' and P'' fewer, so each value errs by at most the sum of
gamma_(2n+2) |c_n| |h|^n over its terms (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., eq. 5.3 and section 5.1; gamma_k =
k eps/(1 - k eps)), plus the rows' errors e_n |h|^n.  So row n holds c_n
and w_n = gamma_(2n+2) |c_n| + e_n, and the three bounds are the same pass
at |h| over the w_n, with the tail bound K/(1-r) as the weight of row N+1,
rounded up.  A product that underflows errs by less than 2^-1075, which
every w_n covers (e_n > 2^-900 at the origin, and w_n holds _TINY at a
sum).  At -h over the rows (-1)^n c_n the pass makes the same roundings,
signs flipped, so Evaluator.reflected reads the table of (L, eta) at -t,
P' negated, bit for bit.  The reach
of the rows 0..N is the largest |h| with r <= _TABLE_RATIO = 7/8 where the
tail of P'', the largest of the three against its terms, lies below the
bound k(k-1) w_k |h|^(k-2) of its term k = 2, 3 or (N+1)//2 (the last where
the errors e_n outgrow the terms), so that it at most doubles the bound.
It is kept monotone in N, and a
point takes the fewest rows whose reach holds |h|: its bits depend on the
sum and h alone, not on how far the table has grown.  A table refuses a
point past the reach of its 32 rows or past |z| = 55, one where
|h|^(N+1) > 0 leaves the normal range (the tail bound would lose its
relative error bound), and one where P, P' or P'' is noise_limited;
the caller then sums it.  At a sum it refuses |h| >= |z0|/2 as well, the
largest share of |z0| within which z0/2 <= z <= 2 z0, so that h = z - z0 is
exact (Sterbenz); the origin's table refuses a point where the bound of P
passes _TABLE_BUDGET = 1e-13 of |P| (next to a zero of P, or where the
terms cancel), where a sum is short.  A table value keeps no point, so it
is the base of no table, and errors never chain; the origin's exact value,
a sum at z = 0, has no reach.  At (0.5, -1) the origin's table reaches 4.1
(z = 0.5 takes 17 rows and is bounded at 5.6e-16 of P, z = 2.0 at 2.8e-14,
within the budget); the table at the sum at 40 serves h = 0.01, 1.5 and 3.0
from 9, 23 and 30 rows.

coefficients builds a_0..a_{n_max} for the Rayleigh sums from exact integer
numerators and denominators, each rounded once.  The evaluation does not
read them.  eval_point keeps the last 512 values in a memo keyed by the
exact (L, eta, z); eval_series sums on every call.  An Evaluator keeps the
origin's table and each sum of one query at one (L, eta) with its table,
which builds no row until a point asks, and the evaluator alone picks what
serves a point.  Every point of the zero scan but its anchor, of its
refines and of the radius solve is Evaluator.value: the origin table's
value, or else that of the table at a kept sum on either side of the point,
the nearer first, or else a sum that is kept, so a point is summed only
where no table serves it.  Where the caller names a point ahead (the zero
scan names the grid point two steps on) and no table serves a point past
every kept sum, the evaluator sums the point ahead instead, keeps it, and
reads the point back from its table, summing the point itself only where
that table refuses it; so each table at a sum serves points on both sides
of it.  The scan's anchor is Evaluator.direct, the origin table's value
within its reach and a sum past it (Evaluator.sum sums a point once per
query).  A point below every kept sum is summed rather than read towards
the origin, where the second solution of the Coulomb equation is singular:
at (48, 0) the origin's table reaches 10.0, and the table at a sum at 12.5
gives 11.5 a bound of 9.8e-14 on P = 0.51.  A point read back from a sum
above it has a kept sum below it too.  counting() counts every sum made
inside its block, where it is made, the points served from tables at sums
(jets) and from the origin's table, the rows the tables build and the
points they refuse, the steps of zeros.refine_bracket and the refine points
of the zero scan that are noise-limited on its target, and the hits and
misses of eval_point's memo; outside a block each of them pays one
ContextVar lookup.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import FrozenInstanceError, dataclass, field, fields
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
_EPS = 2.0 ** -53  # the unit roundoff of a double
_ROW_ROUND = 16.0 * _EPS  # bounds the roundings of one row at a sum against its parts
_TINY = 2.0 ** -1060  # ... plus this, for a term that leaves the normal range
_NORMAL = 2.0 ** -1022  # the smallest normal double
_TABLE_TERMS = 32  # a table holds at most this many coefficients
_TABLE_RATIO = 0.875  # ... within the reach r = sigma |h| (N+2)/N stays at most this
# gamma_(2n+2) = k eps/(1 - k eps), k = 2n + 2: the roundings of row n's term in one Horner pass
_TABLE_GAMMA = tuple((2.0 * n + 2.0) * _EPS / (1.0 - (2.0 * n + 2.0) * _EPS) for n in range(_TABLE_TERMS))
_TABLE_BUDGET = 1e-13  # the origin's table refuses a point where the bound of P passes this share of P

# n = N + 1 rows: the largest r over sigma, the tail of P'' over K |h|^(N-1),
# the exponents that turn its bounds against its terms 2 and 3 into |h|, and
# mid = n // 2, mid (mid - 1) and the exponent for its term mid
_REACH = {n: (_TABLE_RATIO * (n - 1.0) / (n + 1.0), n * (n - 1.0) / (1.0 - _TABLE_RATIO),
              1.0 / (n - 2.0), 1.0 / (n - 3.0), n // 2, (n // 2) * (n // 2 - 1.0), 1.0 / (n - n // 2))
          for n in range(4, _TABLE_TERMS + 1)}

@dataclass
class SumCounts:
    """The sums of one counting() block: points holds the abscissa of every
    sum (one that fails included), in order, find_zeros's negative side at
    +t of (L, -eta) (zeros module docstring); terms their truncation_terms;
    refine_steps the iterations of zeros.refine_bracket; refine_unresolved
    the refine points of zeros.scan whose target value lies within its
    noise floor (noise_limited), so that the sign the refine takes there is
    not resolved; jets the values served by the table at a sum an
    Evaluator keeps and table_points those served by a table at the origin,
    neither of them sums; table_rows the rows both kinds of table build;
    refused_in_reach the points a table of either kind refused after
    reading its rows (its bound of P passes the budget, a value is
    noise-limited, its powers leave the normal range or a value overflows),
    and refused_past_reach those it refused unread, past the reach of its
    32 rows or past its far end; memo_hits and memo_misses the lookups in
    eval_point's memo, each miss also a sum."""

    points: list[float] = field(default_factory=list)
    terms: int = 0
    refine_steps: int = 0
    refine_unresolved: int = 0
    jets: int = 0
    table_points: int = 0
    table_rows: int = 0
    refused_in_reach: int = 0
    refused_past_reach: int = 0
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


@dataclass(frozen=True, slots=True, init=False)
class SeriesValue:
    """P, P' and P'' at one point, each a double, with their error bounds.

    noise[k] bounds |p_k - exact| for the double p_k as returned: the floor
    errors of the fixed-point sum carried through the recurrence, the bound
    on the discarded tail, and half an ulp of p_k.  truncation_terms counts
    the terms summed, and tail_estimate bounds the discarded tail of the P
    sum (both of the last pass, at the precision that was kept).

    Every sum and table point builds one, so __init__ writes the slots
    through their descriptors, about half the cost of the frozen
    dataclass's object.__setattr__ per field; the value stays frozen.
    """

    p0: float
    p1: float
    p2: float
    truncation_terms: int
    tail_estimate: float
    noise: tuple[float, float, float]

    def __init__(self, p0: float, p1: float, p2: float, truncation_terms: int,
                 tail_estimate: float, noise: tuple[float, float, float]):
        _set_p0(self, p0)
        _set_p1(self, p1)
        _set_p2(self, p2)
        _set_terms(self, truncation_terms)
        _set_tail(self, tail_estimate)
        _set_noise(self, noise)


# the slot descriptors' setters, which the frozen __setattr__ does not guard
_set_p0, _set_p1, _set_p2, _set_terms, _set_tail, _set_noise = (
    getattr(SeriesValue, f.name).__set__ for f in fields(SeriesValue))


def _frozen_setattr(self: SeriesValue, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: SeriesValue, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# the pair that dataclass generates for a frozen class with slots calls
# super() without arguments in the class that slots replaced, which raises
# TypeError for a name that is no field on Python 3.10 and 3.11; these
# refuse every name alike
SeriesValue.__setattr__, SeriesValue.__delattr__ = _frozen_setattr, _frozen_delattr


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


def _origin_rows(L: float, eta: float, k: int) -> Iterator[tuple[tuple[float, ...], tuple[float, float]]]:
    """Row n of the origin's table (_Table) with the sigma and K of the tail
    bound of the rows 0..n (module docstring, Tables): a_n from the terms
    a_n R^n of the sum at R = 2^k in fixed point, each rounded once to a
    double and scaled back."""
    Ln, Ld = L.as_integer_ratio()
    En, Ed = (-abs(eta)).as_integer_ratio()
    # T_n = floor((En T_(n-1) 2^xa - T_(n-2) 2^xb) / (m_n 2^xc)) for
    # n(n+2L+1) t_n = 2 eta R t_(n-1) - R^2 t_(n-2), t_n = a_n R^n, eta <= 0,
    # m_n = n (n Ld + 2 Ln + Ld) = Ld n(n+2L+1): Ld, Ed and R are powers of
    # two, so shifts carry them
    p, q = Ld.bit_length() - 1, Ed.bit_length() - 1
    xa, xb, xc = 1 + p + k, q + p + 2 * k, q
    low = min(xa, xb, xc)
    xa, xb, xc = xa - low, xb - low, xc - low
    ate, up, tiny, gammas = abs(2.0 * eta), _UP, _TINY, _TABLE_GAMMA
    # T_n and T_(n-1) in units of 2^-s, so a_n = T_n ps, ps = 2^-(s + k n),
    # within f_n = (|2 eta| f_(n-1) + f_(n-2))/c_n + ps, the floors' errors
    # carried through the recurrence (each step rounded up by _UP); where
    # both fall below 2^bits (and a_n is above about 2^-600), the two move up
    # to that many bits, exactly, so each row keeps its relative precision:
    # a double's 53 bits and _GUARD_BITS more, by which f_n stays below the
    # rounding of a_n
    bits = s = 53 + _GUARD_BITS
    t, t1, f, f1 = 1 << s, 0, 0.0, 0.0
    rinv = math.ldexp(1.0, -k)
    psu = math.ldexp(up, -s)  # ps _UP
    # the rows of -|eta|, negated at odd n where eta has its sign bit clear,
    # so the rows of (L, -eta) are (-1)^n those of (L, eta), exactly
    sc, rs = math.ldexp(1.0, -s), (-rinv if math.copysign(1.0, eta) > 0.0 else rinv)
    m, step, step2 = 0, 2 * (Ld + Ln), 2 * Ld
    cn, u1 = step / Ld, 1.0  # c_1 = m_1 / Ld, rounded once; |a_0|
    yield (1.0, gammas[0] + tiny), (0.0, 0.0)
    for n in range(1, _TABLE_TERMS):
        m += step
        step += step2
        t, t1 = ((((En * t) << xa) - (t1 << xb)) >> xc) // m, t
        psu *= rinv
        sc *= rs
        f, f1 = (ate * f + f1) * (up / cn) + psu, f
        try:
            a = float(t) * sc
        except OverflowError:  # a_n beyond the double range
            a = math.inf if t > 0 else -math.inf
        if t.bit_length() < bits and t1.bit_length() < bits:
            j = bits - max(t.bit_length(), t1.bit_length())
            if s + k * n + j <= bits + 600:
                t, t1, s = t << j, t1 << j, s + j
                psu, sc = math.ldexp(psu, -j), math.ldexp(sc, -j)
        u = abs(a)
        cn = (m + step) / Ld  # c_(n+1) <= c_m for every m > n
        rho = _tail_ratio(ate, cn)
        big, prev = u + f, rho * (u1 + f1)
        # f >= ps > 2^-900 covers an underflow in a point's Horner pass
        yield (a, gammas[n] * u + f), (rho, (big if big > prev else prev) * rho * up + tiny)
        u1 = u


def _base_rows(L: float, eta: float, z0: float,
               value: SeriesValue) -> Iterator[tuple[tuple[float, ...], tuple[float, float]]]:
    """Row n of the table at value, the sum of (L, eta) at z0 (_Table), c_n
    the Taylor coefficient of P about z0, with the sigma and K of the tail
    bound of the rows 0..n (module docstring, Tables)."""
    l2, zb, iz = 2.0 * L, z0 - 2.0 * eta, 1.0 / abs(z0)
    azb, rnd, up, tiny = abs(zb), _ROW_ROUND, _UP, _TINY
    # c_(n-3), c_(n-2), c_(n-1), their moduli and error bounds, and
    # f_k = e_k + rnd |c_k|
    c2, c1 = value.p0, value.p1
    u2, u1 = abs(c2), abs(c1)
    e2, e1 = value.noise[0], value.noise[1]
    c3 = f3 = 0.0
    f2, f1 = e2 + rnd * u2, e1 + rnd * u1
    gammas = _TABLE_GAMMA
    yield (c2, gammas[0] * u2 + e2 + tiny), (0.0, 0.0)
    yield (c1, gammas[1] * u1 + e1 + tiny), (0.0, 0.0)
    sigma = 0.0
    for n in range(2, _TABLE_TERMS):
        g = (n - 1.0) * (n + l2)
        c = -(g * c1 + zb * c2 + c3) / (z0 * (n * (n - 1.0)))
        u = abs(c)
        e = (abs(g) * f1 + azb * f2 + f3) * iz / (n * (n - 1.0)) * up
        # at m = n + 1 the recurrence's coefficients bound every later one's
        m = n + 1.0
        a = abs(m + l2) / m
        cc = iz / (m * n)
        a, b = (a if a > 1.0 else 1.0) * iz, azb * cc
        if not sigma:
            sigma = a + math.sqrt(b) + cc ** (1.0 / 3.0)
        # one Newton step from above (sigma at m = n bounds it) stays above
        sigma -= (((sigma - a) * sigma - b) * sigma - cc) / ((3.0 * sigma - 2.0 * a) * sigma - b)
        sigma *= up
        w = sigma * (u2 + e2)
        big = u1 + e1
        w = sigma * (big if big > w else w)
        big = u + e
        yield (c, gammas[n] * u + e + tiny), (sigma, (big if big > w else w) * sigma * up + tiny)
        c3, c2, c1, u2, u1, e2, e1 = c2, c1, c, u1, u, e1, e
        f3, f2, f1 = f2, f1, e + rnd * u


class _Table:
    """The Taylor coefficients c_0..c_N of P about z0, the origin or a kept
    sum, in doubles, grown as far as the points asked need (module
    docstring, Tables).

    Row n holds c_n and w_n = gamma_(2n+2) |c_n| + e_n; reach[N - 3] is the
    reach of the rows 0..N, at least that of every shorter table, and
    tails[N - 3] holds the sigma and K of their tail bound.
    """

    __slots__ = ("_source", "_far", "_origin", "_scale", "base", "rows", "reach", "tails")

    def __init__(self, source: Iterator[tuple[tuple[float, ...], tuple[float, float]]], far: float,
                 origin: bool):
        self._source, self._far, self._origin = source, far, origin
        self.rows: list[tuple[float, ...]] = []
        self.reach: list[float] = []
        self.tails: list[tuple[float, float]] = []

    @classmethod
    def origin(cls, L: float, eta: float) -> _Table:
        """The table of the origin's coefficients of (L, eta), L > -1."""
        # the reach of the rows 0..N is at most 7/8 N/((N+2) sigma), which
        # grows with N: no table reaches past its value for the full table,
        # nor past |z| = 55; the rows are the terms of the sum at a power of
        # two at least that far, and at least 2^-8
        m = _TABLE_TERMS - 1.0
        far = _TABLE_RATIO * m / ((m + 2.0) * _tail_ratio(abs(2.0 * eta), (m + 1.0) * (m + 2.0 + 2.0 * L)))
        far = far if far < EVAL_Z_MAX else EVAL_Z_MAX
        table = cls(_origin_rows(L, eta, max(math.frexp(far)[1], -8)), far, True)
        table._grow(0.0)
        return table

    @classmethod
    def at(cls, L: float, eta: float, z0: float, value: SeriesValue) -> _Table:
        """The table at value, the sum of (L, eta) at z0, kept as its base,
        with no rows until a point asks; it serves |h| < |z0|/2, where h is
        exact."""
        table = cls(_base_rows(L, eta, z0, value), math.nextafter(0.5 * abs(z0), 0.0), False)
        table.base = value
        return table

    def _grow(self, t: float) -> None:
        """Rows until the reach passes t or the table is full, and from N = 3
        on the reach of the rows 0..N (module docstring, Tables)."""
        rows, reach, tails, bounds = self.rows, self.reach, self.tails, _REACH
        last = reach[-1] if reach else 0.0
        n = start = len(rows)
        lead2, lead3 = self._scale if n >= 4 else (0.0, 0.0)
        for row, tail in self._source:  # at most _TABLE_TERMS rows
            rows.append(row)
            n += 1
            if n < 4:
                continue
            if n == 4:  # the bounds of the leading terms of P'' at |h| = 1
                lead2, lead3 = self._scale = (2.0 * rows[2][1], 6.0 * rows[3][1])
            # the rows 0..N, N = n - 1, with r <= _TABLE_RATIO: where the tail
            # of P'', f |h|^(N-1), meets the bound of its term 2, 3 or mid
            ratio, weight, x1, x2, mid, kmid, xm = bounds[n]
            sigma, big = tail
            f = weight * big
            a, b = (lead2 / f) ** x1, (lead3 / f) ** x2
            a = a if a > b else b
            b, r = (kmid * rows[mid][1] / f) ** xm, ratio / sigma
            a = a if a > b else b
            r = r if r < a else a
            last = r if r > last else last
            reach.append(last)
            tails.append(tail)
            if last >= t:
                break
        counts = _record.get()
        if counts is not None:
            counts.table_rows += n - start

    def value(self, x: float, flip: float = 1.0) -> SeriesValue | None:
        """P, P' and P'' at z0 + x, |x| within the reach, from one Horner
        pass over the rows N..0 at x, P' times flip, or None where the table
        refuses x (module docstring, Tables)."""
        t = abs(x)
        if not t <= self._far:
            return _refused(True)
        reach = self.reach
        if not reach or reach[-1] < t:
            if len(self.rows) < _TABLE_TERMS:
                self._grow(t)
            if reach[-1] < t:
                return _refused(True)
        n = bisect.bisect_left(reach, t) + 3
        p = t ** (n + 1)
        if 0.0 < t and p < _NORMAL:  # a power, t^(n+1) the least, below the normal range
            return _refused(False)
        sigma, big = self.tails[n - 3]
        q = big / (1.0 - sigma * t * (n + 2.0) / n)  # r <= _TABLE_RATIO within the reach
        # P, P' and P''/2 by Horner's rule at x, each derivative's sum taking
        # the one before it in; their bounds the same at t over the weights,
        # from the tail bound q as the weight of row n + 1
        s0 = s1 = s2 = m1 = m2 = 0.0
        m0 = q
        for c, w in self.rows[n::-1]:
            s2 = s2 * x + s1
            s1 = s1 * x + s0
            s0 = s0 * x + c
            m2 = m2 * t + m1
            m1 = m1 * t + m0
            m0 = m0 * t + w
        s2 *= 2.0
        b0 = m0 * _UP + _TINY
        b1 = m1 * _UP + _TINY
        b2 = 2.0 * m2 * _UP + _TINY
        if (not abs(s0) + abs(s1) + abs(s2) + b0 + b1 + b2 < math.inf
                or (self._origin and not b0 <= _TABLE_BUDGET * abs(s0))
                or noise_limited(s0, b0) or noise_limited(s1, b1) or noise_limited(s2, b2)):
            return _refused(False)
        counts = _record.get()
        if counts is not None:
            if self._origin:
                counts.table_points += 1
            else:
                counts.jets += 1
        return SeriesValue(s0, flip * s1, s2, n + 1, q * p * _UP, (b0, b1, b2))


def _refused(past: bool) -> None:
    """Count a point a table refuses, past its reach or else after reading
    its rows (SumCounts), and return None."""
    counts = _record.get()
    if counts is not None:
        if past:
            counts.refused_past_reach += 1
        else:
            counts.refused_in_reach += 1


class Evaluator:
    """P, P' and P'' of one (L, eta) at every point one query asks for.

    It keeps the table of the origin's coefficients (L > -1) and, by
    abscissa, each sum it makes with its table, which builds no row until a
    point asks, for one query in one thread.  sum(t) is the sum kept at t,
    or a new sum from the origin, kept with its table; direct(t) is the
    origin table's value at t, or sum(t) where it refuses t; value(t) is the
    origin table's value, or else the value of the table at a kept sum on
    either side of t, the nearer first (the larger abscissa at equal
    distance), or else sum(t), which a point below every kept sum takes at
    once.  value(t, ahead), for t past every kept sum that no table serves,
    sums and keeps ahead (a point past t) and reads t back from its table;
    it sums t where that table refuses t or the sum at ahead raises
    ConvergenceError.  Table values are not kept, so errors never chain.
    """

    def __init__(self, params: CoulombParams):
        self.params = params
        # the abscissae of the kept sums, ascending, and the table at each
        self._ts: list[float] = []
        self._kept: list[_Table] = []
        # every c_m = m(m+2L+1) is positive exactly where L > -1
        self._table = _Table.origin(params.L, params.eta) if params.L > -1.0 else None
        self._flip = 1.0

    def reflected(self) -> Evaluator:
        """A new Evaluator of (L, -eta), unsafe, sharing this one's origin
        table, which it reads at -t, P' negated (module docstring, Tables)."""
        other = Evaluator.__new__(Evaluator)
        other.params = CoulombParams(self.params.L, -self.params.eta, unsafe=True)
        other._ts, other._kept = [], []
        other._table, other._flip = self._table, -self._flip
        return other

    def sum(self, t: float) -> SeriesValue:
        ts, i = self._ts, bisect.bisect_left(self._ts, t)
        if i == len(ts) or ts[i] != t:
            L, eta = self.params.L, self.params.eta
            self._kept.insert(i, _Table.at(L, eta, t, _direct(L, eta, t)))
            ts.insert(i, t)
        return self._kept[i].base

    def table(self, t: float) -> SeriesValue | None:
        """The origin table's value at t, or None where there is none."""
        return None if self._table is None else self._table.value(self._flip * t, self._flip)

    def direct(self, t: float) -> SeriesValue:
        sv = self.table(t)
        return self.sum(t) if sv is None else sv

    def value(self, t: float, ahead: float | None = None) -> SeriesValue:
        sv = self.table(t)
        if sv is not None:
            return sv
        ts, kept = self._ts, self._kept
        if not ts or not ts[0] <= t <= EVAL_Z_MAX:
            return self.sum(t)  # below every kept sum, or past the range
        i = bisect.bisect_left(ts, t)
        if i == len(ts):  # past every kept sum
            sv = kept[i - 1].value(t - ts[i - 1])
            if sv is None and ahead is not None and ahead > t:
                try:
                    self.sum(ahead)
                except ConvergenceError:
                    return self.sum(t)
                sv = kept[i].value(t - ts[i])
        elif ts[i] == t:
            return kept[i].base
        else:  # between two kept sums: the nearer first, the larger at equal distance
            near, other = (i - 1, i) if t - ts[i - 1] < ts[i] - t else (i, i - 1)
            sv = kept[near].value(t - ts[near])
            if sv is None:
                sv = kept[other].value(t - ts[other])
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
    sv = _rounded(sums, errs, shift, n, tau, z)
    if counts is not None:
        counts.terms += sv.truncation_terms
    return sv


def _origin(L: float, eta: float) -> SeriesValue:
    """The exact series value at z = 0, (1, a_1, 2 a_2) each rounded once; no
    sum, so counting() does not count it."""
    values = (1.0, *(k * num / den for k, (num, den)
                     in enumerate(_exact_coefficients(L, eta, 2)[1:], 1)))
    return SeriesValue(*values, truncation_terms=1, tail_estimate=0.0,
                       noise=tuple(0.5 * math.ulp(v) for v in values))


def _missing_bits(sums: tuple[int, int, int], errs: tuple[int, int, int]) -> int:
    """Bits by which the sums fall short of clearing their bounds by _GUARD_BITS."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    return max(r0.bit_length() - abs(s0).bit_length(), r1.bit_length() - abs(s1).bit_length(),
               r2.bit_length() - abs(s2).bit_length()) + _GUARD_BITS + 1


def _rounded(sums: tuple[int, int, int], errs: tuple[int, int, int], shift: int, n: int,
             tau: int, z: float) -> SeriesValue:
    """The SeriesValue at z of the sums of t_n, n t_n and
    n(n-1) t_n in units of 2^-shift, t_n = a_n z^n: each of P, P', P'' and
    its bound rounds once, and _UP covers the rounding of each bound and of
    the sum with half an ulp."""
    (s0, s1, s2), (r0, r1, r2) = sums, errs
    unit = 1 << shift
    Zn, Zd = z.as_integer_ratio()
    q1, q2 = Zn * unit, Zn * Zn * unit
    try:
        p0, p1, p2 = s0 / unit, s1 * Zd / q1, s2 * Zd * Zd / q2
        b0, b1, b2 = r0 / unit, r1 * Zd / abs(q1), r2 * Zd * Zd / q2
    except OverflowError:
        raise ConvergenceError(
            f"P, P' or P'' at z={z:.6g}, or its error bound, overflows a double"
        ) from None
    return SeriesValue(p0, p1, p2, n + 1, tau / unit * _UP,
                       ((b0 + 0.5 * math.ulp(p0)) * _UP, (b1 + 0.5 * math.ulp(p1)) * _UP,
                        (b2 + 0.5 * math.ulp(p2)) * _UP))


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


def _tail_ratio(a: float, c: float) -> float:
    """rho' of the table's tail bound, rounded up: the root of
    rho'^2 = (a rho' + 1)/c, a = |2 eta| and c = c_(N+1)."""
    alpha = a / c
    return 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0 / c)) * _UP


def _errors(n: int, gi: int, tau: int) -> tuple[int, int, int]:
    """Bounds on the three sums: the floor errors gi, with the weights k and
    k(k-1) at most N and N(N-1), plus the weighted tail bounds."""
    return gi + tau, n * gi + (n + 1) * tau, n * (n - 1) * gi + (n + 1) * n * tau
