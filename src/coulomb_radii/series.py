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

Evaluation runs on double-double pairs (see _ddouble): the series alternates
and the largest term grows like e^|z| while the value stays O(1), so plain
doubles lose the low digits long before the tenth zero.  Each term is one
pair product t_n = a_n z^n; the sums of t_n and n t_n are P and z P', and
P'' comes from the Coulomb equation z P'' + 2(L+1) P' + (z - 2 eta) P = 0
(below |z| = 1e-12, where it cancels ~log10(1/|z|) of the pair's digits,
P' and P'' are read off a_1..a_3).  Truncation stops once three terms in a
row are negligible against both sums and a geometric-majorant tail bound
from the recurrence sits below DEFAULT_TOL relative to each sum.  Beyond
|z| ~ 55 even the pair format cannot certify results (noise floor
eps_dd * sum|terms|) and evaluation refuses rather than degrade silently.

The recurrence loop of coefficients and the term loop of eval_series expand
the _ddouble operations inline on local floats: the same operations with
the same roundings, without a call or a tuple per operation, which made
both loops about twice as fast.  _ddouble stays their definition, and the
tests pin both loops bit for bit against loops written with its calls.

eval_point is the one evaluation entry point.  A small bounded memo holds one
immutable coefficient table per parameter pair, and a table is only ever
replaced by a longer one built by continuing the recurrence from its last
two pairs (a_n does not depend on the table length, so the values are the
same doubles as a table built from a_0).  A pair starts at 32 terms, about
what a radius query needs, and grows by 16 after any evaluation that used
more than n_max - 8 terms; an evaluation that still runs out (a jump in
|z|) doubles the table, up to N_MAX_CAP.  So a zero scan, whose |z| creeps
outward, grows its table ahead of need, and a radius stays on a short one.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from . import _ddouble as dd
from . import equations
from .errors import (
    ConvergenceError,
    CoulombDomainError,
    DegenerateRecurrenceError,
)
from .params import CoulombParams

N_MAX_CAP = 4096
DEFAULT_TOL = 1e-12
EVAL_Z_MAX = 55.0

_EPS = 2.220446049250313e-16
_TINY = 1e-306
_SMALL_Z = 1e-12  # below this the Coulomb equation cancels too many digits for P''
_NOISE_SAFETY = 4.0
_START_TERMS = 32  # memo table length on first use
_GROW_MARGIN = 8  # grow once an evaluation used more than n_max - 8 terms ...
_GROW_STEP = 16  # ... by this many
_MEMO_SIZE = 16  # parameter pairs held
_LOG_EPS_DD = math.log(dd.EPS)


@dataclass(frozen=True)
class CoefficientTable:
    """Truncated coefficient sequence a_0..a_{n_max} for fixed (L, eta).

    ``a`` is the double-rounded view; the double-double pairs used for
    evaluation are kept alongside so no accuracy is lost on re-evaluation.
    """

    params: CoulombParams
    n_max: int
    a: tuple[float, ...]
    a_pairs: tuple[tuple[float, float], ...]


def coefficients(params: CoulombParams, n_max: int,
                 base: CoefficientTable | None = None) -> CoefficientTable:
    """Generate a_0..a_{n_max} from the two-term recurrence.

    With base, a shorter table of the same params, the recurrence resumes at
    its last two pairs; the result equals a table built from a_0 bit for bit.
    Raises DegenerateRecurrenceError if n(n+2L+1) vanishes for some index up
    to n_max (reachable only for unsafe L <= -3/2) and CoulombDomainError at
    L = -1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    L, eta = params.L, params.eta
    if base is None:
        if L == -1.0:
            raise CoulombDomainError("coefficient recurrence requires L != -1")
        seed = ((1.0, 0.0), dd.div(dd.from_float(eta), dd.two_sum(L, 1.0)))
        base = CoefficientTable(params, 1, tuple(p[0] + p[1] for p in seed), seed)
    elif base.params != params or base.n_max > n_max:
        raise ValueError("base must be a table of the same params with n_max <= the new one")
    pairs = []
    # The recurrence below is dd.two_sum, dd.mul_d, dd.sub and dd.div expanded
    # inline on local floats, operation for operation; the Dekker split of
    # 2 eta is hoisted, and the integer n (< 2^26, so its split is n + 0)
    # takes none.
    split = dd.SPLITTER
    two_eta = 2.0 * eta
    two_L = 2.0 * L
    c = split * two_eta
    eh = c - (c - two_eta)
    el = two_eta - eh
    w0, w1 = base.a_pairs[-2]
    x0, x1 = base.a_pairs[-1]
    for n in range(base.n_max + 1, n_max + 1):
        fn = float(n)
        # den = dd.mul_d(dd.two_sum(two_L, n + 1.0), fn)
        b = n + 1.0
        s = two_L + b
        v = s - two_L
        e = (two_L - (s - v)) + (b - v)
        p = s * fn
        c = split * s
        ah = c - (c - s)
        al = s - ah
        e2 = (ah * fn - p) + al * fn
        e2 += e * fn
        d0 = p + e2
        d1 = e2 - (d0 - p)
        if d0 == 0.0 or abs(n + two_L + 1.0) < 1e-14:
            raise DegenerateRecurrenceError(n, L)
        # m = dd.mul_d(a_{n-1}, two_eta)
        p = x0 * two_eta
        c = split * x0
        ah = c - (c - x0)
        al = x0 - ah
        e = ((ah * eh - p) + ah * el + al * eh) + al * el
        e += x1 * two_eta
        m0 = p + e
        m1 = e - (m0 - p)
        # num = dd.sub(m, a_{n-2})
        b = -w0
        s = m0 + b
        v = s - m0
        e = (m0 - (s - v)) + (b - v)
        e += m1 - w1
        u0 = s + e
        u1 = e - (u0 - s)
        # a_n = dd.div(num, den), in four steps: q1, then y = dd.mul_d(den, q1)
        q1 = u0 / d0
        p = d0 * q1
        c = split * d0
        ah = c - (c - d0)
        al = d0 - ah
        c = split * q1
        bh = c - (c - q1)
        bl = q1 - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += d1 * q1
        y0 = p + e
        y1 = e - (y0 - p)
        # r = dd.sub(num, y)
        b = -y0
        s = u0 + b
        v = s - u0
        e = (u0 - (s - v)) + (b - v)
        e += u1 - y1
        r0 = s + e
        r1 = e - (r0 - s)
        # q2, and a_n = dd.quick_two_sum(q1, q2)
        q2 = (r0 + r1) / d0
        s = q1 + q2
        w0, w1 = x0, x1
        x0, x1 = s, q2 - (s - q1)
        pairs.append((x0, x1))
    return CoefficientTable(
        params=params,
        n_max=n_max,
        a=base.a + tuple(p[0] + p[1] for p in pairs),
        a_pairs=base.a_pairs + tuple(pairs),
    )


def complex_coefficients(L: complex, eta: complex, n_max: int) -> tuple[complex, ...]:
    """Same recurrence with complex parameters, in plain complex arithmetic.

    Used for unit-disk checks where |z| < 1 keeps the sum well conditioned.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if L == -1:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    a = [1.0 + 0j, complex(eta) / (complex(L) + 1.0)]
    for n in range(2, n_max + 1):
        den = n * (n + 2.0 * complex(L) + 1.0)
        if abs(den) < 1e-14:
            raise DegenerateRecurrenceError(n, L)  # type: ignore[arg-type]
        a.append((2.0 * complex(eta) * a[n - 1] - a[n - 2]) / den)
    return tuple(a)


@dataclass(frozen=True)
class SeriesValue:
    """P, P' and P'' at one point, with truncation and noise accounting.

    tail_estimate bounds the magnitude of the discarded tail of the P sum
    (geometric majorant from the recurrence); noise holds the floors
    eps_dd * sum|terms| of the P and P' sums and their image in P''
    (below |z| = 1e-12, where P' and P'' are formed in doubles, the P' and
    P'' floors use the double eps).  The floors bound cancellation in the
    pair sums only, not the final rounding of p0, p1, p2 to doubles: at
    (L, eta) = (0.3, -1.2), z = 5e-13, p0 is off by 1.9e-17 while noise[0]
    is 2.0e-31.  A bound on the returned values adds half an ulp of each.
    """

    p0: float
    p1: float
    p2: float
    truncation_terms: int
    tail_estimate: float
    noise: tuple[float, float, float]


def eval_series(table: CoefficientTable, z: float) -> SeriesValue:
    """Sum P and P' at real z in double-double; P'' from the Coulomb equation."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if abs(z) > EVAL_Z_MAX:
        raise ConvergenceError(
            f"|z|={abs(z):.3g} is beyond the double-double evaluation range "
            f"(~{EVAL_Z_MAX:g}); cancellation noise would swamp the result"
        )
    L, eta = table.params.L, table.params.eta
    az = abs(z)
    pairs = table.a_pairs

    # The loop is dd.mul, dd.add and dd.mul_d expanded inline on local floats,
    # operation for operation; the Dekker split of z is hoisted, the z^n
    # update reuses the split of z^n that the term product made, and the
    # index n runs as the float fn (< 2^26, so its split is fn + 0) and takes
    # none.
    split, eps, eps_dd, tiny = dd.SPLITTER, _EPS, dd.EPS, _TINY
    c = split * z
    zh = c - (c - z)
    zl = z - zh
    s00 = s01 = s10 = s11 = 0.0  # the pair sums s0 (P) and s1 (z P')
    g0 = g1 = 0.0
    zn0, zn1 = 1.0, 0.0  # the pair z^n
    run = 0
    fn = -1.0
    for a0, a1 in pairs:
        fn += 1.0
        # t = dd.mul(a_n, zn)
        p = a0 * zn0
        c = split * a0
        ah = c - (c - a0)
        al = a0 - ah
        c = split * zn0
        bh = c - (c - zn0)
        bl = zn0 - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += a0 * zn1 + a1 * zn0
        t0 = p + e
        t1 = e - (t0 - p)
        # s0 = dd.add(s0, t)
        s = s00 + t0
        v = s - s00
        e = (s00 - (s - v)) + (t0 - v)
        e += s01 + t1
        s00 = s + e
        s01 = e - (s00 - s)
        # u = dd.mul_d(t, fn)
        p = t0 * fn
        c = split * t0
        ah = c - (c - t0)
        al = t0 - ah
        e = (ah * fn - p) + al * fn
        e += t1 * fn
        u0 = p + e
        u1 = e - (u0 - p)
        # s1 = dd.add(s1, u)
        s = s10 + u0
        v = s - s10
        e = (s10 - (s - v)) + (u0 - v)
        e += s11 + u1
        s10 = s + e
        s11 = e - (s10 - s)
        t0m = abs(t0)
        t1m = fn * t0m
        g0 += t0m
        g1 += t1m

        small = (
            t0m <= eps * abs(s00) + eps_dd * g0 + tiny
            and t1m <= eps * abs(s10) + eps_dd * g1 + tiny
        )
        run = run + 1 if small else 0
        if run >= 3 and fn >= 4.0:
            n = int(fn)
            q = az * (2.0 * abs(eta) + max(1.0, az)) / ((n + 1.0) * (n + 2.0 * L + 2.0))
            if 0.0 <= q < 0.9:
                qa = q * (n + 3.0) / (n + 1.0)  # covers the derivative sum too
                fac = qa / (1.0 - qa)
                if all(
                    tm * fac <= max(DEFAULT_TOL * abs(sh),
                                    0.25 * _NOISE_SAFETY * eps_dd * g, tiny)
                    for tm, sh, g in ((t0m, s00, g0), (t1m, s10, g1))
                ):
                    break
        # zn = dd.mul_d(zn, z), on the split (bh, bl) of zn made above
        p = zn0 * z
        e = ((bh * zh - p) + bh * zl + bl * zh) + bl * zl
        e += zn1 * z
        zn0 = p + e
        zn1 = e - (zn0 - p)
    else:
        raise ConvergenceError(
            f"tail bound not achieved within n_max={table.n_max} at z={z:.6g}; "
            "regenerate the table with a larger n_max"
        )
    s0, s1 = (s00, s01), (s10, s11)
    if az >= _SMALL_Z:
        d1 = dd.div(s1, (z, 0.0))
        lin = dd.add(dd.mul(dd.two_sum(2.0 * L, 2.0), d1), dd.mul(dd.two_sum(z, -2.0 * eta), s0))
        p1, p2 = dd.to_float(d1), -dd.to_float(dd.div(lin, (z, 0.0)))
        g1 /= az
        g2 = (abs(2.0 * L + 2.0) * g1 + abs(z - 2.0 * eta) * g0) / az
        eps12 = dd.EPS
    else:
        # the equation cancels ~log10(1/|z|) of the pair's digits here; to
        # double precision P' and P'' are their first two terms, formed in
        # doubles, so their floors are double ones
        _, a1, a2, a3 = table.a[:4]
        p1, p2 = a1 + 2.0 * a2 * z, 2.0 * a2 + 6.0 * a3 * z
        g1 = abs(a1) + abs(2.0 * a2 * z)
        g2 = abs(2.0 * a2) + abs(6.0 * a3 * z)
        eps12 = _EPS
    return SeriesValue(
        p0=dd.to_float(s0),
        p1=p1,
        p2=p2,
        truncation_terms=n + 1,
        tail_estimate=t0m * fac,
        noise=(
            _NOISE_SAFETY * dd.EPS * g0,
            _NOISE_SAFETY * eps12 * g1,
            _NOISE_SAFETY * eps12 * g2,
        ),
    )


class _TableMemo:
    """The current table of each of the last _MEMO_SIZE parameter pairs used.

    Tables are immutable; growing one stores a longer table in its place, and
    a shorter one (a thread that built from an older entry) never replaces
    it.  The lock guards only the dict: tables are built outside it.
    """

    def __init__(self) -> None:
        self._tables: OrderedDict[CoulombParams, CoefficientTable] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, params: CoulombParams) -> CoefficientTable:
        with self._lock:
            table = self._tables.get(params)
            if table is not None:
                self._tables.move_to_end(params)
                return table
        return self._store(coefficients(params, _START_TERMS))

    def grow(self, table: CoefficientTable, n_max: int) -> CoefficientTable:
        """The memo's table for table.params with at least n_max terms."""
        with self._lock:
            held = self._tables.get(table.params)
        if held is not None and held.n_max > table.n_max:
            table = held
        if table.n_max >= n_max:
            return table
        return self._store(coefficients(table.params, n_max, table))

    def _store(self, table: CoefficientTable) -> CoefficientTable:
        with self._lock:
            held = self._tables.get(table.params)
            if held is not None and held.n_max >= table.n_max:
                table = held
            self._tables[table.params] = table
            self._tables.move_to_end(table.params)
            if len(self._tables) > _MEMO_SIZE:
                self._tables.popitem(last=False)
        return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()


_memo = _TableMemo()


def shared_table(params: CoulombParams, n_max: int = 1) -> CoefficientTable:
    """The memo's table for params, grown to at least a_0..a_{n_max}."""
    return _memo.grow(_memo.get(params), n_max)


def _first_length(table: CoefficientTable, az: float) -> int:
    """Table length for the first sum at |z| = az.

    table.n_max where the tail test of eval_series (q < 0.9 at n = n_max) can
    pass; a sum on a table where it cannot runs through every term and
    fails.  Otherwise the first length on the table's doubling chain where
    the tail test can pass and az^n/n! has fallen below EPS_dd e^az: a guess
    at where the terms sink below the pair noise of a sum of about e^az.
    """
    L, eta = table.params.L, table.params.eta
    n = table.n_max
    while n < N_MAX_CAP:
        den = (n + 1.0) * (n + 2.0 * L + 2.0)
        if den > 0.0 and az * (2.0 * abs(eta) + max(1.0, az)) / den < 0.9 and (
                n == table.n_max or n * math.log(az) - math.lgamma(n + 1.0) <= az + _LOG_EPS_DD):
            break
        n = min(2 * n, N_MAX_CAP)
    return n


def eval_point(params: CoulombParams, z: float) -> SeriesValue:
    """Evaluate at z on the memoized table of params, growing it as needed.

    The table grows by _GROW_STEP once an evaluation used more than n_max -
    _GROW_MARGIN terms, so the next, slightly larger |z| finds it long
    enough.  A |z| that the table cannot reach (a jump outward) first doubles
    it to the length _first_length guesses, and an evaluation that still runs
    out doubles it again, up to N_MAX_CAP.
    """
    table = _memo.get(params)
    if abs(z) <= EVAL_Z_MAX:
        n_max = _first_length(table, abs(z))
        if n_max > table.n_max:
            table = _memo.grow(table, n_max)
    while True:
        try:
            sv = eval_series(table, z)
            break
        except ConvergenceError:
            if table.n_max >= N_MAX_CAP or abs(z) > EVAL_Z_MAX:  # no table helps
                raise
            table = _memo.grow(table, min(2 * table.n_max, N_MAX_CAP))
    if sv.truncation_terms > table.n_max - _GROW_MARGIN and table.n_max < N_MAX_CAP:
        _memo.grow(table, min(table.n_max + _GROW_STEP, N_MAX_CAP))
    return sv


def _check_ratio_args(kind: str, r: float) -> None:
    if kind not in ("f", "g"):
        raise ValueError(f"kind must be 'f' or 'g', got {kind!r}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")


def star_ratio(params: CoulombParams, kind: str, r: float) -> float:
    """r g'(r)/g(r) for kind 'g'; (1/(L+1)) r F'(r)/F(r) for kind 'f'.

    Both tend to 1 as r -> 0+ and decrease to -inf at the first positive zero
    of g (eta <= 0).  Raises PoleError when P(r) vanishes within tolerance.
    """
    _check_ratio_args(kind, r)
    return _ratio(params, kind, False, r)


def conv_ratio(params: CoulombParams, kind: str, r: float) -> float:
    """1 + r g''/g' for kind 'g'; 1 + r F''/F' - (L/(L+1)) r F'/F for kind 'f'.

    The f-form is certified only for L > -1/2 (unsafe params may override).
    """
    _check_ratio_args(kind, r)
    if kind == "f" and not params.supports_f_convexity() and not params.unsafe:
        raise CoulombDomainError("conv_ratio kind 'f' requires L > -1/2")
    return _ratio(params, kind, True, r)


def _ratio(params: CoulombParams, kind: str, convex: bool, r: float) -> float:
    num, den, noise = equations.radius_terms(params.L, params.eta, kind, convex, r,
                                             eval_point(params, r))
    return equations.ratio(num[0], den[0], noise, r)
