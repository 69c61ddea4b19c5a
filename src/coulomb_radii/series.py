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

coefficients builds a_0..a_{n_max} for the Rayleigh sums from exact integer
numerators and denominators, each rounded once.  The evaluation does not
read them, and nothing is cached: eval_point is one eval_series call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import equations
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
    a = [1.0 + 0j, complex(eta) / (complex(L) + 1.0)]
    for n in range(2, n_max + 1):
        den = n * (n + 2.0 * complex(L) + 1.0)
        if abs(den) < 1e-14:
            raise DegenerateRecurrenceError(n, L)  # type: ignore[arg-type]
        a.append((2.0 * complex(eta) * a[n - 1] - a[n - 2]) / den)
    return tuple(a)


@dataclass(frozen=True)
class SeriesValue:
    """P, P' and P'' at one point, each a double, with their error bounds.

    noise[k] bounds |p_k - exact| for the double p_k as returned: the floor
    errors of the fixed-point sum carried through the recurrence, the bound
    on the discarded tail, and half an ulp of p_k.  truncation_terms counts
    the terms t_0..t_N summed, and tail_estimate bounds the discarded tail
    of the P sum (both of the last pass, at the precision that was kept).
    """

    p0: float
    p1: float
    p2: float
    truncation_terms: int
    tail_estimate: float
    noise: tuple[float, float, float]


def eval_series(table: CoefficientTable, z: float) -> SeriesValue:
    """P, P' and P'' at real z for table.params, summed in fixed point.

    The terms come from the recurrence in z, not from the table's
    coefficients, so its length does not limit the sum.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if abs(z) > EVAL_Z_MAX:
        raise ConvergenceError(
            f"|z|={abs(z):.3g} is beyond the evaluation range (~{EVAL_Z_MAX:g})"
        )
    L, eta = table.params.L, table.params.eta
    if L == -1.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    if z == 0.0:
        # P'(0) = a_1 and P''(0) = 2 a_2, each rounded once
        values = (1.0, *(k * num / den for k, (num, den)
                         in enumerate(_exact_coefficients(L, eta, 2)[1:], 1)))
        return SeriesValue(*values, truncation_terms=1, tail_estimate=0.0,
                           noise=tuple(0.5 * math.ulp(v) for v in values))
    bits = _START_BITS
    while True:
        (s0, s1, s2), (r0, r1, r2), shift, n, tau = _fixed_point_sum(L, eta, z, bits)
        # bits by which the sums fall short of clearing their bounds by _GUARD_BITS
        missing = max(r0.bit_length() - abs(s0).bit_length(),
                      r1.bit_length() - abs(s1).bit_length(),
                      r2.bit_length() - abs(s2).bit_length()) + _GUARD_BITS + 1
        if missing <= 0 or bits >= _MAX_BITS:
            break
        bits = min(bits + missing, _MAX_BITS)
    # the sums are P, z P' and z^2 P'' in units of 2^-shift; each rounds once
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
    # _UP covers the rounding of each bound and of the sum with half an ulp
    return SeriesValue(p0, p1, p2, truncation_terms=n + 1, tail_estimate=tau / unit * _UP,
                       noise=((b0 + 0.5 * math.ulp(p0)) * _UP, (b1 + 0.5 * math.ulp(p1)) * _UP,
                              (b2 + 0.5 * math.ulp(p2)) * _UP))


def _fixed_point_sum(L: float, eta: float, z: float, bits: int):
    """One summation at bits below min(1, z^2).

    Returns the integer sums of t_n, n t_n and n(n-1) t_n and their error
    bounds, all in units of 2^-shift, then shift, the last index N and the
    bound tau on the tail of the t_n sum.
    """
    Ln, Ld = L.as_integer_ratio()
    En, Ed = eta.as_integer_ratio()
    Zn, Zd = z.as_integer_ratio()
    # T_n = floor((A T_{n-1} - B T_{n-2}) / (D m_n)), m_n = n (n Ld + 2 Ln + Ld)
    A, B, D = 2 * En * Zn * Zd * Ld, Ed * Zn * Zn * Ld, Ed * Zd * Zd
    common = math.gcd(A, B, D)
    A, B, D = A // common, B // common, D // common
    den, step, step2 = 0, 2 * D * (Ld + Ln), 2 * D * Ld  # D m_n by its differences
    shift = bits + 2 * max(0, -math.frexp(z)[1])
    eta_z, zz, l1 = 2.0 * abs(eta * z), z * z, 2.0 * L + 1.0
    settle = 2.0 * (eta_z + zz)
    tail_bits, big, small, up = _TAIL_BITS, _BIG, _SMALL, _UP
    t, t1 = 1 << shift, 0  # T_n, T_{n-1}
    # s0 sums T_n; h1 and h2 sum its partial sums once and twice, which give
    # sum n T_n and sum n(n-1) T_n exactly without a product per term
    s0, h1, h2 = t, 0, 0
    e = e1 = g = 0.0  # E_n, E_{n-1} and sum E_n, in units of 2^scale
    one, scale, live = 1.0, 0, True
    lag = tail_bits + 8  # the tail test runs once T_n < 2^-lag of the sum
    for n in range(1, N_MAX_CAP + 1):
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
    # floor errors, with the weights n and n(n-1) at most N and N(N-1), and tail
    errs = (gi + tau, n * gi + (n + 1) * tau, n * (n - 1) * gi + (n + 1) * n * tau)
    return (s0, s1, s2), errs, shift, n, tau


def eval_point(params: CoulombParams, z: float) -> SeriesValue:
    """P, P' and P'' of params at z: one eval_series call."""
    return eval_series(CoefficientTable(params, 0, (1.0,)), z)


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
