"""Double-double arithmetic: unevaluated sums of two IEEE doubles (~31 digits).

The oscillatory series handled in this package cancel catastrophically in
plain doubles once |z| grows past ~15 (largest term ~e^|z|, result O(1)), so
both the coefficient recurrence and the summation run on these pairs.  Only
the error-free transformations needed here are implemented: Knuth two-sum,
Dekker split/product, and the usual renormalized add/mul/div on (hi, lo)
tuples with |lo| <= ulp(hi)/2.

These functions are the one definition of the pair arithmetic.  The two hot
loops of the series module (the coefficient recurrence and the term sum)
expand them inline on local floats, operation for operation, because a call
and a tuple per operation cost more than the arithmetic; the tests check
those loops bit for bit against loops written with the calls here.
"""

from __future__ import annotations

SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant for binary64

# unit roundoff of the pair format, 2**-104
EPS = 4.930380657631324e-32


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def from_float(a: float) -> tuple[float, float]:
    return (a, 0.0)


def to_float(x: tuple[float, float]) -> float:
    return x[0] + x[1]


def add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    s, e = quick_two_sum(s, e)
    return (s, e)


def sub(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], -y[0])
    e += x[1] - y[1]
    s, e = quick_two_sum(s, e)
    return (s, e)


def mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    p, e = quick_two_sum(p, e)
    return (p, e)


def mul_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    p, e = two_prod(x[0], d)
    e += x[1] * d
    p, e = quick_two_sum(p, e)
    return (p, e)


def div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    q1 = x[0] / y[0]
    r = sub(x, mul_d(y, q1))
    q2 = (r[0] + r[1]) / y[0]
    s, e = quick_two_sum(q1, q2)
    return (s, e)

