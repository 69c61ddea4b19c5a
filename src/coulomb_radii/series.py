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

eval_point is the one evaluation entry point: it reads immutable coefficient
tables from a small bounded memo keyed on (params, n_max), so repeated
queries at one parameter pair build the table once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import _ddouble as dd
from . import equations
from .errors import (
    ConvergenceError,
    CoulombDomainError,
    DegenerateRecurrenceError,
)
from .params import CoulombParams

DEFAULT_N_MAX = 256
N_MAX_CAP = 4096
DEFAULT_TOL = 1e-12
EVAL_Z_MAX = 55.0

_EPS = 2.220446049250313e-16
_TINY = 1e-306
_SMALL_Z = 1e-12  # below this the Coulomb equation cancels too many digits for P''
_NOISE_SAFETY = 4.0


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


def coefficients(params: CoulombParams, n_max: int) -> CoefficientTable:
    """Generate a_0..a_{n_max} from the two-term recurrence.

    Raises DegenerateRecurrenceError if n(n+2L+1) vanishes for some index
    (reachable only for unsafe L <= -3/2) and CoulombDomainError at L = -1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    L, eta = params.L, params.eta
    if L == -1.0:
        raise CoulombDomainError("coefficient recurrence requires L != -1")
    pairs = [(1.0, 0.0)]
    pairs.append(dd.div(dd.from_float(eta), dd.two_sum(L, 1.0)))
    two_eta = 2.0 * eta
    two_L = 2.0 * L
    for n in range(2, n_max + 1):
        den = dd.mul_d(dd.two_sum(two_L, n + 1.0), float(n))
        if den[0] == 0.0 or abs(n + two_L + 1.0) < 1e-14:
            raise DegenerateRecurrenceError(n, L)
        num = dd.sub(dd.mul_d(pairs[n - 1], two_eta), pairs[n - 2])
        pairs.append(dd.div(num, den))
    return CoefficientTable(
        params=params,
        n_max=n_max,
        a=tuple(p[0] + p[1] for p in pairs),
        a_pairs=tuple(pairs),
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
    eps_dd * sum|terms| of the P and P' sums and their image in P''.
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

    s0 = s1 = (0.0, 0.0)
    g0 = g1 = 0.0
    zn = (1.0, 0.0)
    run = 0
    for n in range(table.n_max + 1):
        t = dd.mul(pairs[n], zn)
        s0 = dd.add(s0, t)
        s1 = dd.add(s1, dd.mul_d(t, float(n)))
        t0m = abs(t[0])
        t1m = n * t0m
        g0 += t0m
        g1 += t1m

        small = (
            t0m <= _EPS * abs(s0[0]) + dd.EPS * g0 + _TINY
            and t1m <= _EPS * abs(s1[0]) + dd.EPS * g1 + _TINY
        )
        run = run + 1 if small else 0
        if run >= 3 and n >= 4:
            q = az * (2.0 * abs(eta) + max(1.0, az)) / ((n + 1.0) * (n + 2.0 * L + 2.0))
            if 0.0 <= q < 0.9:
                qa = q * (n + 3.0) / (n + 1.0)  # covers the derivative sum too
                fac = qa / (1.0 - qa)
                if all(
                    tm * fac <= max(DEFAULT_TOL * abs(s[0]),
                                    0.25 * _NOISE_SAFETY * dd.EPS * g, _TINY)
                    for tm, s, g in ((t0m, s0, g0), (t1m, s1, g1))
                ):
                    break
        zn = dd.mul_d(zn, z)
    else:
        raise ConvergenceError(
            f"tail bound not achieved within n_max={table.n_max} at z={z:.6g}; "
            "regenerate the table with a larger n_max"
        )
    if az >= _SMALL_Z:
        d1 = dd.div(s1, (z, 0.0))
        lin = dd.add(dd.mul(dd.two_sum(2.0 * L, 2.0), d1), dd.mul(dd.two_sum(z, -2.0 * eta), s0))
        p1, p2 = dd.to_float(d1), -dd.to_float(dd.div(lin, (z, 0.0)))
        g1 /= az
        g2 = (abs(2.0 * L + 2.0) * g1 + abs(z - 2.0 * eta) * g0) / az
    else:
        # the equation cancels ~log10(1/|z|) of the pair's digits here; to
        # double precision P' and P'' are their first two terms
        _, a1, a2, a3 = table.a[:4]
        p1, p2 = a1 + 2.0 * a2 * z, 2.0 * a2 + 6.0 * a3 * z
        g1 = abs(a1) + abs(2.0 * a2 * z)
        g2 = abs(2.0 * a2) + abs(6.0 * a3 * z)
    return SeriesValue(
        p0=dd.to_float(s0),
        p1=p1,
        p2=p2,
        truncation_terms=n + 1,
        tail_estimate=t0m * fac,
        noise=(
            _NOISE_SAFETY * dd.EPS * g0,
            _NOISE_SAFETY * dd.EPS * g1,
            _NOISE_SAFETY * dd.EPS * g2,
        ),
    )


@functools.lru_cache(maxsize=16)
def _table(params: CoulombParams, n_max: int) -> CoefficientTable:
    # bounded memo of immutable tables: ~37 kB per 256-term table, and
    # lru_cache is safe to share between threads
    return coefficients(params, n_max)


def eval_point(params: CoulombParams, z: float) -> SeriesValue:
    """Evaluate at z on the memoized table, doubling it up to N_MAX_CAP."""
    n_max = DEFAULT_N_MAX
    while True:
        try:
            return eval_series(_table(params, n_max), z)
        except ConvergenceError:
            if n_max >= N_MAX_CAP or abs(z) > EVAL_Z_MAX:  # no table helps
                raise
            n_max *= 2


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
    return equations.star_ratio(params.L, kind, r, eval_point(params, r))


def conv_ratio(params: CoulombParams, kind: str, r: float) -> float:
    """1 + r g''/g' for kind 'g'; 1 + r F''/F' - (L/(L+1)) r F'/F for kind 'f'.

    The f-form is certified only for L > -1/2 (unsafe params may override).
    """
    _check_ratio_args(kind, r)
    if kind == "f" and params.L <= -0.5 and not params.unsafe:
        raise CoulombDomainError("conv_ratio kind 'f' requires L > -1/2")
    return equations.conv_ratio(params.L, kind, r, eval_point(params, r))


# --- normalization constant -------------------------------------------------

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set);
# relative error below 1e-13 on Re z > 0, which is all this package needs.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def lngamma_complex(z: complex) -> complex:
    """log Gamma on Re z > 0 via the Lanczos sum."""
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError("lngamma_complex requires Re z > 0")
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def normalization_constant(L: float, eta: float) -> float:
    """C_L(eta) = 2^L e^{-pi eta/2} |Gamma(L+1+i eta)| / Gamma(2L+2).

    Integer L uses the finite-product form; non-integer L goes through the
    complex log-gamma magnitude.  Only used for display and cross-checks: the
    constant cancels in every radius equation.
    """
    L = float(L)
    eta = float(eta)
    if not L > -1.0:
        raise CoulombDomainError("normalization_constant requires L > -1")
    if L.is_integer():
        Li = int(L)
        if eta == 0.0:
            return 2.0**Li * math.factorial(Li) / math.factorial(2 * Li + 1)
        prod = 1.0
        for k in range(Li + 1):
            prod *= k * k + eta * eta
        # eta*(e^{2 pi eta}-1) > 0 for all real eta != 0
        return (2.0**Li / math.factorial(2 * Li + 1)) * math.sqrt(
            2.0 * math.pi * prod / (eta * math.expm1(2.0 * math.pi * eta))
        )
    re_lg = lngamma_complex(complex(L + 1.0, eta)).real
    return math.exp(
        L * math.log(2.0) - math.pi * eta / 2.0 + re_lg - math.lgamma(2.0 * L + 2.0)
    )


# --- Bessel oracle ----------------------------------------------------------

def bessel_j(nu: float, x: float, *, tol: float = 1e-14) -> float:
    """Ascending-series Bessel function of the first kind (oracle path).

    Independent of the Coulomb series code: used to cross-check the eta = 0
    collapse F_{L,0}(z) = sqrt(pi z/2) J_{L+1/2}(z).  Accurate in plain
    doubles for the desk-scale arguments (x <~ 10) exercised here.
    """
    nu = float(nu)
    x = float(x)
    if not nu > -1.0:
        raise ValueError("bessel_j requires nu > -1")
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise ValueError("x = 0 diverges for nu < 0")
    term = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    q = 0.25 * x * x
    s = term
    comp = 0.0  # Neumaier compensation
    run = 0
    for k in range(400):
        term = -term * q / ((k + 1.0) * (k + 1.0 + nu))
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        ratio = q / ((k + 2.0) * (k + 2.0 + nu))
        if abs(term) <= _EPS * abs(s) + _TINY:
            run += 1
            if run >= 3 and ratio < 0.9:
                if abs(term) * ratio / (1.0 - ratio) <= max(tol * abs(s), _TINY):
                    return s + comp
        else:
            run = 0
    raise ConvergenceError(f"bessel_j series did not converge at nu={nu}, x={x}")
