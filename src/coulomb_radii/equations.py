"""Every quantity read off the series sums P, P', P'' at one real point.

Each function here is pure algebra on a ``SeriesValue`` at z (or r), with
(L, eta) as the only parameters; only star_ratio and conv_ratio, the
defining ratios at one point, evaluate the series themselves
(series.eval_point).  Written with the C-free factors of the series module,

    F   -> P
    F'  -> (L+1) P + z P'                         (F' / (C z^L))
    F'' -> L(L+1) P + 2(L+1) z P' + z^2 P''       (F'' / (C z^(L-1)))
    g   -> z P,    g' -> P + z P',    g'' -> 2 P' + z P''

the module holds the zero targets with their noise floors, and each radius
equation once, as a pair (N, D) whose quotient is the defining ratio, with
the noise floors of both (radius_terms); the ratio form with its pole check
and the direct form N - beta D, each with its noise floor, both come from
that pair (equation).

Each of them comes as a 2-jet in z: (value, d/dz, d^2/dz^2).  The Coulomb
equation z P'' + 2(L+1) P' + (z - 2 eta) P = 0, differentiated once and
twice, gives

    z P'''  = -(2L+3) P''  - (z - 2 eta) P'  - P,
    z P'''' = -(2L+4) P''' - (z - 2 eta) P'' - 2 P',

so the jets cost no evaluation beyond P, P', P''.  With theta = z d/dz each
derivative target is (s + 1 + theta) P, with the theta-shift s = L for F'
and 0 for g' (theta_shift).  derivative_target names the one of each kind,
F' for f and g' for g: its zeros are the paper's sigma and varsigma zeros,
which cap the convexity radius and carry the Rayleigh sums.  Then
(1 + theta)^2 P = g' + z g'' and (L+1 + theta)^2 P = F'' + F' (C-free), and
d/dz (c + theta) = (c + 1 + theta) d/dz for a constant c, so every jet
needs z P''' and z^2 P'''' only, never a division by z.  The values are
formed exactly as the expanded expressions above, whatever the slopes.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from .errors import PoleError
from .params import CoulombParams
from .series import SeriesValue, eval_point, noise_limited  # noqa: F401 (re-exported)

Jet = tuple[float, float, float]  # (value, d/dz, d^2/dz^2)


class Kind(str, Enum):  # the normalized form f = (F/C)^(1/(L+1)) or g = z P
    F = "f"
    G = "g"


class ZeroTarget(str, Enum):
    F = "F"
    F_PRIME = "F_prime"
    G_PRIME = "g_prime"


def _third(L: float, eta: float, z: float, sv: SeriesValue) -> float:
    """z P''' from the Coulomb equation differentiated once."""
    return -(2.0 * L + 3.0) * sv.p2 - (z - 2.0 * eta) * sv.p1 - sv.p0


def _fourth(L: float, eta: float, z: float, sv: SeriesValue, zp3: float) -> float:
    """z^2 P'''' from the Coulomb equation differentiated twice."""
    return -(2.0 * L + 4.0) * zp3 - z * (z - 2.0 * eta) * sv.p2 - 2.0 * z * sv.p1


def _theta(shift: float, u: Jet, z: float, zu3: float) -> Jet:
    """Jet of (shift + 1 + theta) u = (shift + 1) u + z u', from the jet of u
    and z u'''."""
    return ((shift + 1.0) * u[0] + z * u[1],
            (shift + 2.0) * u[1] + z * u[2],
            (shift + 3.0) * u[2] + zu3)


def _scale(c: float, u: Jet) -> Jet:
    return c * u[0], c * u[1], c * u[2]


def _mul(u: Jet, v: Jet) -> Jet:
    return (u[0] * v[0],
            u[1] * v[0] + u[0] * v[1],
            u[2] * v[0] + 2.0 * u[1] * v[1] + u[0] * v[2])


# --- zero targets -------------------------------------------------------------


@functools.cache  # Kind(kind) once per kind, not at every evaluation
def derivative_target(kind: Kind | str) -> ZeroTarget:
    """The derivative of kind whose zeros cap its convexity radius and carry
    its Rayleigh sums: F' (the sigma zeros) for f, g' (the varsigma zeros)
    for g."""
    return ZeroTarget.F_PRIME if Kind(kind) is Kind.F else ZeroTarget.G_PRIME


def theta_shift(L: float, target: ZeroTarget) -> float:
    """s of a derivative target (s + 1 + theta) P: L for F', 0 for g'."""
    return L if target is ZeroTarget.F_PRIME else 0.0


def centrifugal(L: float, target: ZeroTarget) -> float:
    """c of the coefficient 1 - 2 eta/t - c/t^2 whose sign rules the target's
    zeros (the zeros module): L(L+1), of q, for F and F'; 2L, of r, for g'."""
    return 2.0 * L if target is ZeroTarget.G_PRIME else L * (L + 1.0)


def target_jet(L: float, eta: float, target: ZeroTarget, z: float,
               sv: SeriesValue) -> tuple[Jet, float]:
    """(jet, cancellation-noise floor) of the target's C-free factor at z."""
    p = (sv.p0, sv.p1, sv.p2)
    if target is ZeroTarget.F:
        return p, sv.noise[0]
    s = theta_shift(L, target)
    noise = (abs(s) + 1.0) * sv.noise[0] + abs(z) * sv.noise[1]
    return _theta(s, p, z, _third(L, eta, z, sv)), noise


# --- the normalized form g = z P ------------------------------------------------


def g_value(z: float, sv: SeriesValue) -> float:
    return z * sv.p0


def g_prime(z: float, sv: SeriesValue) -> float:
    return sv.p0 + z * sv.p1


# --- radius equations -----------------------------------------------------------


def radius_terms(L: float, eta: float, kind: str, convex: bool, r: float,
                 sv: SeriesValue) -> tuple[Jet, Jet, float, float]:
    """(N, D, noise floor of N, noise floor of D) of one radius equation
    N/D = beta at r, N and D as jets in r.

    N/D is the defining ratio and D > 0 on (0, cap) for L > -1, eta <= 0.
    B = (s + 1 + theta) P is the derivative target of kind (g', or the C-free
    F' for f) and s its theta-shift:

        starlike:  N = B = r P' + (s+1) P,          D = (s+1) P  (r g'/g, r F'/F/(L+1))
        convex g:  N = (1 + theta) B = g' + r g'',  D = B        (1 + r g''/g')
        convex f:  N = (L+1) A (F'' + B) - L B^2,   D = (L+1) A B
                   (1 + r F''/F' - (L/(L+1)) r F'/F, with A, F'' the C-free
                   F, F'' of the module docstring)

    Each noise floor carries the bounds of P, P' and P'' through N or D to
    first order; (s + 1 + theta) B = (s+1)^2 P + (2s+3) r P' + r^2 P''.
    """
    target = derivative_target(kind)
    s = theta_shift(L, target)
    p = (sv.p0, sv.p1, sv.p2)
    n0, n1, n2 = sv.noise
    b, noise_b = target_jet(L, eta, target, r, sv)
    if not convex:  # N is the target's jet
        return b, _scale(s + 1.0, p), noise_b, abs(s + 1.0) * n0
    # (s + 1 + theta) B, with r B''' = (s+4) r P''' + r^2 P''''; for f it is
    # F'' + B, whose value is formed from the expanded F'' below
    zp3 = _third(L, eta, r, sv)
    e = _theta(s, b, r, (s + 4.0) * zp3 + _fourth(L, eta, r, sv, zp3))
    noise_e = (s + 1.0) ** 2 * n0 + abs(2.0 * s + 3.0) * abs(r) * n1 + r * r * n2
    if target is ZeroTarget.G_PRIME:
        return e, b, noise_e, noise_b
    f_second = L * (L + 1.0) * sv.p0 + 2.0 * (L + 1.0) * r * sv.p1 + r * r * sv.p2
    e = (f_second + b[0], e[1], e[2])
    a = _scale(L + 1.0, p)
    num = _mul(a, e)
    sq = _mul(_scale(L, b), b)
    noise_n = (abs(L + 1.0) * (abs(e[0]) * n0 + abs(sv.p0) * noise_e)
               + 2.0 * abs(L * b[0]) * noise_b)
    noise_d = abs(L + 1.0) * (abs(sv.p0) * noise_b + abs(b[0]) * n0)
    return (num[0] - sq[0], num[1] - sq[1], num[2] - sq[2]), _mul(a, b), noise_n, noise_d


def ratio(num: float, den: float, noise: float, r: float) -> float:
    """num/den; PoleError where den vanishes within its noise floor (at or past
    the first zero of the denominator, the domain cap)."""
    if abs(den) <= max(1e-12 * max(abs(num), 1e-30), noise):
        raise PoleError(f"denominator of the radius equation is zero within "
                        f"tolerance at r={r:.12g} (at/past the domain cap)")
    return num / den


def equation(num: Jet, den: Jet, noise_n: float, noise_d: float, r: float, beta: float,
             form: str) -> tuple[Jet, float]:
    """(jet, noise floor) of the direct form N - beta D (form 'direct') or of
    the ratio form N/D - beta (form 'ratio', PoleError as in ratio) at r."""
    if form == "direct":
        return ((num[0] - beta * den[0], num[1] - beta * den[1], num[2] - beta * den[2]),
                noise_n + beta * noise_d)
    q = ratio(num[0], den[0], noise_d, r)
    q1 = (num[1] - q * den[1]) / den[0]
    return ((q - beta, q1, (num[2] - 2.0 * q1 * den[1] - q * den[2]) / den[0]),
            (noise_n + abs(q) * noise_d) / abs(den[0]))


# --- log-derivative ratios at one point -----------------------------------------


def _check_ratio_args(kind: str, r: float) -> None:
    derivative_target(kind)  # the kind rule: Kind(kind), once per kind
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

    The f-form is certified only for L > -1/2 (params.check_f_convexity;
    unsafe params may override).
    """
    _check_ratio_args(kind, r)
    if kind == "f":
        params.check_f_convexity()
    return _ratio(params, kind, True, r)


def _ratio(params: CoulombParams, kind: str, convex: bool, r: float) -> float:
    num, den, _, noise = radius_terms(params.L, params.eta, kind, convex, r, eval_point(params, r))
    return ratio(num[0], den[0], noise, r)
