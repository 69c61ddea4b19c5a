"""Every quantity read off the series sums P, P', P'' at one real point.

Each function here is pure algebra on a ``SeriesValue`` at z (or r), with
(L, eta) as the only parameters; nothing here evaluates the series.  Written
with the C-free factors of the series module,

    F   -> P
    F'  -> (L+1) P + z P'                         (F' / (C z^L))
    F'' -> L(L+1) P + 2(L+1) z P' + z^2 P''       (F'' / (C z^(L-1)))
    g   -> z P,    g' -> P + z P',    g'' -> 2 P' + z P''

the module holds the zero targets with their noise floors, and each radius
equation once, as a pair (N, D) whose quotient is the defining ratio
(radius_terms); the ratio form with its pole check and the direct form
N - beta D both come from that pair (equation).

Each of them comes as a 2-jet in z: (value, d/dz, d^2/dz^2).  The Coulomb
equation z P'' + 2(L+1) P' + (z - 2 eta) P = 0, differentiated once and
twice, gives

    z P'''  = -(2L+3) P''  - (z - 2 eta) P'  - P,
    z P'''' = -(2L+4) P''' - (z - 2 eta) P'' - 2 P',

so the jets cost no evaluation beyond P, P', P''.  With theta = z d/dz the
quantities are (c + theta) P for the targets (c = L+1 for F', 1 for g'),
(1 + theta)^2 P = g' + z g'' and (L+1 + theta)^2 P = F'' + F' (C-free), and
d/dz (c + theta) = (c + 1 + theta) d/dz, so every jet needs z P''' and
z^2 P'''' only, never a division by z.  The values are formed exactly as
the expanded expressions above, whatever the slopes.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .errors import PoleError

if TYPE_CHECKING:
    from .series import SeriesValue

Jet = tuple[float, float, float]  # (value, d/dz, d^2/dz^2)

# below this |z| the series module forms P' and P'' from a_1..a_3 in doubles,
# so P''' from the Coulomb equation is all rounding: radius slopes are NaN
_SMALL_Z = 1e-12


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


def target_jet(L: float, eta: float, target: ZeroTarget, z: float,
               sv: SeriesValue) -> tuple[Jet, float]:
    """(jet, cancellation-noise floor) of the target's C-free factor at z."""
    p = (sv.p0, sv.p1, sv.p2)
    if target is ZeroTarget.F:
        return p, sv.noise[0]
    zp3 = _third(L, eta, z, sv)
    if target is ZeroTarget.F_PRIME:
        noise = (abs(L) + 1.0) * sv.noise[0] + abs(z) * sv.noise[1]
        return _theta(L, p, z, zp3), noise
    return _theta(0.0, p, z, zp3), sv.noise[0] + abs(z) * sv.noise[1]


def noise_limited(value: float, noise: float) -> bool:
    """True where value lies within eight cancellation-noise floors of zero
    (and the floor exceeds 1e-14), so its sign is not resolved."""
    return abs(value) <= 8.0 * noise and noise > 1e-14


def target_at_origin(L: float, target: ZeroTarget) -> float:
    # P(0) = 1, F'-target at 0 is L+1, g'(0) = 1
    if target is ZeroTarget.F_PRIME:
        return L + 1.0
    return 1.0


# --- the normalized form g = z P ------------------------------------------------


def g_value(z: float, sv: SeriesValue) -> float:
    return z * sv.p0


def g_prime(z: float, sv: SeriesValue) -> float:
    return sv.p0 + z * sv.p1


# --- radius equations -----------------------------------------------------------


def radius_terms(L: float, eta: float, kind: str, convex: bool, r: float,
                 sv: SeriesValue) -> tuple[Jet, Jet, float]:
    """(N, D, noise floor of D) of one radius equation N/D = beta at r, N and
    D as jets in r.

    N/D is the defining ratio and D > 0 on (0, cap) for L > -1, eta <= 0:

        starlike g:  N = r P' + P,                    D = P           (r g'/g)
        starlike f:  N = r P' + (L+1) P,              D = (L+1) P     (r F'/F / (L+1))
        convex g:    N = g' + r g'',                  D = g'          (1 + r g''/g')
        convex f:    N = (L+1) A (F'' + B) - L B^2,   D = (L+1) A B
                     (1 + r F''/F' - (L/(L+1)) r F'/F, with A, B, F'' the C-free
                     F, F', F'' of the module docstring)
    """
    p = (sv.p0, sv.p1, sv.p2)
    zp3 = _third(L, eta, r, sv)
    if not convex:
        if kind == "f":
            return _theta(L, p, r, zp3), _scale(L + 1.0, p), abs(L + 1.0) * sv.noise[0]
        return _theta(0.0, p, r, zp3), p, sv.noise[0]
    zzp4 = _fourth(L, eta, r, sv, zp3)
    if kind == "g":
        den, noise = target_jet(L, eta, ZeroTarget.G_PRIME, r, sv)
        # r g'''' = 4 r P''' + r^2 P''''
        return _theta(0.0, den, r, 4.0 * zp3 + zzp4), den, noise
    b, noise_b = target_jet(L, eta, ZeroTarget.F_PRIME, r, sv)
    # F'' + B = (L+1 + theta) B, with r B''' = (L+4) r P''' + r^2 P''''
    e = _theta(L, b, r, (L + 4.0) * zp3 + zzp4)
    f_second = L * (L + 1.0) * sv.p0 + 2.0 * (L + 1.0) * r * sv.p1 + r * r * sv.p2
    e = (f_second + b[0], e[1], e[2])
    a = _scale(L + 1.0, p)
    num = _mul(a, e)
    sq = _mul(_scale(L, b), b)
    noise = abs(L + 1.0) * (abs(sv.p0) * noise_b + abs(b[0]) * sv.noise[0])
    return (num[0] - sq[0], num[1] - sq[1], num[2] - sq[2]), _mul(a, b), noise


def ratio(num: float, den: float, noise: float, r: float) -> float:
    """num/den; PoleError where den vanishes within its noise floor (at or past
    the first zero of the denominator, the domain cap)."""
    if abs(den) <= max(1e-12 * max(abs(num), 1e-30), noise):
        raise PoleError(f"denominator of the radius equation is zero within "
                        f"tolerance at r={r:.12g} (at/past the domain cap)")
    return num / den


def equation(num: Jet, den: Jet, noise: float, r: float, beta: float,
             form: str) -> Jet:
    """Jet of the direct form N - beta D (form 'direct') or of the ratio form
    N/D - beta (form 'ratio', PoleError as in ratio) at r; the slopes are NaN
    below |r| = 1e-12."""
    if form == "direct":
        jet = (num[0] - beta * den[0], num[1] - beta * den[1], num[2] - beta * den[2])
    else:
        q = ratio(num[0], den[0], noise, r)
        q1 = (num[1] - q * den[1]) / den[0]
        jet = (q - beta, q1, (num[2] - 2.0 * q1 * den[1] - q * den[2]) / den[0])
    if abs(r) < _SMALL_Z:
        return jet[0], math.nan, math.nan
    return jet


def equation_at_origin(L: float, kind: str, convex: bool, beta: float,
                       form: str) -> float:
    """The equation at r = 0, where the ratio is 1 and D is 1, L+1 (f
    starlike) or (L+1)^2 (f convex)."""
    if form == "ratio" or kind == "g":
        return 1.0 - beta
    return (1.0 - beta) * (L + 1.0) ** (2 if convex else 1)
