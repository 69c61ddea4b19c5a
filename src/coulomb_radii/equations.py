"""Every quantity read off the series sums P, P', P'' at one real point.

Each function here is pure algebra on a ``SeriesValue`` at z (or r), with the
order L as the only parameter; nothing here evaluates the series.  Written
with the C-free factors of the series module,

    F   -> P
    F'  -> (L+1) P + z P'                         (F' / (C z^L))
    F'' -> L(L+1) P + 2(L+1) z P' + z^2 P''       (F'' / (C z^(L-1)))
    g   -> z P,    g' -> P + z P',    g'' -> 2 P' + z P''

the module holds the zero targets with their noise floors, and each radius
equation once, as a pair (N, D) whose quotient is the defining ratio
(radius_terms); the ratio form with its pole check and the direct form
N - beta D both come from that pair (see the radii module).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .errors import PoleError

if TYPE_CHECKING:
    from .series import SeriesValue


class ZeroTarget(str, Enum):
    F = "F"
    F_PRIME = "F_prime"
    G_PRIME = "g_prime"


# --- zero targets -------------------------------------------------------------


def target_value(L: float, target: ZeroTarget, z: float, sv: SeriesValue) -> tuple[float, float]:
    """(value, cancellation-noise floor) of the target's C-free factor at z."""
    if target is ZeroTarget.F:
        return sv.p0, sv.noise[0]
    if target is ZeroTarget.F_PRIME:
        val = (L + 1.0) * sv.p0 + z * sv.p1
        noise = (abs(L) + 1.0) * sv.noise[0] + abs(z) * sv.noise[1]
        return val, noise
    val = g_prime(z, sv)
    noise = sv.noise[0] + abs(z) * sv.noise[1]
    return val, noise


def noise_limited(value: float, noise: float) -> bool:
    """True where value lies within eight cancellation-noise floors of zero
    (and the floor exceeds 1e-14), so its sign is not resolved."""
    return abs(value) <= 8.0 * noise and noise > 1e-14


def target_slopes(L: float, eta: float, target: ZeroTarget, z: float,
                  sv: SeriesValue) -> tuple[float, float]:
    """(T', T'') of the target's C-free factor T at z, with z P''' from the
    Coulomb equation differentiated once:
    z P''' = -(2L+3) P'' - (z - 2 eta) P' - P."""
    if target is ZeroTarget.F:
        return sv.p1, sv.p2
    zp3 = -(2.0 * L + 3.0) * sv.p2 - (z - 2.0 * eta) * sv.p1 - sv.p0
    if target is ZeroTarget.F_PRIME:
        return (L + 2.0) * sv.p1 + z * sv.p2, (L + 3.0) * sv.p2 + zp3
    return 2.0 * sv.p1 + z * sv.p2, 3.0 * sv.p2 + zp3


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


def g_second(z: float, sv: SeriesValue) -> float:
    return 2.0 * sv.p1 + z * sv.p2


# --- radius equations -----------------------------------------------------------


def radius_terms(L: float, kind: str, convex: bool, r: float,
                 sv: SeriesValue) -> tuple[float, float, float]:
    """(N, D, noise floor of D) of one radius equation N/D = beta at r.

    N/D is the defining ratio and D > 0 on (0, cap) for L > -1, eta <= 0:

        starlike g:  N = r P' + P,                    D = P           (r g'/g)
        starlike f:  N = r P' + (L+1) P,              D = (L+1) P     (r F'/F / (L+1))
        convex g:    N = g' + r g'',                  D = g'          (1 + r g''/g')
        convex f:    N = (L+1) A (F'' + B) - L B^2,   D = (L+1) A B
                     (1 + r F''/F' - (L/(L+1)) r F'/F, with A, B, F'' the C-free
                     F, F', F'' of the module docstring)

    The ratio form of the equation is ratio(N, D, noise, r) - beta and the
    direct form is N - beta D.
    """
    if not convex:
        scale = L + 1.0 if kind == "f" else 1.0
        return r * sv.p1 + scale * sv.p0, scale * sv.p0, abs(scale) * sv.noise[0]
    if kind == "g":
        den, noise = target_value(L, ZeroTarget.G_PRIME, r, sv)
        return den + r * g_second(r, sv), den, noise
    a_val = sv.p0
    b_val, noise_b = target_value(L, ZeroTarget.F_PRIME, r, sv)
    f_second = L * (L + 1.0) * a_val + 2.0 * (L + 1.0) * r * sv.p1 + r * r * sv.p2
    num = (L + 1.0) * a_val * (f_second + b_val) - L * b_val * b_val
    noise = abs(L + 1.0) * (abs(a_val) * noise_b + abs(b_val) * sv.noise[0])
    return num, (L + 1.0) * a_val * b_val, noise


def ratio(num: float, den: float, noise: float, r: float) -> float:
    """num/den; PoleError where den vanishes within its noise floor (at or past
    the first zero of the denominator, the domain cap)."""
    if abs(den) <= max(1e-12 * max(abs(num), 1e-30), noise):
        raise PoleError(f"denominator of the radius equation is zero within "
                        f"tolerance at r={r:.12g} (at/past the domain cap)")
    return num / den
