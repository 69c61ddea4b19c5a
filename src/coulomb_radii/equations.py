"""Every quantity read off the series sums P, P', P'' at one real point.

Each function here is pure algebra on a ``SeriesValue`` at z (or r), with the
order L as the only parameter; nothing here evaluates the series.  Written
with the C-free factors of the series module,

    F   -> P
    F'  -> (L+1) P + z P'                         (F' / (C z^L))
    F'' -> L(L+1) P + 2(L+1) z P' + z^2 P''       (F'' / (C z^(L-1)))
    g   -> z P,    g' -> P + z P',    g'' -> 2 P' + z P''

the module holds the zero targets with their noise floors, the
starlike and convex ratios with their pole thresholds, and the direct
polynomial forms of the radius equations (see the radii module).
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


# --- starlike and convex ratios ---------------------------------------------------


def star_ratio(L: float, kind: str, r: float, sv: SeriesValue) -> float:
    """r g'/g for kind 'g'; (1/(L+1)) r F'/F = (L + r g'/g)/(L+1) for kind 'f'."""
    scale = max(abs(r * sv.p1), 1e-30)
    if abs(sv.p0) <= max(1e-12 * scale, sv.noise[0]):
        raise PoleError(f"P(r)=0 within tolerance at r={r:.12g} (at/past a zero of F)")
    ratio_g = 1.0 + r * sv.p1 / sv.p0
    if kind == "g":
        return ratio_g
    return (L + ratio_g) / (L + 1.0)


def star_level(L: float, kind: str, beta: float) -> float:
    """Level of r g'/g at the radius of starlikeness of order beta."""
    return beta if kind == "g" else beta * (L + 1.0) - L


def conv_ratio(L: float, kind: str, r: float, sv: SeriesValue) -> float:
    """1 + r g''/g' for kind 'g'; 1 + r F''/F' - (L/(L+1)) r F'/F for kind 'f'."""
    if kind == "g":
        den, noise = target_value(L, ZeroTarget.G_PRIME, r, sv)  # g'(r)
        num = r * g_second(r, sv)
        if abs(den) <= max(1e-12 * max(abs(num), 1e-30), noise):
            raise PoleError(f"g'(r)=0 within tolerance at r={r:.12g}")
        return 1.0 + num / den
    a_val = sv.p0
    b_val, noise_b = target_value(L, ZeroTarget.F_PRIME, r, sv)
    d_val = _f_second(L, r, sv)
    if abs(b_val) <= max(1e-12 * max(abs(d_val), 1e-30), noise_b):
        raise PoleError(f"F'(r)=0 within tolerance at r={r:.12g}")
    if abs(a_val) <= max(1e-12 * max(abs(b_val), 1e-30), sv.noise[0]):
        raise PoleError(f"F(r)=0 within tolerance at r={r:.12g}")
    return 1.0 + d_val / b_val - (L / (L + 1.0)) * (b_val / a_val)


def _f_second(L: float, r: float, sv: SeriesValue) -> float:
    return L * (L + 1.0) * sv.p0 + 2.0 * (L + 1.0) * r * sv.p1 + r * r * sv.p2


# --- direct forms of the radius equations -----------------------------------------


def direct_star(L: float, kind: str, beta: float, r: float, sv: SeriesValue) -> float:
    """r P' + (1-beta) P (kind g) or r P' + (1-beta)(L+1) P (kind f)."""
    fac = (1.0 - beta) * (L + 1.0) if kind == "f" else (1.0 - beta)
    return r * sv.p1 + fac * sv.p0


def direct_conv(L: float, kind: str, beta: float, r: float, sv: SeriesValue) -> float:
    """r^2 P'' + (3-beta) r P' + (1-beta) P (kind g) or
    (L+1) A [D + (1-beta) B] - L B^2 (kind f), with A, B, D the C-free F, F', F''."""
    if kind == "g":
        return r * r * sv.p2 + (3.0 - beta) * r * sv.p1 + (1.0 - beta) * sv.p0
    a_val = sv.p0
    b_val, _ = target_value(L, ZeroTarget.F_PRIME, r, sv)
    d_val = _f_second(L, r, sv)
    return (L + 1.0) * a_val * (d_val + (1.0 - beta) * b_val) - L * b_val * b_val
