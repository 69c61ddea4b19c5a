"""Radii of starlikeness, convexity and univalence of the normalized forms.

For L > -1, eta <= 0 each defining ratio decreases strictly from 1 at the
origin to -inf at x1, the first positive zero of the relevant denominator
(F for starlikeness, F' or g' for convexity).  So [0, x1] is a proven
sign-change bracket, and every radius is the one bisection of the zeros
module (refine_bracket) on it, to 1e-13 max(1, x1) on the abscissa; no
derivative iteration is used anywhere.  x1 is reported as the domain cap.
The equations, written on the series factor P:

    starlike, kind g:  r g'/g = beta            <=>  r P' + (1-beta) P = 0
    starlike, kind f:  r g'/g = beta(L+1) - L   <=>  r P' + (1-beta)(L+1) P = 0
    convex,   kind g:  1 + r g''/g' = beta      <=>  r^2 P'' + (3-beta) r P' + (1-beta) P = 0
    convex,   kind f:  1 + r F''/F' - (L/(L+1)) r F'/F = beta
                       <=>  (L+1) A [D + (1-beta) B] - L B^2 = 0,
                       A = P, B = (L+1)P + rP', D = L(L+1)P + 2(L+1)rP' + r^2 P''

Each solver can run either on the decreasing ratio ("ratio" form) or on the
polynomial combination above ("direct" form); the two roots agreeing is one
of the acceptance checks.  Both forms live in the equations module.  The
univalence radius is the starlikeness radius at beta = 0 and goes through
the same bisection as every other beta.  Under unsafe parameters the decrease
is not proven; it is checked on the points the bisection visits, and a rise
raises MonotonicityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import equations
from .errors import CoulombDomainError, MonotonicityError, PoleError
from .params import CoulombParams
from .series import eval_point
from .zeros import ZeroTarget, find_zeros, refine_bracket

_ABSCISSA_TOL = 1e-13


class Kind(str, Enum):
    F = "f"
    G = "g"


class RadiusProperty(str, Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"
    UNIVALENT = "univalent"


@dataclass(frozen=True)
class RadiusQuery:
    params: CoulombParams
    kind: Kind
    property: RadiusProperty
    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "property", RadiusProperty(self.property))
        beta = float(self.beta)
        if self.property is RadiusProperty.UNIVALENT:
            beta = 0.0
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class RadiusResult:
    value: float
    bracket: tuple[float, float]
    residual: float
    domain_cap: float
    iterations: int
    flags: tuple[str, ...] = field(default_factory=tuple)


def _solve(query: RadiusQuery, form: str) -> RadiusResult:
    if form not in ("ratio", "direct"):
        raise ValueError("form must be 'ratio' or 'direct'")
    params = query.params
    kind = query.kind
    beta = query.beta
    certified = params.in_certified_region
    if query.property is RadiusProperty.CONVEX and kind is Kind.F:
        if not params.supports_f_convexity():
            if not params.unsafe:
                raise CoulombDomainError(
                    "convexity of the f-form requires L > -1/2 and eta <= 0"
                )
            certified = False

    if query.property is RadiusProperty.CONVEX:
        cap_target = ZeroTarget.G_PRIME if kind is Kind.G else ZeroTarget.F_PRIME
    else:
        cap_target = ZeroTarget.F
    zs = find_zeros(params, cap_target, 1, 0)
    if not zs.positive:
        raise MonotonicityError(
            f"could not locate the first positive zero of {cap_target.value} for "
            f"(L={params.L}, eta={params.eta})"
        )
    cap = zs.positive[0]

    flags: list[str] = []
    if not certified:
        flags.append("no-certificate")
    if query.property is RadiusProperty.UNIVALENT:
        flags.append("univalent")

    L = params.L
    if query.property is RadiusProperty.CONVEX:
        if form == "ratio":
            level = beta
            eq = lambda r, sv: equations.conv_ratio(L, kind, r, sv)
        else:
            level = 0.0
            eq = lambda r, sv: equations.direct_conv(L, kind, beta, r, sv)
    elif form == "ratio":
        # the f-form is solved on r g'/g, whose level carries the shift
        level = equations.star_level(L, kind, beta)
        eq = lambda r, sv: equations.star_ratio(L, Kind.G, r, sv)
    else:
        level = 0.0
        eq = lambda r, sv: equations.direct_star(L, kind, beta, r, sv)

    probes: list[tuple[float, float]] = []

    def fn(r: float) -> float:
        try:
            v = eq(r, eval_point(params, r))
        except PoleError:
            return -math.inf  # at/past the cap: counts as the low side
        probes.append((r, v))
        return v - level

    # fn > 0 at 0+ (each ratio starts at 1, above its level) and < 0 below the
    # cap (the ratio falls to -inf; a direct form has the sign of ratio - level)
    ref = refine_bracket(fn, 0.0, cap, 1.0, _ABSCISSA_TOL * max(1.0, cap))
    residual = fn(ref.root)
    if not certified:
        # the decrease is proven only for eta <= 0; under unsafe parameters we
        # verify it on the points the bisection visited instead of assuming
        probes.sort()
        for (r1, v1), (r2, v2) in zip(probes, probes[1:]):
            if v2 > v1 + 1e-9 * max(1.0, abs(v1)):
                raise MonotonicityError(
                    f"ratio increases between r={r1:.6g} and r={r2:.6g}; "
                    "bisection is not certified for these parameters"
                )
    return RadiusResult(
        value=ref.root,
        bracket=(ref.lo, ref.hi),
        residual=residual,
        domain_cap=cap,
        iterations=ref.iterations,
        flags=tuple(flags),
    )


def radius_starlike(query: RadiusQuery, *, form: str = "ratio") -> RadiusResult:
    """Radius of starlikeness of order beta (smallest positive root of the
    starlike equation).  form='direct' solves the polynomial combination of
    P, P', P'' instead of the log-derivative ratio."""
    if query.property is RadiusProperty.CONVEX:
        raise ValueError("query.property must be starlike or univalent")
    return _solve(query, form)


def radius_convex(query: RadiusQuery, *, form: str = "ratio") -> RadiusResult:
    """Radius of convexity of order beta."""
    if query.property is not RadiusProperty.CONVEX:
        raise ValueError("query.property must be convex")
    return _solve(query, form)


def radius_univalence(params: CoulombParams, kind: Kind | str) -> RadiusResult:
    """Radius of univalence: the starlikeness radius at beta = 0."""
    return _solve(RadiusQuery(params, Kind(kind), RadiusProperty.UNIVALENT), "ratio")


def radius(query: RadiusQuery, *, form: str = "ratio") -> RadiusResult:
    """Dispatch on query.property."""
    if query.property is RadiusProperty.CONVEX:
        return radius_convex(query, form=form)
    return radius_starlike(query, form=form)
