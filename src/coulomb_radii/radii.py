"""Radii of starlikeness, convexity and univalence of the normalized forms.

Every radius is the smallest positive root of one defining ratio N/D = beta,
with (N, D) the pair of equations.radius_terms:

    starlike, kind g:  r g'/g = beta                              (N = r P' + P)
    starlike, kind f:  r F'/F = beta (L+1)                        (N = r P' + (L+1) P)
    convex,   kind g:  1 + r g''/g' = beta                        (N = g' + r g'')
    convex,   kind f:  1 + r F''/F' - (L/(L+1)) r F'/F = beta

For L > -1, eta <= 0 each ratio decreases strictly from 1 at the origin to
-inf at x1, the first positive zero of D (of F for starlikeness, of F' or g'
for convexity), and D > 0 on (0, x1).  So [0, x1] is a proven sign-change
bracket, and radius() runs the one root finder of the zeros module
(refine_bracket) on it, to 1e-13 max(1, x1) on the abscissa.  It solves
either the ratio form N/D - beta ("ratio") or the direct form N - beta D
("direct"), which has the sign of the ratio form wherever D > 0; the two
roots agreeing is one of the acceptance checks.  The radius equations pass
the root finder no slopes, so every step is ITP's; x1 itself comes from the
zero scan, whose refine takes Halley steps.  The solver starts from the
equation's value at r = 0 and from -inf at x1, where it takes midpoint
steps until both ends are finite.  x1 is reported as the domain cap.  The
univalence radius is the starlikeness radius at beta = 0.  Under unsafe
parameters the decrease is not proven; it is checked on the points the
solver visits, and a rise raises MonotonicityError.
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
        if self.property is RadiusProperty.UNIVALENT and beta != 0.0:
            raise ValueError("univalent is the starlike radius at beta = 0; "
                             "it takes no other beta")
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


def radius(query: RadiusQuery, *, form: str = "ratio") -> RadiusResult:
    """Radius of query.property of order query.beta: the smallest positive
    root of the ratio form (form='ratio') or the direct form (form='direct')
    of its equation."""
    if form not in ("ratio", "direct"):
        raise ValueError("form must be 'ratio' or 'direct'")
    params = query.params
    kind = query.kind
    beta = query.beta
    convex = query.property is RadiusProperty.CONVEX
    certified = params.in_certified_region
    if convex and kind is Kind.F and not params.supports_f_convexity():
        if not params.unsafe:
            raise CoulombDomainError(
                "convexity of the f-form requires L > -1/2 and eta <= 0"
            )
        certified = False

    if convex:
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

    probes: list[tuple[float, float]] = []

    def fn(r: float) -> float:
        num, den, noise = equations.radius_terms(params.L, kind, convex, r,
                                                 eval_point(params, r))
        if form == "direct":
            v = num - beta * den
        else:
            try:
                v = equations.ratio(num, den, noise, r) - beta
            except PoleError:
                return -math.inf  # at/past the cap: counts as the low side
        probes.append((r, v))
        return v

    def no_slopes(r: float) -> tuple[float, float, float]:
        return fn(r), math.nan, math.nan

    # fn > 0 at 0 (each ratio starts at 1, above beta) and < 0 below the cap
    # (the ratio falls to -inf; the direct form has the sign of the ratio form)
    ref = refine_bracket(no_slopes, 0.0, cap, no_slopes(0.0), (-math.inf, math.nan, math.nan),
                         _ABSCISSA_TOL * max(1.0, cap))
    residual = fn(ref.root)
    if not certified:
        # the decrease is proven only for eta <= 0; under unsafe parameters we
        # verify it on the points the solver visited instead of assuming
        probes.sort()
        for (r1, v1), (r2, v2) in zip(probes, probes[1:]):
            if v2 > v1 + 1e-9 * max(1.0, abs(v1)):
                raise MonotonicityError(
                    f"ratio increases between r={r1:.6g} and r={r2:.6g}; "
                    "the solver is not certified for these parameters"
                )
    return RadiusResult(
        value=ref.root,
        bracket=(ref.lo, ref.hi),
        residual=residual,
        domain_cap=cap,
        iterations=ref.iterations,
        flags=tuple(flags),
    )
