"""Radii of starlikeness, convexity and univalence of the normalized forms.

Every radius is the smallest positive root of one defining ratio N/D = beta,
with (N, D) the pair of equations.radius_terms:

    starlike, kind g:  r g'/g = beta                              (N = r P' + P)
    starlike, kind f:  r F'/F = beta (L+1)                        (N = r P' + (L+1) P)
    convex,   kind g:  1 + r g''/g' = beta                        (N = g' + r g'')
    convex,   kind f:  1 + r F''/F' - (L/(L+1)) r F'/F = beta

For L > -1, eta <= 0 each ratio decreases strictly from 1 at the origin to
-inf at x1, the first positive zero of D (of F for starlikeness, of F' or g'
for convexity), and D > 0 on (0, x1).  radius() runs the zero scan of the
zeros module for x1 (zeros.scan) and reads the equation off the series value
of each scan step, at no extra evaluation; the value at r = 0 is known in
closed form.  The first step (t_prev, t] where the equation is <= 0, or that
holds x1, brackets the radius: the equation decreases on [0, x1], and no
sign change of F, F' or g' (whichever x1 is a zero of) up to t puts x1
beyond t (or x1 is in the step, refined first, and the bracket is
[t_prev, x1] with -inf at x1).  So the root in that step is the smallest,
and the radius needs x1 only where x1 lies in its step.  The one root
finder of the zeros module (refine_bracket) refines that bracket with
Halley steps from the jets of equations.equation, to 1e-13 max(1, end of
the bracket) on the abscissa; each of its evaluations, and the residual's,
is a direct sum from the origin (series.sum_point), as a scan step's is.  It
solves either the ratio form N/D - beta ("ratio") or the direct form
N - beta D ("direct"), which has the sign of the ratio form wherever D > 0;
the two roots agreeing is one of the acceptance checks.  The scan then runs
on to x1, refined as by find_zeros, which is reported as the domain cap;
where the scan ends before it (x1 beyond |z| = 55 or the noise floor), the
domain cap is None and the result carries the flag domain-cap-beyond-range.  The univalence
radius is the starlikeness radius at beta = 0.  Under unsafe parameters
the decrease is not proven; it is checked on the points the scan and the
solver visit, and a rise raises MonotonicityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import equations
from .errors import CoulombDomainError, MonotonicityError, PoleError
from .equations import Jet
from .params import CoulombParams
from .series import SeriesValue, sum_point
# find_zeros stays bound here, where perfbench's tracer also wraps it
from .zeros import ZeroTarget, find_zeros, refine_bracket, scan  # noqa: F401

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
    domain_cap: float | None
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

    flags: list[str] = []
    if not certified:
        flags.append("no-certificate")
    if query.property is RadiusProperty.UNIVALENT:
        flags.append("univalent")

    L, eta = params.L, params.eta
    probes: list[tuple[float, float]] = []

    def at(r: float, sv: SeriesValue) -> Jet:
        try:
            jet = equations.equation(*equations.radius_terms(L, eta, kind, convex, r, sv),
                                     r, beta, form)
        except PoleError:
            return -math.inf, math.nan, math.nan  # at/past the cap: the low side
        probes.append((r, jet[0]))
        return jet

    # the equation is > 0 at 0 (each ratio starts at 1, above beta) and falls
    # to -inf at the cap (the direct form has the sign of the ratio form); the
    # first scan step where it is <= 0, or that holds the cap, holds the radius
    at_lo = (equations.equation_at_origin(L, kind, convex, beta, form), math.nan, math.nan)
    bracket = None
    cap = None
    for step in scan(params, cap_target):
        if bracket is None:
            if step.zero is not None:
                bracket = step.t_prev, step.zero, at_lo, (-math.inf, math.nan, math.nan)
            else:
                at_t = at(step.t, step.sv)
                if at_t[0] <= 0.0:
                    bracket = step.t_prev, step.t, at_lo, at_t
                at_lo = at_t
        if step.zero is not None:
            cap = step.zero
            break
    if bracket is None:
        raise MonotonicityError(
            f"could not locate the first positive zero of {cap_target.value} for "
            f"(L={L}, eta={eta}), nor the radius below it"
        )
    if cap is None:
        flags.append("domain-cap-beyond-range")
    lo, hi, at_lo, at_hi = bracket
    ref = refine_bracket(lambda r: at(r, sum_point(params, r)), lo, hi, at_lo, at_hi,
                         _ABSCISSA_TOL * max(1.0, hi))
    residual = at(ref.root, sum_point(params, ref.root))[0]
    if not certified:
        # the decrease is proven only for eta <= 0; under unsafe parameters we
        # verify it on the points the scan and the solver visited instead of
        # assuming it
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
