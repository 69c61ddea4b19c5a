"""Radii of starlikeness, convexity and univalence of the normalized forms.

Every radius is the smallest positive root of one defining ratio N/D = beta,
with (N, D) the pair of equations.radius_terms:

    starlike, kind g:  r g'/g = beta                              (N = r P' + P)
    starlike, kind f:  r F'/F = beta (L+1)                        (N = r P' + (L+1) P)
    convex,   kind g:  1 + r g''/g' = beta                        (N = g' + r g'')
    convex,   kind f:  1 + r F''/F' - (L/(L+1)) r F'/F = beta

For L > -1, eta <= 0 each ratio decreases strictly from 1 at the origin to
-inf at x1, the first positive zero of D (of F for starlikeness, of F' or g'
for convexity), and D > 0 on (0, x1).  radius() builds one series.Evaluator
of (L, eta), runs the zero scan of the zeros module for x1 (zeros.scan) on
it up to the step that brackets the radius, and reads the equation off the
series value of each scan step, the value
of the origin's table, a sum, or the value of the table at a sum one or two
steps back, at no extra evaluation, and at r = 0 off the origin table's
value, which is no sum.  The first step
(t_prev, t] where the equation is <= 0 brackets the radius, the equation
counted as -inf at x1 (a step that holds x1, refined first, gives the
bracket [t_prev, x1]): the equation decreases on [0, x1], and no sign change
of F, F' or g' (whichever x1 is a zero of) up to t puts x1 beyond t.  So the
root in that step is the smallest, and the radius needs x1 only where x1
lies in its step.  The scan stops there.  The one root finder of the zeros
module (refine_bracket) refines that bracket with Halley steps from the jets
of equations.equation, to 1e-13 max(1, end of the bracket) on the abscissa.  Its points and the
residual's are values of the same evaluator: the origin table's next to
the origin, elsewhere those of the table at the nearest sum the scan (up to
the bracket) or the solve made, each summed from the origin instead where
neither serves.  It
solves either the ratio form N/D - beta ("ratio")
or the direct form N - beta D ("direct"), which has the sign of the ratio
form wherever D > 0; the two roots agreeing is one of the acceptance
checks.  refine_bracket decides the sign at each end of its bracket without a
noise check, so the result widens both ends by the equation's noise floor at
the root over its slope, within the scan step, each end one double further
where rounding would leave it nearer than that: a rule first order in the
series bounds, not a proof, under which every golden and seeded random
bracket holds the root of a 50-digit equation.  Where the scan ends before
any step brackets the radius (at |z| = 55 or the noise floor), radius raises
ConvergenceError, which names that range.  The univalence radius is the
starlikeness radius at beta = 0.  Under unsafe parameters the decrease is
not proven; it is checked on the points past the origin that the scan
visits up to the bracket and the solver visits in it, which is all the
smallest-root claim needs, and a rise raises MonotonicityError.

The domain cap x1 is its own query, domain_cap(query): the first positive
zero of the cap target as find_zeros refines it, the same scan run on to
x1, so the same double wherever the radius solve refines x1 too; None where
that scan ends before x1 (beyond |z| = 55 or the noise floor).  The CLI
reports it once per (L, eta), with the warning domain-cap-beyond-range where
it is None.  The cap target is F for starlikeness and univalence and
equations.derivative_target(kind) for convexity: F' for f and g' for g,
whose zeros the paper calls sigma and varsigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import equations
from .errors import ConvergenceError, MonotonicityError, PoleError
from .equations import Jet, Kind  # Kind is re-exported here
from .params import CoulombParams
from .series import EVAL_Z_MAX, Evaluator, SeriesValue
from .zeros import ZeroTarget, find_zeros, refine_bracket, scan

_ABSCISSA_TOL = 1e-13


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
    iterations: int
    flags: tuple[str, ...] = field(default_factory=tuple)


def _cap_target(query: RadiusQuery) -> ZeroTarget:
    """The function whose first positive zero is the domain cap: F for
    starlikeness and univalence, F' (kind f) or g' (kind g) for convexity."""
    if query.property is RadiusProperty.CONVEX:
        return equations.derivative_target(query.kind)
    return ZeroTarget.F


def domain_cap(query: RadiusQuery) -> float | None:
    """The domain cap x1 of query's equation, the first positive zero of its
    cap target as find_zeros refines it, or None where the scan ends before
    it (x1 beyond |z| = 55 or the noise floor)."""
    zeros = find_zeros(query.params, _cap_target(query), 1, 0).positive
    return zeros[0] if zeros else None


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
    certified = (params.check_f_convexity() if convex and kind is Kind.F
                 else params.in_certified_region)

    cap_target = _cap_target(query)

    flags: list[str] = []
    if not certified:
        flags.append("no-certificate")
    if query.property is RadiusProperty.UNIVALENT:
        flags.append("univalent")

    L, eta = params.L, params.eta
    probes: list[tuple[float, float]] = []

    def at(r: float, sv: SeriesValue) -> tuple[Jet, float]:
        try:
            jet, noise = equations.equation(
                *equations.radius_terms(L, eta, kind, convex, r, sv), r, beta, form)
        except PoleError:
            return (-math.inf, math.nan, math.nan), math.inf  # at/past the cap: the low side
        if r > 0.0:  # an unsafe ratio may rise from its 1 at the origin
            probes.append((r, jet[0]))
        return jet, noise

    # the equation is > 0 at 0 (each ratio starts at 1, above beta) and falls
    # to -inf at the cap (the direct form has the sign of the ratio form); the
    # first scan step where it is <= 0 (-inf at the cap) holds the radius
    values = Evaluator(params)
    bracket = None
    at_lo = at(0.0, values.value(0.0))[0]  # the first step starts at the origin
    for step in scan(values, cap_target):
        hi, at_hi = ((step.zero, (-math.inf, math.nan, math.nan)) if step.zero is not None
                     else (step.t, at(step.t, step.sv)[0]))
        if at_hi[0] <= 0.0:
            bracket = step.t_prev, hi, at_lo, at_hi
            break
        at_lo = at_hi
    if bracket is None:
        raise ConvergenceError(
            f"no scan step brackets the {query.property.value} radius of (L={L}, eta={eta}): "
            f"the scan ends at |z| = {EVAL_Z_MAX:g}, or where the sign of {cap_target.value} "
            "falls below its noise floor, before the equation changes sign"
        )
    lo, hi, at_lo, at_hi = bracket
    ref = refine_bracket(lambda r: at(r, values.value(r))[0], lo, hi, at_lo, at_hi,
                         _ABSCISSA_TOL * max(1.0, hi))
    (residual, slope, _), noise = at(ref.root, values.value(ref.root))
    # refine_bracket decides the sign at each end without a noise check, so
    # both ends move out by the noise over the slope at the root, within the
    # step's bracket
    half = noise / abs(slope) if slope else math.inf
    # an end that rounds back nearer the refined end than half (the
    # differences are exact) steps one double further out
    out_lo, out_hi = ref.lo - half, ref.hi + half
    out_lo = out_lo if ref.lo - out_lo >= half else math.nextafter(out_lo, -math.inf)
    out_hi = out_hi if out_hi - ref.hi >= half else math.nextafter(out_hi, math.inf)
    lo, hi = max(lo, out_lo), min(hi, out_hi)
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
        bracket=(lo, hi),
        residual=residual,
        iterations=ref.iterations,
        flags=tuple(flags),
    )
