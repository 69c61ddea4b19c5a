"""Acceptance matrix: the checks behind the ``verify`` CLI subcommand.

Every check is oracle- or property-based at desk scale.  Oracles here are
deliberately independent of the series pipeline: elementary-function
bisection (sin, cos, tan), the ascending Bessel series, hand-derived
rational values, and analytic zero lists.  Their helpers (bessel_j, the
interlacing chain, the truncated Weierstrass product) live here and nowhere
else in the package.  One check (printed versus extracted order-3 Rayleigh
sums) verifies a documented discrepancy: it passes when the disagreement is
present and annotated, since the printed cubic is the odd one out against
both extraction and the intermediate convolution identities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .equations import Kind, conv_ratio, derivative_target, g_value, star_ratio
from .errors import ConvergenceError
from .params import CoulombParams
from .radii import RadiusQuery, radius
from .rayleigh import bracket_sums, euler_rayleigh_bounds, sums
from .series import eval_point
from .subordination import axis_minimum_gap, disk_min_real
from .zeros import ZeroSet, ZeroTarget, find_zeros

GRID_L = (-0.4, 0.0, 0.5, 1.0, 2.5)
GRID_ETA = (-2.0, -1.0, -0.25, 0.0)

# double epsilon, underflow guard and relative tail of the Bessel oracle's
# stopping rule, and the bisection steps of the elementary-function oracles
_EPS = 2.220446049250313e-16
_TINY = 1e-306
_BESSEL_TOL = 1e-14
_ORACLE_ITERS = 100


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    flagged: tuple[str, ...] = field(default_factory=tuple)


def _oracle_bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(_ORACLE_ITERS):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def bessel_j(nu: float, x: float) -> float:
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
                if abs(term) * ratio / (1.0 - ratio) <= max(_BESSEL_TOL * abs(s), _TINY):
                    return s + comp
        else:
            run = 0
    raise ConvergenceError(f"bessel_j series did not converge at nu={nu}, x={x}")


def _interlaced(zf: ZeroSet, zd: ZeroSet) -> bool:
    """x'_1 < x_1 < x'_2 < x_2 < ... by modulus on each side, for the zeros x of F
    in zf and x' of a derivative target in zd, as far as both lists reach."""
    for x, xd in ((zf.positive, zd.positive), (zf.negative, zd.negative)):
        n = min(len(x), len(xd))
        chain = [abs(v) for pair in zip(xd, x) for v in pair] + [abs(v) for v in xd[n:n + 1]]
        if not all(a < b for a, b in zip(chain, chain[1:])):
            return False
    return True


def _product(params: CoulombParams, positive: Sequence[float],
             negative: Sequence[float], z: float, K: int) -> float:
    """Truncated C-free Weierstrass product for g over the first K zeros per side:

        z e^{eta z/(L+1)} prod_{n<=K} (1 - z/rho_n) e^{z/rho_n}
    """
    value = z * math.exp(params.eta * z / (params.L + 1.0))
    for x, y in zip(positive[:K], negative[:K]):
        value *= (1.0 - z / x) * math.exp(z / x)
        value *= (1.0 - z / y) * math.exp(z / y)
    return value


def _grid(eta_filter: Callable[[float], bool] = lambda e: True) -> list[CoulombParams]:
    return [
        CoulombParams(L, eta)
        for L in GRID_L
        for eta in GRID_ETA
        if eta_filter(eta)
    ]


def _sine_collapse() -> CriterionResult:
    p00 = CoulombParams(0.0, 0.0)
    worst = 0.0
    zs = find_zeros(p00, ZeroTarget.F, 10, 0)
    for n, x in enumerate(zs.positive, start=1):
        worst = max(worst, abs(x - n * math.pi))
    ok = len(zs.positive) == 10 and worst <= 1e-10

    star_g = radius(RadiusQuery(p00, "g", "starlike", 0.0)).value
    star_f = radius(RadiusQuery(p00, "f", "starlike", 0.0)).value
    ok &= abs(star_g - math.pi / 2.0) <= 1e-10
    ok &= abs(star_f - math.pi / 2.0) <= 1e-10

    conv_oracle = _oracle_bisect(lambda r: r * math.tan(r) - 1.0, 0.5, 1.2)
    conv_g = radius(RadiusQuery(p00, "g", "convex", 0.0)).value
    ok &= abs(conv_g - conv_oracle) <= 1e-9
    ok &= abs(conv_g - 0.8603335890) <= 1e-9
    return CriterionResult(
        1, "sine collapse at (L=0, eta=0)", bool(ok),
        f"max zero error {worst:.2e}; r*={star_g:.12f} (pi/2 {math.pi / 2:.12f}); "
        f"r^c={conv_g:.12f} vs oracle {conv_oracle:.12f}",
    )


def _bessel_cross_validation() -> CriterionResult:
    brackets = {0.5: (3.0, 4.5), 1.0: (4.0, 5.2), 1.5: (4.7, 5.9)}
    worst_zero = 0.0
    worst_rel = 0.0
    for L, (lo, hi) in brackets.items():
        params = CoulombParams(L, 0.0)
        nu = L + 0.5
        oracle = _oracle_bisect(lambda x: bessel_j(nu, x), lo, hi)
        found = find_zeros(params, ZeroTarget.F, 1, 0).positive[0]
        worst_zero = max(worst_zero, abs(found - oracle))
        c_inv = 2.0 ** (L + 1.0) * math.exp(math.lgamma(L + 1.5)) / math.sqrt(math.pi)
        for k in range(1, 31):
            z = 0.1 * k
            lhs = g_value(z, eval_point(params, z))
            rhs = c_inv * z ** (-L) * math.sqrt(math.pi * z / 2.0) * bessel_j(nu, z)
            worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
    ok = worst_zero <= 1e-9 and worst_rel <= 1e-10
    return CriterionResult(
        2, "Bessel cross-validation at eta=0", ok,
        f"max first-zero gap {worst_zero:.2e}; max series-vs-Bessel rel {worst_rel:.2e}",
    )


def _closed_form_agreement() -> CriterionResult:
    worst = 0.0
    for params in _grid():
        for kind in Kind:
            s = sums(params, derivative_target(kind), 2)
            worst = max(worst, abs(s.closed_form[2] - s.extracted[2]) / abs(s.extracted[2]))
    ok = worst <= 1e-10
    return CriterionResult(
        3, "order-2 closed forms match extraction on the grid", ok,
        f"max relative disagreement {worst:.2e}",
    )


def _documented_discrepancy() -> CriterionResult:
    params = CoulombParams(0.0, -1.0)
    s = sums(params, ZeroTarget.F_PRIME, 3)
    printed_ok = abs(s.closed_form[3] - 6.0) <= 1e-12
    extracted_ok = abs(s.extracted[3] - 13.0 / 3.0) <= 1e-13
    annotated = 3 in s.discrepancies
    ok = printed_ok and extracted_ok and annotated
    return CriterionResult(
        4, "order-3 printed/extracted discrepancy at (L=0, eta=-1)", ok,
        f"printed {s.closed_form[3]:.12g}, extracted {s.extracted[3]:.12g}; "
        "expected, flagged, and not a failure of the extraction path",
        flagged=(s.discrepancies.get(3, ""),) if annotated else (),
    )


def _bound_bracketing() -> CriterionResult:
    worst_slack = math.inf
    details = []
    ok = True
    for params in _grid(lambda e: e < 0.0):
        for kind in ("f", "g"):
            # S_2..S_5: the m = 2 and m = 4 brackets from one extraction
            record = bracket_sums(params, kind, 4)
            lower, upper = record.bracket(2)
            runiv = radius(RadiusQuery(params, kind, "univalent")).value
            if upper is None:
                ok = False
                details.append(f"upper undefined at (L={params.L}, eta={params.eta}, {kind})")
                continue
            slack = min(runiv - lower, upper - runiv)
            worst_slack = min(worst_slack, slack)
            if not (lower < runiv - 1e-12 and runiv < upper - 1e-12):
                ok = False
                details.append(f"bracket fails at (L={params.L}, eta={params.eta}, {kind})")
            lower4, _ = record.bracket(4)
            if lower4 < lower - 1e-12:
                ok = False
                details.append(f"m=4 lower below m=2 at (L={params.L}, eta={params.eta}, {kind})")
    return CriterionResult(
        5, "Euler-Rayleigh m=2 brackets the univalence radius (eta<0 grid)", ok,
        "; ".join(details) if details else f"min slack {worst_slack:.3e}",
    )


def _eta_zero_bound_identity() -> CriterionResult:
    worst = 0.0
    uppers_ok = True
    for L in (0.0, 1.0, 2.5):
        lower, upper = euler_rayleigh_bounds(CoulombParams(L, 0.0), "g", 2)
        simplified = math.sqrt((2.0 * L + 3.0) / 3.0)
        worst = max(worst, abs(lower - simplified))
        uppers_ok &= upper is None
    ok = worst <= 1e-12 and uppers_ok
    return CriterionResult(
        6, "eta=0 lower bound simplifies to sqrt((2L+3)/3), upper undefined", ok,
        f"max |lower - sqrt((2L+3)/3)| = {worst:.2e}; "
        f"uppers undefined: {uppers_ok}",
    )


def _interlacing() -> CriterionResult:
    ok = True
    failures = []
    for L in (0.0, 0.5, 1.0):
        for eta in (-1.0, 0.0):
            params = CoulombParams(L, eta)
            zf = find_zeros(params, ZeroTarget.F, 4, 4)
            zd = find_zeros(params, ZeroTarget.F_PRIME, 4, 4)
            if zf.truncated or zd.truncated or not _interlaced(zf, zd):
                ok = False
                failures.append(f"(L={L}, eta={eta})")
    return CriterionResult(
        7, "zeros of F and F' interlace (4 pairs, both signs)", ok,
        "failures: " + ", ".join(failures) if failures else "all 6 parameter pairs interlace",
    )


def _monotone_ratios() -> CriterionResult:
    ok = True
    failures = []
    for params in _grid():
        # cap: first positive zero of F or of the derivative target (nearest 0, eta <= 0)
        cap_of = {target: find_zeros(params, target, 1, 0).positive[0]
                  for target in (ZeroTarget.F, *map(derivative_target, ("g", "f")))}
        for name, ratio in (("star", star_ratio), ("conv", conv_ratio)):
            for kind in ("g", "f"):
                cap = cap_of[derivative_target(kind) if name == "conv" else ZeroTarget.F]
                values = [ratio(params, kind, cap * i / 65.0) for i in range(1, 65)]
                if not all(a > b for a, b in zip(values, values[1:])):
                    ok = False
                    failures.append(f"(L={params.L}, eta={params.eta}, {name}_{kind})")
    return CriterionResult(
        8, "star and convexity ratios strictly decrease on (0, cap)", ok,
        "failures: " + ", ".join(failures) if failures else
        "64-point sampling decreases for all 20 grid parameters",
    )


def _gap_property_suite() -> CriterionResult:
    rng = random.Random(1898)
    worst = math.inf
    for _ in range(10_000):
        b = rng.uniform(0.2, 3.0)
        a = b + rng.uniform(1e-6, 3.0)
        lam = rng.random()
        radius_frac = math.sqrt(rng.random()) * 0.999
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = b * radius_frac * complex(math.cos(theta), math.sin(theta))
        sign = 1 if rng.random() < 0.5 else -1
        worst = min(worst, axis_minimum_gap(lam, a, b, z, sign))
    axis_worst = 0.0
    for _ in range(500):
        b = rng.uniform(0.2, 3.0)
        a = b + rng.uniform(1e-6, 3.0)
        lam = rng.random()
        m = b * rng.random() * 0.999
        # equality point of each bracket sign: z = |z| for minus, z = -|z| for plus
        axis_worst = max(axis_worst, abs(axis_minimum_gap(lam, a, b, m, -1)))
        axis_worst = max(axis_worst, abs(axis_minimum_gap(lam, a, b, -m, 1)))
    ok = worst >= -1e-12 and axis_worst <= 1e-12
    return CriterionResult(
        9, "axis-minimum gap nonnegative over 10^4 random tuples", ok,
        f"min gap {worst:.3e}; max |gap| at the equality axis point {axis_worst:.3e}",
    )


def _disk_positivity() -> CriterionResult:
    ming = disk_min_real(4 + 1j, 0.5, "g", 64, 0.99).min_real
    minq = disk_min_real(4 + 1j, 0.5, "zgpg", 64, 0.99).min_real
    minq_sine = disk_min_real(0j, 0j, "zgpg", 64, 0.99).min_real
    ok = ming > 0.0 and minq > 0.0 and minq_sine > 0.0
    return CriterionResult(
        10, "unit-disk grid positivity for region parameters", ok,
        f"(L=4+i, eta=0.5): min Re g/z = {ming:.4f}, min Re zg'/g = {minq:.4f}; "
        f"(L=0, eta=0): min Re zg'/g = {minq_sine:.4f}",
    )


def _product_vs_series() -> CriterionResult:
    p00 = CoulombParams(0.0, 0.0)
    zeros = [n * math.pi for n in range(1, 801)]
    mirrored = [-x for x in zeros]
    errs = {}
    for K in (100, 200, 400, 800):
        value = _product(p00, zeros, mirrored, 1.0, K)
        errs[K] = abs(value - math.sin(1.0)) / math.sin(1.0)
    contraction_ok = all(
        errs[2 * K] <= 0.75 * errs[K] for K in (100, 200, 400)
    )
    ok = errs[100] <= 2.1e-3 and contraction_ok
    return CriterionResult(
        11, "truncated product reproduces sin(1), contracting in K", ok,
        f"rel err K=100: {errs[100]:.3e} (bound 2.1e-3); "
        f"ratios {errs[200] / errs[100]:.3f}, {errs[400] / errs[200]:.3f}, "
        f"{errs[800] / errs[400]:.3f} (need <= 0.75)",
    )


def _equation_form_equivalence() -> CriterionResult:
    ok = True
    worst = 0.0
    failures = []
    for params in _grid():
        for kind in ("g", "f"):
            for prop in ("starlike", "convex"):
                for beta in (0.0, 0.5):
                    q = RadiusQuery(params, kind, prop, beta)
                    a = radius(q, form="ratio").value
                    b = radius(q, form="direct").value
                    rel = abs(a - b) / abs(a)
                    worst = max(worst, rel)
                    if rel > 1e-10:
                        ok = False
                        failures.append(
                            f"(L={params.L}, eta={params.eta}, {kind}, {prop}, beta={beta})"
                        )
    return CriterionResult(
        12, "ratio-form and direct-form radii agree", ok,
        "failures: " + ", ".join(failures) if failures else
        f"max relative gap {worst:.2e} over grid x kind x property x beta",
    )


_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    _sine_collapse,
    _bessel_cross_validation,
    _closed_form_agreement,
    _documented_discrepancy,
    _bound_bracketing,
    _eta_zero_bound_identity,
    _interlacing,
    _monotone_ratios,
    _gap_property_suite,
    _disk_positivity,
    _product_vs_series,
    _equation_form_equivalence,
)


def run_criterion(number: int) -> CriterionResult:
    return run_all([number])[0]


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    """The criteria numbered in numbers (default all), in that order; every
    number is checked before any criterion runs."""
    picks = numbers if numbers is not None else range(1, len(_CRITERIA) + 1)
    bad = [n for n in picks if not 1 <= n <= len(_CRITERIA)]
    if bad:
        raise ValueError(f"criterion numbers out of range: {bad}")
    return [_CRITERIA[n - 1]() for n in picks]


def criterion_count() -> int:
    return len(_CRITERIA)
