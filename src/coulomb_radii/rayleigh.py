"""Rayleigh sums over derivative zeros and Euler-Rayleigh bounds.

Two independent routes to S_m = sum_n zeta_n^{-m}:

  * extraction: the log-derivative of the target's normalized series has
    Taylor coefficients t_k with S_m = -t_{m-1} for m >= 2.  A derivative
    target (s + 1 + theta) P (equations.theta_shift) has the coefficients
    (n+s+1)/(s+1) a_n: (n+L+1)/(L+1) a_n for the zeros of F' (the paper's
    sigma sums), (n+1) a_n for the zeros of g' (its varsigma sums).
  * closed form: the printed degree-(2,3) rational expressions in (L, eta).

The printed m=3 polynomials disagree with extraction at most parameters (at
L=0, eta=-1 they give 6 versus the extracted 13/3, which also follows from
the intermediate convolution identities), so a record notes each printed
value that differs beyond 1e-8 relative; extraction is the ground truth for
bounds.  Every record holds both routes, so one record gives the brackets
of both and the notes.

Euler-Rayleigh: S_m^{-1/m} < |zeta_1| < S_m/S_{m+1}, the upper bound only
when S_{m+1} > 0 (a validity condition with mixed-sign zeros, not an error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

from .equations import Kind, ZeroTarget, derivative_target, theta_shift
from .errors import CoulombError
from .params import CoulombParams
from .series import coefficients


_EVEN_M = "m must be an even count >= 2"


class SumMethod(str, Enum):
    CLOSED_FORM = "closed_form"
    EXTRACTED = "extracted"


@dataclass(frozen=True)
class RayleighSums:
    """S_m by both routes, extracted S_2..S_max(m_max, 3) and the printed S_2
    and S_3, and a note on each printed value that disagrees with extraction."""

    params: CoulombParams
    target: ZeroTarget
    extracted: Mapping[int, float]
    closed_form: Mapping[int, float]
    discrepancies: Mapping[int, str]

    def bracket(self, m: int = 2, method: SumMethod | str = SumMethod.EXTRACTED,
                ) -> tuple[float, float | None]:
        """(S_m^{-1/m}, S_m/S_{m+1}; None unless S_{m+1} > 0) from the sums of
        method.  m must be even, as in bracket_sums: with zeros of both signs
        an odd S_m bounds nothing."""
        values = self.extracted if SumMethod(method) is SumMethod.EXTRACTED else self.closed_form
        if m not in values or m + 1 not in values:
            held = (f"the record holds S_2..S_{max(values)}" if values is self.extracted
                    else "the closed forms give S_2 and S_3 only")
            raise ValueError(f"{held}; the m = {m} bracket needs S_{m} and S_{m + 1}")
        if m % 2:
            raise ValueError(_EVEN_M)
        s_m, s_m1 = values[m], values[m + 1]
        if not s_m > 0.0:
            raise CoulombError(
                f"S_{m} = {s_m:.6g} is not positive; no real lower bound "
                "(zeros may be complex for these parameters)"
            )
        return s_m ** (-1.0 / m), (s_m / s_m1 if s_m1 > 0.0 else None)


def logderiv_coeffs(series_coeffs: Sequence[float], m_max: int) -> list[float]:
    """Taylor coefficients t_0..t_{m_max} of (sum c_k z^k)'/(sum c_k z^k).

    Convolution recurrence (k+1) c_{k+1} = sum_{j<=k} c_j t_{k-j}, solved
    forward; requires c_0 = 1 and len(c) > m_max + 1.
    """
    c = list(series_coeffs)
    if not c or c[0] != 1.0:
        raise ValueError("series must be normalized with c_0 = 1")
    if len(c) < m_max + 2:
        raise ValueError(f"need at least {m_max + 2} coefficients for m_max={m_max}")
    t: list[float] = []
    for k in range(m_max + 1):
        s = (k + 1) * c[k + 1]
        for j in range(1, k + 1):
            s -= c[j] * t[k - j]
        t.append(s)
    return t


def _extracted_values(params: CoulombParams, target: ZeroTarget, m_max: int) -> dict[int, float]:
    a, s = coefficients(params, m_max + 2).a, theta_shift(params.L, target)
    c = [(k + s + 1.0) / (s + 1.0) * a_k for k, a_k in enumerate(a)]
    t = logderiv_coeffs(c, m_max - 1)
    return {m: -t[m - 1] for m in range(2, m_max + 1)}


def _sigma2_closed(L: float, eta: float) -> float:
    num = (L**4 + 6.0 * L**3 + (eta**2 + 12.0) * L**2
           + 2.0 * (3.0 * eta**2 + 5.0) * L + 3.0 * (2.0 * eta**2 + 1.0))
    return num / ((L + 1.0) ** 4 * (2.0 * L + 3.0))


def _sigma3_closed(L: float, eta: float) -> float:
    e1 = 41.0 - 8.0 * eta**2
    e2 = 163.0 - 74.0 * eta**2
    e3 = 41.0 - 32.0 * eta**2
    e4 = 178.0 - 223.0 * eta**2
    e5 = 199.0 - 438.0 * eta**2
    num = eta * (4.0 * L**7 + e1 * L**6 + e2 * L**5 + 8.0 * e3 * L**4
                 + 2.0 * e4 * L**3 + e5 * L**2
                 + 9.0 * (5.0 - 28.0 * eta**2) * L - 72.0 * eta**2)
    return num / (2.0 * (L + 1.0) ** 6 * (L + 2.0) * (2.0 * L + 3.0))


def _varsigma2_closed(L: float, eta: float) -> float:
    num = 3.0 * L**2 + 2.0 * (eta**2 + 3.0) * L + 3.0 * (2.0 * eta**2 + 1.0)
    return num / ((L + 1.0) ** 2 * (2.0 * L + 3.0))


def _varsigma3_closed(L: float, eta: float) -> float:
    num = eta * (8.0 * L**4 + (31.0 - 16.0 * eta**2) * L**3
                 + 2.0 * (19.0 - 26.0 * eta**2) * L**2
                 + 3.0 * (5.0 - 22.0 * eta**2) * L - 36.0 * eta**2)
    return num / ((L + 1.0) ** 3 * (L + 2.0) * (2.0 * L + 3.0))


def sums(params: CoulombParams, target: ZeroTarget | str, m_max: int = 8) -> RayleighSums:
    """Rayleigh sums over the zeros of a derivative target (F' or g'; not F)
    by both routes: S_2..S_max(m_max, 3) by extraction, which comes first (a
    degenerate recurrence raises before a closed form meets its pole), and
    the printed S_2 and S_3, each noted where it disagrees with extraction
    beyond 1e-8 relative."""
    target = ZeroTarget(target)
    if target is ZeroTarget.F:
        raise ValueError("Rayleigh sums run over the zeros of F_prime or g_prime, not F")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    extracted = _extracted_values(params, target, max(m_max, 3))
    closed = ((_sigma2_closed, _sigma3_closed) if target is ZeroTarget.F_PRIME
              else (_varsigma2_closed, _varsigma3_closed))
    try:
        closed_form = {m: f(params.L, params.eta) for m, f in zip((2, 3), closed)}
    except OverflowError:  # the printed powers overflow from |L| ~ 1e77, extraction does not
        closed_form = {2: math.nan, 3: math.nan}
    notes = {m: f"printed m={m} value {v:.12g} disagrees with coefficient extraction "
                f"{extracted[m]:.12g}; extraction is used for bounds"
             for m, v in closed_form.items()
             if abs(v - extracted[m]) / max(abs(extracted[m]), 1e-30) > 1e-8}
    return RayleighSums(params, target, MappingProxyType(extracted),
                        MappingProxyType(closed_form), MappingProxyType(notes))


def bracket_sums(params: CoulombParams, kind: Kind | str, m: int = 2) -> RayleighSums:
    """S_2..S_{m+1} over the zeros of derivative_target(kind) (F' for f, g'
    for g), which bound the univalence radius of kind: the record of the
    brackets of every even order up to m, and of the closed-form one.  m must
    be even, so the lower bound is unconditional for real zeros."""
    if m < 2 or m % 2:
        raise ValueError(_EVEN_M)
    return sums(params, derivative_target(kind), m_max=m + 1)


def euler_rayleigh_bounds(params: CoulombParams, kind: Kind | str, m: int = 2,
                          ) -> tuple[float, float | None]:
    """(lower, upper) bracket for the smallest-modulus derivative zero:
    RayleighSums.bracket(m) of the record bracket_sums builds."""
    return bracket_sums(params, kind, m).bracket(m)
