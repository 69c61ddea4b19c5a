"""Rayleigh sums over derivative zeros and Euler-Rayleigh bounds.

Two independent routes to S_m = sum_n zeta_n^{-m}:

  * extraction: the log-derivative of the relevant normalized series has
    Taylor coefficients t_k with S_m = -t_{m-1} for m >= 2.  The sigma family
    (zeros of F') uses coefficients (n+L+1)/(L+1) a_n; the varsigma family
    (zeros of g') uses (n+1) a_n.
  * closed form: the printed degree-(2,3) rational expressions in (L, eta).

The printed m=3 polynomials disagree with extraction at most parameters (at
L=0, eta=-1 they give 6 versus the extracted 13/3, which also follows from
the intermediate convolution identities), so closed-form results carry a
discrepancy annotation wherever they differ beyond 1e-8 relative; extraction
is the ground truth for bounds.

Euler-Rayleigh: S_m^{-1/m} < |zeta_1| < S_m/S_{m+1}, the upper bound only
when S_{m+1} > 0 (a validity condition with mixed-sign zeros, not an error).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import CoulombError
from .params import CoulombParams
from .radii import Kind
from .series import coefficients


class Family(str, Enum):
    SIGMA = "sigma"  # zeros of F'
    VARSIGMA = "varsigma"  # zeros of g'


def family_of(kind: Kind | str) -> Family:
    """The family whose sums bound the univalence radius of kind: sigma for
    f, varsigma for g."""
    return Family.SIGMA if Kind(kind) is Kind.F else Family.VARSIGMA


class SumMethod(str, Enum):
    CLOSED_FORM = "closed_form"
    EXTRACTED = "extracted"


@dataclass(frozen=True)
class RayleighSums:
    params: CoulombParams
    family: Family
    method: SumMethod
    values: Mapping[int, float]
    discrepancies: Mapping[int, str]


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


def _family_coeffs(params: CoulombParams, family: Family, n: int) -> list[float]:
    a = coefficients(params, n).a
    L = params.L
    if family is Family.SIGMA:
        return [(k + L + 1.0) / (L + 1.0) * a[k] for k in range(n + 1)]
    return [(k + 1.0) * a[k] for k in range(n + 1)]


def _extracted_values(params: CoulombParams, family: Family, m_max: int) -> dict[int, float]:
    c = _family_coeffs(params, family, m_max + 2)
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


def sums(params: CoulombParams, family: Family | str, method: SumMethod | str,
         m_max: int = 8) -> RayleighSums:
    """Rayleigh sums S_2..S_{m_max} for the chosen family and route.

    closed_form supports m in {2, 3} only and annotates any m=3 value that
    disagrees with extraction beyond 1e-8 relative.
    """
    family = Family(family)
    method = SumMethod(method)
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if method is SumMethod.EXTRACTED:
        values = _extracted_values(params, family, m_max)
        return RayleighSums(params, family, method,
                            MappingProxyType(values), MappingProxyType({}))
    if m_max > 3:
        raise ValueError("closed_form supports m in {2, 3} only")
    L, eta = params.L, params.eta
    if family is Family.SIGMA:
        values = {2: _sigma2_closed(L, eta), 3: _sigma3_closed(L, eta)}
    else:
        values = {2: _varsigma2_closed(L, eta), 3: _varsigma3_closed(L, eta)}
    values = {m: v for m, v in values.items() if m <= m_max}
    extracted = _extracted_values(params, family, max(3, m_max))
    notes: dict[int, str] = {}
    for m, printed in values.items():
        ref = extracted[m]
        denom = max(abs(ref), 1e-30)
        if abs(printed - ref) / denom > 1e-8:
            notes[m] = (
                f"printed m={m} value {printed:.12g} disagrees with "
                f"coefficient extraction {ref:.12g}; extraction is used for bounds"
            )
    return RayleighSums(params, family, method,
                        MappingProxyType(values), MappingProxyType(notes))


def euler_rayleigh_bounds(params: CoulombParams, kind: Kind | str, m: int = 2, *,
                          method: SumMethod | str = SumMethod.EXTRACTED,
                          ) -> tuple[float, float | None]:
    """(lower, upper) bracket for the smallest-modulus derivative zero.

    lower = S_m^{-1/m}; upper = S_m/S_{m+1} when S_{m+1} > 0, else None.
    kind reads the sums of family_of(kind).  m must be even so the lower
    bound is unconditional for real zeros.
    """
    kind = Kind(kind)
    method = SumMethod(method)
    if m < 2 or m % 2:
        raise ValueError("m must be an even count >= 2")
    if method is SumMethod.CLOSED_FORM and m != 2:
        raise ValueError("closed_form bounds exist for m = 2 only")
    s = sums(params, family_of(kind), method, m_max=m + 1)
    s_m = s.values[m]
    s_m1 = s.values[m + 1]
    if not s_m > 0.0:
        raise CoulombError(
            f"S_{m} = {s_m:.6g} is not positive; no real lower bound "
            "(zeros may be complex for these parameters)"
        )
    lower = s_m ** (-1.0 / m)
    upper = s_m / s_m1 if s_m1 > 0.0 else None
    return lower, upper
