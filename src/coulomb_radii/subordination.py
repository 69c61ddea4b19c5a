"""Complex-parameter region predicates and unit-disk positivity evidence.

Two printed condition sets on complex (L, eta) are evaluated exactly as
stated, without harmonizing their asymmetric hypotheses:

  * positivity set:  Re L >= 1/2,  Im L >= 1,  (1 + Im L + |eta|)^2 <= (Re L - 1/2)^2
  * starlike set:    |eta| <= Re L - (Im L)^2 / 3 - 1/4

The disk scan is numerical evidence, not a certificate: it samples a polar
grid of the unit disk (boundary-heavy, since minima of harmonic functions sit
on the boundary) and reports the minimum real part of either g(z)/z or
z g'(z)/g(z).  The g-quantity is the normalized value g(z)/z = P(z), the
function fixed to 1 at the center whose positive real part the parameter
region controls; the raw g vanishes at the origin, so its real part has no
positivity to check.

The grid has m = 4 grid_n equally spaced angles on every ring, so on ring k,
with w = e^(2 pi i/m), P(r_k w^j) = sum_n a_n r_k^n w^(nj) is an inverse DFT
of the ring's terms taken over n mod m.  Each ring is summed by one FFT of
length m (and z P' by a second one, of n a_n r_k^n), not by Horner's rule at
each grid point.  The minimum carries the condition number of those sums,
max over the grid of sum_n |a_n| r^n / |P|; it stays near 1 on the printed
regions but grows past 1e11 at large |eta|, where the minimum is noise.

axis_minimum_gap exposes, for property testing, the inequality that a
weighted two-pole real-part combination is minimized on the positive real
axis of each circle |z| = const.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConvergenceError
from .series import complex_coefficients

_DISK_N_CAP = 1536
# the zgpg scan holds P and z P' at all 4 grid_n^2 points (134 MB at 1024) and
# |P| (34 MB): its peak RSS at the cap is about 190 MB, the g scan's 125 MB
_DISK_GRID_CAP = 1024
_DISK_NOISE_CONDITION = 2.0**26


@dataclass(frozen=True)
class RegionReport:
    re_positive_ok: bool
    starlike_ok: bool
    margins: Mapping[str, float]


def region_check(L: complex, eta: complex) -> RegionReport:
    """Evaluate both printed inequality sets with their slack."""
    L = complex(L)
    eta = complex(eta)
    abs_eta = abs(eta)
    margins = {
        "re_part": L.real - 0.5,
        "im_part": L.imag - 1.0,
        "disk_gap": (L.real - 0.5) ** 2 - (1.0 + L.imag + abs_eta) ** 2,
        "starlike_gap": L.real - L.imag**2 / 3.0 - 0.25 - abs_eta,
    }
    re_ok = margins["re_part"] >= 0.0 and margins["im_part"] >= 0.0 and margins["disk_gap"] >= 0.0
    return RegionReport(
        re_positive_ok=re_ok,
        starlike_ok=margins["starlike_gap"] >= 0.0,
        margins=MappingProxyType(margins),
    )


def _coeffs_for_disk(L: complex, eta: complex) -> np.ndarray:
    # grow until the tail at |z| = 1 is negligible; the factorial-type decay
    # of the recurrence wins eventually, but huge |eta| overflows first
    n = 48
    while n <= _DISK_N_CAP:
        a = complex_coefficients(L, eta, n)
        if abs(a[-1]) + abs(a[-2]) < 1e-20:
            return np.asarray(a, dtype=complex)
        n *= 2
    raise ConvergenceError(
        f"disk coefficients for (L={L}, eta={eta}) not converged by n={_DISK_N_CAP}"
    )


class DiskMinimum(float):
    """A disk scan's minimum, carrying the condition number of its sums.

    condition is the largest ratio, over the grid, of the sum of the term
    moduli |a_n| r^n to |P|: the factor by which rounding in the terms is
    magnified in P.  It is infinite where P vanishes on the grid.
    """

    __slots__ = ("condition",)

    def __new__(cls, value: float, condition: float):
        self = super().__new__(cls, value)
        self.condition = condition
        return self

    @property
    def noise_limited(self) -> bool:
        # rounding magnified past 2^26 leaves less than half of a double's
        # 53 bits in P, so the minimum may be noise
        return not self.condition <= _DISK_NOISE_CONDITION


def disk_min_real(L: complex, eta: complex, quantity: str, grid_n: int = 64,
                  radius_cap: float = 0.99) -> DiskMinimum:
    """Minimum real part of g(z)/z ('g') or z g'(z)/g(z) ('zgpg') on a polar
    grid of the disk |z| <= radius_cap.

    Rings at radii r_k = (k/grid_n) radius_cap, angles 2 pi j/m with
    m = 4 grid_n.  Each ring is summed by an inverse FFT of length m of its
    terms a_n r_k^n, and z P' by one of n a_n r_k^n (see the module
    docstring), not by Horner's rule at each grid point.  A positive result
    is grid evidence of the theorem's conclusion, not a proof.  grid_n lies
    in [16, 1024], checked before anything is allocated.  Returns -inf if
    the quantity hits a pole on the grid; raises ConvergenceError if the
    coefficients do not settle by n = 1536.  The minimum is a float that
    also carries the condition number of the sums (DiskMinimum).
    """
    if quantity not in ("g", "zgpg"):
        raise ValueError("quantity must be 'g' or 'zgpg'")
    if not 16 <= grid_n <= _DISK_GRID_CAP:
        raise ValueError(f"grid_n must lie in [16, {_DISK_GRID_CAP}]")
    if not 0.0 < radius_cap < 1.0:
        raise ValueError("radius_cap must lie in (0, 1)")
    a = _coeffs_for_disk(complex(L), complex(eta))

    m = 4 * grid_n
    radii = radius_cap * np.arange(1, grid_n + 1) / grid_n
    n = np.arange(len(a))
    terms = a * radii[:, None] ** n  # a_n r_k^n, one ring per row
    scale = np.abs(terms).sum(axis=1)
    if quantity == "g":
        p = _ring_sums(terms, m)
    else:  # n a_n r_k^n sum to z P'(z); one FFT call takes both
        p, zdp = _ring_sums(np.stack([terms, n * terms]), m)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = float(np.max(scale / np.abs(p).min(axis=1)))
        if quantity == "g":
            return DiskMinimum(np.min(p.real), condition)
        zdp /= p
    vals = zdp.real
    vals += 1.0
    if not np.all(np.isfinite(vals)):
        return DiskMinimum(-math.inf, condition)
    return DiskMinimum(np.min(vals), condition)


def _ring_sums(terms: np.ndarray, m: int) -> np.ndarray:
    # sum_n t_kn w^(nj), w = e^(2 pi i/m), at j = 0..m-1 for each row k: an
    # unscaled inverse DFT of length m
    width = terms.shape[-1]
    if width > m:  # w^(nj) depends on n mod m only, so folding is exact
        folded = np.zeros(terms.shape[:-1] + (m,), dtype=complex)
        for start in range(0, width, m):
            chunk = terms[..., start:start + m]
            folded[..., :chunk.shape[-1]] += chunk
        terms = folded
    return np.fft.ifft(terms, n=m, norm="forward")


def axis_minimum_gap(lam: float, a: float, b: float, z: complex, sign: int) -> float:
    """Signed gap of the two-pole minimum inequality

        lam Re[z^2/(a(a+s z))] - Re[z^2/(b(b+s z))]
            >= lam |z|^2/(a(a-|z|)) - |z|^2/(b(b-|z|)),   s = sign,

    for lam in [0,1], a > b > 0, |z| < b.  The right side is the left side
    evaluated at z = -s |z|, the point of each circle |z| = const where the
    combination is smallest; equality holds exactly there (z = |z| for the
    minus bracket, z = -|z| for the plus bracket).  The two bracket signs map
    onto each other under z -> -z, which is why the reference value always
    carries the (. - |z|) denominators: resolving the printed inequality with
    the plus sign on both sides fails near z = -|z| (the b-pole side).
    """
    lam = float(lam)
    a = float(a)
    b = float(b)
    z = complex(z)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not a > b > 0.0:
        raise ValueError("requires a > b > 0")
    m = abs(z)
    if not m < b:
        raise ValueError("requires |z| < b")
    lhs = lam * (z * z / (a * (a + sign * z))).real - (z * z / (b * (b + sign * z))).real
    rhs = lam * m * m / (a * (a - m)) - m * m / (b * (b - m))
    return lhs - rhs
