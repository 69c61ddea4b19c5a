"""Complex-parameter region predicates and unit-disk positivity evidence.

Two printed condition sets on complex (L, eta) are evaluated exactly as
stated, without harmonizing their asymmetric hypotheses:

  * positivity set:  Re L >= 1/2,  Im L >= 1,  (1 + Im L + |eta|)^2 <= (Re L - 1/2)^2
  * starlike set:    |eta| <= Re L - (Im L)^2 / 3 - 1/4

The disk scan is numerical evidence, not a certificate.  It reports the
minimum real part of either g(z)/z or z g'(z)/g(z) on |z| <= radius_cap.
The g-quantity is the normalized value g(z)/z = P(z), the function fixed to 1
at the center whose positive real part the parameter region controls; the
raw g vanishes at the origin, so its real part has no positivity to check.

Re P is harmonic on the disk, so its minimum lies on the boundary circle
|z| = radius_cap; so does that of Re(z g'/g) = Re(1 + z P'/P), which is
harmonic where P has no zero.  The scan samples that circle only.  It takes
m = 4 grid_n equally spaced angles: with w = e^(2 pi i/m),
P(r w^j) = sum_n a_n r^n w^(nj) is an inverse DFT of the terms a_n r^n taken
over n mod m, summed by one FFT of length m (and z P' by a second one, of
n a_n r^n).  The minimum carries the condition number of those sums, max
over the circle of sum_n |a_n| r^n / |P|; it stays near 1 on the printed
regions but grows past 1e11 at large |eta|, where the minimum is noise.

The same samples count the zeros of P inside the circle.  By the argument
principle the mean of Re(z P'/P) over the circle is that number, and the
trapezoid rule on m equal angles converges to it geometrically in m for this
analytic periodic integrand (Delves & Lyness, Math. Comp. 21, 1967).  Where
the mean lies within 1e-3 of an integer k >= 1, Re(z g'/g) is unbounded
below near those zeros and the 'zgpg' minimum is -inf.  Where it lies
farther from every integer, a zero sits next to the circle, the samples do
not resolve it, and the sampled minimum is all the scan reports.

axis_minimum_gap exposes, for property testing, the inequality that a
weighted two-pole real-part combination is minimized on the positive real
axis of each circle |z| = const.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConvergenceError
from .series import complex_coefficients

_DISK_N_CAP = 1536
# the scan holds a few arrays of 4 grid_n samples on one circle (64 KB each at
# 1024); a zgpg scan at the cap peaks at 29 MB of process RSS, 1.5 MB above the
# interpreter with numpy loaded
_DISK_GRID_CAP = 1024
_DISK_NOISE_CONDITION = 2.0**26
_ZERO_COUNT_TOLERANCE = 1e-3


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


class DiskScan(NamedTuple):
    """A disk scan's minimum, the condition number of its sums and, for
    'zgpg', the zero count of P inside the circle.

    condition is the largest ratio, over the circle, of the sum of the term
    moduli |a_n| r^n to |P|: the factor by which rounding in the terms is
    magnified in P.  It is infinite where P vanishes at a sample.
    zeros_inside is the trapezoid-rule mean of Re(z P'/P) over the circle,
    the number of zeros of P inside it where it lies within 1e-3 of a
    nonnegative integer; None for 'g'.
    """

    min_real: float
    condition: float
    zeros_inside: float | None

    @property
    def noise_limited(self) -> bool:
        # rounding magnified past 2^26 leaves less than half of a double's
        # 53 bits in P, so the minimum may be noise
        return not self.condition <= _DISK_NOISE_CONDITION

    @property
    def warnings(self) -> list[str]:
        """The region warnings this scan raises, in report order."""
        out = ["noise-limited"] if self.noise_limited else []
        if self.zeros_inside is not None:
            count = _zero_count(self.zeros_inside)
            if count is None:
                out.append("zero-near-circle")
            elif count:
                out.append("zeros-inside")
        return out


def _zero_count(mean: float) -> int | None:
    # the argument principle gives a nonnegative integer; a mean away from
    # every such integer means a zero next to (or on) the circle, where the
    # trapezoid rule has not converged
    if not math.isfinite(mean):
        return None
    count = round(mean)
    if count < 0 or abs(mean - count) > _ZERO_COUNT_TOLERANCE:
        return None
    return count


def disk_min_real(L: complex, eta: complex, quantity: str, grid_n: int = 64,
                  radius_cap: float = 0.99) -> DiskScan:
    """Minimum real part of g(z)/z ('g') or z g'(z)/g(z) ('zgpg') on the
    disk |z| <= radius_cap, sampled on its boundary circle.

    The circle |z| = radius_cap is sampled at m = 4 grid_n angles 2 pi j/m;
    its terms a_n r^n are summed by one inverse FFT of length m, and z P'
    by one of n a_n r^n (see the module docstring).  For 'zgpg' the mean of
    Re(z P'/P) over the samples counts the zeros of P inside the circle;
    where it is an integer k >= 1 the minimum is -inf.  A positive result is
    evidence of the theorem's conclusion, not a proof.  grid_n lies in
    [16, 1024], checked before anything is allocated.  Returns -inf also if
    the quantity hits a pole at a sample; raises ConvergenceError if the
    coefficients do not settle by n = 1536.
    """
    if quantity not in ("g", "zgpg"):
        raise ValueError("quantity must be 'g' or 'zgpg'")
    if not 16 <= grid_n <= _DISK_GRID_CAP:
        raise ValueError(f"grid_n must lie in [16, {_DISK_GRID_CAP}]")
    if not 0.0 < radius_cap < 1.0:
        raise ValueError("radius_cap must lie in (0, 1)")
    a = _coeffs_for_disk(complex(L), complex(eta))

    m = 4 * grid_n
    n = np.arange(len(a))
    terms = a * radius_cap ** n
    scale = np.abs(terms).sum()
    if quantity == "g":
        p = _ring_sums(terms, m)
    else:  # n a_n r^n sum to z P'(z); one FFT call takes both
        p, zdp = _ring_sums(np.stack([terms, n * terms]), m)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = float(scale / np.abs(p).min())
        if quantity == "g":
            return DiskScan(float(p.real.min()), condition, None)
        zdp /= p
    ratio = zdp.real
    mean = float(ratio.mean())
    count = _zero_count(mean)
    if count or not np.all(np.isfinite(ratio)):
        return DiskScan(-math.inf, condition, mean)
    return DiskScan(float(ratio.min() + 1.0), condition, mean)


def _ring_sums(terms: np.ndarray, m: int) -> np.ndarray:
    # sum_n t_n w^(nj), w = e^(2 pi i/m), at j = 0..m-1 for each row of
    # terms: an unscaled inverse DFT of length m
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
