"""Parameter pair (L, eta) for the regular Coulomb wave function.

The radius results of this package are certified only on L > -1, eta <= 0
(convexity of the f-form additionally needs L > -1/2: check_f_convexity).
Values outside that region can be constructed, but only with an explicit
``unsafe`` marker, and everything downstream then carries a no-certificate
flag; L = -1, where a_1 = eta/(L+1) divides by zero, is refused even then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoulombDomainError


@dataclass(frozen=True)
class CoulombParams:
    """Order L and Sommerfeld parameter eta, both real."""

    L: float
    eta: float
    unsafe: bool = False

    def __post_init__(self):
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "eta", float(self.eta))
        if not (math.isfinite(self.L) and math.isfinite(self.eta)):
            raise CoulombDomainError("L and eta must be finite")
        if not self.unsafe and not self.in_certified_region:
            raise CoulombDomainError(
                f"(L={self.L}, eta={self.eta}) is outside the certified region "
                "L > -1, eta <= 0; construct with unsafe=True to override"
            )
        if self.L == -1.0:
            raise CoulombDomainError("coefficient recurrence requires L != -1")

    @property
    def in_certified_region(self) -> bool:
        return self.L > -1.0 and self.eta <= 0.0

    def check_f_convexity(self) -> bool:
        """Whether f-form convexity is certified (L > -1/2, eta <= 0); outside
        that, False for unsafe params and CoulombDomainError otherwise."""
        certified = self.L > -0.5 and self.eta <= 0.0
        if not (certified or self.unsafe):
            raise CoulombDomainError("convexity of the f-form requires L > -1/2 and eta <= 0")
        return certified
