"""Exception taxonomy shared across the package."""


class CoulombError(Exception):
    """Base class for all package-specific failures."""


class CoulombDomainError(CoulombError, ValueError):
    """Parameters outside the certified region and no unsafe marker was set."""


class DegenerateRecurrenceError(CoulombError):
    """A recurrence denominator n(n+2L+1) vanished at a specific index."""

    def __init__(self, n: int, L: float):
        self.n = n
        super().__init__(
            f"coefficient recurrence degenerates at index n={n}: "
            f"n*(n+2L+1) = 0 for L={L}"
        )


class ConvergenceError(CoulombError):
    """Series tail could not be certified below the requested tolerance."""


class PoleError(CoulombError):
    """A ratio denominator vanished within tolerance (query at/past a zero)."""


class MonotonicityError(CoulombError):
    """Sampled ratio failed to decrease while bracketing under unsafe params."""
