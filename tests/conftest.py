"""Shared fixtures."""

import pytest

from coulomb_radii import series


@pytest.fixture
def evaluations():
    """The abscissae of the series evaluations made while a test runs, direct
    sums and local ones alike (series.counting()), from an empty eval_point
    memo, so every count is that of a cold start."""
    series.eval_point.cache_clear()
    with series.counting() as counts:
        yield counts.points
