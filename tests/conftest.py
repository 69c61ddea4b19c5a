"""Shared fixtures."""

import pytest

from coulomb_radii import rayleigh, series


@pytest.fixture
def evaluations():
    """The abscissae of the series sums made while a test runs
    (series.counting(); jets are no sums), from an empty eval_point memo, so
    every count is that of a cold start."""
    series.eval_point.cache_clear()
    with series.counting() as counts:
        yield counts.points


@pytest.fixture
def extractions(monkeypatch):
    """The (params, target) of every log-derivative extraction made while a
    test runs (rayleigh._extracted_values), in order."""
    calls = []
    extract = rayleigh._extracted_values

    def counted(params, target, m_max):
        calls.append((params, target))
        return extract(params, target, m_max)
    monkeypatch.setattr(rayleigh, "_extracted_values", counted)
    return calls
