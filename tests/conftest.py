"""Shared fixtures."""

import pytest

from coulomb_radii import series


@pytest.fixture
def evaluations(monkeypatch):
    """The abscissae of the series evaluations made while a test runs, direct
    sums and local ones alike; a local sum that falls back to a direct one
    counts once.  eval_point's memo starts empty, so what earlier tests left
    in it serves no point and every count is that of a cold start."""
    series.eval_point.cache_clear()
    calls = []
    direct, local = series._direct, series._local

    def counting_direct(L, eta, z):
        calls.append(z)
        return direct(L, eta, z)

    def counting_local(base, z):
        sv = local(base, z)
        if sv is not None:
            calls.append(z)
        return sv

    monkeypatch.setattr(series, "_direct", counting_direct)
    monkeypatch.setattr(series, "_local", counting_local)
    return calls
