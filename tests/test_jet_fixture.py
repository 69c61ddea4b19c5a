"""Pinned jets: 300 seeded (base, z) pairs, bit for bit.

The fixture ``data/jet_fixture.json`` holds, for each pair, the point z read
from a fresh table at the base, the sum at z0, as an Evaluator reads a
point from the table at a sum it keeps
(``series._Table.at(L, eta, z0, base).value(z - z0)``): P, P', P'', their
bounds, its tail bound and its rows, or null where the table refuses the
point or z lies past |z| = 55.  The pairs mix scan steps, shares of the
reach and tiny steps over L up to 20 and eta of either sign, so points
refused past |z0|/2 or past the reach of the table's 32 rows sit next to
served ones.  A change to the tables that is meant to keep their results
must leave every byte of it in place.  After an intended change, regenerate
the fixture, check it against mpmath and review its diff:

    PYTHONPATH=src python tests/test_jet_fixture.py
"""

import json
import math
import os
import random

import pytest

from coulomb_radii import series
from coulomb_radii.errors import ConvergenceError
from coulomb_radii.params import CoulombParams

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "jet_fixture.json")


def _pairs():
    """300 seeded (L, eta, z0, z) with a finite sum at z0."""
    rng = random.Random(30)
    found = 0
    while found < 300:
        L = rng.choice((0.0, 0.5, 2.0, 20.0, rng.uniform(-0.99, 8.0)))
        eta = rng.choice((0.0, rng.uniform(-25.0, 0.0), rng.uniform(-3.0, 3.0)))
        z0 = rng.choice((1.0, -1.0)) * rng.uniform(0.05, 55.0)
        # about a scan step at z0 (zeros module)
        step = 0.5 * math.pi / math.sqrt(1.0 + 2.0 * abs(eta / z0))
        z = z0 + rng.choice((rng.uniform(-1.6, 1.6), z0 * rng.uniform(-0.49, 0.49),
                             z0 * 2.0 ** -rng.uniform(1.0, 40.0), rng.choice((1.0, -1.0)) * step))
        try:
            series.Evaluator(CoulombParams(L, eta, unsafe=True)).sum(z0)
        except ConvergenceError:  # P beyond the double range: no base
            continue
        found += 1
        yield L, eta, z0, z


def _rows() -> list[dict]:
    rows = []
    for L, eta, z0, z in _pairs():
        base = series.Evaluator(CoulombParams(L, eta, unsafe=True)).sum(z0)
        # an Evaluator reads no point past |z| = 55 from a table
        sv = series._Table.at(L, eta, z0, base).value(z - z0) if abs(z) <= series.EVAL_Z_MAX else None
        rows.append({"L": L, "eta": eta, "z0": z0, "z": z, "jet": None if sv is None else {
            "p": [sv.p0, sv.p1, sv.p2], "noise": list(sv.noise), "tail": sv.tail_estimate,
            "terms": sv.truncation_terms}})
    return rows


def _text(rows: list[dict]) -> str:
    return json.dumps(rows, indent=1) + "\n"


def test_jets_match_the_fixture_byte_for_byte():
    with open(FIXTURE) as fh:
        pinned = fh.read()
    rows = _rows()
    served = sum(row["jet"] is not None for row in rows)
    # both outcomes are pinned: the fixture serves 241 pairs and refuses 59
    assert (served, len(rows) - served) == (241, 59)
    assert _text(rows) == pinned


def test_served_points_lie_within_their_noise_of_mpmath():
    mp = pytest.importorskip("mpmath")
    from test_series import _mp_values

    with open(FIXTURE) as fh:
        rows = [row for row in json.load(fh) if row["jet"] is not None]
    for row in rows:
        want = _mp_values(mp, row["L"], row["eta"], row["z"])
        with mp.workdps(60):
            for k, (got, w) in enumerate(zip(row["jet"]["p"], want)):
                assert abs(mp.mpf(got) - w) <= row["jet"]["noise"][k], (row, k)


if __name__ == "__main__":
    rows = _rows()
    with open(FIXTURE, "w") as fh:
        fh.write(_text(rows))
    print(f"wrote {len(rows)} jets to {FIXTURE}")
