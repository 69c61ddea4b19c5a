"""Pinned scans: find_zeros and radius on seeded cases, bit for bit.

The fixture ``data/scan_fixture.json`` holds, for 30 seeded find_zeros
cases (L, eta, target and both counts), the zeros as hex floats, the
truncated flag and the series.counting() totals, and for 60 seeded radius
queries the value, the bracket and the domain cap (radii.domain_cap) as hex
floats, the iterations and flags, and the totals of the radius solve.  The
cases mix |eta| up to 25, where the first steps are short and refine points
next to the origin are summed, with the negative side of find_zeros (the
positive side of (L, -eta)) and every kind, property and form.  A change to the scan, its refines or the
radius solve that is meant to keep their results must leave every byte of
it in place.  After an intended change, regenerate the fixture and review
its diff:

    PYTHONPATH=src python tests/test_scan_fixture.py
"""

import json
import os
import random

from coulomb_radii import series
from coulomb_radii.params import CoulombParams
from coulomb_radii.radii import RadiusQuery, domain_cap, radius
from coulomb_radii.zeros import find_zeros

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "scan_fixture.json")


def _eta(rng: random.Random) -> float:
    return rng.choice((0.0, -1.0, rng.uniform(-3.0, 0.0), rng.uniform(-25.0, -3.0)))


def _zero_cases():
    """30 seeded (L, eta, target, count_pos, count_neg)."""
    rng = random.Random(31)
    for _ in range(30):
        L = rng.choice((0.0, 0.5, 2.0, rng.uniform(-0.99, 5.0)))
        yield (L, _eta(rng), rng.choice(("F", "F_prime", "g_prime")),
               rng.choice((1, 3, 10)), rng.choice((0, 2, 10)))


def _radius_cases():
    """60 seeded (L, eta, kind, property, beta, form)."""
    rng = random.Random(3100)
    for _ in range(60):
        prop = rng.choice(("starlike", "convex", "univalent"))
        kind = rng.choice(("f", "g"))
        # the f-form convexity equation is certified only for L > -1/2
        L = rng.choice((0.0, 0.5, 2.0, rng.uniform(-0.49 if (prop, kind) == ("convex", "f")
                                                   else -0.99, 5.0)))
        eta = rng.choice((0.0, -1.0, rng.uniform(-3.0, 0.0), rng.uniform(-12.0, -3.0)))
        beta = 0.0 if prop == "univalent" else rng.choice((0.0, 0.25, 0.5, 0.75))
        yield L, eta, kind, prop, beta, rng.choice(("ratio", "direct"))


def _hex(x):
    return None if x is None else float.hex(x)


def _rows() -> dict:
    zero_rows, radius_rows = [], []
    for L, eta, target, pos, neg in _zero_cases():
        with series.counting() as counts:
            zs = find_zeros(CoulombParams(L, eta), target, pos, neg)
        zero_rows.append({"L": L, "eta": eta, "target": target, "count_pos": pos,
                          "count_neg": neg, "positive": [_hex(x) for x in zs.positive],
                          "negative": [_hex(x) for x in zs.negative],
                          "truncated": zs.truncated, "totals": counts.totals()})
    for L, eta, kind, prop, beta, form in _radius_cases():
        row = {"L": L, "eta": eta, "kind": kind, "property": prop, "beta": beta, "form": form}
        query = RadiusQuery(CoulombParams(L, eta), kind, prop, beta)
        with series.counting() as counts:
            res = radius(query, form=form)
        # the cap is its own query, outside the radius's totals
        row.update(value=_hex(res.value), bracket=[_hex(x) for x in res.bracket],
                   domain_cap=_hex(domain_cap(query)), iterations=res.iterations,
                   flags=list(res.flags), totals=counts.totals())
        radius_rows.append(row)
    return {"find_zeros": zero_rows, "radius": radius_rows}


def _text(rows: dict) -> str:
    return json.dumps(rows, indent=1) + "\n"


def test_scans_match_the_fixture_byte_for_byte():
    with open(FIXTURE) as fh:
        pinned = fh.read()
    rows = _rows()
    assert any(row["truncated"] for row in rows["find_zeros"])  # both outcomes are pinned
    assert _text(rows) == pinned


if __name__ == "__main__":
    rows = _rows()
    with open(FIXTURE, "w") as fh:
        fh.write(_text(rows))
    print(f"wrote {len(rows['find_zeros'])} scans and {len(rows['radius'])} radii to {FIXTURE}")
