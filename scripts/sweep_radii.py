#!/usr/bin/env python3
"""Sweep radii and Euler-Rayleigh brackets over a parameter grid.

Reproduces the kind of table the radius theory suggests checking by hand:
for each (L, eta) the univalence radius of both normalized forms, the
convexity radius, and the m=2 bracket around the univalence radius from the
extracted Rayleigh sums.

    python scripts/sweep_radii.py
    python scripts/sweep_radii.py --L 0,0.5,1 --eta=-2,-1 --csv out.csv
"""

import argparse
import csv
import sys

from coulomb_radii import CoulombParams
from coulomb_radii.radii import RadiusQuery, radius
from coulomb_radii.rayleigh import euler_rayleigh_bounds


def float_list(text):
    return [float(p) for p in text.split(",") if p.strip()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=float_list, default=[-0.4, 0.0, 0.5, 1.0, 2.5])
    ap.add_argument("--eta", type=float_list, default=[-2.0, -1.0, -0.25, 0.0])
    ap.add_argument("--csv", type=str, default=None, help="also write rows to this file")
    args = ap.parse_args(argv)

    header = ["L", "eta", "kind", "r_univalence", "r_convexity",
              "lower_m2", "upper_m2"]
    rows = []
    for L in args.L:
        for eta in args.eta:
            params = CoulombParams(L, eta)
            for kind in ("f", "g"):
                runiv = radius(RadiusQuery(params, kind, "univalent")).value
                rconv = radius(RadiusQuery(params, kind, "convex", 0.0)).value
                lower, upper = euler_rayleigh_bounds(params, kind, 2)
                rows.append([L, eta, kind, runiv, rconv, lower, upper])

    widths = [6, 6, 4, 14, 14, 14, 14]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [
            f"{row[0]:g}", f"{row[1]:g}", row[2],
            f"{row[3]:.10f}", f"{row[4]:.10f}", f"{row[5]:.10f}",
            "undefined" if row[6] is None else f"{row[6]:.10f}",
        ]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
