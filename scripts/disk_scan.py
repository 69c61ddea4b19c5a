#!/usr/bin/env python3
"""Scan the complex parameter plane for the starlike region inequality and
spot-check it against the unit-disk grid minimum of Re(z g'/g).

    python scripts/disk_scan.py
    python scripts/disk_scan.py --re-l 0.5,6 --im-l 0,2 --eta 0.5 --steps 6
"""

import argparse

from coulomb_radii.subordination import disk_min_real, region_check


def span(text):
    lo, hi = (float(p) for p in text.split(","))
    return lo, hi


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--re-l", type=span, default=(0.5, 6.0))
    ap.add_argument("--im-l", type=span, default=(0.0, 2.0))
    ap.add_argument("--eta", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--grid-n", type=int, default=32)
    args = ap.parse_args(argv)

    print(f"{'L':>12}  {'eta':>6}  {'starlike_ok':>11}  {'min Re zg`/g':>13}")
    for i in range(args.steps):
        re_l = args.re_l[0] + (args.re_l[1] - args.re_l[0]) * i / max(1, args.steps - 1)
        for j in range(args.steps):
            im_l = args.im_l[0] + (args.im_l[1] - args.im_l[0]) * j / max(1, args.steps - 1)
            L = complex(re_l, im_l)
            rep = region_check(L, args.eta)
            scanned = disk_min_real(L, args.eta, "zgpg", args.grid_n, 0.99).min_real
            marker = ""
            if rep.starlike_ok and scanned <= 0.0:
                marker = "  <-- predicate holds but scan is nonpositive"
            print(f"{re_l:5.2f}+{im_l:4.2f}i  {args.eta:6.2f}  "
                  f"{str(rep.starlike_ok):>11}  {scanned:13.6f}{marker}")


if __name__ == "__main__":
    main()
