#!/usr/bin/env python3
"""Layer and query costs of the series core, printed as one JSON object.

The rows of the ROADMAP measurements, at (L, eta) = (0.5, -1) unless named:

    coef256             building a 256-term coefficient table, in exact arithmetic
    eval_z0.5           one eval_series on that table at z = 0.5 (also z = 10, 50)
    radius              one radius: g, starlike, beta = 0.5
    radius_convex_g     one radius: g, convex, beta = 0.5
    find_zeros          find_zeros(F, 10, 10)
    find_zeros_F_prime  find_zeros(F_prime, 10, 10)
    find_zeros_g_prime  find_zeros(g_prime, 10, 10)
    find_zeros_neg      find_zeros(F, 0, 3) at (2, -20), whose negative axis
                        starts with the zero-free stretch the scan skips
    cli_eval            one in-process cli.main eval of the starlike ratio
                        at 16 points z = 0.25 .. 4, stdout captured
    cli_eval_warm       the same request again, its points in eval_point's memo
    disk_g64            one unit-disk scan of Re g(z)/z at (4+1i, 0.5), grid 64:
                        256 angles on |z| = 0.99
    disk_zgpg64         the same scan of Re z g'(z)/g(z), with its zero count

Each row holds the median wall time in ms over --repeat calls and, where the
row evaluates the series, the series.counting() record of one call (fields
as series.SumCounts documents them, evals for the number of points): direct
sums from the origin and local ones about a scan step (series.eval_near),
and each query row's refine_steps, the zero refines and the radius solve,
so evals - refine_steps are the scan steps and the few single evaluations
around them.
Only series.eval_point keeps values between calls, in its memo.  Every row
but cli_eval_warm empties the memo before each call, timed or counted, so it
is a cold request; the query rows never reach the memo, so for them a cold
request is also a repeated one.  cli_eval_warm fills the memo with one
request first, and its counts are those of the repeated request: no sums.
The disk rows sum in numpy, not through the series module, so they hold
only their time.
The counts are deterministic; the times depend on the machine.

    PYTHONPATH=src python scripts/bench.py
    PYTHONPATH=src python scripts/bench.py --repeat 5
"""

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import time

from coulomb_radii import CoulombParams, cli, series
from coulomb_radii.radii import RadiusQuery, radius
from coulomb_radii.subordination import disk_min_real
from coulomb_radii.zeros import ZeroTarget, find_zeros

PARAMS = CoulombParams(0.5, -1.0)
CLI_EVAL = ["eval", "--L=0.5", "--eta=-1",
            "--z=" + ",".join(f"{0.25 * j:g}" for j in range(1, 17)), "--quantity", "star"]


def median_ms(fn, repeat, cold=True):
    times = []
    for _ in range(repeat):
        if cold:
            series.eval_point.cache_clear()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def counts(fn, cold=True):
    """The series.counting() record of one call, from an empty eval_point
    memo unless not cold."""
    if cold:
        series.eval_point.cache_clear()
    with series.counting() as record:
        fn()
    return record.totals()


def rows(repeat):
    table = series.coefficients(PARAMS, 256)
    out = {"coef256": {"ms": median_ms(lambda: series.coefficients(PARAMS, 256), repeat)}}
    for z in (0.5, 10.0, 50.0):
        out[f"eval_z{z:g}"] = {
            "ms": median_ms(lambda: series.eval_series(table, z), repeat),
            "evals": 1,
            "terms": series.eval_series(table, z).truncation_terms,
        }
    queries = {
        "radius": lambda: radius(RadiusQuery(PARAMS, "g", "starlike", 0.5)),
        "radius_convex_g": lambda: radius(RadiusQuery(PARAMS, "g", "convex", 0.5)),
        "find_zeros": lambda: find_zeros(PARAMS, ZeroTarget.F, 10, 10),
        "find_zeros_F_prime": lambda: find_zeros(PARAMS, ZeroTarget.F_PRIME, 10, 10),
        "find_zeros_g_prime": lambda: find_zeros(PARAMS, ZeroTarget.G_PRIME, 10, 10),
        "find_zeros_neg": lambda: find_zeros(CoulombParams(2.0, -20.0), ZeroTarget.F, 0, 3),
    }
    for name, fn in queries.items():
        out[name] = {"ms": median_ms(fn, repeat), **counts(fn)}
    for name, cold in (("cli_eval", True), ("cli_eval_warm", False)):
        # the cold calls leave the memo full for the warm ones
        tally = counts(cli_eval, cold)
        del tally["refine_steps"]
        out[name] = {"ms": median_ms(cli_eval, repeat, cold), **tally}
    for quantity in ("g", "zgpg"):
        out[f"disk_{quantity}64"] = {
            "ms": median_ms(lambda: disk_min_real(4 + 1j, 0.5, quantity, 64), repeat),
        }
    return out


def cli_eval():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(CLI_EVAL)
    if code != 0:
        raise RuntimeError(f"cli.main({CLI_EVAL}) exited {code}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=21, help="calls per timed row (median)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    report = {
        "params": {"L": PARAMS.L, "eta": PARAMS.eta},
        "python": platform.python_version(),
        "repeat": args.repeat,
        "rows": rows(args.repeat),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
