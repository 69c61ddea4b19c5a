#!/usr/bin/env python3
"""Layer and query costs of the series core, printed as one JSON object.

The rows of the ROADMAP measurements, at (L, eta) = (0.5, -1) unless named:

    coef256             building a 256-term coefficient table, in exact arithmetic
    eval_z0.5           one eval_series on that table at z = 0.5 (also z = 10, 50)
    table_build         one series.Evaluator's table of the origin's coefficients,
                        grown to all 32 rows (asked for a point between the
                        reach of its 32 rows and the farthest any could reach)
    table_z0.5          one point of that table at z = 0.5
    value_build         building one series.SeriesValue positionally, as a
                        table point or a sum does: us (and ms) per value, the
                        median over --repeat batches of VALUE_BATCH
    base_build          one point a scan step (1.53) past the sum at z = 40,
                        read from a fresh table at that sum (series.jet)
    base_point          the same point from an evaluator's table at that sum,
                        already grown for it
    radius              one radius: g, starlike, beta = 0.5
    radius_convex_g     one radius: g, convex, beta = 0.5
    domain_cap          the domain cap of the g-starlike radius, the first
                        positive zero of F (radii.domain_cap), which the CLI's
                        radius command adds once per (L, eta)
    find_zeros          find_zeros(F, 10, 10)
    find_zeros_F_prime  find_zeros(F_prime, 10, 10)
    find_zeros_g_prime  find_zeros(g_prime, 10, 10)
    find_zeros_neg      find_zeros(F, 0, 3) at (2, -20), whose negative axis
                        starts with the zero-free stretch the scan skips
    cli_eval            one in-process cli.main eval of the starlike ratio
                        at 16 points z = 0.25 .. 4, stdout captured
    cli_eval_warm       the same request again, its points in eval_point's memo
    cli_process         a fresh process: python -m coulomb_radii eval --L 0.5
                        --eta=-1 --z 1, beside bare_ms, a bare python -c pass
    disk_g64            one unit-disk scan of Re g(z)/z at (4+1i, 0.5), grid 64:
                        256 angles on |z| = 0.99
    disk_zgpg64         the same scan of Re z g'(z)/g(z), with its zero count

Each row holds the median wall time in ms over --repeat calls and, where the
row evaluates the series, the series.counting() record of one call (fields
as series.SumCounts documents them, evals for the number of points): sums
from the origin, the points a table refused after reading its rows and
those past its reach, the points (jets, no sums) that a query's
series.Evaluator reads from the table at a sum it keeps on either side of
them, or at the sum it makes two grid steps ahead of a scan step, for the
scan steps and refine points the origin's table refuses and it need not
sum, the rows the tables build, and
each query row's refine_steps, the zero refines and the radius solve, each
step a sum or a point from a table, so evals + jets + table_points -
refine_steps are the scan steps and the few single evaluations around them.
Only series.eval_point keeps values between calls, in its memo, and the cli
rows add its memo_hits and memo_misses.  Every row but cli_eval_warm empties
the memo before each call, timed or counted, so it is a cold request; the
query rows never reach the memo, so for them a cold request is also a
repeated one.  cli_eval_warm fills the memo with one request first, and its
counts are those of the repeated request: 16 hits and no sums.
The disk rows sum in numpy, not through the series module, so they hold
only their time; cli_process runs its two processes in turn, --repeat
times each.
The query rows also hold refine_unresolved, the zero scans' refine points
whose target value lies within its noise floor.
The counts are deterministic; the times depend on the machine.

--seeded SEED prints instead the seeded-count table of ROADMAP.md: the
series.counting() totals of the first 648 radius-table and 180 zero-scan
operations that perfbench/workloads.py generates for SEED, run in this
process by perfbench/worker.py's executors (a radius with its
Euler-Rayleigh bounds, a find_zeros), one markdown row per workload, and
in its outputs column the first 16 hex digits of the sha256 of json.dumps
of the executors' outputs, in order, so that two trees that give the same
doubles print the same row.  It loads perfbench/worker.py, which imports
workloads.py, and changes nothing under perfbench/.

    PYTHONPATH=src python scripts/bench.py
    PYTHONPATH=src python scripts/bench.py --repeat 5
    PYTHONPATH=src python scripts/bench.py --seeded 1
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import coulomb_radii
from coulomb_radii import CoulombParams, cli, series
from coulomb_radii.radii import RadiusQuery, domain_cap, radius
from coulomb_radii.subordination import disk_min_real
from coulomb_radii.zeros import ZeroTarget, find_zeros

PARAMS = CoulombParams(0.5, -1.0)
BASE = 40.0  # the sum of the base_build and base_point rows
CLI_EVAL = ["eval", "--L=0.5", "--eta=-1",
            "--z=" + ",".join(f"{0.25 * j:g}" for j in range(1, 17)), "--quantity", "star"]
CLI_PROCESS = ["-m", "coulomb_radii", "eval", "--L", "0.5", "--eta=-1", "--z", "1"]
VALUE_BATCH = 1000  # SeriesValue builds per timed call of the value_build row
# the operations of each workload in the seeded-count table
SEEDED = {"radius-table": 648, "zero-scan": 180}
SEEDED_COLUMNS = (("sums", "evals"), ("terms", "terms"), ("jets", "jets"),
                  ("table points", "table_points"), ("table rows", "table_rows"),
                  ("refine steps", "refine_steps"), ("refine_unresolved", "refine_unresolved"),
                  ("outputs", "outputs"))


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
    # a point past the reach of the 32 rows but not past the farthest reach
    # any 32 rows of (L, eta) could have grows the table to all of them
    values = series.Evaluator(PARAMS)
    values.table(series.EVAL_Z_MAX)
    past = 0.5 * (values._table.reach[-1] + values._table._far)
    out["table_build"] = {"ms": median_ms(lambda: series.Evaluator(PARAMS).table(past), repeat),
                          "table_rows": counts(lambda: series.Evaluator(PARAMS).table(past))[
                              "table_rows"]}
    values.table(past)
    out["table_z0.5"] = {"ms": median_ms(lambda: values.table(0.5), repeat),
                         "table_points": counts(lambda: values.table(0.5))["table_points"],
                         "terms": values.table(0.5).truncation_terms}
    sv = values.table(0.5)
    fields = (sv.p0, sv.p1, sv.p2, sv.truncation_terms, sv.tail_estimate, sv.noise)
    build = series.SeriesValue
    ms = median_ms(lambda: [build(*fields) for _ in range(VALUE_BATCH)], repeat) / VALUE_BATCH
    out["value_build"] = {"ms": ms, "us": 1e3 * ms}
    # the sum at z = 40 and a point one scan step past it (zeros module)
    values.sum(BASE)
    z = BASE + 0.5 * math.pi / math.sqrt(1.0 - 2.0 * PARAMS.eta / BASE)
    values.value(z)  # grows the table at the sum for base_point
    for name, fn in (("base_build", lambda: series.jet(values.sum(BASE), z)),
                     ("base_point", lambda: values.value(z))):
        tally = counts(fn)
        out[name] = {"ms": median_ms(fn, repeat), "jets": tally["jets"],
                     "table_rows": tally["table_rows"], "terms": fn().truncation_terms}
    queries = {
        "radius": lambda: radius(RadiusQuery(PARAMS, "g", "starlike", 0.5)),
        "radius_convex_g": lambda: radius(RadiusQuery(PARAMS, "g", "convex", 0.5)),
        "domain_cap": lambda: domain_cap(RadiusQuery(PARAMS, "g", "starlike", 0.5)),
        "find_zeros": lambda: find_zeros(PARAMS, ZeroTarget.F, 10, 10),
        "find_zeros_F_prime": lambda: find_zeros(PARAMS, ZeroTarget.F_PRIME, 10, 10),
        "find_zeros_g_prime": lambda: find_zeros(PARAMS, ZeroTarget.G_PRIME, 10, 10),
        "find_zeros_neg": lambda: find_zeros(CoulombParams(2.0, -20.0), ZeroTarget.F, 0, 3),
    }
    for name, fn in queries.items():
        tally = counts(fn)
        del tally["memo_hits"], tally["memo_misses"]  # the queries sum past the memo
        out[name] = {"ms": median_ms(fn, repeat), **tally}
    for name, cold in (("cli_eval", True), ("cli_eval_warm", False)):
        # the cold calls leave the memo full for the warm ones
        tally = counts(cli_eval, cold)
        del tally["refine_steps"], tally["refine_unresolved"]
        out[name] = {"ms": median_ms(cli_eval, repeat, cold), **tally}
    for quantity in ("g", "zgpg"):
        out[f"disk_{quantity}64"] = {
            "ms": median_ms(lambda: disk_min_real(4 + 1j, 0.5, quantity, 64), repeat),
        }
    out["cli_process"] = cli_process(repeat)
    return out


def cli_process(repeat):
    """Median wall times in ms of a fresh one-request CLI process and of a
    bare interpreter, run in turn, the package imported from where this
    script imports it."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(coulomb_radii.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    times = {"ms": [], "bare_ms": []}
    for _ in range(repeat):
        for name, args in (("bare_ms", ["-c", "pass"]), ("ms", CLI_PROCESS)):
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(ts) for name, ts in times.items()}


def perfbench_worker():
    """perfbench/worker.py, loaded from the checkout beside this script, with
    the sibling modules it imports by name (workloads, speed)."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_worker", os.path.join(root, "worker.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, root)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(root)
    return module


def seeded(seed, sizes=SEEDED):
    """The series.counting() totals of the first sizes[name] operations of
    each workload name at seed, run in turn in this process, with outputs:
    the first 16 hex digits of the sha256 of json.dumps of the executors'
    outputs, in order."""
    worker = perfbench_worker()
    out = {}
    for name, n in sizes.items():
        ops = list(itertools.islice(worker.workloads.GENERATORS[name](seed), n))
        series.eval_point.cache_clear()
        with series.counting() as record:
            results = [worker.EXECUTORS[name](op) for op in ops]
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]
        out[name] = {**record.totals(), "outputs": digest}
    return out


def seeded_table(seed, sizes=SEEDED):
    """The rows of seeded(seed, sizes) as a markdown table."""
    lines = ["| Seed, workload | " + " | ".join(head for head, _ in SEEDED_COLUMNS) + " |",
             "|---" * (len(SEEDED_COLUMNS) + 1) + "|"]
    for name, totals in seeded(seed, sizes).items():
        lines.append(f"| {seed}, {name} | "
                     + " | ".join(str(totals[key]) for _, key in SEEDED_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def cli_eval():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(CLI_EVAL)
    if code != 0:
        raise RuntimeError(f"cli.main({CLI_EVAL}) exited {code}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=21, help="calls per timed row (median)")
    ap.add_argument("--seeded", type=int, metavar="SEED",
                    help="print the seeded-count table of the perfbench workloads instead")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    if args.seeded is not None:
        sys.stdout.write(seeded_table(args.seeded))
        return 0
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
