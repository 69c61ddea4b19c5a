#!/usr/bin/env python3
"""Benchmark entry point for coulomb-radii: one workload per invocation.

    python3 perfbench/run.py --workload radius-table --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Each workload runs in a fresh worker process with
numpy/BLAS pinned to one thread; nine set-up probes (fresh processes that
import and warm up, nothing else) run first, and ``setup_s`` is the median of
their set-up times and the worker's own.  After the timed loop every output
is checked against the oracle in ``oracle.py``.  An operation fails when the
package raises, the CLI exits non-zero, or its check fails.  A run is a fixed
number of operations for its (workload, seed, seconds), about ``--seconds`` of
work on the seed, and every time is reported at the reference speed of
``speed.py``, which takes out the drift of a shared host.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
operation list untraced and traced and reports the per-layer metrics.  The
last line of stdout is one JSON object with ``correct`` (the oracle checked
every operation, and tracing left every output unchanged), ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, is_large_eta, param_key  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0  # a workload's run ends well inside 180 s
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "rss_peak_mb": "MB"}
PER_LAYER_UNITS = {
    "series.tables_per_op": "count", "series.coef_terms_per_op": "count",
    "series.coef_self_ms_per_op": "ms", "series.regrows_per_op": "count",
    "series.evals_per_op": "count", "series.terms_per_op": "count",
    "series.eval_self_ms_per_op": "ms", "series.ms_per_eval": "ms",
    "zeros.scan_evals_per_op": "count", "zeros.refine_iters_per_op": "count",
    "zeros.self_ms_per_op": "ms", "zeros.zeros_per_scan_eval": "ratio",
    "radii.evals_per_query": "count", "radii.cap_eval_frac": "ratio",
    "radii.bisect_iters_per_query": "count", "radii.self_ms_per_op": "ms",
    "rayleigh.calls_per_op": "count", "rayleigh.ms_per_op": "ms",
    "subordination.disk_points_per_op": "count", "subordination.ms_per_op": "ms",
    "cli.self_ms_per_op": "ms", "cli.out_bytes_per_op": "bytes",
    "trace.overhead_frac": "ratio",
    "series.coef256_ms": "ms", "series.eval_z0.5_ms": "ms", "series.eval_z10_ms": "ms",
    "series.eval_z50_ms": "ms", "radii.one_query_ms": "ms", "radii.one_query_evals": "count",
}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("COULOMB_RADII_NMAX", None)  # the package default, not the caller's
    env.pop("PYTHONPATH", None)
    return env


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} passed the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_records(workload: str, records: list[dict]) -> tuple[list[str | None], int]:
    """Per record, None or why it failed; and how many the oracle could not check."""
    from oracle import Oracle, check

    oracle = Oracle()
    problems, unchecked = [], 0
    for rec in records:
        try:
            problems.append(check(workload, oracle, rec))
        except Exception:  # an oracle fault: the operation counts as failed, the run as unverified
            traceback.print_exc()
            problems.append("unchecked: the oracle raised")
            unchecked += 1
    return problems, unchecked


def _summary(records: list[dict], problems: list[str | None]) -> list[str]:
    seen, repeats, reasons = set(), 0, {}
    for rec, problem in zip(records, problems):
        key = param_key(rec["op"])
        repeats += key in seen
        seen.add(key)
        if problem:
            reasons.setdefault(re.sub(r"-?\d[\d.e+-]*", "#", problem)[:48], []).append(problem)
    n = len(records)
    lines = [f"# operations {n}, failed {sum(p is not None for p in problems)}, "
             f"repeat_params_frac {repeats / n:.3f}, "
             f"large_eta_frac {sum(is_large_eta(r['op']) for r in records) / n:.3f}"]
    for _, items in sorted(reasons.items()):
        lines.append(f"# failed x{len(items)}: {items[0][:200]}")
    return lines


def run_end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[str]]:
    probes = [_worker(workload, seed, seconds, "probe", deadline) for _ in range(SETUP_PROBES)]
    result = _worker(workload, seed, seconds, "run", deadline)
    probes.append(result)
    records = result["records"]
    t0 = time.monotonic()
    problems, unchecked = _check_records(workload, records)
    print(f"# oracle check {time.monotonic() - t0:.1f} s", file=sys.stderr)
    # every time at the reference speed of speed.py
    latencies_ms = [r["latency_s"] * r["speed"] * 1e3 for r in records]
    ok = sum(p is None for p in problems)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in probes),
        "ops_per_s": ok / (sum(latencies_ms) / 1e3),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "rss_peak_mb": result["rss_peak_mb"],
    }
    out = {"correct": unchecked == 0,
           "attempted": len(records),
           "failed": len(records) - ok,
           "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}
    raw_ms = [r["latency_s"] * 1e3 for r in records]
    lines = [f"# as measured: {result['wall_s']:.1f} s wall, op p50 {statistics.median(raw_ms):.3g} ms, "
             f"set-up {statistics.median(p['setup_s'] for p in probes):.3g} s; "
             f"speed factor median {statistics.median(r['speed'] for r in records):.3f}"]
    return out, _summary(records, problems) + lines


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[str]]:
    result = _worker(workload, seed, seconds, "trace", deadline)
    records = result["records"]
    problems, unchecked = _check_records(workload, records)
    metrics = result["metrics"]
    out = {"correct": unchecked == 0 and result["traced_matches_plain"],
           "attempted": len(records),
           "failed": sum(p is not None for p in problems),
           "metrics": {k: {"value": metrics[k], "unit": unit}
                       for k, unit in PER_LAYER_UNITS.items() if k in metrics}}
    lines = _summary(records, problems)
    if result["absent"]:
        lines.append(f"# absent bindings (metrics built on them left out): {result['absent']}")
    return out, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coulomb_radii", "__init__.py")):
        print(f"no coulomb_radii sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_end_to_end
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            out, lines = runner(name, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(f"## workload {name}, seed {args.seed}, trace {args.trace}")
        for key, metric in out["metrics"].items():
            print(f"{name:14s} {key:34s} {metric['value']:14.6g} {metric['unit']}")
        for line in lines:
            print(line)
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
