"""One workload in one fresh process; prints one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes:
  probe  import the package and run the warm-up operations, report set-up time
  run    set up, then a closed loop (one caller, each operation sent after
         the previous one returns) over the fixed number of blocks that
         workloads.run_blocks gives for S seconds; per-operation latency,
         outputs and errors
  trace  a fixed number of blocks, each operation once untraced and once
         traced, plus the layer unit rows; per-layer metrics and outputs

Every mode also times the speed.py kernel (around each operation in a run,
after set-up in a probe), so run.py can scale times to the reference speed.

Set-up time runs from the first line of this file to the end of the warm-up,
so it covers the import of numpy and coulomb_radii.  run.py checks
outputs against the oracle; this process never imports it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402,F401
import coulomb_radii  # noqa: E402
import coulomb_radii.cli as cli  # noqa: E402
import coulomb_radii.radii as radii  # noqa: E402
import coulomb_radii.rayleigh as rayleigh  # noqa: E402
import coulomb_radii.series as series  # noqa: E402
import coulomb_radii.zeros as zeros  # noqa: E402
from coulomb_radii.params import CoulombParams  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

WARMUP_OPS = 3
TRACE_BLOCKS = {"radius-table": 2, "zero-scan": 1, "cli-requests": 3}
UNIT_PARAMS = (0.5, -1.0)


# --- executors: the package is called through module attributes looked up at
# call time, so the tracer can wrap those bindings after import


def run_radius(op: dict) -> dict:
    params = CoulombParams(op["L"], op["eta"])
    query = radii.RadiusQuery(params, op["kind"], op["property"], op["beta"])
    res = radii.radius(query, form=op["form"])
    lower, upper = rayleigh.euler_rayleigh_bounds(params, op["kind"], op["m"])
    return {"value": res.value, "bracket": list(res.bracket),
            "iterations": res.iterations, "lower": lower, "upper": upper}


def run_zeros(op: dict) -> dict:
    zs = zeros.find_zeros(CoulombParams(op["L"], op["eta"]), op["target"],
                          op["count_pos"], op["count_neg"])
    return {"positive": list(zs.positive), "negative": list(zs.negative),
            "truncated": zs.truncated}


def run_cli(op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse usage errors exit through here
            code = exc.code if isinstance(exc.code, int) else 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


EXECUTORS = {"radius-table": run_radius, "zero-scan": run_zeros, "cli-requests": run_cli}


def _execute(workload: str, op: dict) -> tuple[float, dict | None, str | None]:
    execute = EXECUTORS[workload]
    t0 = time.perf_counter()
    try:
        out, err = execute(op), None
    except Exception as exc:  # every package failure is one failed operation
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def _setup(workload: str) -> float:
    for op in _take(workloads.GENERATORS[workload]("warmup"), WARMUP_OPS):
        _execute(workload, op)
    return time.perf_counter() - T_START


def _take(gen, n: int) -> list[dict]:
    return [next(gen) for _ in range(n)]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(workload: str) -> dict:
    setup_s = _setup(workload)
    return {"setup_s": setup_s, "speed": speed.factor(speed.sample())}


def run(workload: str, seed: int, seconds: float) -> dict:
    setup = probe(workload)
    ops = _take(workloads.GENERATORS[workload](seed),
                workloads.run_blocks(workload, seconds) * workloads.BLOCK[workload])
    records = []
    before = speed.sample()
    t0 = time.perf_counter()
    for op in ops:
        latency, out, err = _execute(workload, op)
        after = speed.sample()
        records.append({"op": op, "latency_s": latency, "speed": speed.factor(before + after),
                        "out": out, "error": err})
        before = after
    wall_s = time.perf_counter() - t0
    return {**setup, "wall_s": wall_s, "rss_peak_mb": _rss_mb(), "records": records}


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def unit_rows() -> dict[str, float]:
    """Layer and query timings from outside, at (L, eta) = (0.5, -1)."""
    params = CoulombParams(*UNIT_PARAMS)
    table = series.coefficients(params, 256)
    rows = {"series.coef256_ms": _median_ms(lambda: series.coefficients(params, 256), 41)}
    for z in (0.5, 10.0, 50.0):
        rows[f"series.eval_z{z:g}_ms"] = _median_ms(lambda: series.eval_series(table, z), 41)
    query = radii.RadiusQuery(params, "g", "starlike", 0.5)
    rows["radii.one_query_ms"] = _median_ms(lambda: radii.radius(query), 7)
    return rows


def trace(workload: str, seed: int) -> dict:
    from tracer import Tracer, layer_metrics  # here, so set-up time is the package's alone

    _setup(workload)
    ops = _take(workloads.GENERATORS[workload](seed),
                TRACE_BLOCKS[workload] * workloads.BLOCK[workload])
    speed_times = speed.sample()
    metrics = unit_rows()
    speed_times += speed.sample()

    tracer = Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        # alternate which pass goes first, so drift in machine speed hits both alike
        for with_trace in ((False, True) if i % 2 else (True, False)):
            tracer.op = i
            if with_trace:
                tracer.install()
            try:
                (traced if with_trace else plain).append(_execute(workload, op))
            finally:
                tracer.uninstall()
        speed_times += speed.sample()
    n_spans = len(tracer.spans)
    tracer.op = len(ops)
    tracer.install()
    try:
        radii.radius(radii.RadiusQuery(CoulombParams(*UNIT_PARAMS), "g", "starlike", 0.5))
    finally:
        tracer.uninstall()
    one_query_evals = sum(1 for s in tracer.spans[n_spans:] if s[0] == "eval_series")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))

    del tracer.spans[n_spans:]
    metrics.update(layer_metrics(tracer, len(ops)))
    if "series.eval_series" not in tracer.absent:
        metrics["radii.one_query_evals"] = one_query_evals
    out_bytes = sum(len(out["stdout"].encode()) for _, out, _ in traced if out and "stdout" in out)
    metrics["cli.out_bytes_per_op"] = out_bytes / len(ops)
    metrics["trace.overhead_frac"] = sum(t[0] for t in traced) / sum(t[0] for t in plain) - 1.0
    # times in ms at the reference speed, as in the end-to-end metrics
    scale = speed.factor(speed_times)
    for key in metrics:
        if "ms" in re.split(r"[._]", key):
            metrics[key] *= scale
    records = [{"op": op, "latency_s": lat, "out": out, "error": err}
               for op, (lat, out, err) in zip(ops, traced)]
    same = all((a[1], a[2]) == (b[1], b[2]) for a, b in zip(plain, traced))
    return {"metrics": metrics, "absent": tracer.absent, "records": records,
            "traced_matches_plain": same}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    args = ap.parse_args()
    if not os.path.abspath(coulomb_radii.__file__).startswith(SRC + os.sep):
        print(f"coulomb_radii imported from outside {SRC}", file=sys.stderr)
        return 3
    if args.mode == "probe":
        result = probe(args.workload)
    elif args.mode == "run":
        result = run(args.workload, args.seed, args.seconds)
    else:
        result = trace(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
