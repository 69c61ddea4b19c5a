"""Command-line surface: eval, zeros, radius, bounds, region, verify.

Reports go to stdout (JSON with sorted keys and no timestamps, CSV with the
fixed headers documented in the README, or a plain table); diagnostics go to
stderr.  Exit codes: 0 success, 2 usage error, 3 parameter-region violation
without --unsafe, 4 numerical failure, 1 failed verify criteria.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import json
import math
import re
import sys
from typing import Iterator, NamedTuple

from .equations import conv_ratio, g_prime, g_value, noise_limited, star_ratio
from .errors import CoulombDomainError, CoulombError
from .params import CoulombParams
from .radii import RadiusQuery, domain_cap, radius
from .rayleigh import bracket_sums
from .series import counting, eval_point
from .zeros import ZeroTarget, find_zeros


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"non-finite value in numeric list {text!r}")
    return values


def _parse_complex(text: str) -> complex:
    """Accept '1+1i', '2', '-0.5i', '4+i' (i or j notation)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    cleaned = re.sub(r"(?<![\d.])j", "1j", cleaned)
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex scalar {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite complex scalar {text!r}")
    return value


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later one.

    parse_args returns a fresh Namespace each time and main writes only to
    that Namespace, so one parser serves any number of main calls; help text
    takes its width when it is formatted, not here.
    """
    parser = argparse.ArgumentParser(
        prog="coulomb-radii",
        description="Radii of starlikeness/convexity of normalized regular "
        "Coulomb wave functions, their zeros, and Rayleigh-sum bounds.",
    )
    # region and verify take no --unsafe; the config: line reads False for them
    parser.set_defaults(unsafe=False)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "csv", "table"), default="json")
    common.add_argument("--verbose", action="store_true",
                        help="runtime metadata on stderr")
    # the (L, eta) grid commands
    grid = argparse.ArgumentParser(add_help=False, parents=[common])
    grid.add_argument("--L", type=_float_list, required=True)
    grid.add_argument("--eta", type=_float_list, required=True)
    grid.add_argument("--unsafe", action="store_true",
                      help="allow parameters outside L > -1, eta <= 0 (no certificate)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[grid],
                            help="series values or log-derivative ratios at points")
    p_eval.add_argument("--z", type=_float_list, required=True)
    p_eval.add_argument("--quantity", choices=("series", "star", "conv"), default="series")
    p_eval.add_argument("--kind", choices=("f", "g"), default="g")

    p_zeros = sub.add_parser("zeros", parents=[grid], help="real zeros of F, F' or g'")
    p_zeros.add_argument("--target", choices=[t.value for t in ZeroTarget], default="F")
    p_zeros.add_argument("--count-pos", type=int, default=5)
    p_zeros.add_argument("--count-neg", type=int, default=0)

    p_rad = sub.add_parser("radius", parents=[grid],
                           help="radius of starlikeness/convexity/univalence")
    p_rad.add_argument("--kind", choices=("f", "g"), required=True)
    p_rad.add_argument("--property", choices=("starlike", "convex", "univalent"),
                       required=True)
    p_rad.add_argument("--beta", type=_float_list, default=[0.0])
    p_rad.add_argument("--form", choices=("ratio", "direct"), default="ratio")

    p_bounds = sub.add_parser("bounds", parents=[grid],
                              help="Euler-Rayleigh bounds for the univalence radius")
    p_bounds.add_argument("--kind", choices=("f", "g"), required=True)
    p_bounds.add_argument("--m", type=int, default=2)
    p_bounds.add_argument("--method", choices=("extracted", "closed_form", "both"),
                          default="extracted")

    p_region = sub.add_parser("region", parents=[common],
                              help="complex parameter-region checks (and optional disk scan)")
    p_region.add_argument("--L", type=_parse_complex, required=True)
    p_region.add_argument("--eta", type=_parse_complex, required=True)
    p_region.add_argument("--disk", choices=("g", "zgpg"), default=None,
                          help="also run the unit-disk minimum scan")
    # the disk-scan knobs default to None so that main can refuse them without --disk
    p_region.add_argument("--grid-n", type=int, default=None,
                          help="disk scan grid size (default 64; needs --disk)")
    p_region.add_argument("--radius-cap", type=float, default=None,
                          help="disk scan radius (default 0.99; needs --disk)")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the acceptance matrix and print pass/fail lines")
    p_verify.add_argument("--criteria", type=str, default=None,
                          help="comma-separated criterion numbers (default all)")
    return parser


# the CSV header of each command, which the table output prints too
_HEADERS = {
    "eval": ["command", "L", "eta", "z", "quantity", "kind", "value", "p0", "p1", "p2",
             "truncation_terms", "tail_estimate", "warnings"],
    "zeros": ["command", "L", "eta", "target", "side", "index", "zero", "warnings"],
    "radius": ["command", "L", "eta", "beta", "kind", "property", "form", "value",
               "bracket_lo", "bracket_hi", "residual", "domain_cap", "iterations",
               "warnings"],
    "bounds": ["command", "L", "eta", "kind", "m", "method", "lower", "upper", "warnings"],
    "region": ["command", "re_L", "im_L", "re_eta", "im_eta", "re_positive_ok",
               "starlike_ok", "margin_re_part", "margin_im_part", "margin_disk_gap",
               "margin_starlike_gap", "disk_quantity", "disk_min_real", "warnings"],
    "verify": ["command", "criterion", "name", "passed", "flagged", "details"],
}


class _Point(NamedTuple):
    """One point of a report: its JSON params, result and warnings, and its
    CSV rows."""

    params: dict
    result: dict
    warnings: list[str]
    csv: list[list]


def _grid(args) -> Iterator[tuple[float, float, CoulombParams, list[str]]]:
    """(L, eta, params, warnings) over the --L x --eta grid, in input order."""
    for L in args.L:
        for eta in args.eta:
            params = CoulombParams(L, eta, unsafe=args.unsafe)
            yield L, eta, params, [] if params.in_certified_region else ["no-certificate"]


# --- command handlers: each yields the _Point records of its report ----------


def _run_eval(args) -> Iterator[_Point]:
    for L, eta, params, warn in _grid(args):
        for z in args.z:
            row_warn = warn
            if args.quantity == "series":
                sv = eval_point(params, z)
                result = {"p0": sv.p0, "p1": sv.p1, "p2": sv.p2,
                          "g": g_value(z, sv), "g_prime": g_prime(z, sv),
                          "truncation_terms": sv.truncation_terms,
                          "tail_estimate": sv.tail_estimate}
                value = sv.p0
                extra = [sv.p0, sv.p1, sv.p2, sv.truncation_terms, sv.tail_estimate]
                if noise_limited(sv.p0, sv.noise[0]):
                    # the zero scan's own cut-off: p0 may be all cancellation noise
                    row_warn = warn + ["noise-limited"]
            else:
                ratio = star_ratio if args.quantity == "star" else conv_ratio
                value = ratio(params, args.kind, z)
                result = {"value": value}
                extra = ["", "", "", "", ""]
            yield _Point({"L": L, "eta": eta, "z": z}, result, row_warn,
                         [["eval", L, eta, z, args.quantity, args.kind, value, *extra,
                           ";".join(row_warn)]])


def _run_zeros(args) -> Iterator[_Point]:
    for L, eta, params, warn in _grid(args):
        zs = find_zeros(params, args.target, args.count_pos, args.count_neg)
        if zs.truncated:
            warn = warn + ["truncated"]
        rows = [["zeros", L, eta, args.target, side, i + 1, x, ";".join(warn)]
                for side, xs in (("positive", zs.positive), ("negative", zs.negative))
                for i, x in enumerate(xs)]
        yield _Point({"L": L, "eta": eta, "target": args.target},
                     {"positive": list(zs.positive), "negative": list(zs.negative),
                      "refine_tol": zs.refine_tol, "truncated": zs.truncated},
                     warn, rows)


def _run_radius(args) -> Iterator[_Point]:
    for L, eta, params, _ in _grid(args):
        # every beta is checked before the first radius is solved
        queries = [RadiusQuery(params, args.kind, args.property, beta) for beta in args.beta]
        results = [radius(query, form=args.form) for query in queries]
        # the betas of a grid point share one cap: kind and property fix its target
        cap = domain_cap(queries[0])
        cap_flags = ["domain-cap-beyond-range"] if cap is None else []
        for query, res in zip(queries, results):
            flags = [*res.flags, *cap_flags]
            warn = sorted(f for f in flags
                          if f in ("no-certificate", "domain-cap-beyond-range"))
            yield _Point(
                {"L": L, "eta": eta, "beta": query.beta},
                {"value": res.value, "bracket": list(res.bracket), "residual": res.residual,
                 "domain_cap": cap, "iterations": res.iterations,
                 "method_flags": [args.form, *flags]},
                warn,
                [["radius", L, eta, query.beta, args.kind, args.property, args.form,
                  res.value, *res.bracket, res.residual, cap, res.iterations,
                  ";".join(warn)]])


def _run_bounds(args) -> Iterator[_Point]:
    methods = ["extracted", "closed_form"] if args.method == "both" else [args.method]
    for L, eta, params, warn in _grid(args):
        record = bracket_sums(params, args.kind, args.m)
        result = {"m": args.m, "bounds": {}}
        rows = []
        for method in methods:
            lower, upper = record.bracket(args.m, method)
            result["bounds"][method] = {"lower": lower, "upper": upper}
            if method == "closed_form":
                warn = warn + list(record.discrepancies.values())
            rows.append(["bounds", L, eta, args.kind, args.m, method, lower,
                         "" if upper is None else upper, ";".join(warn)])
        yield _Point({"L": L, "eta": eta}, result, warn, rows)


def _run_region(args) -> Iterator[_Point]:
    # numpy loads with subordination, so only the commands that need it pay for it
    from .subordination import disk_min_real, region_check

    rep = region_check(args.L, args.eta)
    result = {"re_positive_ok": rep.re_positive_ok, "starlike_ok": rep.starlike_ok,
              "margins": dict(rep.margins)}
    disk_val, warnings = "", []
    if args.disk is not None:
        scan = disk_min_real(args.L, args.eta, args.disk, args.grid_n, args.radius_cap)
        disk_val, warnings = scan.min_real, scan.warnings
        result["disk"] = {"quantity": args.disk, "grid_n": args.grid_n,
                          "radius_cap": args.radius_cap, "min_real": disk_val}
    margins = [rep.margins[k] for k in ("re_part", "im_part", "disk_gap", "starlike_gap")]
    yield _Point({"L": _complex_json(args.L), "eta": _complex_json(args.eta)}, result,
                 warnings,
                 [["region", args.L.real, args.L.imag, args.eta.real, args.eta.imag,
                   rep.re_positive_ok, rep.starlike_ok, *margins, args.disk or "",
                   disk_val, ";".join(warnings)]])


def _run_verify(args) -> Iterator[_Point]:
    from .verify import run_all  # imports subordination, and with it numpy

    picks = None
    if args.criteria is not None:
        try:
            picks = [int(part) for part in args.criteria.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"bad criteria list {args.criteria!r}") from None
        if not picks:
            raise ValueError(f"criteria list {args.criteria!r} names no criterion")
    for res in run_all(picks):
        yield _Point({"criterion": res.number},
                     {"name": res.name, "passed": res.passed, "flagged": list(res.flagged),
                      "details": res.details},
                     list(res.flagged),
                     [["verify", res.number, res.name, res.passed, "|".join(res.flagged),
                       res.details]])


_COMMANDS = {"eval": _run_eval, "zeros": _run_zeros, "radius": _run_radius,
             "bounds": _run_bounds, "region": _run_region, "verify": _run_verify}


# --- rendering ----------------------------------------------------------------


def _emit_json(command: str, points: list[_Point], stream) -> None:
    records = [{"params": p.params, "result": p.result, "warnings": p.warnings}
               for p in points]
    payload = ({"command": command, **records[0]} if len(records) == 1
               else {"command": command, "results": records})
    stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    stream.write("\n")


def _emit_csv(header: list[str], points: list[_Point], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for p in points:
        writer.writerows(p.csv)


def _emit_table(header: list[str], points: list[_Point], stream) -> None:
    rows = [header] + [
        [("" if cell is None else f"{cell:.12g}" if isinstance(cell, float) else str(cell))
         for cell in row]
        for p in points
        for row in p.csv
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        stream.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        stream.write("\n")


def validate_report(obj: dict) -> None:
    """Structural check of the published JSON schema; raises ValueError."""
    if not isinstance(obj, dict) or "command" not in obj:
        raise ValueError("report must be an object with a 'command' field")
    def check_point(point):
        for key in ("params", "result", "warnings"):
            if key not in point:
                raise ValueError(f"report point missing {key!r}")
        if not isinstance(point["warnings"], list):
            raise ValueError("warnings must be a list")
        if not isinstance(point["params"], dict) or not isinstance(point["result"], dict):
            raise ValueError("params and result must be objects")
        if obj["command"] == "radius":
            if "domain_cap" not in point["result"]:
                raise ValueError("radius result missing 'domain_cap'")
            cap = point["result"]["domain_cap"]
            if cap is not None and not isinstance(cap, (int, float)):
                raise ValueError("domain_cap must be a number or null")
            if (cap is None) != ("domain-cap-beyond-range" in point["warnings"]):
                raise ValueError("domain_cap is null exactly when the warnings "
                                 "hold 'domain-cap-beyond-range'")
    if "results" in obj:
        if not isinstance(obj["results"], list) or not obj["results"]:
            raise ValueError("results must be a non-empty list")
        for point in obj["results"]:
            check_point(point)
    else:
        check_point(obj)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        print(f"config: output={args.output} unsafe={args.unsafe}", file=sys.stderr)
    for name in ("L", "eta", "z", "beta"):
        if getattr(args, name, None) == []:
            parser.error(f"--{name} list must be non-empty")
    if args.command == "region":
        if args.disk is None and (args.grid_n is not None or args.radius_cap is not None):
            parser.error("--grid-n and --radius-cap apply only to the --disk scan")
        args.grid_n = 64 if args.grid_n is None else args.grid_n
        args.radius_cap = 0.99 if args.radius_cap is None else args.radius_cap

    try:
        with counting() if args.verbose else contextlib.nullcontext() as counts:
            points = list(_COMMANDS[args.command](args))
    except CoulombDomainError as exc:
        print(f"parameter-region violation: {exc}", file=sys.stderr)
        return 3
    except (CoulombError, OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # the library rejects an argument value the parser let through
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.verbose:
            print(f"sums: {json.dumps(counts.totals(), sort_keys=True)}", file=sys.stderr)

    if args.output == "json":
        _emit_json(args.command, points, sys.stdout)
    elif args.output == "csv":
        _emit_csv(_HEADERS[args.command], points, sys.stdout)
    else:
        _emit_table(_HEADERS[args.command], points, sys.stdout)

    if args.command != "verify":
        return 0
    for p in points:
        note = " [flagged: expected discrepancy]" if p.result["flagged"] else ""
        print(f"{'PASS' if p.result['passed'] else 'FAIL'} criterion "
              f"{p.params['criterion']:2d} {p.result['name']}{note}", file=sys.stderr)
    return 0 if all(p.result["passed"] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
