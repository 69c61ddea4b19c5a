"""Oracle checks for benchmark outputs, sharing no code with coulomb_radii.

The series factor comes from the confluent hypergeometric function,

    P(z) = e^{-iz} 1F1(L+1-i eta; 2L+2; 2iz)        (mpmath.hyp1f1),

with derivatives from d/dx 1F1(a; b; x) = (a/b) 1F1(a+1; b+1; x).  Taylor
coefficients of P (for Rayleigh sums) come from the Cauchy product of the
Kummer series and e^{-iz}; unit-disk scans use the same two series summed in
numpy.  None of this touches the package's recurrence, double-double sums or
root finders.

Zero and radius checks count oracle sign changes on a grid whose step stays
below a fixed share of the Sturm spacing bound pi/sqrt(Q): on [t, t+h] the
Coulomb equation u'' + q u = 0 has q <= Q(t) = 1 + 2|eta|/t + c/t^2, and two
zeros of F (or of F') closer than pi/sqrt(Q) cannot exist there.  The grid
uses half that spacing for F and F', and a quarter for g' and for the radius
equations, which have no such proof and are held to a margin instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import mpmath
import numpy as np

DPS = 20
ZERO_DELTA = 1e-9  # relative half-width of the sign-change test around a returned root
VALUE_RTOL = 1e-8  # series, ratios and bounds: relative to max(1, |reference|)
GRID_SHARE = {"F": 0.5, "F_prime": 0.5, "g_prime": 0.25, "radius": 0.25}


class Oracle:
    """P, P', P'' at real z via mpmath.hyp1f1, memoized per (L, eta, z)."""

    def __init__(self):
        self._memo: dict[tuple, tuple] = {}

    def derivs(self, L: float, eta: float, z: float, order: int = 2) -> tuple:
        key = (L, eta, z)
        hit = self._memo.get(key)
        if hit is not None and len(hit) > order:
            return hit
        with mpmath.workdps(DPS):
            a = mpmath.mpc(L + 1.0, -eta)
            b = mpmath.mpf(2.0 * L + 2.0)
            x = mpmath.mpc(0, 2.0 * z)
            e = mpmath.exp(mpmath.mpc(0, -z))
            m = [mpmath.hyp1f1(a, b, x)]
            if order >= 1:
                m.append(a / b * mpmath.hyp1f1(a + 1, b + 1, x))
            if order >= 2:
                m.append(a * (a + 1) / (b * (b + 1)) * mpmath.hyp1f1(a + 2, b + 2, x))
            vals = [e * m[0]]
            if order >= 1:
                vals.append(e * (-1j * m[0] + 2j * m[1]))
            if order >= 2:
                vals.append(e * (-m[0] + 4 * m[1] - 4 * m[2]))
            result = tuple(mpmath.re(v) for v in vals)
        self._memo[key] = result
        return result

    def target(self, L: float, eta: float, target: str, z: float):
        if target == "F":
            return self.derivs(L, eta, z, 0)[0]
        p0, p1 = self.derivs(L, eta, z, 1)[:2]
        if target == "F_prime":
            return (L + 1.0) * p0 + z * p1
        return p0 + z * p1

    def radius_equation(self, op: dict, r: float):
        """Radius equation written on P; positive at 0+, first root is the radius."""
        L, beta = op["L"], op["beta"]
        p0, p1, p2 = self.derivs(L, op["eta"], r, 2)
        if op["property"] != "convex":
            fac = (1.0 - beta) * (L + 1.0) if op["kind"] == "f" else 1.0 - beta
            return r * p1 + fac * p0
        if op["kind"] == "g":
            return r * r * p2 + (3.0 - beta) * r * p1 + (1.0 - beta) * p0
        b_val = (L + 1.0) * p0 + r * p1
        d_val = L * (L + 1.0) * p0 + 2.0 * (L + 1.0) * r * p1 + r * r * p2
        return (L + 1.0) * p0 * (d_val + (1.0 - beta) * b_val) - L * b_val * b_val


def sturm_grid(L: float, eta: float, t_end: float, share: float) -> list[float]:
    """Abscissas in (0, t_end], ending at t_end, spaced below share * pi/sqrt(Q)."""
    c = max(0.0, -L * (L + 1.0), -2.0 * L)
    t = 1e-3 * (L + 1.0) / (1.0 + abs(eta))  # no zero of any target below this
    pts = []
    while t < t_end:
        pts.append(t)
        t += share * math.pi / math.sqrt(1.0 + 2.0 * abs(eta) / t + c / (t * t))
    pts.append(t_end)
    return pts


def _sign_changes(values) -> list[int]:
    """Indices i with a sign change between values[i-1] and values[i]; starts at +."""
    out, prev = [], 1
    for i, v in enumerate(values):
        s = 1 if v > 0 else -1
        if s != prev:
            out.append(i)
        prev = s
    return out


def _bisect(fn, lo: float, hi: float) -> float:
    """A root of fn in (lo, hi], where fn(lo) > 0 >= fn(hi) or the reverse."""
    lo_pos = fn(lo) > 0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _close(value, ref, rtol: float = VALUE_RTOL) -> bool:
    return abs(float(value) - float(ref)) <= rtol * max(1.0, abs(float(ref)))


# --- Rayleigh sums from the Kummer series ------------------------------------


def taylor_p(L: float, eta: float, n: int) -> list:
    """a_0..a_n of P as the Cauchy product of e^{-iz} and 1F1(a; b; 2iz)."""
    with mpmath.workdps(40):
        a = mpmath.mpc(L + 1.0, -eta)
        b = mpmath.mpf(2.0 * L + 2.0)
        kummer = [mpmath.rf(a, k) / mpmath.rf(b, k) * (2j) ** k / mpmath.factorial(k)
                  for k in range(n + 1)]
        expo = [(-1j) ** k / mpmath.factorial(k) for k in range(n + 1)]
        return [mpmath.re(mpmath.fsum(kummer[j] * expo[k - j] for j in range(k + 1)))
                for k in range(n + 1)]


def rayleigh_bounds(L: float, eta: float, kind: str, m: int):
    """(lower, upper, S_{m+1}/S_m) for the smallest derivative zero; upper None if S_{m+1} <= 0."""
    with mpmath.workdps(40):
        a = taylor_p(L, eta, m + 2)
        if kind == "f":  # zeros of F': coefficients of F'/(C (L+1) z^L)
            c = [(k + L + 1.0) / (L + 1.0) * a[k] for k in range(m + 3)]
        else:  # zeros of g' = (z P)'
            c = [(k + 1.0) * a[k] for k in range(m + 3)]
        t = []  # log-derivative coefficients: (k+1) c_{k+1} = sum_j c_j t_{k-j}
        for k in range(m + 1):
            t.append((k + 1) * c[k + 1] - mpmath.fsum(c[j] * t[k - j] for j in range(1, k + 1)))
        s_m, s_m1 = -t[m - 1], -t[m]
        lower = s_m ** (-1.0 / m)
        upper = s_m / s_m1 if s_m1 > 0 else None
        return lower, upper, float(s_m1 / s_m)


def _check_bounds(L, eta, kind, m, lower, upper, upper_flagged=False) -> str | None:
    ref_lo, ref_up, rel = rayleigh_bounds(L, eta, kind, m)
    if not _close(lower, ref_lo, 1e-9):
        return f"bounds lower {lower!r} != oracle {float(ref_lo)!r}"
    if upper_flagged or abs(rel) < 1e-12:
        return None  # printed closed form flagged by the program, or S_{m+1} ~ 0
    if (upper is None) != (ref_up is None):
        return f"bounds upper {upper!r} != oracle {ref_up if ref_up is None else float(ref_up)!r}"
    if upper is not None and not _close(upper, ref_up, 1e-9):
        return f"bounds upper {upper!r} != oracle {float(ref_up)!r}"
    return None


# --- unit-disk scan in numpy ---------------------------------------------------


def kummer_p(L: complex, eta: complex, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and P' at |z| < 1 from the Kummer series, for complex L and eta."""
    a = L + 1.0 - 1j * eta
    b = 2.0 * L + 2.0
    x = 2j * z
    m = np.zeros_like(z)
    dm = np.zeros_like(z)
    coef, xk = 1.0 + 0j, np.ones_like(z)
    for k in range(80):  # |x| < 2: the Kummer terms are below 1e-60 by k = 80
        nxt = coef * (a + k) / ((b + k) * (k + 1))
        m += coef * xk
        dm += (k + 1) * nxt * xk
        coef = nxt
        xk = xk * x
    e = np.exp(-1j * z)
    return e * m, e * (-1j * m + 2j * dm)


def disk_min_real(L: complex, eta: complex, quantity: str, grid_n: int, cap: float) -> float:
    """Minimum of Re P ('g') or Re(1 + z P'/P) ('zgpg') on the polar disk grid."""
    radii = cap * np.arange(1, grid_n + 1) / grid_n
    angles = 2.0 * np.pi * np.arange(4 * grid_n) / (4.0 * grid_n)
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    p, dp = kummer_p(L, eta, z)
    if quantity == "g":
        return float(np.min(p.real))
    return float(np.min((1.0 + z * dp / p).real))


def _parse_complex(text: str) -> complex:
    return complex(re.sub(r"(?<![\d.])j", "1j", text.replace("i", "j")))


# --- per-workload checks: None when the output is right, else the reason -----


def check_zeros(oracle: Oracle, op: dict, out: dict) -> str | None:
    L, eta, target = op["L"], op["eta"], op["target"]
    sides = (("positive", 1.0, op["count_pos"]), ("negative", -1.0, op["count_neg"]))
    for side, sign, count in sides:
        roots = [sign * x for x in out[side]]
        if not out["truncated"] and len(roots) != count:
            return f"{side}: {len(roots)} zeros returned, {count} requested"
        if len(roots) > count or any(x <= 0.0 for x in roots) or roots != sorted(set(roots)):
            return f"{side}: zero list is not {count} increasing moduli"
        for x in roots:
            d = ZERO_DELTA * max(1.0, x)
            lo = oracle.target(L, eta, target, sign * (x - d))
            hi = oracle.target(L, eta, target, sign * (x + d))
            if (lo > 0) == (hi > 0):
                return f"{side}: {sign * x!r} is not a sign change of the oracle"
        if roots:
            end = roots[-1] + ZERO_DELTA * max(1.0, roots[-1])
            grid = sturm_grid(L, eta, end, GRID_SHARE[target])
            vals = [oracle.target(L, eta, target, sign * t) for t in grid]
            changes = _sign_changes(vals)
            if len(changes) != len(roots):
                cells = [(grid[i - 1] if i else 0.0, grid[i]) for i in changes]
                missed = [sign * _bisect(lambda t: oracle.target(L, eta, target, sign * t), lo, hi)
                          for lo, hi in cells if not any(lo < x <= hi for x in roots)]
                return (f"{side}: oracle has {len(changes)} zeros up to {sign * roots[-1]:.6g}, "
                        f"{len(roots)} returned; skipped {[round(v, 4) for v in missed]}")
    return None


def check_radius(oracle: Oracle, op: dict, out: dict) -> str | None:
    r = out["value"]
    if not r > 0.0:
        return f"radius {r!r} is not positive"
    d = ZERO_DELTA * max(1.0, r)
    if not oracle.radius_equation(op, r - d) > 0 > oracle.radius_equation(op, r + d):
        return f"radius {r!r} is not a down-crossing of the oracle radius equation"
    grid = sturm_grid(op["L"], op["eta"], r - d, GRID_SHARE["radius"])
    if _sign_changes(oracle.radius_equation(op, t) for t in grid):
        return f"radius {r!r} is not the smallest root of the oracle radius equation"
    return _check_bounds(op["L"], op["eta"], op["kind"], op["m"], out["lower"], out["upper"])


def _rows(text: str, output: str) -> list[dict[str, str]]:
    """Rows of a csv or table report as header -> cell text."""
    if output == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    names = lines[0].split()
    starts, pos = [], 0
    for name in names:  # table cells are left-justified under their header
        pos = lines[0].index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{n: line[a:b].strip() for n, (a, b) in zip(names, bounds)} for line in lines[1:]]


def _num(cell) -> float | None:
    return None if cell in ("", None) else float(cell)


def _argv_value(argv: list[str], flag: str) -> str:
    for i, arg in enumerate(argv):
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
        if arg == flag:
            return argv[i + 1]
    raise KeyError(flag)


def _eval_points(text: str, output: str) -> list[dict]:
    if output == "json":
        report = json.loads(text)
        return [{"z": p["params"]["z"], **p["result"]} for p in report["results"]]
    return [{"z": float(r["z"]), "value": _num(r["value"]), "p0": _num(r["p0"]),
             "p1": _num(r["p1"]), "p2": _num(r["p2"])} for r in _rows(text, output)]


def _check_eval(oracle: Oracle, argv, text, output) -> str | None:
    L, eta = float(_argv_value(argv, "--L")), float(_argv_value(argv, "--eta"))
    zs = [float(z) for z in _argv_value(argv, "--z").split(",")]
    quantity, kind = _argv_value(argv, "--quantity"), _argv_value(argv, "--kind")
    points = _eval_points(text, output)
    if [p["z"] for p in points] != zs:
        return "eval points do not match the requested z list"
    for p in points:
        z = p["z"]
        p0, p1, p2 = oracle.derivs(L, eta, z, 2)
        if quantity == "series":
            pairs = ((p["p0"], p0), (p["p1"], p1), (p["p2"], p2))
        elif quantity == "star":
            ref_g = 1 + z * p1 / p0
            pairs = ((p["value"], ref_g if kind == "g" else (L + ref_g) / (L + 1)),)
        elif kind == "g":
            pairs = ((p["value"], 1 + z * (2 * p1 + z * p2) / (p0 + z * p1)),)
        else:
            b_val = (L + 1) * p0 + z * p1
            d_val = L * (L + 1) * p0 + 2 * (L + 1) * z * p1 + z * z * p2
            pairs = ((p["value"], 1 + d_val / b_val - L / (L + 1) * b_val / p0),)
        for got, ref in pairs:
            if got is None or not _close(got, ref):
                return f"eval {quantity} at z={z!r}: {got!r} != oracle {float(ref)!r}"
    return None


def _check_bounds_report(argv, text, output) -> str | None:
    L, eta = float(_argv_value(argv, "--L")), float(_argv_value(argv, "--eta"))
    kind, m = _argv_value(argv, "--kind"), int(_argv_value(argv, "--m"))
    method = _argv_value(argv, "--method")
    methods = ["extracted", "closed_form"] if method == "both" else [method]
    if output == "json":
        report = json.loads(text)
        flagged = any("disagrees" in w for w in report["warnings"])
        got = [(meth, b["lower"], b["upper"], flagged and meth == "closed_form")
               for meth, b in report["result"]["bounds"].items()]
    else:
        got = [(r["method"], _num(r["lower"]), _num(r["upper"]),
                r["method"] == "closed_form" and "disagrees" in r["warnings"])
               for r in _rows(text, output)]
    if sorted(g[0] for g in got) != sorted(methods):
        return f"bounds methods {[g[0] for g in got]} != requested {methods}"
    for _, lower, upper, flagged in got:
        problem = _check_bounds(L, eta, kind, m, lower, upper, upper_flagged=flagged)
        if problem:
            return problem
    return None


def _check_region(argv, text, output) -> str | None:
    L = _parse_complex(_argv_value(argv, "--L"))
    eta = _parse_complex(_argv_value(argv, "--eta"))
    quantity, grid_n = _argv_value(argv, "--disk"), int(_argv_value(argv, "--grid-n"))
    margins = {"re_part": L.real - 0.5, "im_part": L.imag - 1.0,
               "disk_gap": (L.real - 0.5) ** 2 - (1.0 + L.imag + abs(eta)) ** 2,
               "starlike_gap": L.real - L.imag ** 2 / 3.0 - 0.25 - abs(eta)}
    flags = {"re_positive_ok": margins["re_part"] >= 0 and margins["im_part"] >= 0
             and margins["disk_gap"] >= 0,
             "starlike_ok": margins["starlike_gap"] >= 0}
    if output == "json":
        res = json.loads(text)["result"]
        got_margins, got_min = res["margins"], res["disk"]["min_real"]
        got_flags = {k: res[k] for k in flags}
    else:
        row = _rows(text, output)[0]
        got_margins = {k: float(row[f"margin_{k}"]) for k in margins}
        got_min = float(row["disk_min_real"])
        got_flags = {k: row[k] == "True" for k in flags}
    if got_flags != flags:
        return f"region flags {got_flags} != {flags}"
    for k, ref in margins.items():
        if not _close(got_margins[k], ref, 1e-11):
            return f"region margin {k}: {got_margins[k]!r} != {ref!r}"
    ref_min = disk_min_real(L, eta, quantity, grid_n, 0.99)
    if not _close(got_min, ref_min):
        return f"disk minimum {got_min!r} != oracle {ref_min!r}"
    return None


def check_cli(oracle: Oracle, op: dict, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit {out['code']}: {out['stderr'].strip()[:160]}"
    argv, text = op["argv"], out["stdout"]
    output = _argv_value(argv, "--output")
    try:
        if op["command"] == "eval":
            return _check_eval(oracle, argv, text, output)
        if op["command"] == "bounds":
            return _check_bounds_report(argv, text, output)
        return _check_region(argv, text, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {output} report: {type(exc).__name__}: {exc}"


CHECKS = {"radius-table": check_radius, "zero-scan": check_zeros, "cli-requests": check_cli}


def check(workload: str, oracle: Oracle, record: dict) -> str | None:
    """None when the operation succeeded and its output matches the oracle."""
    if record["error"] is not None:
        return record["error"]
    return CHECKS[workload](oracle, record["op"], record["out"])
