"""Span tracer that wraps the package's public functions at every binding.

Each traced function is looked up in the module that defines it; the
wrapper then replaces that function object wherever a package module binds
it (``coefficients`` in ``series`` and ``rayleigh``, ``find_zeros`` in
``zeros``, ``radii`` and ``cli``, and so on), so calls between modules are
seen too.  A function that no longer exists is listed in ``absent`` and the
metrics built on it are left out; nothing else depends on the package's
internals.  The double-double kernel (``_ddouble``) is never wrapped: one of
its calls costs less than a wrapper, so kernel work is reported as the
computed term count of ``eval_series`` instead.

A span is [name, layer, start, end, parent index, op id, note]; spans stay in
memory until the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "coulomb_radii"
LAYERS = ("series", "zeros", "radii", "rayleigh", "subordination", "cli")
# modules whose globals may bind a traced function
BINDING_MODULES = ("", "series", "zeros", "radii", "rayleigh", "subordination",
                   "cli", "verify")

# traced (layer, function) pairs; the note records what a metric needs
TRACED = {
    ("series", "coefficients"): "n_max",
    ("series", "complex_coefficients"): None,
    ("series", "eval_series"): "terms",
    ("series", "eval_point"): None,
    ("series", "star_ratio"): None,
    ("series", "conv_ratio"): None,
    ("zeros", "find_zeros"): "zeros_found",
    ("zeros", "first_positive_zero"): "one_zero",
    ("zeros", "refine_bracket"): "iterations",
    ("radii", "radius"): "iterations",
    ("radii", "radius_starlike"): "iterations",
    ("radii", "radius_convex"): "iterations",
    ("radii", "radius_univalence"): "iterations",
    ("rayleigh", "sums"): None,
    ("rayleigh", "euler_rayleigh_bounds"): None,
    ("subordination", "region_check"): None,
    ("subordination", "disk_min_real"): "disk_points",
    ("cli", "main"): None,
}

NAME, LAYER, START, END, PARENT, OP, NOTE = range(7)


def _bound_arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _note(kind: str, sig, args, kwargs, result, exc):
    """The count a span contributes to its layer's metrics."""
    if kind == "n_max":
        return _bound_arg(sig, args, kwargs, "n_max")
    if kind == "disk_points":
        return 4 * _bound_arg(sig, args, kwargs, "grid_n") ** 2
    if exc is not None:
        if kind == "terms":  # a failed sum ran through the whole table
            return _bound_arg(sig, args, kwargs, "table").n_max + 1
        return None
    if kind == "terms":
        return result.truncation_terms
    if kind == "iterations":
        return result.iterations
    if kind == "zeros_found":
        return len(result.positive) + len(result.negative)
    if kind == "one_zero":
        return 1
    return None


class Tracer:
    """Resolves the bindings once; install() and uninstall() swap them."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = {}
        for suffix in BINDING_MODULES:
            name = f"{PACKAGE}.{suffix}" if suffix else PACKAGE
            try:
                modules[suffix] = importlib.import_module(name)
            except ImportError:
                continue
        for (layer, fname), kind in TRACED.items():
            fn = getattr(modules.get(layer), fname, None)
            if not callable(fn):
                self.absent.append(f"{layer}.{fname}")
                continue
            wrapper = self._wrap(fn, fname, layer, kind)
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is fn:
                        self._bindings.append((module, attr, fn, wrapper))

    def _wrap(self, fn, name: str, layer: str, kind):
        tracer = self
        sig = inspect.signature(fn) if kind is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
                if kind is not None:
                    span[NOTE] = _note(kind, sig, args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _present(absent: list[str], *names: str) -> bool:
    return not any(name in absent for name in names)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of n_ops operations.

    A metric whose traced function is absent is left out.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def ancestors(i: int):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p]
            p = spans[p][PARENT]

    self_ms = {layer: 0.0 for layer in LAYERS}
    coef_self = eval_self = 0.0
    tables = coef_terms = regrows = evals = terms = 0
    scan_evals = refine_iters = zeros_found = 0
    queries = query_evals = cap_evals = bisect_iters = solved = 0
    rayleigh_calls = 0
    rayleigh_ms = sub_ms = 0.0
    disk_points = 0
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        own = (dur - child_time[i]) * 1e3
        name, layer = span[NAME], span[LAYER]
        self_ms[layer] += own
        up = list(ancestors(i))
        outermost = not any(a[LAYER] == layer for a in up)
        if name == "coefficients":
            tables += 1
            coef_terms += span[NOTE]
            regrows += span[NOTE] > 256
            coef_self += own
        elif name == "eval_series":
            evals += 1
            terms += span[NOTE]
            eval_self += own
            names = {a[NAME] for a in up}
            if any(a[LAYER] == "zeros" for a in up) and "refine_bracket" not in names:
                scan_evals += 1
            if any(a[LAYER] == "radii" for a in up):
                query_evals += 1
                cap_evals += "find_zeros" in names
        elif name == "refine_bracket" and span[NOTE] is not None:
            refine_iters += span[NOTE]
        elif name in ("find_zeros", "first_positive_zero") and span[NOTE] is not None:
            zeros_found += span[NOTE]
        elif name == "disk_min_real":
            disk_points += span[NOTE]
        if layer == "radii" and outermost:
            queries += 1
            if span[NOTE] is not None:
                solved += 1
                bisect_iters += span[NOTE]
        elif layer == "rayleigh" and outermost:
            rayleigh_calls += 1
            rayleigh_ms += dur * 1e3
        elif layer == "subordination" and outermost:
            sub_ms += dur * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    absent = tracer.absent
    per_op = lambda x: x / n_ops  # noqa: E731
    rows = [
        ("series.tables_per_op", per_op(tables), ("series.coefficients",)),
        ("series.coef_terms_per_op", per_op(coef_terms), ("series.coefficients",)),
        ("series.coef_self_ms_per_op", per_op(coef_self), ("series.coefficients",)),
        ("series.regrows_per_op", per_op(regrows), ("series.coefficients",)),
        ("series.evals_per_op", per_op(evals), ("series.eval_series",)),
        ("series.terms_per_op", per_op(terms), ("series.eval_series",)),
        ("series.eval_self_ms_per_op", per_op(eval_self), ("series.eval_series",)),
        ("series.ms_per_eval", ratio(eval_self, evals), ("series.eval_series",)),
        ("zeros.scan_evals_per_op", per_op(scan_evals),
         ("series.eval_series", "zeros.refine_bracket")),
        ("zeros.refine_iters_per_op", per_op(refine_iters), ("zeros.refine_bracket",)),
        ("zeros.self_ms_per_op", per_op(self_ms["zeros"]), ()),
        ("zeros.zeros_per_scan_eval", ratio(zeros_found, scan_evals),
         ("series.eval_series", "zeros.refine_bracket", "zeros.find_zeros")),
        ("radii.evals_per_query", ratio(query_evals, queries), ("series.eval_series",)),
        ("radii.cap_eval_frac", ratio(cap_evals, query_evals),
         ("series.eval_series", "zeros.find_zeros")),
        ("radii.bisect_iters_per_query", ratio(bisect_iters, solved), ("radii.radius",)),
        ("radii.self_ms_per_op", per_op(self_ms["radii"]), ()),
        ("rayleigh.calls_per_op", per_op(rayleigh_calls), ()),
        ("rayleigh.ms_per_op", per_op(rayleigh_ms), ()),
        ("subordination.disk_points_per_op", per_op(disk_points),
         ("subordination.disk_min_real",)),
        ("subordination.ms_per_op", per_op(sub_ms), ()),
        ("cli.self_ms_per_op", per_op(self_ms["cli"]), ("cli.main",)),
    ]
    return {name: value for name, value, needs in rows if _present(absent, *needs)}
