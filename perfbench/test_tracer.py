"""Tests of the benchmark tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import coulomb_radii.cli as cli  # noqa: E402
import coulomb_radii.radii as radii  # noqa: E402
import coulomb_radii.zeros as zeros  # noqa: E402
from coulomb_radii import CoulombParams  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402


def _one_query(tracer: Tracer) -> dict[str, float]:
    tracer.op = 0
    tracer.install()
    try:
        radii.radius(radii.RadiusQuery(CoulombParams(0.5, -1.0), "g", "starlike", 0.5))
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, 1)


def test_wraps_every_binding_and_restores_it():
    original = zeros.find_zeros
    tracer = Tracer()
    tracer.install()
    try:
        assert zeros.find_zeros is not original
        assert radii.find_zeros is zeros.find_zeros is cli.find_zeros
    finally:
        tracer.uninstall()
    assert zeros.find_zeros is radii.find_zeros is cli.find_zeros is original


def test_counts_repeat_and_add_up():
    first, second = _one_query(Tracer()), _one_query(Tracer())
    counts = [k for k in first if not k.endswith(("ms_per_op", "ms_per_eval"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["radii.evals_per_query"] == first["series.evals_per_op"] > 0
    assert 0.0 < first["radii.cap_eval_frac"] < 1.0
    assert first["series.tables_per_op"] >= 1


def test_absent_binding_is_reported_not_a_crash(monkeypatch):
    # radii keeps its own binding; the function is gone from the module that defines it
    monkeypatch.delattr(zeros, "first_positive_zero")
    tracer = Tracer()
    assert tracer.absent == ["zeros.first_positive_zero"]
    assert _one_query(tracer)["series.evals_per_op"] > 0


def test_metrics_built_on_an_absent_function_are_left_out():
    tracer = Tracer()
    tracer.absent.append("zeros.refine_bracket")
    metrics = layer_metrics(tracer, 1)
    assert "zeros.refine_iters_per_op" not in metrics
    assert "zeros.scan_evals_per_op" not in metrics
    assert "series.evals_per_op" in metrics
