"""The table scripts in scripts/ run end to end on small grids."""

import importlib.util
import json
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_radii_rows(capsys):
    load("sweep_radii").main(["--L", "0,0.5", "--eta=-1,0"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["L", "eta", "kind"]
    # one row per (L, eta, kind): convexity < univalence radius, above its lower bound
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        cells = line.split()
        assert len(cells) == 7
        assert 0.0 < float(cells[4]) < float(cells[3])
        assert float(cells[5]) <= float(cells[3])


def test_disk_scan_rows(capsys):
    pytest.importorskip("numpy")
    load("disk_scan").main(["--steps", "2", "--grid-n", "16"])
    lines = capsys.readouterr().out.splitlines()
    assert "starlike_ok" in lines[0]
    assert len(lines) == 1 + 2 * 2


def test_bench_rows(capsys):
    load("bench").main(["--repeat", "1"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    queries = ("radius", "radius_convex_g", "find_zeros", "find_zeros_F_prime",
               "find_zeros_g_prime")
    assert set(rows) == {"coef256", "eval_z0.5", "eval_z10", "eval_z50", *queries}
    assert all(row["ms"] > 0.0 for row in rows.values())
    # counted by the wrapped eval_series, within the gates of test_zeros and test_radii
    assert 0 < rows["find_zeros"]["evals"] <= 140
    assert 0 < rows["find_zeros_F_prime"]["evals"] <= 140
    assert 0 < rows["find_zeros_g_prime"]["evals"] <= 140
    assert 0 < rows["radius"]["evals"] <= 17
    assert 0 < rows["radius_convex_g"]["evals"] <= 17
    for name in ("eval_z0.5", "eval_z10", "eval_z50", *queries):
        assert rows[name]["terms"] >= 5 * rows[name]["evals"]
    # coefficient terms a cold query builds: the table length a radius or a
    # ten-zero scan reaches
    assert 32 <= rows["radius"]["coef_terms"] <= 48
    assert 32 <= rows["radius_convex_g"]["coef_terms"] <= 48
    for name in ("find_zeros", "find_zeros_F_prime", "find_zeros_g_prime"):
        assert 32 <= rows[name]["coef_terms"] <= 144
    # the refine steps are a part of the evaluations; the rest are scan steps
    for name in queries:
        assert 0 < rows[name]["refine_steps"] < rows[name]["evals"]
