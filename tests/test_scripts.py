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


def test_sweep_radii_default_output_is_pinned(capsys):
    # the default 5 x 4 grid, every radius and bracket to 10 digits
    load("sweep_radii").main([])
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "sweep_radii.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_disk_scan_rows(capsys):
    pytest.importorskip("numpy")
    load("disk_scan").main(["--steps", "2", "--grid-n", "16"])
    lines = capsys.readouterr().out.splitlines()
    assert "starlike_ok" in lines[0]
    assert len(lines) == 1 + 2 * 2


def test_bench_rows(capsys):
    load("bench").main(["--repeat", "1"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    queries = ("radius", "radius_convex_g", "domain_cap", "find_zeros", "find_zeros_F_prime",
               "find_zeros_g_prime", "find_zeros_neg")
    assert set(rows) == {"coef256", "eval_z0.5", "eval_z10", "eval_z50", "table_build",
                         "table_z0.5", "value_build", "base_build", "base_point", "cli_eval",
                         "cli_eval_warm", "disk_g64", "disk_zgpg64", "cli_process", *queries}
    assert all(row["ms"] > 0.0 for row in rows.values())
    # a fresh CLI process, and a bare interpreter beside it
    assert rows["cli_process"]["bare_ms"] > 0.0
    # the origin's table grown to all its rows, and one point of it: no sum
    assert rows["table_build"]["table_rows"] == 32
    assert rows["table_z0.5"]["table_points"] == 1 and rows["table_z0.5"]["terms"] <= 32
    # a point a scan step past a sum: from a fresh table, grown for it, and
    # from a table already grown, which builds no row
    assert rows["base_build"]["jets"] == rows["base_point"]["jets"] == 1
    assert rows["base_build"]["table_rows"] == rows["base_build"]["terms"] <= 32
    assert rows["base_point"]["table_rows"] == 0
    assert rows["base_point"]["terms"] == rows["base_build"]["terms"]
    # one value built, in microseconds
    assert rows["value_build"]["us"] == pytest.approx(1e3 * rows["value_build"]["ms"])
    # sums, counted by series.counting(), within the gates of test_zeros and
    # test_radii: the points near the origin from the table, past its reach
    # every scan step and refine point a jet of the nearest kept sum, summed
    # where that table refuses it (16, 15 and 14; 16 each when the scan
    # summed every third grid point; 20, 20, 20, 5, 5 and 4 with no table;
    # 32, 31, 30 and 7 with every second scan step summed; 47, 45, 44 and 13
    # with every scan step summed; 67, 65, 64, 13, 7 and 8 with each refine's
    # first point summed too, 117, 118, 114, 15, 12 and 13 with every refine
    # point summed)
    assert 0 < rows["find_zeros"]["evals"] <= 16
    assert 0 < rows["find_zeros_F_prime"]["evals"] <= 16
    assert 0 < rows["find_zeros_g_prime"]["evals"] <= 16
    assert 0 < rows["find_zeros_neg"]["evals"] <= 5
    # both radii lie within the table's reach, and the scan stops at the step
    # that brackets them: no sum (the g-starlike radius took 2 when the scan
    # ran on to the cap)
    assert rows["radius"]["evals"] == 0 < rows["radius"]["table_points"]
    assert rows["radius_convex_g"]["evals"] == 0 < rows["radius_convex_g"]["table_points"]
    # the cap scan to the first zero of F: the two steps past the table's
    # reach are summed
    assert 0 < rows["domain_cap"]["evals"] <= 2
    # terms: 1251, 1135 and 1000, the sums lying where the tables at sums
    # refuse a point (1191 each when the scan summed every third grid point,
    # the origin's table serving the scan step at 3.31 so that the step at
    # 4.55 is summed in its place; 1185 each with every row of that table
    # weighed with gamma_34; 1185, 1255 and 1185 with jets that reran the
    # recurrence per point; 1258 each with no origin table, 2110,
    # 1994 and 1859 with every second scan step summed, 3566, 3312 and 3177
    # with every scan step summed, 4416, 4107 and 3971 with each refine's
    # first point summed too, 5925, 5328 and 5097 with every refine point
    # summed about a scan step, 10198, 8760 and 8462 from 0)
    assert rows["find_zeros"]["terms"] <= 1251
    assert rows["find_zeros_F_prime"]["terms"] <= 1135
    assert rows["find_zeros_g_prime"]["terms"] <= 1000
    # every refine step is a jet or a table point
    for name in ("find_zeros", "find_zeros_F_prime", "find_zeros_g_prime"):
        assert rows[name]["jets"] + rows[name]["table_points"] >= rows[name]["refine_steps"]
    # one sum per point of the in-process eval request on an empty memo, and
    # none when the request is repeated
    assert rows["cli_eval"]["evals"] == 16
    assert rows["cli_eval"]["terms"] == 440
    # eval_point keeps its memo and takes nothing from an evaluator's table
    assert rows["cli_eval"]["table_points"] == rows["cli_eval_warm"]["table_points"] == 0
    assert rows["cli_eval_warm"]["evals"] == rows["cli_eval_warm"]["terms"] == 0
    # each point a memo miss on an empty memo and a hit on a full one
    assert (rows["cli_eval"]["memo_hits"], rows["cli_eval"]["memo_misses"]) == (0, 16)
    assert (rows["cli_eval_warm"]["memo_hits"], rows["cli_eval_warm"]["memo_misses"]) == (16, 0)
    for name in ("eval_z0.5", "eval_z10", "eval_z50", "cli_eval", *queries):
        assert rows[name]["terms"] >= 5 * rows[name]["evals"]
    # the refine steps are sums, jets or table points, and the rest of them
    # are scan steps
    for name in queries:
        assert 0 < rows[name]["refine_steps"] <= (rows[name]["evals"] + rows[name]["jets"]
                                                  + rows[name]["table_points"])
