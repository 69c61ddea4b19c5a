"""The table scripts in scripts/ run end to end on small grids."""

import importlib.util
import json
import os
import re

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
    # every scan step and refine point a jet of a kept sum on either side,
    # else read back from a sum two grid steps ahead, summed where no table
    # serves it
    assert 0 < rows["find_zeros"]["evals"] <= 10
    assert 0 < rows["find_zeros_F_prime"]["evals"] <= 11
    assert 0 < rows["find_zeros_g_prime"]["evals"] <= 10
    assert 0 < rows["find_zeros_neg"]["evals"] <= 5
    # both radii lie within the table's reach, and the scan stops at the step
    # that brackets them: no sum
    assert rows["radius"]["evals"] == 0 < rows["radius"]["table_points"]
    assert rows["radius_convex_g"]["evals"] == 0 < rows["radius_convex_g"]["table_points"]
    # the cap scan to the first zero of F: the two steps past the table's
    # reach are summed
    assert 0 < rows["domain_cap"]["evals"] <= 2
    # terms: the sums lying two grid steps past a point the tables at sums
    # refuse
    assert rows["find_zeros"]["terms"] <= 779
    assert rows["find_zeros_F_prime"]["terms"] <= 850
    assert rows["find_zeros_g_prime"]["terms"] <= 779
    # refine points within the noise floor of the target, counted apart
    for name in queries:
        assert 0 <= rows[name]["refine_unresolved"] <= rows[name]["refine_steps"]
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


def test_bench_seeded_table():
    # the seeded-count table of ROADMAP.md, here over the first few
    # operations of each workload: one markdown row per workload, run by
    # perfbench's own executors, and the digest of their outputs, the same
    # on a second call
    bench = load("bench")
    table = bench.seeded_table(1, {"radius-table": 12, "zero-scan": 6})
    assert bench.seeded_table(1, {"radius-table": 12, "zero-scan": 6}) == table
    lines = table.splitlines()
    assert lines[0] == ("| Seed, workload | sums | terms | jets | table points | table rows "
                        "| refine steps | refine_unresolved | outputs |")
    assert lines[1] == "|---" * 9 + "|"
    cells = {line.split(" | ")[0]: line.strip(" |").split(" | ")[1:] for line in lines[2:]}
    assert set(cells) == {"| 1, radius-table", "| 1, zero-scan"}
    rows = {name: [int(c) for c in row[:-1]] for name, row in cells.items()}
    for name, (sums, terms, jets, points, table_rows, steps, unresolved) in rows.items():
        assert sums <= terms and 0 < steps and 0 <= unresolved <= steps, name
        assert 0 < points and 0 < table_rows, name
        # the first 16 hex digits of a sha256
        assert re.fullmatch("[0-9a-f]{16}", cells[name][-1]), name
    assert cells["| 1, radius-table"][-1] != cells["| 1, zero-scan"][-1]
    # every zero refine step is a jet or a table point, and the scans sum
    sums, _, jets, points, _, steps, _ = rows["| 1, zero-scan"]
    assert 0 < sums and jets + points >= steps
