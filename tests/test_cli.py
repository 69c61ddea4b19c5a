"""CLI surface: schema, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from coulomb_radii import cli, series, subordination, verify
from coulomb_radii.cli import main, validate_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_single_point_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--kind", "g", "--property", "starlike",
            "--beta", "0", "--L", "0", "--eta", "0",
        )
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["command"] == "radius"
        assert report["result"]["value"] == pytest.approx(math.pi / 2.0, abs=1e-10)
        lo, hi = report["result"]["bracket"]
        assert lo <= report["result"]["value"] <= hi
        assert "residual" in report["result"]
        assert "domain_cap" in report["result"]

    def test_deterministic_bytes(self, capsys):
        argv = ("radius", "--kind", "g", "--property", "convex", "--beta", "0.5",
                "--L", "0.5", "--eta", "-1")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_grid_sweep_csv(self, capsys):
        # negative-number lists need the --flag=value spelling under argparse
        code, out, _ = run_cli(
            capsys, "radius", "--kind", "g", "--property", "starlike",
            "--beta", "0,0.5", "--L", "0,1", "--eta=-1,0", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("command,L,eta,beta,kind,property,form,value")
        assert len(lines) == 1 + 2 * 2 * 2  # header + grid rows, in grid order
        assert lines[1].startswith("radius,0.0,-1.0,0.0")
        assert lines[-1].startswith("radius,1.0,0.0,0.5")

    def test_grid_sweep_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--kind", "f", "--property", "univalent",
            "--L", "0,1", "--eta", "-1",
        )
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert len(report["results"]) == 2

    def test_cap_beyond_range(self, capsys):
        # the first zero of F lies past |z| = 55 at L = 48; the radius does not
        # need it, and domain_cap is null (JSON) or empty (CSV) with a warning
        argv = ("radius", "--kind", "g", "--property", "starlike", "--L", "48", "--eta", "0")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["domain_cap"] is None
        assert report["warnings"] == ["domain-cap-beyond-range"]
        assert 9.9 < report["result"]["value"] < 9.91
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        row = out.splitlines()[1].split(",")
        assert code == 0 and row[11] == "" and row[13] == "domain-cap-beyond-range"

    def test_validate_report_ties_null_cap_to_its_warning(self, capsys):
        _, out, _ = run_cli(capsys, "radius", "--kind", "g", "--property", "starlike",
                            "--L", "0", "--eta", "0")
        report = json.loads(out)
        report["result"]["domain_cap"] = None
        with pytest.raises(ValueError, match="domain-cap-beyond-range"):
            validate_report(report)
        report["warnings"].append("domain-cap-beyond-range")
        validate_report(report)
        del report["result"]["domain_cap"]
        with pytest.raises(ValueError, match="domain_cap"):
            validate_report(report)


class TestEvalAndZeros:
    def test_eval_series_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--L", "0", "--eta", "0", "--z", "1")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["p0"] == pytest.approx(math.sin(1.0), rel=1e-12)
        assert report["result"]["g"] == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_eval_star_quantity(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--L", "0", "--eta", "0", "--z", "1",
            "--quantity", "star", "--kind", "g",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["value"] == pytest.approx(
            math.cos(1.0) / math.sin(1.0), rel=1e-12
        )

    def test_verbose_eval_reports_memo_hits(self, capsys):
        # the repeated point is a hit on a cold memo, and the whole request on
        # a warm one, read off the sums: line; stdout is the same with or
        # without --verbose
        argv = ["eval", "--L", "0.5", "--eta=-1", "--z", "1,2,1", "--output", "csv"]

        def sums(err):
            lines = err.splitlines()
            assert [line.split(":")[0] for line in lines] == ["config", "sums"]
            return json.loads(lines[1][len("sums: "):])

        series.eval_point.cache_clear()
        code, out, err = run_cli(capsys, *argv, "--verbose")
        assert code == 0
        totals = sums(err)
        assert (totals["memo_hits"], totals["memo_misses"], totals["evals"]) == (1, 2, 2)
        code, warm, err = run_cli(capsys, *argv, "--verbose")
        assert code == 0 and warm == out
        totals = sums(err)
        assert (totals["memo_hits"], totals["memo_misses"], totals["evals"]) == (3, 0, 0)
        series.eval_point.cache_clear()
        code, quiet, err = run_cli(capsys, *argv)
        assert code == 0 and quiet == out and err == ""

    def test_truncated_zeros_are_flagged(self, capsys):
        # at (0, 0) the zeros of F are n pi; the scan ends on |z| = 55, so 30
        # asked for gives the 17 up to 17 pi, flagged truncated in JSON and CSV
        argv = ["zeros", "--L", "0", "--eta", "0", "--count-pos", "30"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        result = report["result"]
        assert result["truncated"] and "truncated" in report["warnings"]
        assert len(result["positive"]) == 17 and result["negative"] == []
        for n, x in enumerate(result["positive"], start=1):
            assert x == pytest.approx(n * math.pi, abs=1e-12)
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 17 and all("truncated" in row["warnings"] for row in rows)

    def test_verbose_prints_the_sums(self, capsys):
        # one sums: line on stderr, the series.counting() record of the
        # command; stdout is the same without --verbose
        argv = ["zeros", "--L", "0.5", "--eta=-1", "--count-pos", "10", "--count-neg", "10"]
        code, out, err = run_cli(capsys, *argv, "--verbose")
        assert code == 0
        lines = [line for line in err.splitlines() if line.startswith("sums: ")]
        assert len(lines) == 1
        totals = json.loads(lines[0][len("sums: "):])
        assert (totals["evals"], totals["terms"], totals["refine_steps"],
                totals["jets"], totals["table_points"]) == (10, 779, 70, 101, 8)
        assert totals["refused_in_reach"] + totals["refused_past_reach"] > 0
        # the refine points whose value of F lies within its noise floor
        assert totals["refine_unresolved"] == 0
        code, quiet, err = run_cli(capsys, *argv)
        assert code == 0 and quiet == out and err == ""

    def test_noise_limited_series_row_is_flagged(self, capsys):
        # at (0, -6000), z = 50 the sum's bound asks for more than the
        # 2048-bit cap, so p0 keeps a bound far above it (the zero scan's own
        # cut-off); (0.5, -2000), z = 1 needs about 234 bits and is exact
        code, out, _ = run_cli(capsys, "eval", "--L", "0", "--eta=-6000", "--z", "50")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["warnings"] == ["noise-limited"]
        code, out, _ = run_cli(capsys, "eval", "--L", "0", "--eta=-6000,-2000", "--z", "50",
                               "--output", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith(",noise-limited")
        assert rows[1].endswith(",")
        code, out, _ = run_cli(capsys, "eval", "--L", "0.5", "--eta=-2000", "--z", "1",
                               "--output", "csv")
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.endswith(",") and float(row.split(",")[7]) == pytest.approx(-3.540304e-05,
                                                                               rel=1e-6)

    def test_zeros_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--L", "0", "--eta", "0", "--count-pos", "2",
            "--count-neg", "1",
        )
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["positive"][0] == pytest.approx(math.pi, abs=1e-10)
        assert report["result"]["negative"][0] == pytest.approx(-math.pi, abs=1e-10)


class TestBoundsAndRegion:
    @pytest.mark.parametrize("method", ["extracted", "closed_form", "both"])
    def test_bounds_point_extracts_once(self, method, capsys, extractions):
        # one record per point: a closed-form record carries the extraction
        # that gives the extracted bracket and the discrepancy notes
        code, out, _ = run_cli(capsys, "bounds", "--kind", "f", "--L", "0.5", "--eta=-1",
                               "--method", method)
        assert code == 0 and out
        assert len(extractions) == 1

    def test_bounds_both_methods(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--kind", "f", "--L", "0", "--eta", "-1",
            "--method", "both",
        )
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        bounds = report["result"]["bounds"]
        assert bounds["extracted"]["upper"] == pytest.approx(9.0 / 13.0, rel=1e-12)
        assert bounds["closed_form"]["upper"] == pytest.approx(0.5, rel=1e-12)
        assert any("disagrees" in w for w in report["warnings"])

    def test_region_complex_parsing(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--L", "1+1i", "--eta", "2")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["re_positive_ok"] is False
        assert report["params"]["L"] == {"re": 1.0, "im": 1.0}

    def test_region_spec_true_case(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--L", "4+1i", "--eta", "0.5")
        report = json.loads(out)
        assert report["result"]["re_positive_ok"] is True
        assert report["result"]["starlike_ok"] is True

    def test_region_with_disk_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--L", "4+1i", "--eta", "0.5", "--disk", "zgpg",
            "--grid-n", "16",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["disk"]["min_real"] > 0.0
        assert report["warnings"] == []

    @pytest.mark.parametrize("L, eta, noisy", [
        ("4+1i", "0.5", False), ("3+1i", "0.25", False), ("5+2i", "1", False),
        ("2+0.5i", "-0.5", False), ("0", "-3", False), ("3+2i", "100", True),
    ])
    def test_disk_scan_below_half_precision_is_noise_limited(self, capsys, L, eta, noisy):
        # sum |a_n| r^n / |P| on the circle reaches 4.0e11 at (3+2i, 100), past
        # 2^26; it stays under 3 on the benchmark region pairs and at 61.6 at
        # (0, -3).  P has one zero inside the circle at (0, -3), and the ring
        # mean reads 5.000003 at (3+2i, 100)
        argv = ("region", f"--L={L}", f"--eta={eta}", "--disk", "zgpg", "--grid-n", "64")
        expected = ["noise-limited"] if noisy else []
        if (L, eta) in {("0", "-3"), ("3+2i", "100")}:
            expected.append("zeros-inside")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["warnings"] == expected
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[-1] == "warnings"
        assert row.split(",")[-1] == ";".join(expected)

    def test_zeros_of_p_inside_make_the_minimum_minus_inf(self, capsys):
        # P has zeros at 0.183 and 0.609, where Re z g'/g is unbounded below
        argv = ("region", "--L", "0", "--eta=-10", "--disk", "zgpg")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["disk"]["min_real"] == -math.inf
        assert report["warnings"] == ["zeros-inside"]
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        assert dict(zip(header, row))["disk_min_real"] == "-inf"
        assert row[-1] == "zeros-inside"

    def test_zero_next_to_the_circle_is_warned(self, capsys, monkeypatch):
        # 97 unit terms: 96 zeros of P on |z| = 1, just outside the circle
        ones = np.ones(97, dtype=complex)
        monkeypatch.setattr(subordination, "_coeffs_for_disk", lambda L, eta: ones)
        code, out, _ = run_cli(capsys, "region", "--L", "0", "--eta", "0", "--disk", "zgpg",
                               "--grid-n", "16", "--output", "csv")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert float(cells["disk_min_real"]) == pytest.approx(-57.26, abs=0.01)
        assert cells["warnings"] == "zero-near-circle"


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--kind", "q", "--property", "starlike",
                  "--L", "0", "--eta", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["region", "--L", "nan", "--eta", "0"],
        ["region", "--L", "4+1i", "--eta", "nan", "--disk", "g"],
    ], ids=["L-nan", "eta-nan"])
    def test_non_finite_complex_scalar_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "non-finite complex scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--L", "nan", "--eta", "0", "--z", "1"],
        ["zeros", "--L", "0", "--eta=-inf"],
        ["radius", "--kind", "g", "--property", "starlike", "--L", "nan", "--eta", "0"],
        ["bounds", "--kind", "g", "--L", "0", "--eta", "inf"],
    ], ids=lambda argv: argv[0])
    def test_non_finite_float_list_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", [("--tolerance", "1e-10"), ("--n-max", "256")],
                             ids=["tolerance", "n-max"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--L", "0", "--eta", "0", "--z", "1"],
        ["zeros", "--L", "0", "--eta", "0"],
        ["radius", "--kind", "g", "--property", "starlike", "--L", "0", "--eta", "0"],
        ["bounds", "--kind", "g", "--L", "0", "--eta", "0"],
        ["region", "--L", "1+1i", "--eta", "2"],
        ["verify", "--criteria", "3"],
    ], ids=lambda argv: argv[0])
    def test_removed_knobs_are_usage_errors(self, argv, knob, capsys):
        # the series tolerance and length are fixed; no flag may pretend otherwise
        with pytest.raises(SystemExit) as exc:
            main(argv + list(knob))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["--z=", "--z=,"], ids=["empty", "comma"])
    def test_empty_z_list_is_usage_error(self, z, capsys):
        # an empty point list would print a report that validate_report rejects
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--L", "0.5", "--eta=-1", z])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--z list must be non-empty" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--kind", "g", "--L", "0", "--eta=-1", "--m", "3"],
        ["bounds", "--kind", "g", "--L", "0", "--eta=-1", "--method", "closed_form",
         "--m", "4"],
        ["bounds", "--kind", "f", "--L", "0", "--eta=-1", "--method", "both", "--m", "4"],
        ["zeros", "--L", "0", "--eta", "0", "--count-pos", "-1"],
        ["region", "--L", "1", "--eta", "0", "--disk", "g", "--grid-n", "8"],
        ["verify", "--criteria", "13"],
        ["verify", "--criteria", "0"],
        ["verify", "--criteria", "x"],
        ["verify", "--criteria", ","],
        ["verify", "--criteria="],
    ], ids=["bounds-m3", "closed-form-m4", "both-m4", "negative-count", "grid-n-8",
            "criteria-13", "criteria-0", "criteria-x", "criteria-comma", "criteria-empty"])
    def test_rejected_argument_values_are_usage_errors(self, argv, capsys):
        # the library's ValueError on a user value is a usage error, not a traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_out_of_range_criterion_runs_no_criterion(self, capsys, monkeypatch):
        # verify.run_all checks every number before it runs the first one
        def never(*args):
            raise AssertionError("a criterion ran before its list was checked")
        monkeypatch.setattr(verify, "_CRITERIA", (never,) * len(verify._CRITERIA))
        code, out, err = run_cli(capsys, "verify", "--criteria", "1,13")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--L", "0", "--eta", "0.1", "--z", "1"],
        ["zeros", "--L", "0", "--eta", "0.1", "--count-pos", "1"],
        ["radius", "--kind", "g", "--property", "starlike", "--L", "0", "--eta", "0.1"],
        ["bounds", "--kind", "g", "--L", "0", "--eta", "0.1"],
        ["region", "--L", "4+1i", "--eta", "0.5"],
        ["verify", "--criteria", "3"],
    ], ids=lambda argv: argv[0])
    def test_unsafe_only_on_grid_commands(self, argv, capsys):
        # no flag may be accepted and then ignored: the grid commands read
        # --unsafe (without it eta = 0.1 is a region violation), and region
        # and verify, which never would, refuse it
        if argv[0] in ("region", "verify"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--unsafe"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments: --unsafe" in captured.err
            return
        assert run_cli(capsys, *argv)[0] == 3
        code, out, _ = run_cli(capsys, *argv, "--unsafe")
        assert code == 0
        assert json.loads(out)["warnings"] == ["no-certificate"]

    def test_oversized_disk_grid_is_usage_error(self, capsys, monkeypatch):
        # rejected before the scan builds anything
        def no_arrays(*args):
            raise AssertionError("disk arrays built before grid_n was checked")
        monkeypatch.setattr(subordination, "_coeffs_for_disk", no_arrays)
        code, out, err = run_cli(capsys, "region", "--L", "4+1i", "--eta", "0.5",
                                 "--disk", "g", "--grid-n", "100000")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "grid_n" in err

    @pytest.mark.parametrize("flags", [
        ["--grid-n", "3", "--radius-cap", "0.5"], ["--grid-n", "64"], ["--radius-cap", "0.99"],
    ], ids=["both", "grid-n", "radius-cap"])
    def test_disk_flags_without_disk_are_usage_errors(self, flags, capsys):
        # no flag may be accepted and then ignored, not even at its default value
        with pytest.raises(SystemExit) as exc:
            main(["region", "--L", "1+1i", "--eta", "2", *flags])
        assert exc.value.code == 2
        assert "--disk" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["0.5", "0,0.5"], ids=["beta-0.5", "beta-list"])
    def test_univalent_beta_is_usage_error(self, beta, capsys, monkeypatch):
        # univalence fixes beta = 0; a nonzero beta would be printed as 0.0.
        # RadiusQuery refuses it, before any radius is solved, and main
        # reports that as a usage error
        def never(*args, **kwargs):
            raise AssertionError("a radius was solved before every beta was checked")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "radius", never)
            code, out, err = run_cli(capsys, "radius", "--kind", "g", "--property",
                                     "univalent", "--beta", beta, "--L", "0", "--eta=-1")
        assert code == 2
        assert out == "" and err.startswith("usage error: ") and "univalent" in err
        code, out, _ = run_cli(capsys, "radius", "--kind", "g", "--property", "univalent",
                               "--beta", "0", "--L", "0", "--eta=-1")
        assert code == 0 and out

    def test_region_violation_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "radius", "--kind", "g", "--property", "starlike",
            "--L", "0", "--eta", "1",
        )
        assert code == 3
        assert "region" in err

    def test_unsafe_overrides_with_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--kind", "g", "--property", "starlike",
            "--L", "0", "--eta", "0.1", "--unsafe",
        )
        assert code == 0
        report = json.loads(out)
        assert "no-certificate" in report["warnings"]

    def test_numerical_failure_is_4(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--L", "0", "--eta", "0", "--z", "100")
        assert code == 4
        assert "numerical failure" in err

    def test_unconverged_disk_scan_is_4(self, capsys):
        code, out, err = run_cli(capsys, "region", "--L=0", "--eta=1e5", "--disk", "g",
                                 "--grid-n", "16")
        assert code == 4
        assert out == "" and "not converged" in err


class TestParserReuse:
    # main writes args.grid_n and reads the shared --beta default list; a usage
    # error exits through the parser mid-sequence
    SEQUENCE = [
        ["region", "--L", "4+1i", "--eta", "0.5", "--disk", "g", "--grid-n", "32"],
        ["region", "--L", "4+1i", "--eta", "0.5", "--disk", "g"],
        ["radius", "--kind", "g", "--property", "starlike", "--beta", "0,0.5",
         "--L", "0", "--eta", "0"],
        ["radius", "--kind", "g", "--property", "starlike", "--L", "0", "--eta", "0"],
        ["radius", "--kind", "q", "--property", "starlike", "--L", "0", "--eta", "0"],
        ["radius", "--kind", "g", "--property", "starlike", "--L", "0", "--eta", "0",
         "--output", "csv"],
        ["eval", "--L", "0", "--eta", "0", "--z", "1", "--output", "csv"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        cli._build_parser.cache_clear()
        reused = [self.call(capsys, argv) for argv in self.SEQUENCE]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0]
        assert json.loads(reused[0][1])["result"]["disk"]["grid_n"] == 32
        assert json.loads(reused[1][1])["result"]["disk"]["grid_n"] == 64
        assert len(json.loads(reused[2][1])["results"]) == 2
        assert json.loads(reused[3][1])["params"]["beta"] == 0.0
        assert len(reused[5][1].splitlines()) == 2


class TestVerifyCommand:
    def test_single_criterion_flagged_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--criteria", "4")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["result"]["passed"] is True
        assert report["result"]["flagged"]
        assert "PASS criterion  4" in err
        assert "flagged" in err

    def test_criteria_subset_table(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--criteria", "3,4", "--output", "table",
        )
        assert code == 0
        assert "criterion" in out
        assert err.count("PASS") == 2


class TestSubprocessEntry:
    def test_python_dash_m_runs(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "coulomb_radii", "radius", "--kind", "g",
             "--property", "starlike", "--beta", "0", "--L", "0", "--eta", "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["value"] == pytest.approx(math.pi / 2.0, abs=1e-9)
