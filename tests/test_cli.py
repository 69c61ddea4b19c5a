"""CLI surface: schema, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from coulomb_radii import subordination
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

    def test_noise_limited_series_row_is_flagged(self, capsys):
        # p0 reads -1.58e17 where mpmath gives P = -3.54e-5: within eight
        # noise floors (2.9e19), the zero scan's own cut-off
        code, out, _ = run_cli(capsys, "eval", "--L", "0.5", "--eta=-2000", "--z", "1")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["warnings"] == ["noise-limited"]
        code, out, _ = run_cli(capsys, "eval", "--L", "0.5", "--eta=-2000,-1", "--z", "1",
                               "--output", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith(",noise-limited")
        assert rows[1].endswith(",")

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
    ], ids=["bounds-m3", "closed-form-m4", "both-m4", "negative-count", "grid-n-8",
            "criteria-13", "criteria-0", "criteria-x"])
    def test_rejected_argument_values_are_usage_errors(self, argv, capsys):
        # the library's ValueError on a user value is a usage error, not a traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_oversized_disk_grid_is_usage_error(self, capsys, monkeypatch):
        # rejected before the scan builds its 4 grid_n^2 points, not a MemoryError
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
    def test_univalent_beta_is_usage_error(self, beta, capsys):
        # univalence fixes beta = 0; a nonzero beta would be printed as 0.0
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--kind", "g", "--property", "univalent", "--beta", beta,
                  "--L", "0", "--eta=-1"])
        assert exc.value.code == 2
        assert "univalent" in capsys.readouterr().err
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
