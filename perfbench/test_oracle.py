"""Self-test of the benchmark oracle.

    python3 -m pytest perfbench/test_oracle.py -q

The oracle must agree with the package where the package is right, and its
checks must flag the package where it is known to be wrong: the pi/8 zero
scan skips the first zeros of F at (L, eta) = (0, -20), and ``radius`` raises
for eta <= -7.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from coulomb_radii import CoulombParams, coefficients, eval_point  # noqa: E402

import oracle  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("L, eta, z", [(0.0, -1.0, 0.5), (0.5, -1.0, 10.0),
                                       (2.5, -2.0, 3.0), (-0.4, -0.25, 7.0),
                                       (1.5, -12.0, 2.0)])
def test_oracle_matches_eval_point(L, eta, z):
    sv = eval_point(CoulombParams(L, eta), z)
    ref = oracle.Oracle().derivs(L, eta, z)
    for got, want, noise in zip((sv.p0, sv.p1, sv.p2), ref, sv.noise):
        assert abs(got - float(want)) <= 1e-13 * abs(float(want)) + noise


def test_oracle_is_sinc_at_eta_zero():
    # F_{0,0}(z) = sin z, so P = sin z / z
    p0, p1, _ = oracle.Oracle().derivs(0.0, 0.0, 2.0)
    assert float(p0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)
    assert float(p1) == pytest.approx(math.cos(2.0) / 2.0 - math.sin(2.0) / 4.0, rel=1e-15)


def test_taylor_coefficients_match_recurrence():
    ref = coefficients(CoulombParams(0.5, -1.0), 10).a
    for got, want in zip(oracle.taylor_p(0.5, -1.0, 10), ref):
        assert float(got) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_rayleigh_oracle_gives_extracted_sums():
    # S_2 = 3 and S_3 = 13/3 for the sigma family at L = 0, eta = -1
    lower, upper, _ = oracle.rayleigh_bounds(0.0, -1.0, "f", 2)
    assert float(lower) == pytest.approx(3.0 ** -0.5, rel=1e-15)
    assert float(upper) == pytest.approx(9.0 / 13.0, rel=1e-15)


def test_kummer_disk_series_matches_hyp1f1():
    L, eta, z = 4 + 1j, 0.5, 0.6 - 0.5j
    p, dp = oracle.kummer_p(L, eta, np.array([z]))
    with mpmath.workdps(30):
        a, b, x = L + 1 - 1j * eta, 2 * L + 2, 2j * z
        m = mpmath.hyp1f1(a, b, x)
        dm = a / b * mpmath.hyp1f1(a + 1, b + 1, x)
        ref_p = mpmath.exp(-1j * z) * m
        ref_dp = mpmath.exp(-1j * z) * (-1j * m + 2j * dm)
    assert abs(p[0] - complex(ref_p)) <= 1e-14 * abs(complex(ref_p))
    assert abs(dp[0] - complex(ref_dp)) <= 1e-13 * abs(complex(ref_dp))


def _zero_record(L, eta, target, count_pos, count_neg):
    op = {"L": L, "eta": eta, "target": target, "count_pos": count_pos,
          "count_neg": count_neg}
    _, out, err = worker._execute("zero-scan", op)
    return {"op": op, "out": out, "error": err}


def test_zero_check_passes_a_correct_scan():
    rec = _zero_record(0.5, -1.0, "F", 3, 2)
    assert oracle.check("zero-scan", oracle.Oracle(), rec) is None


def test_zero_check_flags_skipped_zeros_at_eta_minus_20():
    rec = _zero_record(0.0, -20.0, "F", 3, 0)
    assert rec["error"] is None and not rec["out"]["truncated"]
    problem = oracle.check("zero-scan", oracle.Oracle(), rec)
    assert problem is not None and "skipped [0.0917, 0.3068]" in problem


def test_zero_check_flags_a_fake_zero():
    rec = _zero_record(0.5, -1.0, "F", 3, 0)
    rec["out"]["positive"][1] += 1e-6
    assert "not a sign change" in oracle.check("zero-scan", oracle.Oracle(), rec)


def _radius_record(eta):
    op = {"L": 0.0, "eta": eta, "kind": "g", "property": "starlike", "beta": 0.5,
          "form": "ratio", "m": 2}
    _, out, err = worker._execute("radius-table", op)
    return {"op": op, "out": out, "error": err}


def test_radius_check_passes_a_correct_radius():
    assert oracle.check("radius-table", oracle.Oracle(), _radius_record(-1.0)) is None


def test_radius_at_eta_minus_8_is_a_failed_operation():
    problem = oracle.check("radius-table", oracle.Oracle(), _radius_record(-8.0))
    assert problem is not None and problem.startswith("MonotonicityError")


def test_radius_check_flags_a_wrong_radius():
    rec = _radius_record(-1.0)
    rec["out"]["value"] *= 1.0 + 1e-7
    assert "not a down-crossing" in oracle.check("radius-table", oracle.Oracle(), rec)


@pytest.mark.parametrize("output", ["json", "csv", "table"])
@pytest.mark.parametrize("command, args", [
    ("eval", ["--L=0.5", "--eta=-1.0", "--z=0.5,2.0,7.25", "--quantity", "series", "--kind", "g"]),
    ("eval", ["--L=1.0", "--eta=-0.5", "--z=1.0,3.5", "--quantity", "conv", "--kind", "f"]),
    ("bounds", ["--L=0.0", "--eta=-1.0", "--kind", "f", "--m", "2", "--method", "both"]),
    ("region", ["--L=4+1i", "--eta=0.5", "--disk", "zgpg", "--grid-n", "32"]),
])
def test_cli_reports_pass_in_every_format(command, args, output):
    op = {"command": command, "argv": [command, *args, "--output", output]}
    rec = {"op": op, "out": worker.run_cli(op), "error": None}
    assert oracle.check("cli-requests", oracle.Oracle(), rec) is None


def test_cli_check_flags_a_changed_digit():
    op = {"command": "eval", "argv": ["eval", "--L=0.5", "--eta=-1.0", "--z=0.5,2.0",
                                      "--quantity", "star", "--kind", "g", "--output", "csv"]}
    out = worker.run_cli(op)
    lines = out["stdout"].splitlines()
    cells = lines[2].split(",")
    cells[6] = repr(float(cells[6]) * (1.0 + 1e-6))
    out["stdout"] = "\n".join(lines[:2] + [",".join(cells)]) + "\n"
    problem = oracle.check("cli-requests", oracle.Oracle(), {"op": op, "out": out, "error": None})
    assert problem is not None and "!= oracle" in problem
