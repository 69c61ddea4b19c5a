"""Golden CLI output: the exact stdout bytes of a fixed set of requests.

The fixture ``data/cli_golden.json`` maps each case to its argv and to the
exit code and stdout it produced (or the exception it raised).  After an
intended output change, regenerate the fixture and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py

``region`` is left out: its disk minima come from numpy's complex libm,
whose last bits differ between platforms.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from coulomb_radii.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

RADIUS_PAIRS = (("0.5", "-1"), ("0", "-2"))


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for quantity in ("series", "star", "conv"):
        for kind in ("f", "g"):
            for output in ("json", "csv", "table"):
                cases[f"eval-{quantity}-{kind}-{output}"] = [
                    "eval", "--L", "0.5", "--eta=-1", "--z", "0.5,2,7.5",
                    "--quantity", quantity, "--kind", kind, "--output", output]
    # tiny |z|: the sums of z P' and z^2 P'' start at z and z^2 there
    for eta in ("-1", "0"):
        for output in ("json", "csv"):
            cases[f"eval-small-z-eta{eta}-{output}"] = [
                "eval", "--L", "0.5", f"--eta={eta}", "--z=0,1e-200,-1e-200,1e-160",
                "--output", output]
    for target in ("F", "F_prime", "g_prime"):
        for output in ("json", "csv"):
            cases[f"zeros-{target}-{output}"] = [
                "zeros", "--L", "0.5", "--eta=-1", "--target", target,
                "--count-pos", "3", "--count-neg", "2", "--output", output]
    for L, eta in RADIUS_PAIRS:
        for kind in ("f", "g"):
            for prop in ("starlike", "convex", "univalent"):
                # univalence is the starlike radius at beta = 0 and takes no other beta
                beta = "0" if prop == "univalent" else "0,0.5"
                for form in ("ratio", "direct"):
                    cases[f"radius-{kind}-{prop}-{form}-L{L}-eta{eta}"] = [
                        "radius", "--kind", kind, "--property", prop, "--form", form,
                        "--beta", beta, f"--L={L}", f"--eta={eta}"]
    cases["radius-unsafe-eta0.1"] = [
        "radius", "--kind", "g", "--property", "starlike", "--beta", "0,0.5",
        "--L", "0", "--eta", "0.1", "--unsafe"]
    for kind in ("f", "g"):
        for method in ("extracted", "closed_form", "both"):
            for m in ("2", "4"):
                cases[f"bounds-{kind}-{method}-m{m}"] = [
                    "bounds", "--kind", kind, "--L", "0,0.5", "--eta=-1",
                    "--method", method, "--m", m]
    # the interlacing chain and the truncated product; criterion 2 stays out,
    # since its series-vs-Bessel error sits at the ulp level of the libm
    cases["verify-interlacing-product-json"] = [
        "verify", "--criteria", "7,11", "--output", "json"]
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded: the golden file pins failures too
            return {"error": type(exc).__name__}
    return {"code": code, "stdout": out.getvalue()}


def _load() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(_cases())


def test_no_radius_bracket_has_zero_width():
    # a solve that lands on an exact zero of its computed equation reports
    # the bracket the equation's noise leaves around it, not that one point
    brackets = []
    for name, case in _load().items():
        if name.startswith("radius-"):
            out = json.loads(case["stdout"])
            brackets += [r["result"]["bracket"] for r in out.get("results", [out])]
    assert len(brackets) == 42
    assert all(lo < hi for lo, hi in brackets)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_golden_bytes(name):
    expected = _load()[name]
    argv = _cases()[name]
    assert expected["argv"] == argv
    got = _run(argv)
    assert got == {k: v for k, v in expected.items() if k != "argv"}


if __name__ == "__main__":
    golden = {name: {"argv": argv, **_run(argv)} for name, argv in _cases().items()}
    with open(FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")
