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
    # |z| < 1e-12 at these points, so P' and P'' take the small-|z| path
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
                for form in ("ratio", "direct"):
                    cases[f"radius-{kind}-{prop}-{form}-L{L}-eta{eta}"] = [
                        "radius", "--kind", kind, "--property", prop, "--form", form,
                        "--beta", "0,0.5", f"--L={L}", f"--eta={eta}"]
    cases["radius-unsafe-eta0.1"] = [
        "radius", "--kind", "g", "--property", "starlike", "--beta", "0,0.5",
        "--L", "0", "--eta", "0.1", "--unsafe"]
    for kind in ("f", "g"):
        for method in ("extracted", "closed_form", "both"):
            for m in ("2", "4"):
                cases[f"bounds-{kind}-{method}-m{m}"] = [
                    "bounds", "--kind", kind, "--L", "0,0.5", "--eta=-1",
                    "--method", method, "--m", m]
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
