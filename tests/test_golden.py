"""Byte-identity of CLI output on fixed inputs.

Each case runs one ``latval`` command with ``--out`` and compares the
written bytes, and the exit code, with ``tests/golden/expected/<name>.json``.
The expected files were written by the same cases, so a refactor that
changes any output byte fails here.  To rewrite them after an intended
output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from latval import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _input(name):
    return os.path.join(GOLDEN, "inputs", name + ".json")


# the input on which each law holds; the violating input is x unless listed
HOLDS_ON = {"A": "f2", "B": "f2", "C": "f2", "f2simple2": "f2", "f23up": "f2",
            "Aprime": "rho", "Bprime": "rho", "Cprime": "rho", "D": "rho",
            "E": "rho", "rhoformula": "rho", "rho_sym1": "rho",
            "rho_sym2": "rho", "rho_sym3": "rho", "Adoubleprime": "sigma",
            "f1shift": "f1", "f1period": "f1", "f1neg": "f1",
            "f0gl2z": "const"}
VIOLATED_ON = {"E": "sigma", "f1period": "rho", "f1neg": "rho"}
TRANSFORM_INPUT = {"sharp": "f2", "dagger": "rho", "diamond": "rho",
                   "to-st": "rho", "from-st": "sigma"}
POLYGONS = ("two_t", "skew_quad", "four_t", "thin_t")
# specs beside spec_general under which every polygon is evaluated
EVALUATE_SPECS = ("simple", "odd_g")


def _cases():
    """(name, argv without --out, expected exit code)."""
    cases = []
    for d in (0, 2, 4, 5, 6, 12, 14, 24):
        for coords in ("xy", "st"):
            cases.append((f"vd_basis_{coords}_{d}",
                          ["vd", "basis", "--degree", str(d),
                           "--coords", coords], 0))
    cases.append(("vd_dims_30", ["vd", "dims", "--max", "30"], 0))
    for law, holds_on in HOLDS_ON.items():
        violated_on = VIOLATED_ON.get(law, "x")
        cases.append((f"check_law_{law}_holds",
                      ["check-law", "--law", law, "--input", _input(holds_on)],
                      0))
        cases.append((f"check_law_{law}_violated",
                      ["check-law", "--law", law,
                       "--input", _input(violated_on)], 2))
    for op, name in TRANSFORM_INPUT.items():
        cases.append((f"transform_{op}",
                      ["transform", "--op", op, "--input", _input(name)], 0))
    cases.append(("construct", ["construct", "--spec",
                                _input("spec_general")], 0))
    for poly in POLYGONS:
        cases.append((f"evaluate_{poly}",
                      ["evaluate", "--spec", _input("spec_general"),
                       "--polygon", _input(poly)], 0))
        cases.append((f"laplace_{poly}",
                      ["laplace", "--polygon", _input(poly),
                       "--order", "8"], 0))
        for spec in EVALUATE_SPECS:
            cases.append((f"evaluate_{poly}_{spec}",
                          ["evaluate", "--spec", _input("spec_" + spec),
                           "--polygon", _input(poly)], 0))
    # 12T: 144 triangles sharing vertices, so many cells per translation
    cases.append(("evaluate_twelve_t",
                  ["evaluate", "--spec", _input("spec_general"),
                   "--polygon", _input("twelve_t")], 0))
    # the transform summed over those 144 triangles at the default order
    cases.append(("laplace_twelve_t",
                  ["laplace", "--polygon", _input("twelve_t"),
                   "--order", "12"], 0))
    # a segment of lattice length 3 and a point, off the origin
    for cell in ("segment_3", "point"):
        cases.append((f"evaluate_{cell}",
                      ["evaluate", "--spec", _input("spec_general"),
                       "--polygon", _input(cell)], 0))
    # order 14 pins the moments over the larger common denominator 16!
    for poly in ("thin_t", "skew_quad"):
        cases.append((f"laplace_{poly}_14",
                      ["laplace", "--polygon", _input(poly),
                       "--order", "14"], 0))
    cases.append(("decompose_general_kappa_-1",
                  ["decompose", "--spec", _input("spec_general"),
                   "--kappa", "-1"], 0))
    cases.append(("decompose_odd_g",
                  ["decompose", "--spec", _input("spec_odd_g")], 0))
    cases.append(("dilative_two_t_delta_0",
                  ["dilative", "--spec", _input("spec_general"),
                   "--delta", "0", "--m", "2",
                   "--polygons", _input("two_t")], 2))
    cases.append(("calibrate_6", ["calibrate", "--order", "6"], 2))
    cases.append(("selftest_6", ["selftest", "--order", "6"], 0))
    return cases


CASES = _cases()


def test_every_law_has_cases():
    from latval.laws import LAW_IDS
    assert tuple(HOLDS_ON) == LAW_IDS


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, name, argv, code):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == code
    with open(os.path.join(GOLDEN, "expected", name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    expected = os.path.join(GOLDEN, "expected")
    os.makedirs(expected, exist_ok=True)
    for name, argv, code in CASES:
        path = os.path.join(expected, name + ".json")
        got = cli.main(argv + ["--out", path])
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
