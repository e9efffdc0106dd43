"""The golden cases of the CLI, and a check of them that needs only the
standard library.

Each case is one ``latval`` command, run with ``--out``, whose written
bytes and exit code must equal ``tests/golden/expected/<name>.json`` and
the code given; a case of malformed input (exit 3), or of a transform
that is refused (exit 2), writes no file, and its message to stderr must
equal ``tests/golden/expected/<name>.txt``.
``tests/test_golden.py`` runs the same table under pytest.  Run as a
script, this module runs every case through ``cli.main`` in one process,
writing into a temporary directory, and exits 1 if any output byte or
exit code differs; it never writes the expected files.  It imports
nothing outside the standard library and ``latval``, so it also runs
under ``python -S``:

    PYTHONPATH=src python -S tests/golden_cases.py
"""

import contextlib
import os
import sys
import tempfile
from io import StringIO

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
    for d in (0, 2, 4, 5, 6, 12, 14, 24, 30, 48):
        for coords in ("xy", "st"):
            cases.append((f"vd_basis_{coords}_{d}",
                          ["vd", "basis", "--degree", str(d),
                           "--coords", coords], 0))
    cases.append(("vd_dims_30", ["vd", "dims", "--max", "30"], 0))
    # every degree that the degree cache keeps, in both formats
    cases.append(("vd_dims_64", ["vd", "dims", "--max", "64"], 0))
    cases.append(("vd_dims_64_table",
                  ["vd", "dims", "--max", "64", "--format", "table"], 0))
    # one above each vd limit, which ends a call within seconds
    cases.append(("vd_basis_degree_above_limit",
                  ["vd", "basis", "--degree", "129"], cli.EXIT_MALFORMED))
    cases.append(("vd_dims_max_above_limit",
                  ["vd", "dims", "--max", "65"], cli.EXIT_MALFORMED))
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
    # an odd rho whose degree 1 y divides: dagger refuses it at degree 3;
    # diamond refuses no rho, since its bracket is 0 at y = x
    for op, code in (("dagger", 2), ("diamond", 0)):
        cases.append((f"transform_{op}_odd_at_3",
                      ["transform", "--op", op, "--input", _input("odd_at_3")],
                      code))
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
    # a rho outside V: a degree-2 part that violates Aprime, one that
    # satisfies Aprime and violates E, and an odd degree-5 part
    for rho in ("not_aprime", "not_e", "odd"):
        cases.append((f"evaluate_rho_{rho}",
                      ["evaluate", "--spec", _input("spec_rho_" + rho),
                       "--polygon", _input("two_t")], cli.EXIT_MALFORMED))
    # rho = 1 + x^400 and its mirror 1 + y^400: each degree of rho is
    # checked, not solved, so the refusal takes well under a second
    for rho in ("x400", "y400"):
        cases.append((f"evaluate_rho_{rho}",
                      ["evaluate", "--spec", _input("spec_rho_" + rho),
                       "--polygon", _input("two_t")], cli.EXIT_MALFORMED))
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
    cases.append(("dilative_two_t_m_repeated",
                  ["dilative", "--spec", _input("spec_general"),
                   "--delta", "0", "--m", "2,2",
                   "--polygons", _input("two_t")], cli.EXIT_MALFORMED))
    # each dilate of a point is one point: only the factor's bound holds
    cases.append(("dilative_point_m_above_limit",
                  ["dilative", "--spec", _input("spec_general"),
                   "--delta", "0", "--m", "2,1001",
                   "--polygons", _input("point")], cli.EXIT_MALFORMED))
    cases.append(("calibrate_6", ["calibrate", "--order", "6"], 2))
    cases.append(("selftest_6", ["selftest", "--order", "6"], 0))
    # one above each --order limit of the commands that take no file
    cases.append(("laplace_order_above_limit",
                  ["laplace", "--polygon", _input("two_t"),
                   "--order", "201"], cli.EXIT_MALFORMED))
    cases.append(("calibrate_order_above_limit",
                  ["calibrate", "--order", "81"], cli.EXIT_MALFORMED))
    cases.append(("selftest_order_above_limit",
                  ["selftest", "--order", "61"], cli.EXIT_MALFORMED))
    # a series order above the law's own limit, which f1shift needs
    # seconds to pass
    cases.append(("check_law_f1shift_order_above_limit",
                  ["check-law", "--law", "f1shift",
                   "--input", _input("f1_order_1000")], cli.EXIT_MALFORMED))
    # T moved by (10^12, 10^12): 40-bit coordinates at order 200
    cases.append(("laplace_far_t_above_limit",
                  ["laplace", "--polygon", _input("t_far"),
                   "--order", "200"], cli.EXIT_MALFORMED))
    return cases


CASES = _cases()


def _message(argv, code) -> bool:
    """Whether the case writes no file but a message to stderr: malformed
    input, or a transform that is refused, which has no series to write."""
    return code == cli.EXIT_MALFORMED \
        or (code == cli.EXIT_VIOLATED and argv[0] == "transform")


def expected_path(name, argv, code):
    suffix = ".txt" if _message(argv, code) else ".json"
    return os.path.join(GOLDEN, "expected", name + suffix)


def run_case(argv, code, out):
    """(exit code, bytes): the command's --out file, or for a case that
    writes a message its stderr, with None if the file is missing or was
    written anyway."""
    err = StringIO()
    with contextlib.redirect_stderr(err):
        got = cli.main(argv + ["--out", out])
    if _message(argv, code):
        return got, None if os.path.exists(out) else err.getvalue().encode()
    return got, _read(out) if os.path.exists(out) else None


def check() -> list:
    """The names of the cases whose output or exit code differs."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="latval-golden-") as tmp:
        for i, (name, argv, code) in enumerate(CASES):
            got, written = run_case(argv, code, os.path.join(tmp, f"{i}.json"))
            same = written == _read(expected_path(name, argv, code))
            if got != code or not same:
                failed.append(name)
                print(f"{name}: exit code {got} (expected {code}), "
                      f"output {'equal' if same else 'differs'}")
    return failed


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


if __name__ == "__main__":
    failed = check()
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden cases equal")
    sys.exit(1 if failed else 0)
