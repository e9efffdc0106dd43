"""Fuzz test of the CLI: mutated golden inputs end in an exit code.

Each example takes the command of one golden case (one case of each
subcommand) as a tree: its argument list, with each JSON file argument
read in as its value.  One to three mutations are applied to the tree,
each to a value anywhere in it: the value is replaced by an atom, deleted,
or, in a list, duplicated.  The tree is written back, a JSON value in the
argument list as a file and a scalar as its JSON text, and run through
``cli.main``.  It must exit 0, 2 or 3 without an internal error, within
ALARM_S seconds.
"""

import copy
import json
import os
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden_cases import CASES
from latval import cli

ATOMS = (0, -1, 10**20, "1/2", None, True, [], {})
ALARM_S = 10
BASES = ("vd_basis_xy_4", "vd_dims_30", "check_law_A_holds",
         "transform_dagger", "construct", "evaluate_two_t_simple",
         "laplace_two_t", "dilative_two_t_delta_0",
         "decompose_general_kappa_-1", "calibrate_6", "selftest_6")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


TREES = {name: [_load(a) if a.endswith(".json") else a for a in argv]
         for name, argv, _ in CASES if name in BASES}
WIDE_T = {"vertices": [[0, 0], [2, 0], [10**20, 2]]}
POINT = {"vertices": [[3, -2]]}
# a dense series of order 200 with one-digit numerators and denominators
DENSE_200 = {"vars": ["x", "y"], "order": 200,
             "terms": [{"e": [p, d - p], "c": f"{p % 9 + 1}/{d % 8 + 2}"}
                       for d in range(201) for p in range(d + 1)]}
RHO_X400 = {"c": "1", "order": 400,
            "rho": {"vars": ["x", "y"], "order": 400,
                    "terms": [{"e": [0, 0], "c": "1"},
                              {"e": [400, 0], "c": "1"}]}}
RHO_ORDER_0 = {"c": "1", "order": 12,
               "rho": {"vars": ["x", "y"], "order": 0,
                       "terms": [{"e": [0, 0], "c": "-1"}]}}


def _slots(tree) -> list:
    """(container, key) of every value below the root of tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return []
    out = []
    for key, value in items:
        out.append((tree, key))
        out.extend(_slots(value))
    return out


@st.composite
def mutated_trees(draw):
    tree = copy.deepcopy(TREES[draw(st.sampled_from(BASES))])
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(tree)
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        kinds = ("replace", "delete") + (("duplicate",)
                                         if isinstance(parent, list) else ())
        kind = draw(st.sampled_from(kinds))
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
        elif kind == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return tree


class Hang(BaseException):
    """Raised by the alarm.  Not an Exception, which cli.main would turn
    into exit 1."""


def _hang(signum, frame):
    raise Hang(f"no exit within {ALARM_S} s")


def _run(tree, tmp) -> tuple:
    """(exit code, stderr) of cli.main on tree, writing into tmp."""
    argv = []
    for i, arg in enumerate(tree):
        if isinstance(arg, (dict, list)):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(arg, fh)
            arg = path
        argv.append(arg if isinstance(arg, str) else json.dumps(arg))
    err = StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(ALARM_S)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = cli.main(argv + ["--out", os.path.join(tmp, "out.json")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(max_examples=150)
@given(tree=mutated_trees())
# 6 lattice points in 10^20 + 1 columns: each column was walked
@example(tree=["evaluate", "--spec", TREES["evaluate_two_t_simple"][2],
               "--polygon", WIDE_T])
# rho = 1 + x^400: solving V_400 to refuse it took about 27 s
@example(tree=["evaluate", "--spec", RHO_X400,
               "--polygon", TREES["evaluate_two_t_simple"][4]])
# dagger(rho) would have order -1
@example(tree=["construct", "--spec", RHO_ORDER_0])
# m^(-delta) with 14 million digits
@example(tree=[str(3 * 10**7) if a == "0" else a
               for a in TREES["dilative_two_t_delta_0"]])
# each dilate of a point is one point, so no lattice point limit bounds
# this 3001-digit factor
@example(tree=["dilative", "--spec", TREES["dilative_two_t_delta_0"][2],
               "--delta", "1000", "--m", str(10**3000), "--polygons", POINT])
# solving V_d for every d up to 1000 runs for hours
@example(tree=["vd", "basis", "--degree", "1000"])
@example(tree=["vd", "dims", "--max", "1000"])
# laplace on T at order 1000 ran 96 s and wrote 851 MB; selftest and
# calibrate at order 1000 run for hours
@example(tree=["laplace", "--polygon", TREES["laplace_two_t"][2],
               "--order", "1000"])
# law A on it took 19 s; its limit is order 130
@example(tree=["check-law", "--law", "A", "--input", DENSE_200])
@example(tree=["selftest", "--order", "1000"])
@example(tree=["calibrate", "--order", "1000"])
def test_mutated_golden_inputs_exit_0_2_or_3(tree):
    with tempfile.TemporaryDirectory(prefix="latval-fuzz-") as tmp:
        code, err = _run(tree, tmp)
    assert code in (0, 2, 3) and "internal error" not in err, (code, err)
