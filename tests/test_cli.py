"""Tests for the command-line interface and JSON serialization."""

import json
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latval import cli, io, laws
from latval.geometry import hull_normalize, scale_polygon
from latval.group import AffineUnimodular, act_on_series
from latval.laws import dagger
from latval.series import Series1, Series2
from latval.valuation import (ValuationSpec, dilative_decompose, reassemble,
                              z_polygon)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


INPUTS = Path(__file__).parent / "golden" / "inputs"
RHO1 = {"vars": ["x", "y"], "order": 12,
        "terms": [{"e": [0, 0], "c": "1"}]}
LAPLACE_SPEC = {"c": "0", "rho": RHO1, "order": 12}
T_POLY = {"vertices": [[0, 0], [1, 0], [0, 1]]}


# ---------------------------------------------------------------------------
# serialization


def test_series_round_trip():
    f = Series2({(1, 2): Q(3, 7), (0, 0): -2}, 9)
    assert io.series2_from_obj(io.series2_to_obj(f)) == f
    g = Series1({0: 1, 3: Q(-1, 6)}, 5)
    obj = io.series1_to_obj(g)
    assert io.series1_from_obj(obj).key() == g.key()


def test_duplicate_exponents_rejected():
    bad = {"vars": ["x", "y"], "order": 4,
           "terms": [{"e": [1, 0], "c": "1"}, {"e": [1, 0], "c": "2"}]}
    with pytest.raises(io.MalformedInput):
        io.series2_from_obj(bad)


def test_term_beyond_order_rejected():
    bad = {"vars": ["x", "y"], "order": 2, "terms": [{"e": [2, 1], "c": "1"}]}
    with pytest.raises(io.MalformedInput):
        io.series2_from_obj(bad)


def test_bad_rational_rejected():
    with pytest.raises(io.MalformedInput):
        io.parse_rational("1/0")
    with pytest.raises(io.MalformedInput):
        io.parse_rational("pi")
    with pytest.raises(io.MalformedInput):
        io.parse_rational(False)
    # a value no JSON text holds, passed by a caller, is named by its type
    with pytest.raises(io.MalformedInput, match="^bad rational a Fraction: "):
        io.parse_rational(Q(1, 2))


def test_polygon_round_trip():
    P = hull_normalize([(0, 0), (2, 0), (0, 2)])
    assert io.polygon_from_obj(io.polygon_to_obj(P)) == P
    with pytest.raises(io.MalformedInput):
        io.polygon_from_obj({"vertices": [[0.5, 0], [1, 0]]})
    with pytest.raises(io.MalformedInput):
        io.polygon_from_obj({"vertices": []})
    # the expected shape is given as JSON text
    with pytest.raises(io.MalformedInput) as err:
        io.polygon_from_obj([[0, 0], [1, 0]])
    assert str(err.value) == 'polygon must be {"vertices": [[x, y], ...]}'


def test_spec_round_trip():
    spec = ValuationSpec(Q(1, 2), Series1({0: 1}, 12),
                         Series2.constant(-1, 12), 12)
    back = io.spec_from_obj(io.spec_to_obj(spec))
    assert back.c == spec.c and back.rho == spec.rho


def test_affine_round_trip():
    xi = AffineUnimodular(((2, 1), (1, 1)), (3, -4))
    assert io.affine_from_obj(io.affine_to_obj(xi)) == xi
    with pytest.raises(io.MalformedInput):
        io.affine_from_obj({"m": [[2, 0], [0, 1]], "v": [0, 0]})
    # JSON booleans are not integers
    with pytest.raises(io.MalformedInput):
        io.affine_from_obj({"m": [[True, False], [False, True]], "v": [0, 0]})
    with pytest.raises(io.MalformedInput):
        io.affine_from_obj({"m": [[1, 0], [0, 1]], "v": [True, 0]})
    with pytest.raises(io.MalformedInput) as err:
        io.affine_from_obj({"v": [0, 0]})
    assert str(err.value) == ('affine element must be '
                              '{"m": [[a, b], [c, d]], "v": [alpha, beta]}')


def test_format_rational():
    assert io.format_rational(Q(3, 1)) == "3"
    assert io.format_rational(Q(-2, 5)) == "-2/5"


def _long_int(text):
    """An int from decimal text of any length, read 1000 digits at a time,
    under the int-from-text limit."""
    digits = text.lstrip("-")
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text.startswith("-") else n


@pytest.mark.parametrize("n", [
    10**599, 10**600 - 1, 10**600, 10**4300, -(3 * 10**4301 + 11),
    7 ** 12000, 10**9000 + 10**4000 + 1,
], ids=["600-digits", "600-nines", "601-digits", "4301-digits",
        "minus-4302-digits", "7-to-the-12000", "inner-zeros"])
def test_format_rational_past_the_int_text_limit(n):
    # Python refuses str() of an int of more than 4300 digits by default
    text = io.format_rational(n)
    assert text[0] in "-123456789" and text.lstrip("-").isdigit()
    assert _long_int(text) == n
    num, den = io.format_rational(Q(n, 10**4400 + 1)).split("/")
    assert (_long_int(num), _long_int(den)) == (n, 10**4400 + 1)


def test_transform_writes_coefficients_of_any_length(tmp_path, capsys):
    # a 4299-digit numerator and denominator load, and dagger multiplies
    # them past 4300 digits
    num, den = 10**4298 + 1, 10**4298 + 3
    F = {"vars": ["x", "y"], "order": 6,
         "terms": [{"e": [2, 0], "c": f"{num}/{den}"}]}
    path = write(tmp_path, "F.json", F)
    code, out = run(capsys, "transform", "--op", "dagger", "--input", path)
    assert code == 0
    expected = dagger(io.series2_from_obj(F))
    got = {tuple(t["e"]): Q(*map(_long_int, t["c"].split("/")))
           for t in json.loads(out)["terms"]}
    assert got == dict(expected.terms())
    assert len(out) > 2 * 4300


def _long_rational(text):
    return Q(*map(_long_int, text.split("/")))


def test_violations_of_any_length_are_reported(tmp_path, capsys):
    # 4299-digit numerators and denominators load; the law sides multiply
    # them past the 4300 digits that str() writes, and a violation still
    # shows them exactly
    big = 10**4298
    F = {"vars": ["x", "y"], "order": 6,
         "terms": [{"e": [2, 0], "c": f"{big + 7}/{big + 9}"},
                   {"e": [1, 1], "c": f"{big + 11}/{big + 13}"}]}
    path = write(tmp_path, "F.json", F)
    f = io.series2_from_obj(F)
    for law in ("Aprime", "rho_sym1"):
        code, out = run(capsys, "check-law", "--law", law, "--input", path)
        (p, q), lhs, rhs = laws.check_law(law, f).first_violation
        got = json.loads(out)["first_violation"]
        assert code == 2 and got["exponent"] == [p, q]
        assert (_long_rational(got["lhs"]), _long_rational(got["rhs"])) \
            == (lhs, rhs)
    assert max(len(got["lhs"]), len(got["rhs"])) > 4300
    spec = write(tmp_path, "spec.json", {"c": "0", "rho": F, "order": 6})
    code = cli.main(["evaluate", "--spec", spec,
                     "--polygon", write(tmp_path, "T.json", T_POLY)])
    err = capsys.readouterr().err
    (p, q), lhs, rhs = laws.check_law("Aprime", f).first_violation
    head = f"error: parameter series violates Aprime at exponent [{p}, {q}]: "
    assert code == 3 and err.startswith(head + "lhs ") and err.endswith("\n")
    lhs_text, rhs_text = err[len(head) + 4:-1].split(", rhs ")
    assert (_long_rational(lhs_text), _long_rational(rhs_text)) == (lhs, rhs)


# strings with quotes, backslashes, control and non-ASCII characters
# (escaped as \uXXXX, astral ones as surrogate pairs) and integers of more
# than 100 digits, nested in lists and objects, empty ones among them
json_text = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10**120, 10**120) | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30)


@given(json_values)
def test_dumps_equals_json_dumps_indent_2(obj):
    assert io.dumps(obj) == json.dumps(obj, indent=2) + "\n"


# coefficients with numerators of more than 600 digits, which _int_text
# writes in parts, and negative ones
numerators = (st.integers(-9, 9) | st.integers(10**600, 10**700)
              | st.integers(-10**700, -10**600))
coefficients = st.builds(Q, numerators, st.integers(1, 10**6))


@st.composite
def series_values(draw):
    order = draw(st.integers(0, 5))
    exponents = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    return Series2(draw(st.dictionaries(st.sampled_from(exponents),
                                        coefficients, max_size=6)), order)


def _series_as_objs(tree):
    """tree with each Series2 in it replaced by its series2_to_obj."""
    if isinstance(tree, Series2):
        return io.series2_to_obj(tree)
    if isinstance(tree, dict):
        return {key: _series_as_objs(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_series_as_objs(value) for value in tree]
    return tree


BIG = Q(-10**650 - 1, 7)


# a series alone (evaluate), in an object (construct) and in a list (vd
# basis), among other values
@given(st.recursive(series_values() | st.integers() | json_text,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(json_text, inner, max_size=3),
                    max_leaves=6))
@example(Series2.zero(0))
@example({"effective_order": 3, "f0": Series2.constant(-2, 3),
          "f1": Series2({(1, 0): BIG, (0, 2): Q(1, 2)}, 3),
          "zT": Series2.zero(3)})
@example([Series2({(0, 0): BIG}, 0), Series2.zero(2), []])
def test_dumps_writes_a_series_as_its_series2_to_obj(tree):
    assert io.dumps(tree) == json.dumps(_series_as_objs(tree),
                                        indent=2) + "\n"


@pytest.mark.parametrize("obj", [0.5, [Q(1, 2)], {"a": (1, 2)},
                                 {1: "key not a string"}])
def test_dumps_rejects_values_the_library_does_not_emit(obj):
    with pytest.raises(TypeError):
        io.dumps(obj)


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_vd_dims(capsys):
    code, out = run(capsys, "vd", "dims", "--max", "12")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"]
    assert data["dims"][0] == {"d": 0, "computed": 1, "predicted": 1}


def test_vd_dims_table_format(capsys):
    code, out = run(capsys, "vd", "dims", "--max", "4", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["d", "computed", "predicted"]


def test_vd_dims_table_format_writes_out(tmp_path, capsys):
    code, shown = run(capsys, "vd", "dims", "--max", "4", "--format", "table")
    path = tmp_path / "dims.tsv"
    code, out = run(capsys, "vd", "dims", "--max", "4", "--format", "table",
                    "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == shown


def test_vd_basis(capsys):
    code, out = run(capsys, "vd", "basis", "--degree", "4")
    assert code == 0
    series = json.loads(out)
    assert len(series) == 1
    assert {"e": [4, 0], "c": "1"} in series[0]["terms"]


def test_check_law_holds(tmp_path, capsys):
    path = write(tmp_path, "rho.json", RHO1)
    code, out = run(capsys, "check-law", "--law", "rhoformula",
                    "--input", path)
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_check_law_violated(tmp_path, capsys):
    rho = {"vars": ["x", "y"], "order": 8,
           "terms": [{"e": [1, 0], "c": "1"}]}
    path = write(tmp_path, "rho.json", rho)
    code, out = run(capsys, "check-law", "--law", "D", "--input", path)
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "violated"
    assert report["first_violation"]["exponent"] == [1, 0]


def test_check_law_unknown(tmp_path, capsys):
    path = write(tmp_path, "rho.json", RHO1)
    assert cli.main(["check-law", "--law", "bogus", "--input", path]) == 3
    assert capsys.readouterr().err == (f'error: unknown law "bogus"; known: '
                                       f'{", ".join(laws.LAW_IDS)}\n')


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "check-law", "--law", "D", "--input", str(path))
    assert code == 3


def test_invalid_rho_exit_code(tmp_path, capsys):
    spec = {"c": "0", "rho": {"vars": ["x", "y"], "order": 8,
                              "terms": [{"e": [2, 0], "c": "1"}]},
            "order": 8}
    path = write(tmp_path, "spec.json", spec)
    tpath = write(tmp_path, "T.json", T_POLY)
    code, _ = run(capsys, "evaluate", "--spec", path, "--polygon", tpath)
    assert code == 3


SERIES_B = {"vars": ["x", "y"], "order": 3, "terms": []}


FLOAT = 'bad rational %s: give an integer or a "num/den" string, not a float'
GRAMMAR = ('bad rational "%s": give an integer, "num/den" or a decimal with '
           "an exponent of at most 4 digits")
TERM_SHAPE = 'a term is {"e": [exponents], "c": rational}'


# "terms" must be a list, a JSON boolean is neither an integer nor a
# rational, though Python counts it as an int, and a JSON float is no exact
# rational; a string rational follows one grammar on every Python, which
# leaves out underscores (read by Fraction since 3.11), spaces around "/"
# (since 3.12) and exponents of more than 4 digits, and its text may not
# exceed Python's 4300 digits; a term that is not {"e": [...], "c": ...}
# is named as JSON text with the shape it should have; every offending
# value is shown as JSON text, never as a Python repr
@pytest.mark.parametrize("spec,polygon,series,message", [
    (None, None, dict(SERIES_B, terms=5), "terms must be a list, not 5"),
    (None, None, dict(SERIES_B, order=True), "bad order true"),
    (None, None, dict(SERIES_B, terms=[{"e": [True, False], "c": "1"}]),
     "bad exponents [true, false]"),
    (dict(LAPLACE_SPEC, order=True), T_POLY, None, "bad order true"),
    (dict(LAPLACE_SPEC, c=True), T_POLY, None,
     "bad rational true: not a number"),
    (LAPLACE_SPEC, {"vertices": [[True, False], [2, 0], [0, 2]]}, None,
     "vertices must be a nonempty list of integer pairs"),
    (dict(LAPLACE_SPEC, c=0.1), T_POLY, None, FLOAT % "0.1"),
    (dict(LAPLACE_SPEC, c=float("-inf")), T_POLY, None, FLOAT % "-Infinity"),
    (dict(LAPLACE_SPEC, c=float("nan")), T_POLY, None, FLOAT % "NaN"),
    (None, None, dict(SERIES_B, terms=[{"e": [0, 0], "c": 1.0}]),
     FLOAT % "1.0"),
    (dict(LAPLACE_SPEC, c="1_000"), T_POLY, None, GRAMMAR % "1_000"),
    (dict(LAPLACE_SPEC, c="3 / 4"), T_POLY, None, GRAMMAR % "3 / 4"),
    (dict(LAPLACE_SPEC, c="1e200000"), T_POLY, None, GRAMMAR % "1e200000"),
    (dict(LAPLACE_SPEC, c="1e10000"), T_POLY, None, GRAMMAR % "1e10000"),
    (dict(LAPLACE_SPEC, c="1e9999"), T_POLY, None,
     'bad rational "1e9999": more than 4300 digits'),
    (None, None, dict(SERIES_B, terms=[{"e": [0, 0], "c": "1e-4300"}]),
     'bad rational "1e-4300": more than 4300 digits'),
    (None, None, dict(SERIES_B, terms=[{"e": [0, 0]}]),
     'bad term {"e": [0, 0]}: ' + TERM_SHAPE),
    (None, None, dict(SERIES_B, terms=[[[0, 0], "1"]]),
     'bad term [[0, 0], "1"]: ' + TERM_SHAPE),
    (None, None, dict(SERIES_B, terms=[{"e": 5, "c": "1"}]),
     'bad term {"e": 5, "c": "1"}: ' + TERM_SHAPE),
    (None, None, dict(SERIES_B, vars=["x", None]), 'bad vars ["x", null]'),
], ids=["terms-not-list", "series-order-bool", "exponents-bool",
        "spec-order-bool", "c-bool", "vertex-bool", "c-float", "c-infinity",
        "c-nan", "term-float", "c-underscore", "c-spaced-slash",
        "c-exponent-6-digits", "c-exponent-5-digits", "c-numerator-too-long",
        "term-denominator-too-long", "term-without-c", "term-not-object",
        "exponents-not-list", "vars-with-null"])
def test_malformed_json_values_exit_3(tmp_path, capsys, spec, polygon,
                                     series, message):
    if series is not None:
        argv = ["check-law", "--law", "B",
                "--input", write(tmp_path, "f.json", series)]
    else:
        argv = ["evaluate", "--spec", write(tmp_path, "spec.json", spec),
                "--polygon", write(tmp_path, "P.json", polygon)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# argparse usage errors are malformed input: exit 3 from main, no SystemExit
@pytest.mark.parametrize("argv, message", [
    (["laplace", "--polygon", None, "--order", "abc"],
     "latval laplace: argument --order: invalid int value: 'abc'"),
    (["evaluate", "--polygon", None],
     "latval evaluate: the following arguments are required: --spec"),
    (["decompose", "--spec", None, "--kappa", "5"],
     "latval decompose: argument --kappa: invalid choice: '5'"),
    (["vd", "basis"],
     "latval vd basis: the following arguments are required: --degree"),
    ([], "latval: the following arguments are required: command"),
], ids=["order-not-int", "missing-spec", "kappa-choice", "missing-degree",
        "no-command"])
def test_usage_errors_exit_3(tmp_path, capsys, argv, message):
    argv = [write(tmp_path, "T.json", T_POLY) if a is None else a
            for a in argv]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latval evaluate")


# text that is not UTF-8, a number literal that overflows to a float, and
# arrays nested deeper than the JSON decoder recurses
@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"c": 1e400, "order": 3}', FLOAT % "Infinity"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
], ids=["utf16-bom", "c-overflow", "deep-nesting"])
def test_malformed_spec_files_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_bytes(text)
    assert cli.main(["construct", "--spec", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_string_rationals_load_exactly():
    assert io.parse_rational("1/10") == Q(1, 10)
    assert io.parse_rational("0.1") == Q(1, 10)
    assert io.parse_rational(-7) == -7
    assert io.parse_rational("1e5") == 100000
    assert io.parse_rational("-3/7") == Q(-3, 7)
    assert io.parse_rational(" 3/4 ") == Q(3, 4)
    assert io.parse_rational("2.5E-3") == Q(1, 400)


def test_transform_dagger(tmp_path, capsys):
    path = write(tmp_path, "rho.json", RHO1)
    code, out = run(capsys, "transform", "--op", "dagger", "--input", path)
    assert code == 0
    f = io.series2_from_obj(json.loads(out))
    assert f.coeff(0, 0) == Q(1, 2)


@pytest.mark.parametrize("op", ["dagger", "diamond"])
@pytest.mark.parametrize("terms", [[], [{"e": [0, 0], "c": "1"}]])
def test_transform_dividing_an_order_0_series_exits_3(tmp_path, capsys, op,
                                                      terms):
    # the division by a linear form loses one order, and order 0 has none
    # to lose; a nonzero constant is not divisible either way
    path = write(tmp_path, "o0.json",
                 {"vars": ["x", "y"], "order": 0, "terms": terms})
    assert cli.main(["transform", "--op", op, "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: for --op {op}, the series order 0 is "
                            "out of range: it must be >= 1\n")


def test_evaluate_matches_laplace_byte_identical(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert cli.main(["evaluate", "--spec", spath, "--polygon", tpath,
                     "--out", out1]) == 0
    assert cli.main(["laplace", "--polygon", tpath, "--order", "11",
                     "--out", out2]) == 0
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    # deterministic: re-running reproduces the bytes
    assert cli.main(["evaluate", "--spec", spath, "--polygon", tpath,
                     "--out", out1]) == 0
    assert (tmp_path / "a.json").read_bytes() == a


def test_construct(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    code, out = run(capsys, "construct", "--spec", spath)
    assert code == 0
    data = json.loads(out)
    assert data["effective_order"] == 11
    assert io.series2_from_obj(data["zT"]).coeff(0, 0) == Q(1, 2)


def test_dilative_holds_and_violated(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    code, out = run(capsys, "dilative", "--spec", spath, "--delta", "-2",
                    "--m", "2,3", "--polygons", tpath)
    assert code == 0 and json.loads(out)["status"] == "holds"
    code, out = run(capsys, "dilative", "--spec", spath, "--delta", "0",
                    "--m", "2", "--polygons", tpath)
    assert code == 2 and json.loads(out)["status"] == "violated"


def test_dilative_reports_first_violation(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    code, out = run(capsys, "dilative", "--spec", spath, "--delta", "-2",
                    "--m", "2", "--polygons", tpath)
    assert code == 0 and json.loads(out)["first_violation"] is None
    code, out = run(capsys, "dilative", "--spec", spath, "--delta", "0",
                    "--m", "3,2", "--polygons", tpath)
    report = json.loads(out)
    assert code == 2 and report["status"] == "violated"
    failing = [c for c in report["cases"] if not c["holds"]]
    assert report["first_violation"] == failing[0]["first_violation"]
    assert report["first_violation"] is not None


def test_dilative_verified_order_is_the_evaluators(tmp_path, capsys):
    # rho known to order 4 caps every value at order 3, below order - 1
    rho4 = {"vars": ["x", "y"], "order": 4,
            "terms": [{"e": [0, 0], "c": "1"}]}
    spath = write(tmp_path, "spec.json", {"c": "0", "rho": rho4, "order": 12})
    tpath = write(tmp_path, "T.json", T_POLY)
    code, out = run(capsys, "dilative", "--spec", spath, "--delta", "-2",
                    "--m", "2", "--polygons", tpath)
    assert code == 0 and json.loads(out)["verified_order"] == 3


def test_dilative_bad_m(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    code, _ = run(capsys, "dilative", "--spec", spath, "--delta", "0",
                  "--m", "1", "--polygons", tpath)
    assert code == 3
    assert cli.main(["dilative", "--spec", spath, "--delta", "0",
                     "--m", '2,"3"', "--polygons", tpath]) == 3
    assert capsys.readouterr().err == 'error: bad --m list "2,\\"3\\""\n'


def test_dilative_repeated_m_exits_3(tmp_path, capsys):
    # a repeated factor would only repeat its cases
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    assert cli.main(["dilative", "--spec", spath, "--delta", "0",
                     "--m", "3,2,3", "--polygons", tpath]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --m repeats the factor 3; the factors "
                            "must be distinct\n")


def test_dilative_m_beyond_the_limit_exits_3(tmp_path, capsys):
    # every dilate of a point is one point, so no lattice point limit
    # bounds m there
    argv = ["dilative", "--spec", write(tmp_path, "spec.json", LAPLACE_SPEC),
            "--delta", "0",
            "--polygons", write(tmp_path, "p.json", {"vertices": [[3, -2]]})]
    for m in (io.MAX_ORDER + 1, 10**30):
        assert cli.main(argv + ["--m", f"{m},2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the --m factor {m} is out of range: "
                                f"it must be <= {io.MAX_ORDER}\n")
    assert run(capsys, *argv, "--m", f"2,{io.MAX_ORDER}")[0] == 0


def test_decompose(tmp_path, capsys):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    code, out = run(capsys, "decompose", "--spec", spath, "--kappa", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["alpha0"] == "0"
    assert list(data["even_simple"]) == ["-2"]


def test_decompose_simple_spec_auto_kappa(tmp_path, capsys):
    # alpha0 = c = 0, so kappa needs no calibration and is recorded as 0
    rho1 = {"vars": ["x", "y"], "order": 8, "terms": [{"e": [0, 0], "c": "1"}]}
    spec_obj = {"c": "0", "rho": rho1, "order": 8}
    spath = write(tmp_path, "spec.json", spec_obj)
    code, out = run(capsys, "decompose", "--spec", spath)
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == "0" and data["alpha0"] == "0"
    spec = io.spec_from_obj(spec_obj)
    back = reassemble(dilative_decompose(spec))
    assert back.key() == spec.key()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_decompose_auto_kappa_below_order_4_exits_3(tmp_path, capsys, order):
    # c != 0, so --kappa auto calibrates kappa, which needs order >= 4
    spec = json.loads((INPUTS / "spec_general.json").read_text())
    spath = write(tmp_path, "spec.json", dict(spec, order=order))
    assert cli.main(["decompose", "--spec", spath]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: with --kappa auto, the spec order "
                            f"{order} is out of range: it must be >= 4\n")
    code, out = run(capsys, "decompose", "--spec", spath, "--kappa", "-1")
    assert code == 0 and json.loads(out)["order"] == order


def test_order_above_the_limit_exits_3(tmp_path, capsys):
    rho = json.loads((INPUTS / "rho.json").read_text())
    assert io.series2_from_obj(dict(rho, order=io.MAX_ORDER)).order \
        == io.MAX_ORDER
    for order in (io.MAX_ORDER + 1, 10**20):
        path = write(tmp_path, "rho.json", dict(rho, order=order))
        assert cli.main(["check-law", "--law", "Aprime", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: order {order} is above the limit "
                                f"{io.MAX_ORDER}\n")
    spath = write(tmp_path, "spec.json",
                  dict(LAPLACE_SPEC, order=io.MAX_ORDER + 1))
    assert cli.main(["evaluate", "--spec", spath,
                     "--polygon", write(tmp_path, "T.json", T_POLY)]) == 3
    assert capsys.readouterr().err == (f"error: order {io.MAX_ORDER + 1} is "
                                       f"above the limit {io.MAX_ORDER}\n")


HUGE_POLY = {"vertices": [[0, 0], [2, 0], [0, 10**20]]}


def test_lattice_points_above_the_limit_exit_3(tmp_path, capsys):
    # counted by Pick's theorem, without enumerating the 1.5 * 10^20 points
    path = write(tmp_path, "huge.json", HUGE_POLY)
    n = 15 * 10**19 + 3
    for argv in (["evaluate", "--spec", write(tmp_path, "spec.json",
                                              LAPLACE_SPEC)],
                 ["laplace"]):
        start = time.perf_counter()
        assert cli.main(argv + ["--polygon", path]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: polygon has {n} lattice points, "
                                f"above the limit {io.MAX_LATTICE_POINTS}\n")


def test_dilates_above_the_lattice_point_limit_exit_3(tmp_path, capsys):
    # T has 3 lattice points; its dilate mT has (m + 1)(m + 2) / 2
    m = 446
    assert (m + 1) * (m + 2) // 2 > io.MAX_LATTICE_POINTS \
        >= m * (m + 1) // 2
    argv = ["dilative", "--spec", write(tmp_path, "spec.json", LAPLACE_SPEC),
            "--delta", "-2", "--polygons", write(tmp_path, "T.json", T_POLY)]
    assert cli.main(argv + ["--m", f"2,{m}"]) == 3
    assert capsys.readouterr().err == (
        f"error: the dilate {m}P of P = [[0, 0], [1, 0], [0, 1]] has "
        f"{(m + 1) * (m + 2) // 2} lattice points, above the limit "
        f"{io.MAX_LATTICE_POINTS}\n")
    assert io.bounded_polygon(scale_polygon(io.polygon_from_obj(T_POLY),
                                            m - 1)).dim == 2


def test_wide_polygon_is_walked_along_its_shorter_side(tmp_path, capsys):
    # 6 lattice points in 10^20 + 1 columns but 3 rows; it is the image of
    # 2T under the shear (x, y) -> (x + (W / 2) y, y)
    W = 10**20
    spec = write(tmp_path, "spec.json", LAPLACE_SPEC)
    start = time.perf_counter()
    code, out = run(capsys, "evaluate", "--spec", spec, "--polygon",
                    write(tmp_path, "wide.json",
                          {"vertices": [[0, 0], [2, 0], [W, 2]]}))
    assert code == 0 and time.perf_counter() - start < 5
    shear = AffineUnimodular(((1, W // 2), (0, 1)), (0, 0))
    two_t = hull_normalize([(0, 0), (2, 0), (0, 2)])
    assert io.series2_from_obj(json.loads(out)) == act_on_series(
        shear, z_polygon(io.spec_from_obj(LAPLACE_SPEC), two_t))


def test_polygon_spanning_too_many_lines_exits_3(tmp_path, capsys):
    # a unimodular sliver: 3 lattice points, but 10^7 + 2 lattice lines
    # along either axis, each of which lattice_points would walk
    n = 10**7
    path = write(tmp_path, "sliver.json",
                 {"vertices": [[0, 0], [n, n + 1], [n + 1, n + 2]]})
    for argv in (["evaluate", "--spec", write(tmp_path, "spec.json",
                                              LAPLACE_SPEC)],
                 ["laplace"]):
        assert cli.main(argv + ["--polygon", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: polygon spans {n + 2} lattice lines along its shorter "
            f"side, above the limit {io.MAX_LATTICE_POINTS}\n")


RHO_ORDER_0_SPEC = {"c": "1", "order": 12,
                    "rho": {"vars": ["x", "y"], "order": 0,
                            "terms": [{"e": [0, 0], "c": "-1"}]}}


@pytest.mark.parametrize("command",
                         ["construct", "evaluate", "dilative", "decompose"])
def test_rho_of_order_0_exits_3(tmp_path, capsys, command):
    # dagger(rho), a division, would have order -1
    poly = write(tmp_path, "T.json", T_POLY)
    extra = {"construct": [], "evaluate": ["--polygon", poly],
             "dilative": ["--delta", "0", "--polygons", poly],
             "decompose": ["--kappa", "0"]}[command]
    spec = write(tmp_path, "spec.json", RHO_ORDER_0_SPEC)
    assert cli.main([command, "--spec", spec] + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rho has order 0; it must have order >= 1\n"


def test_delta_beyond_the_limit_exits_3(tmp_path, capsys):
    argv = ["dilative", "--spec", write(tmp_path, "spec.json", LAPLACE_SPEC),
            "--m", "2", "--polygons", write(tmp_path, "T.json", T_POLY)]
    for delta, bound in ((io.MAX_ORDER + 1, f"<= {io.MAX_ORDER}"),
                         (3 * 10**7, f"<= {io.MAX_ORDER}"),
                         (-io.MAX_ORDER - 1, f">= {-io.MAX_ORDER}")):
        assert cli.main(argv + ["--delta", str(delta)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --delta {delta} is out of range: "
                                f"it must be {bound}\n")
    # the Laplace spec is (-2)-dilative
    for delta, code in ((io.MAX_ORDER, 2), (-io.MAX_ORDER, 2), (-2, 0)):
        assert run(capsys, *argv, "--delta", str(delta))[0] == code


@pytest.mark.parametrize("command, limits", [
    ("check-law", ("MAX_ORDER",)), ("transform", ("MAX_ORDER",)),
    ("construct", ("MAX_ORDER",)), ("decompose", ("MAX_ORDER",)),
    ("evaluate", ("MAX_ORDER", "MAX_LATTICE_POINTS")),
    ("dilative", ("MAX_ORDER", "MAX_LATTICE_POINTS")),
    ("laplace", ("MAX_LATTICE_POINTS", "MAX_LAPLACE_ORDER")),
    ("calibrate", ("MAX_CALIBRATE_ORDER",)),
    ("selftest", ("MAX_SELFTEST_ORDER",)),
    ("vd basis", ("MAX_BASIS_DEGREE",)),
    ("vd dims", ("MAX_DIMS_DEGREE",))])
def test_help_states_the_limits(capsys, command, limits):
    with pytest.raises(SystemExit):
        cli.main(command.split() + ["--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in limits:
        assert str(getattr(io, name)) in text


def test_violations_render_exact_rationals(tmp_path, capsys):
    spec = {"c": "0", "rho": {"vars": ["x", "y"], "order": 8,
                              "terms": [{"e": [2, 0], "c": "1"}]},
            "order": 8}
    code = cli.main(["evaluate", "--spec", write(tmp_path, "spec.json", spec),
                     "--polygon", write(tmp_path, "T.json", T_POLY)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Fraction(" not in err and "exponent [1, 2]: lhs 0, rhs 1" in err
    code, out = run(capsys, "calibrate", "--order", "8")
    assert code == 2
    finding = json.loads(out)["finding"]
    assert "Fraction(" not in finding and "lhs 3, rhs 3/2" in finding


def test_calibrate_reports_finding(capsys):
    code, out = run(capsys, "calibrate", "--order", "8")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "violated"
    assert "kappa" in report["finding"]


def test_calibrate_reports_first_violation(capsys):
    code, out = run(capsys, "calibrate", "--order", "8")
    report = json.loads(out)
    # the violation that opens the finding: kappa = 0 at the constant term
    assert code == 2
    assert report["first_violation"] == {"exponent": [0, 0], "lhs": "3",
                                         "rhs": "3/2"}
    assert report["finding"].startswith("kappa = 0 violates dilativity at "
                                        "exponent [0, 0]: lhs 3, rhs 3/2")


def test_env_order(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LATVAL_ORDER", "6")
    tpath = write(tmp_path, "T.json", T_POLY)
    code, out = run(capsys, "laplace", "--polygon", tpath)
    assert code == 0
    assert json.loads(out)["order"] == 6
    monkeypatch.setenv("LATVAL_ORDER", "zero")
    assert cli.main(["laplace", "--polygon", tpath]) == 3
    assert capsys.readouterr().err == ('error: LATVAL_ORDER="zero" is not an '
                                       'integer\n')


def test_selftest(capsys):
    code, out = run(capsys, "selftest", "--order", "8")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "holds"
    assert all(c["holds"] for c in report["checks"])


def test_selftest_check_names_are_unique(capsys):
    code, out = run(capsys, "selftest", "--order", "6")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0 and len(names) == len(set(names))
    assert "valuation axiom on 2T splits, Laplace spec" in names
    assert "equivariance on the unit square, case-3 spec" in names


@pytest.mark.parametrize("argv, env, message", [
    (["laplace", "--polygon", None, "--order", "-1"], None,
     "--order -1 is out of range: it must be >= 0"),
    (["calibrate", "--order", "2"], None,
     "--order 2 is out of range: it must be >= 4"),
    (["calibrate"], "2", "LATVAL_ORDER 2 is out of range: it must be >= 4"),
    (["selftest", "--order", "0"], None,
     "--order 0 is out of range: it must be >= 1"),
    (["vd", "basis", "--degree", "-2"], None,
     "--degree -2 is out of range: it must be >= 0"),
    (["vd", "dims", "--max", "-1"], None,
     "--max -1 is out of range: it must be >= 0"),
], ids=["laplace-order", "calibrate-order", "calibrate-env-order",
        "selftest-order", "vd-basis-degree", "vd-dims-max"])
def test_out_of_range_order_or_degree(tmp_path, capsys, monkeypatch,
                                      argv, env, message):
    if env is not None:
        monkeypatch.setenv("LATVAL_ORDER", env)
    argv = [write(tmp_path, "T.json", T_POLY) if a is None else a
            for a in argv]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


HUGE = str(10**20)


@pytest.mark.parametrize("argv, env, message", [
    (["laplace", "--polygon", None, "--order", HUGE], None,
     f"--order {HUGE} is out of range: it must be <= 200"),
    (["laplace", "--polygon", None], HUGE,
     f"LATVAL_ORDER {HUGE} is out of range: it must be <= 200"),
    (["laplace", "--polygon", None, "--order", "1001"], None,
     "--order 1001 is out of range: it must be <= 200"),
    (["laplace", "--polygon", None, "--order", "201"], None,
     "--order 201 is out of range: it must be <= 200"),
    (["selftest", "--order", HUGE], None,
     f"--order {HUGE} is out of range: it must be <= 60"),
    (["selftest"], "61", "LATVAL_ORDER 61 is out of range: it must be <= 60"),
    (["calibrate", "--order", HUGE], None,
     f"--order {HUGE} is out of range: it must be <= 80"),
    (["calibrate", "--order", "81"], None,
     "--order 81 is out of range: it must be <= 80"),
    (["vd", "basis", "--degree", HUGE], None,
     f"--degree {HUGE} is out of range: it must be <= 128"),
    (["vd", "dims", "--max", HUGE], None,
     f"--max {HUGE} is out of range: it must be <= 64"),
], ids=["laplace-order", "laplace-env-order", "laplace-order-1001",
        "laplace-order-201", "selftest-order", "selftest-env-order-61",
        "calibrate-order", "calibrate-order-81", "vd-basis-degree",
        "vd-dims-max"])
def test_order_or_degree_above_the_limit_exits_3(tmp_path, capsys,
                                                 monkeypatch, argv, env,
                                                 message):
    # before any work: at 10^20 a factorial or a table would overflow or
    # never finish
    assert (io.MAX_ORDER, io.MAX_BASIS_DEGREE, io.MAX_DIMS_DEGREE,
            io.MAX_LAPLACE_ORDER, io.MAX_SELFTEST_ORDER,
            io.MAX_CALIBRATE_ORDER) == (1000, 128, 64, 200, 60, 80)
    if env is not None:
        monkeypatch.setenv("LATVAL_ORDER", env)
    argv = [write(tmp_path, "T.json", T_POLY) if a is None else a
            for a in argv]
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["evaluate", "dilative"])
def test_unwritable_out_is_malformed(tmp_path, capsys, command):
    spath = write(tmp_path, "spec.json", LAPLACE_SPEC)
    tpath = write(tmp_path, "T.json", T_POLY)
    argv = {"evaluate": ["evaluate", "--spec", spath, "--polygon", tpath],
            "dilative": ["dilative", "--spec", spath, "--delta", "-2",
                         "--m", "2", "--polygons", tpath]}[command]
    target = str(tmp_path / "missing" / "x.json")
    assert cli.main(argv + ["--out", target]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {target}: "
                            f"No such file or directory\n")


def test_out_does_not_stick_between_calls(tmp_path, capsys):
    tpath = write(tmp_path, "T.json", T_POLY)
    out = tmp_path / "out.json"
    assert cli.main(["laplace", "--polygon", tpath, "--order", "2",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    code, text = run(capsys, "laplace", "--polygon", tpath, "--order", "2")
    assert code == 0 and text == out.read_text(encoding="utf-8")
