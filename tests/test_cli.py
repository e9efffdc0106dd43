"""Tests for the command-line interface and JSON serialization."""

import json
from fractions import Fraction as Q

import pytest

from latval import cli, io
from latval.geometry import hull_normalize
from latval.group import AffineUnimodular
from latval.series import Series1, Series2
from latval.valuation import ValuationSpec, dilative_decompose, reassemble


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


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


def test_polygon_round_trip():
    P = hull_normalize([(0, 0), (2, 0), (0, 2)])
    assert io.polygon_from_obj(io.polygon_to_obj(P)) == P
    with pytest.raises(io.MalformedInput):
        io.polygon_from_obj({"vertices": [[0.5, 0], [1, 0]]})
    with pytest.raises(io.MalformedInput):
        io.polygon_from_obj({"vertices": []})


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


def test_format_rational():
    assert io.format_rational(Q(3, 1)) == "3"
    assert io.format_rational(Q(-2, 5)) == "-2/5"


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
    code, _ = run(capsys, "check-law", "--law", "bogus", "--input", path)
    assert code == 3


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


# "terms" must be a list, a JSON boolean is neither an integer nor a
# rational, though Python counts it as an int, and a JSON float is no exact
# rational
@pytest.mark.parametrize("spec,polygon,series,message", [
    (None, None, dict(SERIES_B, terms=5), "terms must be a list, not 5"),
    (None, None, dict(SERIES_B, order=True), "bad order True"),
    (None, None, dict(SERIES_B, terms=[{"e": [True, False], "c": "1"}]),
     "bad exponents (True, False)"),
    (dict(LAPLACE_SPEC, order=True), T_POLY, None, "bad order True"),
    (dict(LAPLACE_SPEC, c=True), T_POLY, None,
     "bad rational True: not a number"),
    (LAPLACE_SPEC, {"vertices": [[True, False], [2, 0], [0, 2]]}, None,
     "vertices must be a nonempty list of integer pairs"),
    (dict(LAPLACE_SPEC, c=0.1), T_POLY, None, FLOAT % "0.1"),
    (dict(LAPLACE_SPEC, c=float("-inf")), T_POLY, None, FLOAT % "-inf"),
    (dict(LAPLACE_SPEC, c=float("nan")), T_POLY, None, FLOAT % "nan"),
    (None, None, dict(SERIES_B, terms=[{"e": [0, 0], "c": 1.0}]),
     FLOAT % "1.0"),
], ids=["terms-not-list", "series-order-bool", "exponents-bool",
        "spec-order-bool", "c-bool", "vertex-bool", "c-float", "c-infinity",
        "c-nan", "term-float"])
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


# text that is not UTF-8, and a number literal that overflows to a float
@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"c": 1e400, "order": 3}', FLOAT % "inf"),
], ids=["utf16-bom", "c-overflow"])
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


def test_transform_dagger(tmp_path, capsys):
    path = write(tmp_path, "rho.json", RHO1)
    code, out = run(capsys, "transform", "--op", "dagger", "--input", path)
    assert code == 0
    f = io.series2_from_obj(json.loads(out))
    assert f.coeff(0, 0) == Q(1, 2)


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
    code, _ = run(capsys, "laplace", "--polygon", tpath)
    assert code == 3


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
