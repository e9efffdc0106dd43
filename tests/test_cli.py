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
