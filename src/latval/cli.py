"""Command-line front door.

Subcommands: vd, check-law, transform, construct, evaluate, laplace,
dilative, decompose, calibrate, selftest.  Exit codes: 0 success / law
holds, 2 law or dilativity violated, 3 malformed input or an unwritable
--out path, 1 internal error.  Spec and series files carry their own order.
The commands that take no such file (laplace, calibrate, selftest) work at
order 12, overridable by the LATVAL_ORDER environment variable or their
--order flag, up to io.MAX_LAPLACE_ORDER, io.MAX_CALIBRATE_ORDER and
io.MAX_SELFTEST_ORDER; vd's --degree stops at io.MAX_BASIS_DEGREE
and its --max at io.MAX_DIMS_DEGREE, dilative's --delta lies within
-io.MAX_ORDER..io.MAX_ORDER and its --m factors must be distinct and at
most io.MAX_ORDER.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from . import io, laplace, laws, valuation, vspace
from .geometry import (GeometryError, chord_of_split, scale_polygon,
                       split_pairs)
from .group import GroupError, act_on_polygon, act_on_series, d4_elements
from .series import DEFAULT_ORDER, Series2, SeriesError
from .valuation import (NoCandidatePasses, ValuationError, ValuationSpec,
                        cosh_type_g)

Q = Fraction

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VIOLATED = 2
EXIT_MALFORMED = 3


def default_order() -> int:
    env = os.environ.get("LATVAL_ORDER")
    if env is None:
        return DEFAULT_ORDER
    try:
        order = int(env)
    except ValueError:
        raise io.MalformedInput(f"LATVAL_ORDER={json.dumps(env)} is not "
                                "an integer")
    if order < 1:
        raise io.MalformedInput(f"LATVAL_ORDER={order} must be >= 1")
    return order


def _at_least(name: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise io.MalformedInput(f"{name} {value} is out of range: "
                                f"it must be >= {minimum}")
    return value


def _in_range(name: str, value: int, minimum: int,
              maximum: int = io.MAX_ORDER) -> int:
    """value, if it lies in minimum..maximum."""
    if value > maximum:
        raise io.MalformedInput(f"{name} {value} is out of range: "
                                f"it must be <= {maximum}")
    return _at_least(name, value, minimum)


def _order(args, minimum: int, maximum: int) -> int:
    """--order if given, else default_order(); in minimum..maximum."""
    if args.order is not None:
        return _in_range("--order", args.order, minimum, maximum)
    return _in_range("LATVAL_ORDER", default_order(), minimum, maximum)


def _emit(obj, args) -> None:
    _write(io.dumps(obj), args)


def _write(text: str, args) -> None:
    """text to the --out file if one is given, else to stdout."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise io.MalformedInput(
                f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _report(command, status, verified_order, first_violation=None,
            artifacts=(), **extra):
    rep = {"command": command, "status": status,
           "verified_order": verified_order,
           "first_violation": first_violation,
           "artifacts": list(artifacts)}
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# subcommands


def cmd_vd(args) -> int:
    if args.vd_command == "dims":
        table = vspace.dims_table(
            _in_range("--max", args.max, 0, io.MAX_DIMS_DEGREE))
        ok = all(c == p for _, c, p in table)
        if args.format == "table":
            _write("d\tcomputed\tpredicted\n" + "".join(
                f"{d}\t{c}\t{p}\n" for d, c, p in table), args)
        else:
            _emit({"dims": [{"d": d, "computed": c, "predicted": p}
                            for d, c, p in table],
                   "all_match": ok}, args)
        return EXIT_OK if ok else EXIT_VIOLATED
    degree = _in_range("--degree", args.degree, 0, io.MAX_BASIS_DEGREE)
    basis = (vspace.st_basis if args.coords == "st"
             else vspace.vd_basis)(degree)
    _emit(basis.polynomials(), args)
    return EXIT_OK


def cmd_check_law(args) -> int:
    f = io.series2_from_obj(io.load_json(args.input))
    if args.law not in laws.LAW_IDS:
        raise io.MalformedInput(f"unknown law {json.dumps(args.law)}; "
                                f"known: {', '.join(laws.LAW_IDS)}")
    report = laws.check_law(args.law, f)
    _emit(_report(f"check-law {args.law}",
                  "holds" if report.holds else "violated",
                  report.verified_order,
                  laws.violation_obj(report.first_violation)), args)
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_transform(args) -> int:
    f = io.series2_from_obj(io.load_json(args.input))
    ops = {"sharp": laws.sharp, "dagger": laws.dagger,
           "diamond": laws.diamond, "to-st": laws.to_st,
           "from-st": laws.from_st}
    if args.op in ("dagger", "diamond"):   # a division, which loses one order
        _at_least(f"for --op {args.op}, the series order", f.order, 1)
    _emit(ops[args.op](f), args)
    return EXIT_OK


def cmd_construct(args) -> int:
    spec = io.spec_from_obj(io.load_json(args.spec))
    data = valuation.build_triangle_data(spec)
    _emit({"effective_order": data.effective_order, "f0": data.f0,
           "f1": data.f1, "f2": data.f2, "zT": data.zT}, args)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    spec = io.spec_from_obj(io.load_json(args.spec))
    P = io.polygon_from_obj(io.load_json(args.polygon))
    _emit(valuation.z_polygon(spec, P), args)
    return EXIT_OK


def cmd_laplace(args) -> int:
    P = io.polygon_from_obj(io.load_json(args.polygon))
    _emit(laplace.laplace_plus(P, _order(args, 0, io.MAX_LAPLACE_ORDER)), args)
    return EXIT_OK


def _polygon_paths(items):
    paths = []
    for item in items:
        if os.path.isdir(item):
            paths.extend(os.path.join(item, name)
                         for name in sorted(os.listdir(item))
                         if name.endswith(".json"))
        else:
            paths.append(item)
    if not paths:
        raise io.MalformedInput("no polygon files given")
    return paths


def cmd_dilative(args) -> int:
    _in_range("--delta", args.delta, -io.MAX_ORDER)
    spec = io.spec_from_obj(io.load_json(args.spec))
    try:
        m_list = [int(m) for m in args.m.split(",")]
    except ValueError:
        raise io.MalformedInput(f"bad --m list {json.dumps(args.m)}")
    if any(m < 2 for m in m_list):
        raise io.MalformedInput("all m must be >= 2")
    _in_range("the --m factor", max(m_list), 2)
    m, times = Counter(m_list).most_common(1)[0]
    if times > 1:
        raise io.MalformedInput(f"--m repeats the factor {m}; the factors "
                                "must be distinct")
    polys = [io.polygon_from_obj(io.load_json(p))
             for p in _polygon_paths(args.polygons)]
    for P in polys:
        vertices = json.dumps(io.polygon_to_obj(P)["vertices"])
        for m in m_list:
            io.bounded_polygon(scale_polygon(P, m),
                               f"the dilate {m}P of P = {vertices}")
    report = valuation.check_dilative(spec, args.delta, m_list, polys)
    cases = [{"m": c.m, "polygon": io.polygon_to_obj(c.polygon),
              "holds": c.holds,
              "first_violation": laws.violation_obj(c.first_violation)}
             for c in report.cases]
    first = next((c["first_violation"] for c in cases if not c["holds"]), None)
    _emit(_report(f"dilative delta={args.delta}",
                  "holds" if report.holds else "violated",
                  valuation.evaluator_for(spec).order, first, cases=cases),
          args)
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_decompose(args) -> int:
    spec = io.spec_from_obj(io.load_json(args.spec))
    kappa = None if args.kappa == "auto" else Q(args.kappa)
    if kappa is None and spec.c != 0:   # then kappa is calibrated
        _at_least("with --kappa auto, the spec order", spec.order,
                  valuation.CALIBRATE_MIN_ORDER)
    comps = valuation.dilative_decompose(spec, args.delta_max, kappa)
    _emit({"alpha0": io.format_rational(comps.alpha0),
           "kappa": io.format_rational(comps.kappa),
           "odd": {str(d): io.format_rational(v)
                   for d, v in sorted(comps.odd.items())},
           "even_simple": {str(d): p for d, p in comps.even_simple.items()},
           "order": comps.order}, args)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    order = _order(args, valuation.CALIBRATE_MIN_ORDER,
                   io.MAX_CALIBRATE_ORDER)
    try:
        kappa = valuation.calibrate_val0(order)
    except NoCandidatePasses as exc:
        _emit(_report("calibrate", "violated", order - 1,
                      laws.violation_obj(exc.first_violation),
                      finding=str(exc)), args)
        return EXIT_VIOLATED
    _emit({"kappa": io.format_rational(kappa), "order": order}, args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    order = _order(args, 1, io.MAX_SELFTEST_ORDER)
    checks = []

    def record(name, ok):
        checks.append({"name": name, "holds": bool(ok)})

    dims = vspace.dims_table(12)
    record("dimension table d <= 12", all(c == p for _, c, p in dims))
    record("D4 has 8 elements", len(d4_elements()) == 8)

    T, square = valuation.UNIT_TRIANGLE, valuation.UNIT_SQUARE
    lap_spec = ValuationSpec(0, None, Series2.constant(1, order), order)
    for P in (T, square, scale_polygon(T, 2)):
        ok = valuation.z_polygon(lap_spec, P).eq_up_to(
            laplace.laplace_plus(P, order - 1))
        record(f"laplace oracle on {list(P.vertices)}", ok)

    case3 = ValuationSpec(1, cosh_type_g(order),
                          Series2.constant(-1, order), order)
    specs = {"Laplace spec": lap_spec, "case-3 spec": case3}
    for label, spec in specs.items():
        ev = valuation.evaluator_for(spec)
        ok = True
        for P1, P2 in split_pairs(scale_polygon(T, 2), 3):
            seg = chord_of_split(P1, P2)
            whole = ev.z_polygon(scale_polygon(T, 2))
            parts = ev.z_polygon(P1) + ev.z_polygon(P2) \
                - ev.z_segment(*seg.vertices)
            ok = ok and whole.eq_up_to(parts)
        record(f"valuation axiom on 2T splits, {label}", ok)

    xi = io.affine_from_obj({"m": [[2, 1], [1, 1]], "v": [1, -1]})
    for label, spec in specs.items():
        lhs = valuation.z_polygon(spec, act_on_polygon(xi, square))
        rhs = act_on_series(xi, valuation.z_polygon(spec, square))
        record(f"equivariance on the unit square, {label}", lhs.eq_up_to(rhs))

    rho = Series2({(0, 0): 1, (2, 0): 2, (1, 1): 2, (0, 2): 1}, order)
    record("dagger then sharp round-trip",
           laws.sharp(laws.dagger(rho)).eq_up_to(rho))

    two_t = scale_polygon(T, 2)
    z0 = valuation.z_polygon(ValuationSpec(
        1, cosh_type_g(order), Series2.constant(0, order), order), two_t)
    z1 = valuation.z_polygon(case3, two_t)
    record("adjudication: kappa=0 fails at the constant term on 2T",
           z0.coeff(0, 0) == 3 and z1.coeff(0, 0) == 1)

    ok = all(c["holds"] for c in checks)
    _emit(_report("selftest", "holds" if ok else "violated",
                  order - 1, checks=checks), args)
    return EXIT_OK if ok else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # exit 3, not 2; subparsers share the class
        raise io.MalformedInput(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latval",
        description="Exact valuations on lattice polygons with truncated "
                    "power series values.")
    sub = parser.add_subparsers(dest="command", required=True)
    series_help = f"series JSON file, of order at most {io.MAX_ORDER}"
    spec_help = f"spec JSON file, of order at most {io.MAX_ORDER}"
    polygon_help = (f"polygon JSON file, with at most "
                    f"{io.MAX_LATTICE_POINTS} lattice points")

    def order_help(minimum, maximum):
        return (f"series order, {minimum} to {maximum} (default: "
                f"LATVAL_ORDER, else {DEFAULT_ORDER})")

    def out(p):
        p.add_argument("--out", help="write the output to this file")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        out(p)
        return p

    p = sub.add_parser("vd", help="solution-space bases and dimensions")
    p.set_defaults(func=cmd_vd)
    vdsub = p.add_subparsers(dest="vd_command", required=True)
    basis = vdsub.add_parser("basis")
    basis.add_argument("--degree", type=int, required=True,
                       help=f"total degree, 0 to {io.MAX_BASIS_DEGREE}")
    basis.add_argument("--coords", choices=("xy", "st"), default="xy")
    out(basis)
    dims = vdsub.add_parser("dims")
    dims.add_argument("--max", type=int, required=True,
                      help=f"highest total degree, 0 to "
                           f"{io.MAX_DIMS_DEGREE}")
    dims.add_argument("--format", choices=("json", "table"), default="json")
    out(dims)

    p = add("check-law", cmd_check_law, help="verify a functional equation")
    p.add_argument("--law", required=True)
    p.add_argument("--input", required=True, help=series_help)

    p = add("transform", cmd_transform, help="apply a series transform")
    p.add_argument("--op", required=True,
                   choices=("sharp", "dagger", "diamond", "to-st", "from-st"))
    p.add_argument("--input", required=True, help=series_help)

    p = add("construct", cmd_construct, help="build triangle data for a spec")
    p.add_argument("--spec", required=True, help=spec_help)

    p = add("evaluate", cmd_evaluate, help="evaluate a spec on a polygon")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--polygon", required=True, help=polygon_help)

    p = add("laplace", cmd_laplace, help="positive Laplace transform")
    p.add_argument("--polygon", required=True, help=polygon_help)
    p.add_argument("--order", type=int,
                   help=order_help(0, io.MAX_LAPLACE_ORDER))

    p = add("dilative", cmd_dilative, help="test delta-dilativity")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--delta", type=int, required=True,
                   help=f"the exponent delta, {-io.MAX_ORDER} to "
                        f"{io.MAX_ORDER}")
    p.add_argument("--m", default="2,3",
                   help=f"comma-separated dilation factors, distinct, 2 to "
                        f"{io.MAX_ORDER}")
    p.add_argument("--polygons", nargs="+", required=True,
                   help=f"polygon JSON files or directories; each dilate "
                        f"mP may have at most {io.MAX_LATTICE_POINTS} "
                        f"lattice points")

    p = add("decompose", cmd_decompose, help="dilative decomposition")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--delta-max", type=int, default=None, dest="delta_max")
    p.add_argument("--kappa", choices=("auto", "0", "-1"), default="auto")

    p = add("calibrate", cmd_calibrate,
            help="determine the 0-dilative generator's rho constant")
    p.add_argument("--order", type=int,
                   help=order_help(valuation.CALIBRATE_MIN_ORDER,
                                   io.MAX_CALIBRATE_ORDER))

    p = add("selftest", cmd_selftest, help="run the built-in invariant suite")
    p.add_argument("--order", type=int,
                   help=order_help(1, io.MAX_SELFTEST_ORDER))

    return parser


# built once: parse_args leaves the parser unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (io.MalformedInput, valuation.InvalidRho) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED
    except (SeriesError, GroupError, GeometryError, ValuationError,
            laws.LawsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATED
    except Exception as exc:   # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
