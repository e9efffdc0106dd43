"""JSON serialization for series, polygons, specs, and group elements.

Formats:
    Series:  {"vars": ["x", "y"], "order": N,
              "terms": [{"e": [p, q], "c": "num/den"}]}
             (a series in x alone, such as g, uses "vars": ["x"] and
             single-entry exponents)
    Polygon: {"vertices": [[x, y], ...]}
    Spec:    {"c": "1", "g": {series in x}, "rho": {series}, "order": 12}
    Affine:  {"m": [[a, b], [c, d]], "v": [alpha, beta]}

Dumps are canonical: sorted terms, stable key order, rationals rendered as
"num/den" (or a plain integer string), so identical inputs produce
byte-identical output.  Loads take a rational from a JSON integer or a
string such as "-3/7", never from a float, which is already rounded to
binary; they validate shape and reject duplicate exponents.  Every load
error raises MalformedInput, an unreadable file or bad UTF-8 or JSON too.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import LatticePolygon, hull_normalize
from .group import AffineUnimodular, NotUnimodular
from .series import DEFAULT_ORDER, Series1, Series2
from .valuation import ValuationSpec

Q = Fraction


class MalformedInput(Exception):
    pass


def format_rational(v) -> str:
    v = Q(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _is_int(v) -> bool:
    """A JSON integer; booleans, which Python counts as ints, are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise MalformedInput(f"bad rational {s!r}: not a number")
    if isinstance(s, float):   # also NaN and Infinity; rounded to binary
        raise MalformedInput(f"bad rational {s!r}: give an integer or a "
                             '"num/den" string, not a float')
    try:
        return Q(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise MalformedInput(f"bad rational {s!r}: {exc}") from None


def series2_to_obj(f: Series2) -> dict:
    return {"vars": ["x", "y"], "order": f.order,
            "terms": [{"e": [p, q], "c": format_rational(v)}
                      for (p, q), v in f.terms()]}


def series1_to_obj(f: Series2) -> dict:
    """The univariate form of a series in x alone."""
    return {"vars": ["x"], "order": f.order,
            "terms": [{"e": [p], "c": format_rational(v)}
                      for (p, _), v in f.terms()]}


def _load_terms(obj, nvars):
    if not isinstance(obj, dict):
        raise MalformedInput("series must be a JSON object")
    if obj.get("vars") not in (["x"], ["x", "y"]):
        raise MalformedInput(f"bad vars {obj.get('vars')!r}")
    if len(obj["vars"]) != nvars:
        raise MalformedInput(f"expected {nvars} variable(s)")
    order = obj.get("order", DEFAULT_ORDER)
    if not _is_int(order) or order < 0:
        raise MalformedInput(f"bad order {order!r}")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise MalformedInput(f"terms must be a list, not {terms!r}")
    seen = {}
    for term in terms:
        try:
            exps = tuple(term["e"])
            coeff = parse_rational(term["c"])
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad term {term!r}: {exc}") from None
        if len(exps) != nvars or any(not _is_int(e) or e < 0 for e in exps):
            raise MalformedInput(f"bad exponents {exps!r}")
        if exps in seen:
            raise MalformedInput(f"duplicate exponent {list(exps)}")
        if sum(exps) > order:
            raise MalformedInput(f"term {list(exps)} exceeds order {order}")
        seen[exps] = coeff
    return seen, order


def series2_from_obj(obj) -> Series2:
    terms, order = _load_terms(obj, 2)
    return Series2(terms, order)


def series1_from_obj(obj) -> Series2:
    terms, order = _load_terms(obj, 1)
    return Series1({e[0]: c for e, c in terms.items()}, order)


def polygon_to_obj(P: LatticePolygon) -> dict:
    return {"vertices": [list(v) for v in P.vertices]}


def polygon_from_obj(obj) -> LatticePolygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise MalformedInput("polygon must be {'vertices': [[x, y], ...]}")
    pts = obj["vertices"]
    if (not isinstance(pts, list) or not pts
            or any(not isinstance(p, list) or len(p) != 2
                   or any(not _is_int(c) for c in p) for p in pts)):
        raise MalformedInput("vertices must be a nonempty list of integer pairs")
    return hull_normalize([tuple(p) for p in pts])


def spec_to_obj(spec: ValuationSpec) -> dict:
    return {"c": format_rational(spec.c), "g": series1_to_obj(spec.g),
            "rho": series2_to_obj(spec.rho), "order": spec.order}


def spec_from_obj(obj) -> ValuationSpec:
    if not isinstance(obj, dict):
        raise MalformedInput("spec must be a JSON object")
    order = obj.get("order", DEFAULT_ORDER)
    if not _is_int(order) or order < 1:
        raise MalformedInput(f"bad order {order!r}")
    c = parse_rational(obj.get("c", "0"))
    g = series1_from_obj(obj["g"]) if "g" in obj else Series2.zero(order)
    rho = series2_from_obj(obj["rho"]) if "rho" in obj else Series2.zero(order)
    try:
        return ValuationSpec(c, g, rho, order)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def affine_to_obj(xi: AffineUnimodular) -> dict:
    return {"m": [list(row) for row in xi.m], "v": list(xi.v)}


def affine_from_obj(obj) -> AffineUnimodular:
    if not isinstance(obj, dict) or "m" not in obj:
        raise MalformedInput("affine element must be {'m': [[..]], 'v': [..]}")
    m = obj["m"]
    v = obj.get("v", [0, 0])
    if (not isinstance(m, list) or len(m) != 2
            or any(not isinstance(r, list) or len(r) != 2
                   or any(not _is_int(e) for e in r) for r in m)
            or not isinstance(v, list) or len(v) != 2
            or any(not _is_int(e) for e in v)):
        raise MalformedInput("matrix must be 2x2 integer, translation length 2")
    try:
        return AffineUnimodular((tuple(m[0]), tuple(m[1])), tuple(v))
    except NotUnimodular as exc:
        raise MalformedInput(str(exc)) from None


def dumps(obj) -> str:
    """Canonical JSON text (stable key order, newline-terminated)."""
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or UTF-8
        raise MalformedInput(f"{path}: {exc}") from None
