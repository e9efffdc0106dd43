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
byte-identical output; a Series2 given to ``dumps`` anywhere in a tree is
written in the series format.  Loads take a rational from a JSON integer
or a string, never from a float, which is already rounded to binary.  A
string is an optionally signed integer with an optional "/den" ("-3/7"),
or a decimal with an optional exponent of at most 4 digits ("0.1", "1e5",
"2.5E-3"), with surrounding whitespace allowed; its numerator and
denominator may have at most 4300 digits, the most that Python reads
from text by default.  Loads validate shape and reject duplicate
exponents, an order above MAX_ORDER and a polygon with more than
MAX_LATTICE_POINTS lattice points or, if full-dimensional, spanning more
than MAX_LATTICE_POINTS lattice lines along its shorter side.  Every load
error raises MalformedInput, an unreadable file or bad UTF-8, JSON nested
too deep or bad JSON too; its message shows the offending value as JSON
text.
Rationals are written with any number of digits; a series' coefficient
texts come from series.coefficient_texts, made from its int numerators.

``load_spec`` reads a spec file on every call and makes the checked spec of
its text once: ``_spec_of_text`` is a functools.lru_cache of the last
valuation.EVALUATORS_MAX texts, whose ``cache_info()`` gives its hits and
misses.  An edited file is a new text and is parsed again, and a text that
fails raises its error, with the same message, on every call, since the
cache keeps no exception.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str

from .geometry import (LatticePolygon, hull_normalize, lattice_point_count,
                       shorter_span)
from .group import AffineUnimodular, NotUnimodular
from .series import (DEFAULT_ORDER, Series1, Series2, coefficient_texts,
                     format_rational)
from .valuation import EVALUATORS_MAX, ValuationSpec

Q = Fraction


class MalformedInput(Exception):
    pass


_RATIONAL = re.compile(r"\s*[+-]?(?:[0-9]+(?:/[0-9]+)?"
                       r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]{1,4})?)"
                       r"\s*", re.ASCII)
_MAX_DIGITS = 4300   # Python's default limit for reading an int from text
_TOO_LONG = 10 ** _MAX_DIGITS
MAX_ORDER = 1000     # the highest order a series or spec file may carry
# the highest --order (or LATVAL_ORDER) of `laplace`, `selftest` and
# `calibrate`: at its limit each call took at most 4 s on a 2-core x86_64
# machine, and `laplace` on [(0, 0), (400, 1), (1, 400)] wrote 13 MB
MAX_LAPLACE_ORDER = 200
MAX_SELFTEST_ORDER = 60
MAX_CALIBRATE_ORDER = 80
# the most of --order times the bits of a polygon's largest |coordinate|
# that `laplace` takes: the digits of its degree-k coefficients grow as k
# times those bits, and at order 200 with 10 bits a call took at most
# 1.0 s and wrote 15 MB in a fresh process on a 2-core x86_64 machine (T
# moved by (10^12, 10^12), 40 bits, wrote 39 MB in 2.7 s)
MAX_LAPLACE_BITS = 2000
# the highest series order of `check-law` for each law.  The limits bound
# a check that holds, which computes every degree: at its limit check_law
# took at most 2 s on a dense series of one-digit numerators and
# denominators on a 2-core x86_64 machine, and the time grows about as the
# fifth power of the order (f1shift took 4.4 s at order 160).  A violated
# law returns at its first unequal degree: on dense series of three-digit
# numerators and denominators violated at degree 1, each twisted law at
# its limit and E and Aprime at 180 took 0.14-0.54 s in a fresh process
# there (6.6-11.3 s when every degree was computed)
MAX_LAW_ORDER = {
    "A": 130, "B": 450, "C": 140, "f2simple2": 130, "f23up": 130,
    "Aprime": 200, "Bprime": 200, "Cprime": 180, "D": 450, "E": 180,
    "rhoformula": 160, "rho_sym1": 180, "rho_sym2": 200, "rho_sym3": 360,
    "Adoubleprime": 150, "f1shift": 150, "f1period": 200, "f1neg": 500,
    "f0gl2z": 200}
# the highest degrees of `vd basis --degree` and `vd dims --max`: solving
# V_d grows about as d^3, and at its limit each call took at most 0.5 s
# in a fresh process on a 2-core x86_64 machine
MAX_BASIS_DEGREE = 128
MAX_DIMS_DEGREE = 64
# the most lattice points of a polygon that one evaluation triangulates
MAX_LATTICE_POINTS = 100000


def _json_text(value) -> str:
    """A value read from JSON, as JSON text for a message; a value that
    JSON text cannot hold, passed in by a caller, is named by its type."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return f"a {type(value).__name__}"


def _is_int(v) -> bool:
    """A JSON integer; booleans, which Python counts as ints, are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_rational(s) -> Fraction:
    """A rational from a JSON integer or from a string of the grammar in
    the module docstring."""
    if _is_int(s):
        return Q(s)
    if isinstance(s, bool):
        raise MalformedInput(f"bad rational {_json_text(s)}: not a number")
    if isinstance(s, float):   # also NaN and Infinity; rounded to binary
        raise MalformedInput(f"bad rational {_json_text(s)}: give an integer "
                             'or a "num/den" string, not a float')
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise MalformedInput(f"bad rational {_json_text(s)}: give an integer, "
                             '"num/den" or a decimal with an exponent of at '
                             "most 4 digits")
    try:
        v = Q(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {_json_text(s)}: {exc}") from None
    if max(abs(v.numerator), v.denominator) >= _TOO_LONG:
        raise MalformedInput(f"bad rational {_json_text(s)}: more than "
                             f"{_MAX_DIGITS} digits")
    return v


def series2_to_obj(f: Series2) -> dict:
    return {"vars": ["x", "y"], "order": f.order,
            "terms": [{"e": [p, d - p], "c": c}
                      for d, p, c in coefficient_texts(f)]}


def series1_to_obj(f: Series2) -> dict:
    """The univariate form of a series in x alone."""
    return {"vars": ["x"], "order": f.order,
            "terms": [{"e": [p], "c": c} for _, p, c in coefficient_texts(f)]}


def _order(obj, minimum: int) -> int:
    order = obj.get("order", DEFAULT_ORDER)
    if not _is_int(order) or order < minimum:
        raise MalformedInput(f"bad order {_json_text(order)}")
    if order > MAX_ORDER:
        raise MalformedInput(f"order {order} is above the limit {MAX_ORDER}")
    return order


def _load_terms(obj, nvars):
    if not isinstance(obj, dict):
        raise MalformedInput("series must be a JSON object")
    if obj.get("vars") not in (["x"], ["x", "y"]):
        raise MalformedInput(f"bad vars {_json_text(obj.get('vars'))}")
    if len(obj["vars"]) != nvars:
        raise MalformedInput(f"expected {nvars} variable(s)")
    order = _order(obj, 0)
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise MalformedInput(f"terms must be a list, not {_json_text(terms)}")
    seen = {}
    for term in terms:
        if (not isinstance(term, dict) or not isinstance(term.get("e"), list)
                or "c" not in term):
            raise MalformedInput(f"bad term {_json_text(term)}: a term is "
                                 '{"e": [exponents], "c": rational}')
        exps = tuple(term["e"])
        coeff = parse_rational(term["c"])
        if len(exps) != nvars or any(not _is_int(e) or e < 0 for e in exps):
            raise MalformedInput(f"bad exponents {_json_text(exps)}")
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
        raise MalformedInput('polygon must be {"vertices": [[x, y], ...]}')
    pts = obj["vertices"]
    if (not isinstance(pts, list) or not pts
            or any(not isinstance(p, list) or len(p) != 2
                   or any(not _is_int(c) for c in p) for p in pts)):
        raise MalformedInput("vertices must be a nonempty list of integer pairs")
    return bounded_polygon(hull_normalize([tuple(p) for p in pts]))


def bounded_polygon(P: LatticePolygon, name: str = "polygon"):
    """P, if it has at most MAX_LATTICE_POINTS lattice points, counted
    without enumerating them, and, if full-dimensional, spans at most that
    many lattice lines along its shorter side, the lines lattice_points
    walks; name is P in the message."""
    n = lattice_point_count(P)
    if n > MAX_LATTICE_POINTS:
        raise MalformedInput(f"{name} has {n} lattice points, above the "
                             f"limit {MAX_LATTICE_POINTS}")
    lines = shorter_span(P) + 1
    if P.dim == 2 and lines > MAX_LATTICE_POINTS:
        raise MalformedInput(f"{name} spans {lines} lattice lines along its "
                             f"shorter side, above the limit "
                             f"{MAX_LATTICE_POINTS}")
    return P


def spec_to_obj(spec: ValuationSpec) -> dict:
    return {"c": format_rational(spec.c), "g": series1_to_obj(spec.g),
            "rho": series2_to_obj(spec.rho), "order": spec.order}


def spec_from_obj(obj) -> ValuationSpec:
    if not isinstance(obj, dict):
        raise MalformedInput("spec must be a JSON object")
    order = _order(obj, 1)
    c = parse_rational(obj.get("c", "0"))
    g = series1_from_obj(obj["g"]) if "g" in obj else Series2.zero(order)
    rho = series2_from_obj(obj["rho"]) if "rho" in obj else Series2.zero(order)
    try:
        return ValuationSpec(c, g, rho, order)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def affine_from_obj(obj) -> AffineUnimodular:
    if not isinstance(obj, dict) or "m" not in obj:
        raise MalformedInput('affine element must be '
                             '{"m": [[a, b], [c, d]], "v": [alpha, beta]}')
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
    """Canonical JSON text (stable key order, newline-terminated): the
    text of json.dumps(obj, indent=2) + "\n", for obj made of dicts with
    string keys, lists, strings, ints, booleans and None, the only values
    the library emits, and Series2, written as its series2_to_obj; anything
    else raises TypeError.  Written out here because json.dumps with an
    indent runs the pure-Python encoder, about twice as slow as this one."""
    parts = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(obj, newline: str, parts: list) -> None:
    """Append the JSON text of obj to parts, laid out as json.dumps with
    indent=2 lays it out at the indent of newline."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, Series2):   # as series2_to_obj, a string per term
        i1, i2, i3, i4 = (newline + "  " * k for k in range(1, 5))
        terms = [f'{{{i3}"e": [{i4}{p},{i4}{d - p}{i3}],{i3}"c": "{c}"{i2}}}'
                 for d, p, c in coefficient_texts(obj)]
        parts.append(f'{{{i1}"vars": [{i2}"x",{i2}"y"{i1}],{i1}"order": '
                     f'{obj.order},{i1}"terms": ')
        parts.append(f"[{i2}{(',' + i2).join(terms)}{i1}]" if terms else "[]")
        parts.append(newline + "}")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep)
            parts.append(_encode_str(key))
            parts.append(": ")
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        "serializable")


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:   # ValueError: bad UTF-8
        raise MalformedInput(f"{path}: {exc}") from None


class _NotJSON(Exception):
    pass


def _json(text: str):
    try:
        return json.loads(text)
    # ValueError: bad JSON or an integer too long to read; RecursionError:
    # arrays or objects nested too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise _NotJSON(str(exc)) from None


def _load(path, parse):
    """parse of the text of the file at path; bad JSON is named by path."""
    try:
        return parse(_read(path))
    except _NotJSON as exc:
        raise MalformedInput(f"{path}: {exc}") from None


def load_json(path):
    return _load(path, _json)


@lru_cache(maxsize=EVALUATORS_MAX)
def _spec_of_text(text: str) -> ValuationSpec:
    return spec_from_obj(_json(text))


def load_spec(path) -> ValuationSpec:
    """The checked spec of the file at path, read on every call; the spec
    of each text is made once while it is among the last EVALUATORS_MAX
    texts, so an edited file is parsed again, and a text that fails raises
    its error on every call."""
    return _load(path, _spec_of_text)
