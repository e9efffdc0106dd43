"""The valuation engine: construct Z from parameters (c, g, rho), evaluate
it on lattice polygons, and test or decompose dilativity.

A spec (c, g, rho) determines the values on the basic faces:

    point:          f0 = c
    unit segment:   f1(x, y) = g(x^2) * exp(x/2)
    unit triangle:  zT = f2 + h(x) + h(y) + e^x h(y - x)
                    with f2 = dagger(rho) and h = f1 / 2

and every other value follows by equivariance and the valuation axiom.
ValuationSpec refuses a rho that violates a law of laws.RHO_LAWS with the
report of check_law on rho, which compares each degree of rho on its own.
The h terms of zT sit on the sides 0, 1, 2 of the unit triangle T:
[0, e1], [0, e2] and [e1, e2].  In a unimodular triangulation of a polygon
P an interior edge takes h from both of its triangles, the f1 that
inclusion-exclusion would take off again, so Z(P) sums, moved onto each
triangle, f2 plus the h of its sides on P's boundary, and c at each
interior point.  A segment sums f1 on its unit segments and -c at its
inner points; a point is c.  Since dagger loses one order, all engine
outputs carry order N - 1 for a spec of order N (less when g or rho is
known to a lower order).

A face is a value, an anchor v (a vertex) and edge vectors u1, u2 from v:
the affine map with translation v that sends e1 to u1 and e2 to u2 takes
the unit cell onto it, and moves the unit cell's value f to
e^{v.z} * f(u1.z, u2.z).  A segment's u2 and a point's u1 and u2 are
(0, 0): f1 and c are series in x alone, so no edge is completed to a
unimodular frame.  A triangle's sides 0, 1, 2 are [v, v + u1],
[v, v + u2] and [v + u1, v + u2].

The sum is taken in integers.  The eight triangle values (one for each
set of sides), f1, c and -c are packed once per evaluator by
series.packed_cells, over one denominator, and values that are equal
(under g = 0 the eight are all f2) share one cell; integer edge vectors
and the twist by e^{v.z} for an integer v keep them integral, so
series.sum_of_images adds all faces in integers and makes one series at
the end.  Each translation costs one twist, so each face is anchored at a
vertex it shares with other faces (_anchored): the interior points first,
then the vertices with the most incident faces.  Any vertex will do: f2
is invariant under the affine symmetries of T, which permute its sides
and their h, and f1 under the flip of the unit segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .geometry import (LatticePolygon, NotSegment,
                       boundary_lattice_points, hull_normalize,
                       scale_polygon, segment_lattice_points,
                       unimodular_triangulation)
from .group import NotUnimodularTriangle
from .laws import RHO_LAWS, check_law, dagger, violation_text
from .series import (DEFAULT_ORDER, Series1, Series2, divide_linear,
                     exp_linear, mul_exp_linear, packed_cells,
                     special_series, sum_of_images)

Q = Fraction


class ValuationError(Exception):
    pass


class InvalidRho(ValuationError):
    def __init__(self, report):
        super().__init__(f"parameter series violates {report.law} at "
                         f"{violation_text(report.first_violation)}")
        self.report = report


class NoCandidatePasses(ValuationError):
    def __init__(self, finding, first_violation):
        super().__init__(finding)
        self.first_violation = first_violation   # that of kappa = 0


class DecompositionError(ValuationError):
    pass


# ---------------------------------------------------------------------------
# parameter families for g


def cosh_type_g(order: int = DEFAULT_ORDER) -> Series2:
    """g with g(x^2) = cosh(x/2): coefficient of x^k is 1/(4^k (2k)!)."""
    return Series1({k: Q(1, 4 ** k * factorial(2 * k))
                    for k in range(order + 1)}, order)


def odd_basis_g(delta: int, order: int = DEFAULT_ORDER) -> Series2:
    """The triangular odd-family basis series b_delta, for odd delta >= -1:
    g with g(x^2) = x^delta sinh(x/2), coefficient of x^{(delta+1)/2 + k}
    equal to 1/(2 * 4^k * (2k+1)!)."""
    if delta % 2 == 0 or delta < -1:
        raise ValueError("delta must be odd and >= -1")
    low = (delta + 1) // 2
    return Series1({low + k: Q(1, 2 * 4 ** k * factorial(2 * k + 1))
                    for k in range(order + 1 - low)}, order)


# ---------------------------------------------------------------------------
# specs and triangle data


@dataclass(frozen=True)
class ValuationSpec:
    c: Fraction = Q(0)
    g: Series2 = None   # a series in x alone
    rho: Series2 = None
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))
        if self.g is None:
            object.__setattr__(self, "g", Series2.zero(self.order))
        for d, row in enumerate(self.g.numerators()[1]):
            for p, s in enumerate(row[:d]):
                if s:
                    raise ValueError(f"g must be a series in x alone; it "
                                     f"has the term x^{p}*y^{d - p}")
        if self.rho is None:
            object.__setattr__(self, "rho", Series2.zero(self.order))
        if self.rho.order < 1:   # dagger, a division, loses one order
            raise ValueError(f"rho has order {self.rho.order}; it must "
                             "have order >= 1")
        for law in RHO_LAWS:   # as `latval check-law` reports it
            report = check_law(law, self.rho)
            if not report.holds:
                raise InvalidRho(report)
        # made once: the spec is frozen and its series are not changed
        key = (self.c, self.g.key(), self.rho.key(), self.order)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def key(self):
        return self._key

    # by value, so that equal specs share one evaluator_for
    def __eq__(self, other):
        return isinstance(other, ValuationSpec) and self._key == other._key

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class TriangleData:
    f0: Series2
    f1: Series2
    f2: Series2
    zT: Series2
    effective_order: int
    sides: tuple   # h on T's sides [0, e1], [0, e2], [e1, e2]


def build_triangle_data(spec: ValuationSpec) -> TriangleData:
    n = spec.order
    g_sq = Series1({2 * k: v for (k, _), v in spec.g.terms()},   # g(x^2)
                   min(n, 2 * spec.g.order + 1))
    f1 = mul_exp_linear(g_sq, Q(1, 2), 0)
    f2 = dagger(spec.rho)
    h = f1.scalar_mul(Q(1, 2))
    sides = (h, h.subst_linear((0, 1), (-1, 0)),
             mul_exp_linear(h.subst_linear((-1, 1), (-1, 0)), 1, 0))
    zT = sum(sides, f2)
    eff = zT.order
    return TriangleData(Series2.constant(spec.c, eff), f1.truncate(eff),
                        f2.truncate(eff), zT, eff,
                        tuple(side.truncate(eff) for side in sides))


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Evaluates one spec on points, segments and polygons, keeping
    FACES_MAX values in one lru_cache, _value; each value is one
    series.sum_of_images of its faces, as the module docstring says."""

    def __init__(self, spec: ValuationSpec):
        self.spec = spec
        self.data = build_triangle_data(spec)
        # each distinct value is packed once, and the faces of equal values
        # share its cell; _sum is a module function, so no cycle holds the
        # evaluator
        values = _face_values(self.data)
        distinct = {f.key(): f for f in values}
        den, cells = packed_cells(list(distinct.values()))
        cell = dict(zip(distinct, cells))
        self._value = lru_cache(maxsize=FACES_MAX)(
            partial(_sum, [cell[f.key()] for f in values], den, self.order))

    @property
    def order(self) -> int:
        return self.data.effective_order

    def z_point(self, p) -> Series2:
        return self._value(hull_normalize([p]))

    def z_segment(self, a, b) -> Series2:
        seg = hull_normalize([a, b])
        if seg.dim == 0:
            raise NotSegment("endpoints coincide")
        return self._value(seg)

    def z_polygon(self, P: LatticePolygon) -> Series2:
        return self._value(P)


def _face_values(data: TriangleData) -> list:
    """The values that _faces indexes: a triangle's eight, f2 plus the h
    of the sides in the mask's bits, then f1, c and -c."""
    return [sum((h for j, h in enumerate(data.sides) if mask >> j & 1),
                data.f2) for mask in range(8)] + [data.f1, data.f0, -data.f0]


def _sum(cells, den: int, n: int, P: LatticePolygon) -> Series2:
    return sum_of_images([(cells[i], v, u1, u2) for i, v, u1, u2 in _faces(P)],
                         n, den)


_F1, _C, _MINUS_C = 8, 9, 10   # the indices of f1, c and -c
_ZERO = (0, 0)


def _faces(P: LatticePolygon) -> list:
    """(i, v, u1, u2) for each face of P, as the module docstring says:
    the value i of those the Evaluator packs, moved by the affine map with
    translation v (the anchor, see _anchored) and edge vectors u1, u2.  A
    triangle's i has bit j set when its side j lies on P's boundary."""
    if P.dim == 0:
        return [(_C, P.vertices[0], _ZERO, _ZERO)]
    if P.dim == 1:
        pts = segment_lattice_points(*P.vertices)
        cells, inner, sign = list(zip(pts, pts[1:])), pts[1:-1], _MINUS_C
    else:
        tri = unimodular_triangulation(P)
        cells, inner, sign = tri.triangles, tri.interior_vertices, _C
        b = boundary_lattice_points(P)
        # a side on P's boundary joins consecutive boundary points, either way
        boundary = set(zip(b, b[1:] + b[:1])) | set(zip(b[1:] + b[:1], b))
    out = []
    for v, *ends in _anchored(cells, inner):
        u1, u2 = ([(p[0] - v[0], p[1] - v[1]) for p in ends]
                  + [_ZERO] * (2 - len(ends)))
        i = _F1
        if len(ends) == 2:
            d = u1[0] * u2[1] - u1[1] * u2[0]
            if abs(d) != 1:
                raise NotUnimodularTriangle(f"twice-area {abs(d)}")
            p1, p2 = ends
            sides = ((v, p1), (v, p2), (p1, p2))
            i = sum(1 << j for j, side in enumerate(sides) if side in boundary)
        out.append((i, v, u1, u2))
    return out + [(sign, p, _ZERO, _ZERO) for p in inner]


def _anchored(cells, inner) -> list:
    """The cells (tuples of lattice points), each rotated to start at its
    anchor, the vertex its edge vectors leave from.  Each anchor costs
    sum_of_images one twist, so anchors are shared: the inner points,
    twisted anyway, then in one greedy pass, for a cell with no anchored
    vertex, the vertex with the most incident cells, ties broken by the
    larger point; a cell with several takes the first in that order."""
    incident = {}
    for cell in cells:
        for p in cell:
            incident[p] = incident.get(p, 0) + 1
    anchored = set(inner)
    out = []
    for cell in cells:
        i = max(range(len(cell)), key=lambda i: (
            cell[i] in anchored, incident[cell[i]], cell[i]))
        anchored.add(cell[i])
        out.append(cell[i:] + cell[:i])
    return out


EVALUATORS_MAX = 32   # shared evaluators kept
FACES_MAX = 1024      # point, segment and polygon values each one keeps


@lru_cache(maxsize=EVALUATORS_MAX)
def evaluator_for(spec: ValuationSpec) -> Evaluator:
    return Evaluator(spec)


def z_polygon(spec: ValuationSpec, P: LatticePolygon) -> Series2:
    return evaluator_for(spec).z_polygon(P)


# ---------------------------------------------------------------------------
# the dilation series g_m and the closed triangle formula


def g_m(m: int, order: int = DEFAULT_ORDER) -> Series2:
    """sum of exp(s*x + t*y) over lattice points of the m-fold unit triangle,
    by its rational closed form, whose denominator
    (e^x - e^y)(e^x - 1)(e^y - 1) is x * y * (x - y) times the units E(x),
    E(y) and e^x E(y - x), with E(t) = (e^t - 1)/t.  The units are inverted
    by the Bernoulli series B(t) = t/(e^t - 1) = 1/E(t), so the only
    divisions are by x, y, x - y.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    n = order + 3
    num = mul_exp_linear(exp_linear(m + 1, 0, n) - exp_linear(0, m + 1, n),
                         1, 1) \
        - (exp_linear(m + 2, 0, n) - exp_linear(0, m + 2, n)) \
        + exp_linear(1, 0, n) - exp_linear(0, 1, n)
    # times B(x), B(y) and e^{-x} B(y - x), the inverses of the units
    bern = special_series("t_over_expm1", n)
    num = num * bern * bern.subst_linear((0, 1), (1, 0)) \
        * mul_exp_linear(bern.subst_linear((-1, 1), (0, 0)), -1, 0)
    return divide_linear(divide_linear(divide_linear(num, 1, 0), 0, 1),
                         1, -1)


def z_mT_closed(spec: ValuationSpec, m: int) -> Series2:
    """Z on the m-fold unit triangle mT, for every spec.  The grid
    subdivides mT into its up triangles, down triangles, interior edges of
    the three directions and interior points; with g_k = g_m(k, n), and
    g_k = 0 for k < 0, their sums are the terms of

        Z(mT) = g_{m-1} * zT
                + g_{m-2} * (e^{x+y} zT(-x, -y) - e^y f1(x) - e^x f1(y)
                             - e^x f1(y - x))
                + c * e^{x+y} * g_{m-3}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    data = evaluator_for(spec).data
    n, zT, f1 = data.effective_order, data.zT, data.f1
    out = g_m(m - 1, n) * zT
    if m >= 2:
        out = out + g_m(m - 2, n) * (
            mul_exp_linear(zT.subst_linear((-1, 0), (0, -1)), 1, 1)
            - mul_exp_linear(f1, 0, 1)
            - mul_exp_linear(f1.subst_linear((0, 1), (0, 0))
                             + f1.subst_linear((-1, 1), (0, 0)), 1, 0))
    if m >= 3:
        out = out + mul_exp_linear(g_m(m - 3, n).scalar_mul(spec.c), 1, 1)
    return out


# ---------------------------------------------------------------------------
# dilativity


@dataclass(frozen=True)
class DilativeCase:
    m: int
    polygon: LatticePolygon
    holds: bool
    first_violation: tuple | None


@dataclass(frozen=True)
class DilativeReport:
    delta: int
    cases: tuple[DilativeCase, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.cases)


def check_dilative(spec: ValuationSpec, delta: int, m_list, P_list) -> DilativeReport:
    """Test Z(mP)(x, y) = m^{-delta} * Z(P)(mx, my) exactly."""
    ev = evaluator_for(spec)
    cases = []
    for P in P_list:
        base = ev.z_polygon(P)
        for m in m_list:
            lhs = ev.z_polygon(scale_polygon(P, m))
            rhs = base.scale_variables(m).scalar_mul(Q(m) ** (-delta))
            diff = lhs.first_difference(rhs)
            cases.append(DilativeCase(m, P, diff is None, diff))
    return DilativeReport(delta, tuple(cases))


UNIT_TRIANGLE = hull_normalize([(0, 0), (1, 0), (0, 1)])
UNIT_SQUARE = hull_normalize([(0, 0), (1, 0), (0, 1), (1, 1)])
CALIBRATE_MIN_ORDER = 4   # the lowest order at which calibrate_val0 decides


def calibrate_val0(order: int = DEFAULT_ORDER) -> Fraction:
    """Decide the constant rho-part kappa of the 0-dilative generator
    empirically: kappa in {0, -1} is accepted when the spec
    (c, g, rho) = (1, cosh-type, kappa) is 0-dilative on reference polygons.
    kappa = 0 fails at the constant coefficient, so at most one passes."""
    if order < CALIBRATE_MIN_ORDER:
        raise ValueError(f"order must be >= {CALIBRATE_MIN_ORDER}")
    violations = {}
    for kappa in (Q(0), Q(-1)):
        spec = ValuationSpec(1, cosh_type_g(order),
                             Series2.constant(kappa, order), order)
        rep_t = check_dilative(spec, 0, (2, 3), (UNIT_TRIANGLE,))
        rep_s = check_dilative(spec, 0, (2,), (UNIT_SQUARE,))
        if rep_t.holds and rep_s.holds:
            return kappa
        violations[kappa] = next(c.first_violation for c in
                                 rep_t.cases + rep_s.cases if not c.holds)
    raise NoCandidatePasses("; ".join(
        f"kappa = {k!s} violates dilativity at {violation_text(v)}"
        for k, v in violations.items()), violations[Q(0)])


@dataclass(frozen=True)
class DilativeComponents:
    alpha0: Fraction
    odd: dict        # delta (odd, >= -1) -> coefficient of b_delta
    even_simple: dict  # delta -> homogeneous rho part of degree delta + 2
    kappa: Fraction
    order: int


def dilative_decompose(spec: ValuationSpec, delta_max=None,
                       kappa=None) -> DilativeComponents:
    """Split a spec into its dilative components.

    alpha0 picks off the 0-dilative generator (1, cosh-type, kappa); the
    remaining g expands uniquely in the triangular odd family b_delta; the
    remaining rho splits into homogeneous parts, degree d sitting at
    delta = d - 2, each a series of rho's order over its own denominator.
    kappa defaults to calibrate_val0(order), or to 0 when alpha0 = 0,
    since kappa only enters as alpha0 * kappa.
    """
    n = spec.order
    alpha0 = spec.c
    if kappa is None:
        kappa = calibrate_val0(n) if alpha0 != 0 else Q(0)
    g_res = spec.g - cosh_type_g(spec.g.order).scalar_mul(alpha0)
    odd = {}
    for low in range(g_res.order + 1):
        coeff = g_res.coeff(low)
        if coeff == 0:
            continue
        delta = 2 * low - 1
        if delta_max is not None and delta > delta_max:
            raise DecompositionError(
                f"odd component at delta = {delta} exceeds delta_max")
        beta = 2 * coeff
        odd[delta] = beta
        g_res = g_res - odd_basis_g(delta, g_res.order).scalar_mul(beta)
    rho_res = spec.rho - Series2.constant(alpha0 * kappa, spec.rho.order)
    even_simple = {}
    den, rows = rho_res.numerators()
    for d, row in enumerate(rows):
        if any(row):
            delta = d - 2
            if delta_max is not None and delta > delta_max:
                raise DecompositionError(
                    f"even component at delta = {delta} exceeds delta_max")
            even_simple[delta] = Series2._of(
                [[0] * (e + 1) for e in range(d)] + [row], den, rho_res.order)
    return DilativeComponents(alpha0, odd, even_simple, kappa, n)
