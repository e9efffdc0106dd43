"""The valuation engine: construct Z from parameters (c, g, rho), evaluate
it on lattice polygons, and test or decompose dilativity.

A spec (c, g, rho) determines the values on the basic faces:

    point:          f0 = c
    unit segment:   f1(x, y) = g(x^2) * exp(x/2)
    unit triangle:  zT = f2 + (f1(x,y) + f1(y,-x) + e^x f1(-x+y,-x)) / 2
                    with f2 = dagger(rho)

and every other polygon value follows by equivariance and the valuation
axiom, realized here through an inclusion-exclusion over the unimodular
triangulation on all lattice points.  Since dagger loses one order, all
engine outputs carry order N - 1 for a spec of order N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .geometry import (LatticePolygon, NotSegment, hull_normalize,
                       lattice_length, scale_polygon,
                       unimodular_triangulation)
from .group import AffineUnimodular, act_on_series, complete_primitive, \
    triangle_frame
from .laws import RHO_LAWS, check_law, dagger, violation_text
from .series import (DEFAULT_ORDER, Series1, Series2, compose_univariate,
                     divide_unit, divide_x, divide_x_minus_y, divide_y,
                     exp_linear, series1_in_x, series1_in_y, special_series)

Q = Fraction


class ValuationError(Exception):
    pass


class InvalidRho(ValuationError):
    def __init__(self, report):
        super().__init__(f"parameter series violates {report.law} at "
                         f"{violation_text(report.first_violation)}")
        self.report = report


class NotSimpleSpec(ValuationError):
    pass


class LawViolation(ValuationError):
    def __init__(self, report):
        super().__init__(f"law {report.law} fails at "
                         f"{violation_text(report.first_violation)}")
        self.report = report


class NoCandidatePasses(ValuationError):
    pass


class BothPass(ValuationError):
    pass


class DecompositionError(ValuationError):
    pass


# ---------------------------------------------------------------------------
# parameter families for g


def cosh_type_g(order: int = DEFAULT_ORDER) -> Series1:
    """g with g(x^2) = cosh(x/2): coefficient of x^k is 1/(4^k (2k)!)."""
    return Series1({k: Q(1, 4 ** k * factorial(2 * k))
                    for k in range(order + 1)}, order)


def odd_basis_g(delta: int, order: int = DEFAULT_ORDER) -> Series1:
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
    g: Series1 = None
    rho: Series2 = None
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))
        if self.g is None:
            object.__setattr__(self, "g", Series1.zero(self.order))
        if self.rho is None:
            object.__setattr__(self, "rho", Series2.zero(self.order))
        for law in RHO_LAWS:
            report = check_law(law, self.rho)
            if not report.holds:
                raise InvalidRho(report)

    @property
    def effective_order(self) -> int:
        return self.order - 1

    def is_simple(self) -> bool:
        return self.c == 0 and self.g.is_zero()

    def key(self):
        return (self.c, self.g.key(), self.rho.key(), self.order)


@dataclass(frozen=True)
class TriangleData:
    f0: Series2
    f1: Series2
    f2: Series2
    zT: Series2
    effective_order: int


def build_triangle_data(spec: ValuationSpec) -> TriangleData:
    n = spec.order
    x_sq = Series2.monomial(1, 2, 0, n)
    f1 = compose_univariate(spec.g, x_sq) * exp_linear(Q(1, 2), 0, n)
    f2 = dagger(spec.rho)
    half = Q(1, 2)
    zT = f2 \
        + f1.scalar_mul(half) \
        + f1.subst_linear((0, 1), (-1, 0)).scalar_mul(half) \
        + (f1.subst_linear((-1, 1), (-1, 0)) * exp_linear(1, 0, n)).scalar_mul(half)
    eff = zT.order
    return TriangleData(Series2.constant(spec.c, eff), f1.truncate(eff),
                        f2.truncate(eff), zT, eff)


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Evaluates one spec on many polygons, caching per-face results."""

    def __init__(self, spec: ValuationSpec, insertion: str = "lex"):
        self.spec = spec
        self.insertion = insertion
        self.data = build_triangle_data(spec)
        self._segments = {}
        self._polygons = {}

    @property
    def order(self) -> int:
        return self.data.effective_order

    def z_point(self, p) -> Series2:
        return exp_linear(p[0], p[1], self.order).scalar_mul(self.spec.c)

    def z_segment(self, a, b) -> Series2:
        key = tuple(sorted((tuple(a), tuple(b))))
        if key not in self._segments:
            self._segments[key] = self._z_segment(*key)
        return self._segments[key]

    def _z_segment(self, a, b) -> Series2:
        ell = lattice_length(a, b)
        if ell == 0:
            raise NotSegment("endpoints coincide")
        w = ((b[0] - a[0]) // ell, (b[1] - a[1]) // ell)
        n = self.order
        inner = Series2.zero(n)
        for k in range(ell):
            inner = inner + exp_linear(k, 0, n) * self.data.f1
        for k in range(1, ell):
            inner = inner - exp_linear(k, 0, n).scalar_mul(self.spec.c)
        frame = AffineUnimodular(complete_primitive(w).m, (int(a[0]), int(a[1])))
        return act_on_series(frame, inner)

    def z_polygon(self, P: LatticePolygon) -> Series2:
        key = P.key()
        if key not in self._polygons:
            self._polygons[key] = self._z_polygon(P)
        return self._polygons[key]

    def _z_polygon(self, P: LatticePolygon) -> Series2:
        if P.dim == 0:
            return self.z_point(P.vertices[0])
        if P.dim == 1:
            return self.z_segment(*P.vertices)
        tri = unimodular_triangulation(P, self.insertion)
        total = Series2.zero(self.order)
        for t in tri.triangles:
            frame = triangle_frame(*tri.triangle_points(t))
            total = total + act_on_series(frame, self.data.zT)
        for e in tri.interior_edges:
            total = total - self.z_segment(*tri.edge_points(e))
        for i in tri.interior_vertices:
            total = total + self.z_point(tri.points[i])
        return total


_EVALUATORS: dict = {}


def evaluator_for(spec: ValuationSpec, insertion: str = "lex") -> Evaluator:
    key = (spec.key(), insertion)
    if key not in _EVALUATORS:
        _EVALUATORS[key] = Evaluator(spec, insertion)
    return _EVALUATORS[key]


def z_point(spec: ValuationSpec, p) -> Series2:
    return evaluator_for(spec).z_point(p)


def z_segment(spec: ValuationSpec, seg: LatticePolygon) -> Series2:
    if seg.dim != 1:
        raise NotSegment(f"dim {seg.dim}")
    return evaluator_for(spec).z_segment(*seg.vertices)


def z_polygon(spec: ValuationSpec, P: LatticePolygon,
              insertion: str = "lex") -> Series2:
    return evaluator_for(spec, insertion).z_polygon(P)


# ---------------------------------------------------------------------------
# the dilation series g_m and the closed triangle formula


def g_m(m: int, order: int = DEFAULT_ORDER, form: str = "direct") -> Series2:
    """sum of exp(s*x + t*y) over lattice points of the m-fold unit triangle.

    form 'direct' sums the exponentials; 'closed' evaluates the rational
    closed form using only unit divisions plus the exact factors x, y, x - y.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if form == "direct":
        total = Series2.zero(order)
        for s in range(m + 1):
            for t in range(m + 1 - s):
                total = total + exp_linear(s, t, order)
        return total
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    n = order + 3
    num = exp_linear(1, 1, n) * (exp_linear(m + 1, 0, n) - exp_linear(0, m + 1, n)) \
        - (exp_linear(m + 2, 0, n) - exp_linear(0, m + 2, n)) \
        + exp_linear(1, 0, n) - exp_linear(0, 1, n)
    # denominator (e^x - e^y)(e^x - 1)(e^y - 1) factored into units and
    # the exact factors x, y, x - y
    e1 = special_series("expm1_over_t", n)
    num = divide_unit(num, series1_in_x(e1, n))
    num = divide_unit(num, series1_in_y(e1, n))
    num = divide_unit(num, special_series("divided_diff_exp", n))
    return divide_x_minus_y(divide_y(divide_x(num)))


def z_mT_closed(spec: ValuationSpec, m: int) -> Series2:
    """Closed form for Z on the m-fold unit triangle, valid for simple specs:
    g_{m-1} * zT + e^{x+y} * g_{m-2} * zT(-x, -y)."""
    if not spec.is_simple():
        raise NotSimpleSpec("closed form requires c = 0 and g = 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    data = build_triangle_data(spec)
    n = data.effective_order
    f = data.zT
    out = g_m(m - 1, n) * f
    if m >= 2:
        out = out + exp_linear(1, 1, n) * g_m(m - 2, n) \
            * f.subst_linear((-1, 0), (0, -1))
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


def calibrate_val0(order: int = DEFAULT_ORDER) -> Fraction:
    """Decide the constant rho-part kappa of the 0-dilative generator
    empirically: kappa in {0, -1} is accepted when the spec
    (c, g, rho) = (1, cosh-type, kappa) is 0-dilative on reference polygons."""
    if order < 4:
        raise ValueError("order must be >= 4")
    passing = []
    findings = []
    for kappa in (Q(0), Q(-1)):
        spec = ValuationSpec(1, cosh_type_g(order),
                             Series2.constant(kappa, order), order)
        rep_t = check_dilative(spec, 0, (2, 3), (UNIT_TRIANGLE,))
        rep_s = check_dilative(spec, 0, (2,), (UNIT_SQUARE,))
        if rep_t.holds and rep_s.holds:
            passing.append(kappa)
        else:
            first = next(c.first_violation for c in rep_t.cases + rep_s.cases
                         if not c.holds)
            findings.append(f"kappa = {kappa!s} violates dilativity at "
                            f"{violation_text(first)}")
    if not passing:
        raise NoCandidatePasses("; ".join(findings))
    if len(passing) > 1:
        raise BothPass("both kappa candidates are 0-dilative")
    return passing[0]


@dataclass(frozen=True)
class DilativeComponents:
    alpha0: Fraction
    odd: dict        # delta (odd, >= -1) -> coefficient of b_delta
    even_simple: dict  # delta -> homogeneous rho part of degree delta + 2
    kappa: Fraction
    order: int

    def deltas(self):
        out = set(self.odd) | set(self.even_simple)
        if self.alpha0 != 0:
            out.add(0)
        return sorted(out)


def dilative_decompose(spec: ValuationSpec, delta_max=None,
                       kappa=None) -> DilativeComponents:
    """Split a spec into its dilative components.

    alpha0 picks off the 0-dilative generator (1, cosh-type, kappa); the
    remaining g expands uniquely in the triangular odd family b_delta; the
    remaining rho splits into homogeneous parts, degree d sitting at
    delta = d - 2.  kappa defaults to calibrate_val0(order), or to 0 when
    alpha0 = 0, since kappa only enters as alpha0 * kappa.
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
    even = {}
    for (p, q), v in rho_res.terms():
        d = p + q
        delta = d - 2
        if delta_max is not None and delta > delta_max:
            raise DecompositionError(
                f"even component at delta = {delta} exceeds delta_max")
        part = even.setdefault(delta, {})
        part[(p, q)] = v
    even_simple = {delta: Series2(part, n) for delta, part in sorted(even.items())}
    return DilativeComponents(alpha0, odd, even_simple, kappa, n)


def reassemble(components: DilativeComponents) -> ValuationSpec:
    n = components.order
    g = cosh_type_g(n).scalar_mul(components.alpha0)
    for delta, beta in sorted(components.odd.items()):
        g = g + odd_basis_g(delta, n).scalar_mul(beta)
    rho = Series2.constant(components.alpha0 * components.kappa, n)
    for part in components.even_simple.values():
        rho = rho + part
    return ValuationSpec(components.alpha0, g, rho, n)


# ---------------------------------------------------------------------------
# surface formula and parameter recovery


@dataclass(frozen=True)
class SurfaceReport:
    holds: bool
    first_violation: tuple | None


def surface_formula_check(spec: ValuationSpec, P: LatticePolygon) -> SurfaceReport:
    """Compare Z(P) with half the sum of Z over the edges of P."""
    if P.dim != 2:
        raise NotSegment("polygon must be two-dimensional")
    ev = evaluator_for(spec)
    v = P.vertices
    edge_sum = Series2.zero(ev.order)
    for i in range(len(v)):
        edge_sum = edge_sum + ev.z_segment(v[i], v[(i + 1) % len(v)])
    diff = ev.z_polygon(P).first_difference(edge_sum.scalar_mul(Q(1, 2)))
    return SurfaceReport(diff is None, diff)


def extract_g(f1: Series2) -> Series1:
    """Recover g from a unit-segment series f1 = g(x^2) * exp(x/2)."""
    for law in ("f1shift", "f1period", "f1neg"):
        report = check_law(law, f1)
        if not report.holds:
            raise LawViolation(report)
    h = f1 * exp_linear(Q(-1, 2), 0, f1.order)
    coeffs = {}
    for (p, q), v in h.terms():
        if q != 0 or p % 2 == 1:
            # y-dependence and odd terms are excluded by the laws; anything
            # surviving here is a genuine inconsistency
            raise LawViolation(check_law("f1neg", f1))
        coeffs[p // 2] = v
    return Series1(coeffs, f1.order // 2)
