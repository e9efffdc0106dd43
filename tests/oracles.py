"""Oracles for the value of a valuation that triangulate nothing, and for
the rows of the laws whose kernels are the solution spaces V_d.

Each value oracle gives exact coefficients from a polygon's vertices or
lattice points alone: the last two share the column walk of
``latval.geometry`` with the evaluator's triangulation, the others
nothing, and none uses a series kernel.  Only the standard library is
used here.

- ``half_boundary_transform``: under the spec (c, g, rho) = (0,
  2 * odd_basis_g(-1), 0) the value of the unit segment is
  f1 = E(x), E(t) = (e^t - 1)/t, and the value of every lattice polygon
  P is 1/2 * sum over the edges [a, b] of l * e^{a.z} * E((b - a).z), l
  the edge's lattice length.  A segment is the polygon of its two edges
  [a, b] and [b, a], so its value is the whole l * e^{a.z} * E((b - a).z).
- ``interpolate``: the degree-k part of Z(mP) is a polynomial in m of
  degree at most k + 2 (McMullen, "Valuations and Euler-type relations on
  certain classes of convex polytopes", 1977), with Z(0P) = c, the value
  of a point at the origin.  So Z(mP) at any m follows from m = 0..k + 2.
- ``lattice_point_sum``: under the spec (c, g, rho) = (1, 2 * cosh-type g,
  0) the triangle value is f2 = 0 and zT = 1 + e^x + e^y, so the value of
  every lattice polygon P is the sum of e^{v.z} over the lattice points v
  of P.
- ``betke_kneser_constant``: the constant coefficient of a valuation's
  value is a real valuation invariant under the affine unimodular group,
  so by Betke and Kneser ("Zerlegungen und Bewertungen von
  Gitterpolytopen", 1985) it is a + s * b(P)/2 + t * area2(P), a
  combination of the Ehrhart coefficients.  For a segment, b(P)/2 is its
  lattice length; for a point, 0.
- ``law_report_by_series``: the report of a law from its equations in
  ``laws.law_sides`` taken on the series itself, each side assembled by
  the ``Series2`` kernels and compared by ``Series2.first_difference``,
  which ``laws.check_law``, on packed tables, must equal.
- ``constraint_matrix``: the residual rows of homogeneous laws on the
  degree-d monomials, made through the ``Series2`` kernels: each monomial
  goes through ``laws.law_sides`` as a series, so these rows share no
  code with the packed forms of ``vspace``, whose rows on the monomials
  they must equal.  Their kernel for ``laws.RHO_LAWS`` is V_d.
- ``invariant_generators``: the generators a = 2x^2 + 2xy + y^2 and
  b = 4x^2y^2 + 4xy^3 + y^4 of the D4 invariant ring as polynomials in
  x and y, which ``laws`` writes only in s = 2x + y, t = y.
- ``solve`` and ``d4_decompose_by_solve``: one exact solution of a
  linear system, read off ``linalg.rref``, and by it the decomposition
  of a D4-invariant series in the generators a and b, degree by degree
  from the products of a and b: it shares no code with the leading-term
  reduction of ``laws.d4_decompose``, whose output it must equal.
- ``d4_compose_by_powers``: g(a, b) multiplied out from the powers of a
  and b in x and y, which ``laws.d4_compose``, the inverse of the
  reduction in (s, t), must equal.
- ``interior_value``: the value of the relative interior of a polygon or
  a segment, by inclusion and exclusion of its faces.  By Ehrhart-
  Macdonald reciprocity (Macdonald, "Polynomials associated with finite
  cell-complexes", 1971) its coefficient of x^p y^q at mP is
  (-1)^(e + p + q) times that of Z(mP), as a polynomial in m, read at -m,
  for e the dimension of P.
- ``bernoulli_by_recurrence``: B_0..B_n by the binomial recurrence in
  Fractions, which ``series.bernoulli_numbers`` computes from the tangent
  numbers in ints.
- ``taylor_shift_by_passes``: the Taylor shift of a list of ints by n
  passes in place, which ``series._taylor_shift`` streams one column of
  Pascal's rule at a time.
- ``reassemble`` and ``surface_formula_check``: the spec that dilative
  components add up to, and the comparison of Z(P) with half the sum of
  Z over the edges of P, which holds for odd specs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from latval import linalg
from latval.geometry import (NotFullDimensional, area2,
                             boundary_lattice_points, lattice_points)
from latval.laws import (D4_LAWS, LawReport, NotInvariant, check_law,
                         law_sides, violation_text)
from latval.series import Series2
from latval.valuation import (DilativeComponents, ValuationSpec, cosh_type_g,
                              evaluator_for, odd_basis_g)


def half_boundary_transform(P, order: int) -> dict:
    """1/2 * sum over the edges [a, b] of P of l * e^{a.z} * E((b - a).z),
    up to total degree order, as {(p, q): coefficient} of its nonzero
    terms: per edge, a double sum over the terms of e^{a.z} and of
    E(d.z), d = b - a, whose term of x^p y^q is that of e^{d.z} over
    p + q + 1."""
    v = P.vertices
    total = {}
    for a, b in zip(v, v[1:] + v[:1]):
        d = (b[0] - a[0], b[1] - a[1])
        half_l = Fraction(gcd(*d), 2)
        e_d = {(p, q): t / (p + q + 1)
               for (p, q), t in _exp_terms(d, order).items()}
        for (i, j), s in _exp_terms(a, order).items():
            for (p, q), t in e_d.items():
                if i + j + p + q <= order:
                    key = (i + p, j + q)
                    total[key] = total.get(key, 0) + half_l * s * t
    return {key: c for key, c in total.items() if c}


def _exp_terms(u, order: int) -> dict:
    """{(p, q): u0^p u1^q / (p! q!)}, the terms of e^{u.z} up to total
    degree order."""
    return {(p, q): Fraction(u[0] ** p * u[1] ** q,
                             factorial(p) * factorial(q))
            for p in range(order + 1) for q in range(order + 1 - p)}


def interpolate(values, m) -> Fraction:
    """The value at m of the polynomial of degree below len(values) that
    takes values[i] at i, by Lagrange's formula."""
    total = Fraction(0)
    for i, y in enumerate(values):
        term = Fraction(y)
        for j in range(len(values)):
            if j != i:
                term *= Fraction(m - j, i - j)
        total += term
    return total


def lattice_point_sum(P, order: int) -> dict:
    """The sum of e^{v.z} over the lattice points v of P, up to total
    degree order, as {(p, q): coefficient} of its nonzero terms: the
    integers v0^p * v1^q are summed, and divided by p! q! once."""
    powers = [[0] * (order + 1 - p) for p in range(order + 1)]
    for v0, v1 in lattice_points(P):
        x_power = 1
        for p in range(order + 1):
            y_power = x_power
            row = powers[p]
            for q in range(order + 1 - p):
                row[q] += y_power
                y_power *= v1
            x_power *= v0
    return {(p, q): Fraction(s, factorial(p) * factorial(q))
            for p, row in enumerate(powers) for q, s in enumerate(row) if s}


def betke_kneser_constant(P, a, s, t) -> Fraction:
    """a + s * b(P)/2 + t * area2(P), for a = Z(point)[0, 0],
    s = Z([0, e1])[0, 0] - a and t = Z(T)[0, 0] - a - 3s/2."""
    if P.dim == 2:
        return a + s * Fraction(len(boundary_lattice_points(P)), 2) \
            + t * area2(P)
    return a + s * (len(lattice_points(P)) - 1)


def law_report_by_series(law: str, f: Series2) -> LawReport:
    """The report of law on f built from the equations of law_sides on
    the Series2 f: the first difference of the first equation that has
    one, at that equation's common order, else the lowest common order of
    them all."""
    equations = law_sides(law, f)
    orders = [min(lhs.order, rhs.order) for lhs, rhs in equations]
    for (lhs, rhs), order in zip(equations, orders):
        diff = lhs.first_difference(rhs, order)
        if diff is not None:
            return LawReport(law, False, order, diff)
    return LawReport(law, True, min(orders), None)


def bernoulli_by_recurrence(n_max: int) -> list:
    """B_0..B_n_max (B_1 = -1/2) by the binomial recurrence
    B_n = -1/(n + 1) sum_(k<n) C(n + 1, k) B_k, in Fractions."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(-sum((comb(n + 1, k) * out[k] for k in range(n)),
                        Fraction(0)) / (n + 1))
    return out


def taylor_shift_by_passes(h: list, w: int) -> list:
    """h with h[s] made sum_d C(s, d) * w^(s-d) * h[d], in place: the n
    passes h[i] += w * h[i-1], i falling, for n = len(h) - 1."""
    n = len(h) - 1
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            h[i] += w * h[i - 1]
    return h


def constraint_matrix(d: int, law_ids) -> list:
    """Rows: the coefficients of the residual lhs - rhs of each equation of
    each named law, that of x^(e-i) y^i as row i for a residual of order e;
    columns: the degree-d monomials x^(d-k) y^k, k = 0..d, each taken
    through law_sides as a Series2 of order d."""
    cols = []
    for k in range(d + 1):
        mono = Series2.monomial(1, d - k, k, d)
        col = []
        for law in law_ids:
            for lhs, rhs in law_sides(law, mono):
                res = lhs - rhs
                den, rows = res.numerators()
                e = res.order
                col += [Fraction(s, den) for s in
                        (rows[e][::-1] if e < len(rows) else [0] * (e + 1))]
        cols.append(col)
    return [list(r) for r in zip(*cols)]


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent."""
    if len(rhs) != len(matrix):
        raise ValueError(f"rhs has {len(rhs)} entries, matrix has "
                         f"{len(matrix)} rows")
    if not matrix:
        return []
    ncols = linalg._width(matrix)
    m, pivots = linalg.rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def invariant_generators(order: int) -> tuple:
    """(a, b): the two generators of the D4 invariant ring in x and y."""
    return (Series2({(2, 0): 2, (1, 1): 2, (0, 2): 1}, order),
            Series2({(2, 2): 4, (1, 3): 4, (0, 4): 1}, order))


def d4_compose_by_powers(g: Series2, order: int) -> Series2:
    """g(a, b) up to the given order, summed over the terms of g from the
    powers a^i * b^j, each one product with a power made before it:
    a^i * b^j = (a^i * b^(j-1)) * b and a^i = a^(i-1) * a."""
    gen_a, gen_b = invariant_generators(order)
    powers = {(0, 0): Series2.constant(1, order)}

    def power(i, j):
        if (i, j) not in powers:
            powers[(i, j)] = (power(i, j - 1) * gen_b if j
                              else power(i - 1, 0) * gen_a)
        return powers[(i, j)]

    out = Series2.zero(order)
    for (i, j), c in g.terms():
        out = out + power(i, j).scalar_mul(c)
    return out


def d4_decompose_by_solve(h: Series2) -> Series2:
    """g with h = g(a, b), a and b the invariant generators: NotInvariant,
    worded as by laws.d4_decompose, unless h satisfies D4_LAWS; else for
    each even degree, the solve of the degree's numerators of h in those
    of the products a^i * b^j of that degree."""
    for law in D4_LAWS:
        report = check_law(law, h)
        if not report.holds:
            raise NotInvariant(f"violates {law} at "
                               f"{violation_text(report.first_violation)}")
    n = h.order
    gen_a, gen_b = invariant_generators(n)
    a_powers = [Series2.constant(1, n)]
    b_powers = [Series2.constant(1, n)]
    while len(a_powers) <= n // 2:
        a_powers.append(a_powers[-1] * gen_a)
    while len(b_powers) <= n // 4:
        b_powers.append(b_powers[-1] * gen_b)
    den, rows = h.numerators()
    out = {}
    for deg in range(0, n + 1, 2):
        monos = [((deg - 4 * j) // 2, j) for j in range(deg // 4 + 1)]
        columns = []
        for i, j in monos:
            p_den, p_rows = (a_powers[i] * b_powers[j]).numerators()
            columns.append([Fraction(s, p_den) for s in p_rows[deg]])
        rhs = rows[deg] if deg < len(rows) else [0] * (deg + 1)
        sol = solve([list(r) for r in zip(*columns)], rhs)
        assert sol is not None, f"degree {deg} is not in the invariant ring"
        out.update((e, x / den) for e, x in zip(monos, sol))
    return Series2(out, n)


def interior_value(ev, P) -> Series2:
    """Z of the relative interior of P under the evaluator ev: for a
    polygon, Z(P) minus the value of each edge plus that of each vertex;
    for a segment [a, b], Z(P) - Z(a) - Z(b)."""
    v = P.vertices
    if P.dim == 1:
        return ev.z_polygon(P) - ev.z_point(v[0]) - ev.z_point(v[1])
    out = ev.z_polygon(P)
    for a, b in zip(v, v[1:] + v[:1]):
        out = out - ev.z_segment(a, b) + ev.z_point(a)
    return out


def reassemble(components: DilativeComponents) -> ValuationSpec:
    """The spec whose dilative components are the given ones."""
    n = components.order
    g = cosh_type_g(n).scalar_mul(components.alpha0)
    for delta, beta in sorted(components.odd.items()):
        g = g + odd_basis_g(delta, n).scalar_mul(beta)
    rho = Series2.constant(components.alpha0 * components.kappa, n)
    for part in components.even_simple.values():
        rho = rho + part
    return ValuationSpec(components.alpha0, g, rho, n)


@dataclass(frozen=True)
class SurfaceReport:
    holds: bool
    first_violation: tuple | None


def surface_formula_check(spec: ValuationSpec, P) -> SurfaceReport:
    """Compare Z(P) with half the sum of Z over the edges of P."""
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    ev = evaluator_for(spec)
    v = P.vertices
    edge_sum = Series2.zero(ev.order)
    for i in range(len(v)):
        edge_sum = edge_sum + ev.z_segment(v[i], v[(i + 1) % len(v)])
    half = edge_sum.scalar_mul(Fraction(1, 2))
    diff = ev.z_polygon(P).first_difference(half)
    return SurfaceReport(diff is None, diff)
