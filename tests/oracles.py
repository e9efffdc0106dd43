"""Oracles for the value of a valuation that triangulate nothing.

Each gives exact coefficients from a polygon's vertices or lattice points
alone: the last two share the column walk of ``latval.geometry`` with the
evaluator's triangulation, the others nothing, and none uses a series
kernel.  Only the standard library is used here.

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
"""

from fractions import Fraction
from math import factorial, gcd

from latval.geometry import area2, boundary_lattice_points, lattice_points


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
