"""Oracles for the value of a valuation that triangulate nothing.

Each gives exact coefficients from the lattice points of a polygon alone:
they share the column walk of ``latval.geometry`` with the evaluator's
triangulation, and no series kernel.  Only the standard library is used
here.

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
from math import factorial

from latval.geometry import area2, boundary_lattice_points, lattice_points


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
