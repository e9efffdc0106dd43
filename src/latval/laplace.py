"""Exact positive Laplace transform of lattice polygons by the simplex formula.

The transform of a polygon P is the entire series

    L(P)(x, y) = integral over P of e^(s x + t y) ds dt
               = sum_{a,b} mu(a, b) / (a! b!) x^a y^b,
    mu(a, b) = integral over P of s^a t^b ds dt.

P is cut into unimodular triangles.  On a triangle with vertices v0, v1,
v2 and twice-area 1, the simplex integration formula (Barvinok; Baldoni,
Berline, De Loera, Koeppe and Vergne, "How to integrate a polynomial over
a simplex", Math. Comp. 2011) gives the degree-k part of the transform as

    h_k(l0, l1, l2) / (k+2)!,    l_i = v_i . (x, y),

where h_k is the complete homogeneous symmetric polynomial.  Each form
h_k is k+1 integers, its coefficients of x^a y^(k-a), and is built by the
recurrence h_k(l0..lm) = h_k(l0..l(m-1)) + lm h_(k-1)(l0..lm): three
passes of multiply-adds per triangle.  These integer tables by total
degree are summed over the triangles, and one Fraction is made per
coefficient at the end.  No code of the series engine is used, only its
Series2 type for the result, which is what makes this a genuine
cross-check for the valuation evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .geometry import (LatticePolygon, NotFullDimensional, area2,
                       unimodular_triangulation)
from .series import DEFAULT_ORDER, Series2

Q = Fraction


def _degree_tables(P: LatticePolygon, n: int) -> list:
    """H with H[k][a] the coefficient of x^a y^(k-a) in the sum of
    h_k(l0, l1, l2) over a unimodular triangulation of P, for k <= n; so
    L(P) has that coefficient over (k+2)!."""
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    H = [[0] * (k + 1) for k in range(n + 1)]
    for t in unimodular_triangulation(P).triangles:
        h = [[1]] + [[0] * (k + 1) for k in range(1, n + 1)]
        for p, q in t:
            # h[k] += (p x + q y) h[k-1], with h[k-1] already updated
            for k in range(1, n + 1):
                g = h[k - 1]
                h[k] = [c + p * lo + q * hi
                        for c, lo, hi in zip(h[k], [0] + g, g + [0])]
        H = [[s + c for s, c in zip(row, form)] for row, form in zip(H, h)]
    if H[0][0] != area2(P):
        raise ArithmeticError(f"moment (0, 0) is {Q(H[0][0], 2)}, "
                              f"not the area {Q(area2(P), 2)}")
    return H


def laplace_plus(P: LatticePolygon, order: int = DEFAULT_ORDER) -> Series2:
    """The transform as a truncated series; zero on points and segments."""
    if P.dim < 2:
        return Series2.zero(order)
    coeffs = {}
    for k, row in enumerate(_degree_tables(P, order)):
        den = factorial(k + 2)
        coeffs.update(((a, k - a), Q(c, den)) for a, c in enumerate(row))
    return Series2(coeffs, order)
