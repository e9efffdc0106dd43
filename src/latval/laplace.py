"""Exact positive Laplace transform of lattice polygons by the simplex formula.

The transform of a polygon P is the entire series

    L(P)(x, y) = integral over P of e^(s x + t y) ds dt
               = sum_{a,b} mu(a, b) / (a! b!) x^a y^b,
    mu(a, b) = integral over P of s^a t^b ds dt.

P is cut into the fan of triangles (v0, v_i, v_(i+1)) from its first
vertex.  On a triangle with vertices v0, v1, v2 and twice-area A, the
simplex integration formula (Barvinok; Baldoni, Berline, De Loera, Koeppe
and Vergne, "How to integrate a polynomial over a simplex", Math. Comp.
2011) gives the degree-k part of the transform as

    A h_k(l0, l1, l2) / (k+2)!,    l_i = v_i . (x, y),

where h_k is the complete homogeneous symmetric polynomial.  A h_k is k+1
integers, its coefficients of x^a y^(k-a), built from A h_0 = A by the
recurrence h_k(l0..lm) = h_k(l0..l(m-1)) + lm h_(k-1)(l0..lm): O(vertices
n^2) multiply-adds at order n, whatever the area.  One Fraction is made per
coefficient of the summed tables.  No lattice point and no algorithm of
the series engine is used, only its Series2 type for the result, which
makes this a genuine cross-check of the evaluator and its triangulation.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial

# unimodular_triangulation is unused; bench/tests/test_bench.py::
# test_install_wraps_every_binding_and_uninstall_restores wraps it here
from .geometry import (LatticePolygon, NotFullDimensional,
                       unimodular_triangulation)
from .series import DEFAULT_ORDER, Series2


def _degree_tables(P: LatticePolygon, n: int) -> list:
    """H with H[k][a] the coefficient of x^a y^(k-a) in the sum of
    A h_k(l0, l1, l2) over the fan of P, for k <= n; so L(P) has that
    coefficient over (k+2)!."""
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    H = [[0] * (k + 1) for k in range(n + 1)]
    (x0, y0), *rest = P.vertices
    for (x1, y1), (x2, y2) in zip(rest, rest[1:]):
        a = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        h = [[a]] + [[0] * (k + 1) for k in range(1, n + 1)]
        for p, q in ((x0, y0), (x1, y1), (x2, y2)):
            # h[k] += (p x + q y) h[k-1], with h[k-1] already updated
            for k in range(1, n + 1):
                g = h[k - 1]
                h[k] = [c + p * lo + q * hi
                        for c, lo, hi in zip(h[k], [0] + g, g + [0])]
        H = [[s + c for s, c in zip(row, form)] for row, form in zip(H, h)]
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
