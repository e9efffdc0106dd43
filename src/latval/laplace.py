"""Exact positive Laplace transform of lattice polygons via moments.

The transform of a polygon P is the entire series

    L(P)(x, y) = sum_{a,b} mu(a, b) / (a! b!) x^a y^b,
    mu(a, b) = integral over P of s^a t^b ds dt.

Moments are computed by triangulating P into unimodular triangles and
pushing the standard-triangle moments forward through each affine frame.
The vertices are lattice points, so for a + b <= n every moment is an
integer over K = (n+2)!: each one is summed over all triangles as an
integer numerator, and one Fraction is made per moment (per coefficient
for the transform) at the end.  The moments use no code of the series
engine, only its Series2 type for the result, which is what makes this a
genuine cross-check for the valuation evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .geometry import (LatticePolygon, NotFullDimensional, area2,
                       unimodular_triangulation)
from .series import DEFAULT_ORDER, Series2

Q = Fraction


def triangle_moment(a: int, b: int) -> Fraction:
    """Moment of s^a t^b over the standard triangle: a! b! / (a+b+2)!."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    return Q(factorial(a) * factorial(b), factorial(a + b + 2))


@dataclass(frozen=True)
class MomentTable:
    polygon: LatticePolygon
    max_degree: int
    values: dict   # (a, b) -> Fraction

    def moment(self, a: int, b: int) -> Fraction:
        """mu(a, b); only the moments with a + b <= max_degree are known."""
        if a < 0 or b < 0:
            raise ValueError("exponents must be non-negative")
        if a + b > self.max_degree:
            raise ValueError(f"moment ({a}, {b}) has degree {a + b}, above "
                             f"the computed maximum {self.max_degree}")
        return self.values[(a, b)]


def _binomial_powers(v0, c1, c2, n_max):
    """Integer coefficients of (v0 + c1*u + c2*v)^e in (u, v), for
    e = 0..n_max, zero ones left out."""
    return [{(i, j): c for i in range(e + 1) for j in range(e + 1 - i)
             if (c := comb(e, i) * comb(e - i, j)
                 * v0 ** (e - i - j) * c1 ** i * c2 ** j)}
            for e in range(n_max + 1)]


def _moment_numerators(P: LatticePolygon, n_max: int):
    """(num, K) with mu(a, b) = num[(a, b)] / K for a + b <= n_max, where
    K = (n_max + 2)!, summed over a unimodular triangulation (each frame
    has Jacobian 1)."""
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    tri = unimodular_triangulation(P)
    K = factorial(n_max + 2)
    # base[i][j] = K * triangle_moment(i, j), an integer for i + j <= n_max
    base = [[factorial(i) * factorial(j) * (K // factorial(i + j + 2))
             for j in range(n_max + 1 - i)] for i in range(n_max + 1)]
    num = {(a, b): 0 for a in range(n_max + 1) for b in range(n_max + 1 - a)}
    for t in tri.triangles:
        v0, v1, v2 = tri.triangle_points(t)
        # s = v0x + (v1x - v0x) u + (v2x - v0x) v, same for t-coordinate
        sx = _binomial_powers(v0[0], v1[0] - v0[0], v2[0] - v0[0], n_max)
        sy = _binomial_powers(v0[1], v1[1] - v0[1], v2[1] - v0[1], n_max)
        for b in range(n_max + 1):
            # tb[i1][j1] = K * integral of u^i1 v^j1 t^b over the triangle,
            # shared by every a
            tb = [[sum(cb * base[i1 + i2][j1 + j2]
                        for (i2, j2), cb in sy[b].items())
                   for j1 in range(n_max + 1 - b - i1)]
                  for i1 in range(n_max + 1 - b)]
            for a in range(n_max + 1 - b):
                num[(a, b)] += sum(ca * tb[i1][j1]
                                   for (i1, j1), ca in sx[a].items())
    if 2 * num[(0, 0)] != area2(P) * K:
        raise ArithmeticError(f"moment (0, 0) is {Q(num[(0, 0)], K)}, "
                              f"not the area {Q(area2(P), 2)}")
    return num, K


def polygon_moments(P: LatticePolygon, n_max: int) -> MomentTable:
    """All moments mu(a, b), a + b <= n_max."""
    num, K = _moment_numerators(P, n_max)
    return MomentTable(P, n_max, {e: Q(v, K) for e, v in num.items()})


def laplace_plus(P: LatticePolygon, order: int = DEFAULT_ORDER) -> Series2:
    """The transform as a truncated series; zero on points and segments."""
    if P.dim < 2:
        return Series2.zero(order)
    num, K = _moment_numerators(P, order)
    return Series2({(a, b): Q(v, K * factorial(a) * factorial(b))
                    for (a, b), v in num.items()}, order)
