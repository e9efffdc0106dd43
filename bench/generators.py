"""Seeded input generators for the benchmark.

They depend on nothing in ``latval``, so a change to the library cannot
change the inputs: the same seed gives byte-identical polygons, maps and
series on every commit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Counterclockwise strict convex hull, starting at the smallest point."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area2(vertices):
    """Twice the area of a counterclockwise polygon; it equals the number of
    triangles in any unimodular triangulation through all lattice points."""
    n = len(vertices)
    return sum(vertices[i][0] * vertices[(i + 1) % n][1]
               - vertices[(i + 1) % n][0] * vertices[i][1] for i in range(n))


def boundary_points(vertices):
    n = len(vertices)
    return sum(gcd(abs(vertices[(i + 1) % n][0] - vertices[i][0]),
                   abs(vertices[(i + 1) % n][1] - vertices[i][1]))
               for i in range(n))


def boundary_lattice_points(vertices):
    """The lattice points on the boundary, counterclockwise from the first
    vertex."""
    n = len(vertices)
    out = []
    for i in range(n):
        (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % n]
        g = gcd(abs(x1 - x0), abs(y1 - y0))
        out += [(x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g)
                for k in range(g)]
    return out


def random_chord(rng: random.Random, vertices):
    """Two boundary lattice points of a convex polygon that lie on no common
    edge, so the segment between them splits the polygon in two.  The polygon
    needs four boundary points or more."""
    pts = boundary_lattice_points(vertices)
    n = len(vertices)
    while True:
        p, q = rng.sample(pts, 2)
        if not any(_cross(vertices[i], vertices[(i + 1) % n], p) == 0
                   and _cross(vertices[i], vertices[(i + 1) % n], q) == 0
                   for i in range(n)):
            return tuple(sorted((p, q)))


def lattice_point_count(vertices):
    """Number of lattice points of the polygon, by Pick's theorem."""
    a2, b = area2(vertices), boundary_points(vertices)
    return (a2 - b + 2) // 2 + b


def random_polygon(rng: random.Random, triangles: int, max_points=None):
    """A convex lattice polygon with exactly ``triangles`` unimodular
    triangles: the hull of seeded points, kept only if it is 2-dimensional,
    has that twice-area and at most ``max_points`` lattice points."""
    side = isqrt(triangles) + 2
    while True:
        pts = [(rng.randint(0, side), rng.randint(0, side))
               for _ in range(rng.randint(3, 6))]
        hull = convex_hull(pts)
        if len(hull) < 3 or area2(hull) != triangles:
            continue
        if max_points is not None and lattice_point_count(hull) > max_points:
            continue
        dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
        return [(x + dx, y + dy) for x, y in hull]


def random_unimodular(rng: random.Random, bound: int = 3):
    """An affine unimodular map ((a, b), (c, d)), (e, f) with all entries in
    [-bound, bound] and determinant +-1."""
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(2))
                  for _ in range(2))
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1:
            return m, (rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_rational(rng: random.Random):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def dense_coefficients(rng: random.Random, order: int, even: bool = False):
    """Coefficients {(p, q): c} of a dense series: every monomial of total
    degree <= order (only even degrees when ``even``) gets a nonzero
    seeded rational."""
    out = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            if even and (p + q) % 2:
                continue
            c = random_rational(rng)
            out[(p, q)] = c if c else Fraction(1)
    return out
