"""Convex lattice polygons, lattice point enumeration, unimodular
triangulations, and chord splittings.

Polygons are canonical: counterclockwise strictly convex vertex lists
starting at the lexicographically smallest vertex.  Triangulations come
from one monotone sweep over every lattice point of the polygon in
lexicographic order, which forces all triangles to be unimodular (an
empty lattice triangle has twice-area one); the (y, x) sweep is the (x, y)
sweep of the mirror image, which also walks the lattice points of a
polygon wider than it is tall.  A triangulation holds its cells as points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class GeometryError(Exception):
    pass


class EmptyInput(GeometryError):
    pass


class NotFullDimensional(GeometryError):
    pass


class NotSegment(GeometryError):
    pass


class NoValidChord(GeometryError):
    pass


Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strict_hull(points):
    """The strict convex hull, counterclockwise (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class LatticePolygon:
    vertices: tuple[Point, ...]
    dim: int

    def key(self):
        return self.vertices

    def __repr__(self):
        return f"LatticePolygon{list(self.vertices)}"


def hull_normalize(points) -> LatticePolygon:
    """Canonical convex hull of a nonempty list of integer points."""
    pts = list(points)
    if not pts:
        raise EmptyInput("no points given")
    for p in pts:
        if int(p[0]) != p[0] or int(p[1]) != p[1]:
            raise ValueError(f"non-integer coordinate {p}")
    pts = [(int(p[0]), int(p[1])) for p in pts]
    hull = _strict_hull(pts)
    if len(hull) == 1:
        return LatticePolygon((hull[0],), 0)
    if len(hull) == 2:
        return LatticePolygon(tuple(sorted(hull)), 1)
    # rotate so the lexicographically smallest vertex is first; hull is CCW
    i = hull.index(min(hull))
    hull = hull[i:] + hull[:i]
    return LatticePolygon(tuple(hull), 2)


def area2(P: LatticePolygon) -> int:
    """Twice the Euclidean area (shoelace)."""
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    v = P.vertices
    s = 0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        s += a[0] * b[1] - a[1] * b[0]
    return abs(s)


def lattice_points(P: LatticePolygon) -> list[Point]:
    """All integer points of P in lexicographic order.

    A polygon wider than it is tall is walked by the rows of its mirror
    image (x, y) -> (y, x) and sorted back, so at most shorter_span(P) + 1
    columns are walked.
    """
    v = P.vertices
    if P.dim == 0:
        return [v[0]]
    if P.dim == 1:
        return sorted(segment_lattice_points(*v))
    xs, ys = zip(*v)
    if max(ys) - min(ys) < max(xs) - min(xs):
        # the mirror image, counterclockwise again once reversed
        mirror = [(y, x) for x, y in reversed(v)]
        return sorted((x, y) for y, x in _columns(mirror))
    return _columns(v)


def _columns(v) -> list[Point]:
    """The integer points of the counterclockwise convex polygon with
    vertices v, column by column.  Each column x runs from its lower to
    its upper boundary: the edges going right bound it below and those
    going left bound it above; vertical edges bound no column."""
    xs = [p[0] for p in v]
    edges = list(zip(v, v[1:] + v[:1]))
    # each edge as (a, b) with a_x < b_x
    lower = [(a, b) for a, b in edges if a[0] < b[0]]
    upper = [(b, a) for a, b in edges if a[0] > b[0]]

    def rise(a, b, x):
        """(b_x - a_x) times the height of the line ab at x."""
        return a[1] * (b[0] - a[0]) + (b[1] - a[1]) * (x - a[0])

    out = []
    for x in range(min(xs), max(xs) + 1):
        lo = max(-(-rise(a, b, x) // (b[0] - a[0])) for a, b in lower)
        hi = min(rise(a, b, x) // (b[0] - a[0]) for a, b in upper)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def shorter_span(P: LatticePolygon) -> int:
    """The smaller of the widths of P along x and along y."""
    return min(max(c) - min(c) for c in zip(*P.vertices))


def lattice_length(a: Point, b: Point) -> int:
    return gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))


def lattice_point_count(P: LatticePolygon) -> int:
    """The number of integer points of P, enumerating none: by Pick's
    theorem, (area2 + B) / 2 + 1 for a polygon with B boundary points."""
    v = P.vertices
    if P.dim == 0:
        return 1
    if P.dim == 1:
        return lattice_length(*v) + 1
    boundary = sum(lattice_length(v[i - 1], v[i]) for i in range(len(v)))
    return (area2(P) + boundary) // 2 + 1


def segment_lattice_points(a: Point, b: Point) -> list[Point]:
    """Lattice points of [a, b] walking from a to b."""
    g = lattice_length(a, b)
    if g == 0:
        return [a]
    sx, sy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    return [(a[0] + k * sx, a[1] + k * sy) for k in range(g + 1)]


def boundary_lattice_points(P: LatticePolygon) -> list[Point]:
    """Boundary lattice points in counterclockwise cyclic order."""
    if P.dim < 2:
        return lattice_points(P)
    out = []
    v = P.vertices
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        out.extend(segment_lattice_points(a, b)[:-1])
    return out


@dataclass(frozen=True)
class Triangulation:
    """A unimodular triangulation, as lattice points: the triangles as
    point triples in sweep order, and the interior vertices."""
    triangles: tuple[tuple[Point, Point, Point], ...]
    interior_vertices: tuple[Point, ...]


def unimodular_triangulation(P: LatticePolygon) -> Triangulation:
    """Deterministic unimodular triangulation using all lattice points of P.

    One monotone sweep (Andrew's monotone chain with collinear points kept
    on the chains): the points are taken in lexicographic order, and each
    new point pops every edge of the lower and of the upper chain that it
    strictly sees, making one triangle with each, before it joins both
    chains.  Because every lattice point participates, each triangle is
    lattice-point free and hence has twice-area one.  The points left on
    the chains are the boundary points of P; the others are the interior
    vertices.
    """
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    pts = lattice_points(P)            # lexicographic

    triangles = []
    lower, upper = [], []              # points, left to right
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) < 0:
            triangles.append((lower[-2], lower.pop(), p))
        lower.append(p)
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) > 0:
            triangles.append((upper[-2], upper.pop(), p))
        upper.append(p)
    if not triangles:
        raise NotFullDimensional("all lattice points collinear")

    on_chains = set(lower) | set(upper)
    return Triangulation(tuple(triangles),
                         tuple(p for p in pts if p not in on_chains))


def split_pairs(P: LatticePolygon, count=None):
    """Chord splittings of P into two full-dimensional lattice polygons.

    Each pair (P1, P2) satisfies P1 union P2 = P and P1 intersect P2 = the
    chord segment.  Deterministic enumeration over cyclic boundary point
    pairs; raises NoValidChord when no proper chord exists.
    """
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    bpts = boundary_lattice_points(P)
    n = len(bpts)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            arc1 = bpts[i:j + 1]
            arc2 = bpts[j:] + bpts[:i + 1]
            if len(arc1) < 3 or len(arc2) < 3:
                continue
            P1 = _arc_polygon(arc1)
            P2 = _arc_polygon(arc2)
            if P1 is None or P2 is None:
                continue
            out.append((P1, P2))
            if count is not None and len(out) >= count:
                return out
    if not out:
        raise NoValidChord("all boundary lattice points pairwise adjacent")
    return out


def _arc_polygon(arc):
    """The polygon that a counterclockwise arc of a convex polygon's
    boundary points bounds with the chord from its last point back to its
    first, as hull_normalize gives it, or None when it is not
    full-dimensional: the arc is already convex and counterclockwise, so
    its vertices are its points that are not collinear with their two
    neighbours, rotated to start at the smallest."""
    v = [p for a, p, b in zip(arc[-1:] + arc[:-1], arc, arc[1:] + arc[:1])
         if _cross(a, p, b)]
    if len(v) < 3:
        return None
    i = v.index(min(v))
    return LatticePolygon(tuple(v[i:] + v[:i]), 2)


def chord_of_split(P1: LatticePolygon, P2: LatticePolygon) -> LatticePolygon:
    """The intersection segment of a split pair."""
    seg = hull_normalize(set(boundary_lattice_points(P1))
                         & set(boundary_lattice_points(P2)))
    if seg.dim != 1:
        raise NotSegment(f"intersection has dim {seg.dim}")
    return seg


def scale_polygon(P: LatticePolygon, m: int) -> LatticePolygon:
    return hull_normalize([(m * x, m * y) for x, y in P.vertices])
