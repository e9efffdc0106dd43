"""Convex lattice polygons, lattice point enumeration, unimodular
triangulations, and chord splittings.

Polygons are canonical: counterclockwise strictly convex vertex lists
starting at the lexicographically smallest vertex.  Triangulations insert
every lattice point of the polygon, which forces all triangles to be
unimodular (an empty lattice triangle has twice-area one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Counterclockwise strict convex hull (collinear points dropped)."""
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


def contains(P: LatticePolygon, point) -> bool:
    """Membership test, exact; accepts rational coordinates."""
    x, y = Fraction(point[0]), Fraction(point[1])
    v = P.vertices
    if P.dim == 0:
        return (x, y) == v[0]
    if P.dim == 1:
        (x0, y0), (x1, y1) = v
        if (x1 - x0) * (y - y0) != (y1 - y0) * (x - x0):
            return False
        return min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        if (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) < 0:
            return False
    return True


def on_boundary(P: LatticePolygon, p: Point) -> bool:
    if P.dim < 2:
        return contains(P, p)
    v = P.vertices
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        if _cross(a, b, p) == 0 and _between(a, b, p):
            return True
    return False


def _between(a: Point, b: Point, p: Point) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def lattice_points(P: LatticePolygon) -> list[Point]:
    """All integer points of P in lexicographic order."""
    v = P.vertices
    if P.dim == 0:
        return [v[0]]
    if P.dim == 1:
        a, b = v
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(abs(dx), abs(dy))
        sx, sy = dx // g, dy // g
        return sorted((a[0] + k * sx, a[1] + k * sy) for k in range(g + 1))
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if contains(P, (x, y)):
                out.append((x, y))
    return out


def lattice_length(a: Point, b: Point) -> int:
    return gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))


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
    points: tuple[Point, ...]
    triangles: tuple[tuple[int, int, int], ...]
    boundary_edges: tuple[tuple[int, int], ...]
    interior_edges: tuple[tuple[int, int], ...]
    interior_vertices: tuple[int, ...]

    def triangle_points(self, t):
        return tuple(self.points[i] for i in t)

    def edge_points(self, e):
        return (self.points[e[0]], self.points[e[1]])


# insertion orders for the incremental triangulation; each is a sort key on
# points and keeps the "new point is never inside the current hull" invariant
_INSERTION_KEYS = {
    "lex": lambda p: (p[0], p[1]),
    "alt": lambda p: (p[1], p[0]),
}


def unimodular_triangulation(P: LatticePolygon, insertion: str = "lex") -> Triangulation:
    """Deterministic unimodular triangulation using all lattice points of P.

    Points are inserted in sorted order; each new point is fanned to the
    hull edges visible from it.  Because every lattice point participates,
    each triangle is lattice-point free and hence has twice-area one.
    """
    if P.dim != 2:
        raise NotFullDimensional(f"dim {P.dim}")
    key = _INSERTION_KEYS[insertion]
    pts = sorted(lattice_points(P), key=key)
    index = {p: i for i, p in enumerate(pts)}

    triangles = []
    processed = []
    collinear_prefix = True
    boundary = []   # CCW chain of boundary points of the processed hull

    for p in pts:
        if collinear_prefix:
            processed.append(p)
            if len(processed) >= 3 and _cross(processed[0], processed[1], p) != 0:
                collinear_prefix = False
                # the prefix is a chain of collinear lattice points
                chain = processed[:-1]
                for a, b in zip(chain, chain[1:]):
                    triangles.append((index[a], index[b], index[p]))
                boundary = _boundary_chain(processed)
            continue
        n = len(boundary)
        for i in range(n):
            a, b = boundary[i], boundary[(i + 1) % n]
            if _cross(a, b, p) < 0:   # edge visible from p
                triangles.append((index[a], index[b], index[p]))
        processed.append(p)
        boundary = _boundary_chain(processed)

    if collinear_prefix:
        raise NotFullDimensional("all lattice points collinear")

    edge_count = {}
    for t in triangles:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            e = (min(e), max(e))
            edge_count[e] = edge_count.get(e, 0) + 1
    interior_edges = tuple(sorted(e for e, c in edge_count.items() if c == 2))
    boundary_edges = tuple(sorted(e for e, c in edge_count.items() if c == 1))
    interior_vertices = tuple(i for i, p in enumerate(pts) if not on_boundary(P, p))
    return Triangulation(tuple(pts),
                         tuple(tuple(sorted(t)) for t in triangles),
                         boundary_edges, interior_edges, interior_vertices)


def _boundary_chain(points):
    """CCW boundary chain of conv(points), keeping collinear lattice points."""
    hull = _strict_hull(points)
    if len(hull) <= 2:
        return hull
    pset = set(points)
    chain = []
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        for q in segment_lattice_points(a, b)[:-1]:
            if q in pset or q == a:
                chain.append(q)
    return chain


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
            P1 = hull_normalize(arc1)
            P2 = hull_normalize(arc2)
            if P1.dim != 2 or P2.dim != 2:
                continue
            if area2(P1) + area2(P2) != area2(P):
                continue
            out.append((P1, P2))
            if count is not None and len(out) >= count:
                return out
    if not out:
        raise NoValidChord("all boundary lattice points pairwise adjacent")
    return out


def chord_of_split(P1: LatticePolygon, P2: LatticePolygon) -> LatticePolygon:
    """The intersection segment of a split pair."""
    common = sorted(set(lattice_points(P1)) & set(lattice_points(P2)))
    seg = hull_normalize(common)
    if seg.dim != 1:
        raise NotSegment(f"intersection has dim {seg.dim}")
    return seg


def scale_polygon(P: LatticePolygon, m: int) -> LatticePolygon:
    return hull_normalize([(m * x, m * y) for x, y in P.vertices])
