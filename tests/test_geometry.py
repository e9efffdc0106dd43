"""Tests for lattice polygons, triangulations, and chord splittings."""

import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latval.geometry import (EmptyInput, NoValidChord,
                             NotFullDimensional, NotSegment, Triangulation,
                             area2, boundary_lattice_points, chord_of_split,
                             hull_normalize, lattice_length,
                             lattice_point_count, lattice_points,
                             scale_polygon, segment_lattice_points,
                             shorter_span, split_pairs,
                             unimodular_triangulation)

T = hull_normalize([(0, 0), (1, 0), (0, 1)])
SQUARE = hull_normalize([(0, 0), (1, 0), (0, 1), (1, 1)])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def contains(P, point) -> bool:
    """Membership of a point in P, exact on integer and rational
    coordinates: on the left of or on every edge of the counterclockwise
    vertices of a polygon, between the ends of a segment."""
    v = P.vertices
    if P.dim == 0:
        return tuple(point) == v[0]
    if P.dim == 1:
        (a0, a1), (b0, b1) = v
        return (_cross(v[0], v[1], point) == 0
                and min(a0, b0) <= point[0] <= max(a0, b0)
                and min(a1, b1) <= point[1] <= max(a1, b1))
    return all(_cross(v[i - 1], v[i], point) >= 0 for i in range(len(v)))


def on_boundary(P, p):
    """Whether p lies on an edge of P (on P itself, for a point or a
    segment)."""
    if P.dim < 2:
        return contains(P, p)
    v = P.vertices
    return any(contains(hull_normalize([v[i - 1], v[i]]), p)
               for i in range(len(v)))


def test_hull_normalize():
    P = hull_normalize([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert P.dim == 2
    assert P.vertices[0] == (0, 0)
    # counterclockwise orientation
    assert P.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    with pytest.raises(EmptyInput):
        hull_normalize([])
    with pytest.raises(ValueError):
        hull_normalize([(0, 0), (Q(1, 3), 0)])


def test_hull_collinear_and_point():
    seg = hull_normalize([(0, 0), (2, 0), (1, 0)])
    assert seg.dim == 1 and seg.vertices == ((0, 0), (2, 0))
    pt = hull_normalize([(3, 4), (3, 4)])
    assert pt.dim == 0 and pt.vertices == ((3, 4),)


def test_collinear_interior_vertices_dropped():
    P = hull_normalize([(0, 0), (1, 0), (2, 0), (0, 2)])
    assert (1, 0) not in P.vertices


def test_area2():
    assert area2(T) == 1
    assert area2(SQUARE) == 2
    for m in (2, 3, 5):
        assert area2(scale_polygon(T, m)) == m * m
    with pytest.raises(NotFullDimensional):
        area2(hull_normalize([(0, 0), (1, 0)]))


def test_contains_exact():
    assert contains(T, (Q(1, 3), Q(1, 3)))
    assert not contains(T, (Q(2, 3), Q(2, 3)))
    assert contains(T, (0, 1))
    seg = hull_normalize([(0, 0), (2, 2)])
    assert contains(seg, (1, 1))
    assert not contains(seg, (1, 0))


def test_lattice_points():
    assert lattice_points(T) == [(0, 0), (0, 1), (1, 0)]
    assert len(lattice_points(scale_polygon(T, 2))) == 6
    assert len(lattice_points(scale_polygon(T, 3))) == 10
    assert lattice_points(hull_normalize([(0, 0), (3, 0)])) == \
        [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_lattice_points_of_a_wide_polygon():
    # walked by its 3 rows, not its 10^20 + 1 columns, then sorted back
    W = 10**20
    P = hull_normalize([(0, 2), (2, 2), (W, 0)])
    assert lattice_points(P) == [(0, 2), (1, 2), (2, 2), (W // 2, 1),
                                 (W // 2 + 1, 1), (W, 0)]
    assert shorter_span(P) == 2
    assert lattice_points(hull_normalize([(y, x) for x, y in P.vertices])) \
        == sorted((y, x) for x, y in lattice_points(P))


def test_segment_lattice_points():
    assert segment_lattice_points((0, 0), (2, 2)) == [(0, 0), (1, 1), (2, 2)]
    assert lattice_length((0, 0), (4, 6)) == 2


def test_boundary_lattice_points_cyclic():
    pts = boundary_lattice_points(scale_polygon(T, 2))
    assert len(pts) == 6
    assert pts[0] == (0, 0)
    assert on_boundary(scale_polygon(T, 2), (1, 1))


def interior_edges(tri):
    """The sides that lie in exactly two triangles of tri, as sorted point
    pairs: its interior edges, which the triangulation does not keep."""
    sides = Counter(e for t in tri.triangles
                    for e in combinations(sorted(t), 2))
    return sorted(e for e, n in sides.items() if n == 2)


def test_triangulation_T():
    tri = unimodular_triangulation(T)
    assert len(tri.triangles) == 1
    assert not interior_edges(tri) and not tri.interior_vertices


def test_triangulation_2T():
    tri = unimodular_triangulation(scale_polygon(T, 2))
    assert len(tri.triangles) == 4
    assert len(interior_edges(tri)) == 3
    assert len(tri.interior_vertices) == 0


def test_triangulation_2x2_square():
    tri = unimodular_triangulation(scale_polygon(SQUARE, 2))
    assert len(tri.triangles) == 8
    assert len(interior_edges(tri)) == 8
    assert tri.interior_vertices == ((1, 1),)


CORPUS = [
    T, SQUARE, scale_polygon(T, 2), scale_polygon(T, 3),
    scale_polygon(SQUARE, 2),
    hull_normalize([(0, 0), (2, 0), (0, 2), (0, 1)]),       # trapezoid
    hull_normalize([(0, 0), (3, 0), (1, 2), (0, 2)]),       # trapezoid
    hull_normalize([(0, 0), (2, 1), (3, 3), (1, 3), (-1, 1)]),
    hull_normalize([(0, 0), (4, 1), (2, 3)]),
]


def _sweep(P, order):
    """P's triangulation with its points swept in (x, y) order ("lex"), or
    in (y, x) order ("alt"): the triangulation of the mirror image
    (x, y) -> (y, x), mapped back."""
    if order == "lex":
        return unimodular_triangulation(P)
    tri = unimodular_triangulation(hull_normalize([(y, x) for x, y
                                                   in P.vertices]))

    def flip(points):
        return tuple((x, y) for y, x in points)
    return Triangulation(tuple(map(flip, tri.triangles)),
                         flip(tri.interior_vertices))


def _vertices(tri):
    """The points that are a vertex of some triangle."""
    return {p for t in tri.triangles for p in t}


@pytest.mark.parametrize("order", ["lex", "alt"])
@pytest.mark.parametrize("P", CORPUS, ids=lambda P: str(list(P.vertices)))
def test_triangulation_invariants(P, order):
    tri = _sweep(P, order)
    assert _vertices(tri) == set(lattice_points(P))
    total = 0
    for t in tri.triangles:
        assert area2(hull_normalize(t)) == 1
        total += 1
    assert total == area2(P)
    # Euler relation
    assert len(tri.triangles) - len(interior_edges(tri)) \
        + len(tri.interior_vertices) == 1


def _faces_containing(tri, z):
    """Triangles minus interior edges plus interior vertices that hold z."""
    total = 0
    for t in tri.triangles:
        if contains(hull_normalize(t), z):
            total += 1
    for e in interior_edges(tri):
        if contains(hull_normalize(e), z):
            total -= 1
    return total + (z in tri.interior_vertices)


@pytest.mark.parametrize("P", CORPUS[:6], ids=lambda P: str(list(P.vertices)))
def test_indicator_inclusion_exclusion(P):
    rng = random.Random(11)
    tri = unimodular_triangulation(P)
    for _ in range(20):
        z = (Q(rng.randint(-8, 12), 4), Q(rng.randint(-8, 12), 4))
        assert _faces_containing(tri, z) == (1 if contains(P, z) else 0)


@st.composite
def hulls(draw):
    """Random lattice hulls: general ones in a small box, thin ones with a
    long edge, and ones whose first lattice column is a vertical run of
    collinear points."""
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(["box", "thin", "column"]))
    if kind == "box":
        pts = draw(st.lists(st.tuples(small, small), min_size=3, max_size=7))
    elif kind == "thin":
        a = draw(st.tuples(small, small))
        d = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
        off = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        pts = [a, (a[0] + d[0], a[1] + d[1]),
               (a[0] + d[0] // 2 + off[0], a[1] + d[1] // 2 + off[1])]
    else:
        h = draw(st.integers(1, 5))
        right = st.tuples(st.integers(1, 6), st.integers(-3, 6))
        pts = [(0, 0), (0, h)] + draw(st.lists(right, min_size=1, max_size=3))
    P = hull_normalize(pts)
    assume(P.dim == 2)
    return P


@settings(max_examples=60)
@given(P=hulls(), seed=st.integers(0, 2**16))
def test_triangulation_invariants_on_random_polygons(P, seed):
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    rng = random.Random(seed)
    zs = [(Q(rng.randint(4 * min(xs) - 2, 4 * max(xs) + 2), 4),
           Q(rng.randint(4 * min(ys) - 2, 4 * max(ys) + 2), 4))
          for _ in range(10)]
    for order in ("lex", "alt"):
        tri = _sweep(P, order)
        assert sorted(_vertices(tri)) == lattice_points(P)
        for t in tri.triangles:
            assert area2(hull_normalize(t)) == 1
        assert len(tri.triangles) == area2(P)
        assert sorted(tri.interior_vertices) == [
            p for p in lattice_points(P) if not on_boundary(P, p)]
        assert len(tri.triangles) - len(interior_edges(tri)) \
            + len(tri.interior_vertices) == 1
        for z in zs:
            assert _faces_containing(tri, z) == (1 if contains(P, z) else 0)


@st.composite
def point_hulls(draw):
    """Hulls of every dimension for lattice point enumeration: the random
    polygons above, long thin diagonal ones, axis-parallel ones with
    vertical and horizontal edges, ones spanning only two columns, and
    vertical segments and points, which take a single column."""
    kind = draw(st.sampled_from(["hull", "diagonal", "axis", "narrow",
                                 "column"]))
    coord = st.integers(-40, 40)
    if kind == "hull":
        return draw(hulls())
    x, y = draw(coord), draw(coord)
    if kind == "diagonal":
        d = draw(st.integers(5, 60))
        s = draw(st.sampled_from([1, -1]))
        pts = [(x, y), (x + d, y + s * (d + 1)), (x + d + 1, y + s * d)]
    elif kind == "axis":
        w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        cut = draw(st.integers(0, h))
        pts = [(x, y), (x + w, y), (x + w, y + h - cut), (x, y + h)]
    elif kind == "narrow":
        pts = [(x, y + draw(st.integers(-9, 9))) for _ in range(2)] \
            + [(x + 1, y + draw(st.integers(-9, 9))) for _ in range(2)]
    else:
        pts = [(x, y), (x, y + draw(st.integers(0, 9)))]
    return hull_normalize(pts)


@settings(max_examples=150)
@given(P=point_hulls())
def test_lattice_points_match_box_scan(P):
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    scan = [(x, y) for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1) if contains(P, (x, y))]
    assert lattice_points(P) == scan
    assert lattice_point_count(P) == len(scan)


def test_split_pairs():
    pairs = split_pairs(SQUARE)
    assert len(pairs) == 2   # the two diagonals
    P1, P2 = pairs[0]
    assert area2(P1) + area2(P2) == 2
    chord = chord_of_split(P1, P2)
    assert chord.dim == 1
    with pytest.raises(NoValidChord):
        split_pairs(T)


def split_pairs_by_hulls(P):
    """The chord splittings of P, each part the hull_normalize of its arc
    of boundary points (the oracle): for each pair i < j of boundary
    points, in order, the arcs from i to j and from j back to i, kept when
    both hulls are full-dimensional."""
    b = boundary_lattice_points(P)
    pairs = [(hull_normalize(b[i:j + 1]), hull_normalize(b[j:] + b[:i + 1]))
             for i in range(len(b)) for j in range(i + 1, len(b))]
    return [(P1, P2) for P1, P2 in pairs if P1.dim == P2.dim == 2]


def _check_split_pairs(P):
    """The pairs are those of the hulls of the arcs, in the same order;
    each pair's areas add up to P's, its parts meet in a segment, and
    their union is P."""
    assert split_pairs(P) == split_pairs_by_hulls(P)
    for P1, P2 in split_pairs(P):
        assert area2(P1) + area2(P2) == area2(P)
        assert chord_of_split(P1, P2).dim == 1
        union = hull_normalize(list(P1.vertices) + list(P2.vertices))
        assert union == P


def test_split_pairs_2T():
    _check_split_pairs(scale_polygon(T, 2))


@settings(max_examples=60)
@given(P=hulls())
def test_split_pairs_of_random_hulls(P):
    try:
        _check_split_pairs(P)
    except NoValidChord:
        assert len(boundary_lattice_points(P)) == 3


def test_chord_of_split_requires_segment():
    with pytest.raises(NotSegment):
        chord_of_split(T, T)


def test_polygon_key_and_repr():
    assert T.key() == ((0, 0), (1, 0), (0, 1))
    assert "LatticePolygon" in repr(T)
