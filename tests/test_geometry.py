"""Tests for lattice polygons, triangulations, and chord splittings."""

import random
from fractions import Fraction as Q

import pytest

from latval.geometry import (EmptyInput, NoValidChord,
                             NotFullDimensional, NotSegment, area2,
                             boundary_lattice_points, chord_of_split,
                             contains, hull_normalize, lattice_length,
                             lattice_points, on_boundary, scale_polygon,
                             segment_lattice_points, split_pairs,
                             unimodular_triangulation)
from latval.group import triangle_frame

T = hull_normalize([(0, 0), (1, 0), (0, 1)])
SQUARE = hull_normalize([(0, 0), (1, 0), (0, 1), (1, 1)])


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


def test_segment_lattice_points():
    assert segment_lattice_points((0, 0), (2, 2)) == [(0, 0), (1, 1), (2, 2)]
    assert lattice_length((0, 0), (4, 6)) == 2


def test_boundary_lattice_points_cyclic():
    pts = boundary_lattice_points(scale_polygon(T, 2))
    assert len(pts) == 6
    assert pts[0] == (0, 0)
    assert on_boundary(scale_polygon(T, 2), (1, 1))


def test_triangulation_T():
    tri = unimodular_triangulation(T)
    assert len(tri.triangles) == 1
    assert not tri.interior_edges and not tri.interior_vertices


def test_triangulation_2T():
    tri = unimodular_triangulation(scale_polygon(T, 2))
    assert len(tri.triangles) == 4
    assert len(tri.interior_edges) == 3
    assert len(tri.interior_vertices) == 0


def test_triangulation_2x2_square():
    tri = unimodular_triangulation(scale_polygon(SQUARE, 2))
    assert len(tri.triangles) == 8
    assert len(tri.interior_edges) == 8
    assert [tri.points[i] for i in tri.interior_vertices] == [(1, 1)]


CORPUS = [
    T, SQUARE, scale_polygon(T, 2), scale_polygon(T, 3),
    scale_polygon(SQUARE, 2),
    hull_normalize([(0, 0), (2, 0), (0, 2), (0, 1)]),       # trapezoid
    hull_normalize([(0, 0), (3, 0), (1, 2), (0, 2)]),       # trapezoid
    hull_normalize([(0, 0), (2, 1), (3, 3), (1, 3), (-1, 1)]),
    hull_normalize([(0, 0), (4, 1), (2, 3)]),
]


@pytest.mark.parametrize("insertion", ["lex", "alt"])
@pytest.mark.parametrize("P", CORPUS, ids=lambda P: str(list(P.vertices)))
def test_triangulation_invariants(P, insertion):
    tri = unimodular_triangulation(P, insertion)
    assert set(tri.points) == set(lattice_points(P))
    total = 0
    for t in tri.triangles:
        triangle_frame(*tri.triangle_points(t))   # raises unless unimodular
        total += 1
    assert total == area2(P)
    # Euler relation
    assert len(tri.triangles) - len(tri.interior_edges) \
        + len(tri.interior_vertices) == 1


@pytest.mark.parametrize("P", CORPUS[:6], ids=lambda P: str(list(P.vertices)))
def test_indicator_inclusion_exclusion(P):
    rng = random.Random(11)
    tri = unimodular_triangulation(P)
    for _ in range(20):
        z = (Q(rng.randint(-8, 12), 4), Q(rng.randint(-8, 12), 4))
        total = 0
        for t in tri.triangles:
            a, b, c = tri.triangle_points(t)
            if contains(hull_normalize([a, b, c]), z):
                total += 1
        for e in tri.interior_edges:
            if contains(hull_normalize(list(tri.edge_points(e))), z):
                total -= 1
        for i in tri.interior_vertices:
            if z == tri.points[i]:
                total += 1
        assert total == (1 if contains(P, z) else 0)


def test_split_pairs():
    pairs = split_pairs(SQUARE)
    assert len(pairs) == 2   # the two diagonals
    P1, P2 = pairs[0]
    assert area2(P1) + area2(P2) == 2
    chord = chord_of_split(P1, P2)
    assert chord.dim == 1
    with pytest.raises(NoValidChord):
        split_pairs(T)


def test_split_pairs_2T():
    P = scale_polygon(T, 2)
    for P1, P2 in split_pairs(P):
        assert area2(P1) + area2(P2) == area2(P)
        assert chord_of_split(P1, P2).dim == 1
        union = hull_normalize(list(P1.vertices) + list(P2.vertices))
        assert area2(union) == area2(P)


def test_chord_of_split_requires_segment():
    with pytest.raises(NotSegment):
        chord_of_split(T, T)


def test_polygon_key_and_repr():
    assert T.key() == ((0, 0), (1, 0), (0, 1))
    assert "LatticePolygon" in repr(T)
