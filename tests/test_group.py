"""Tests for the affine unimodular group and its actions."""

import random
from fractions import Fraction as Q

import pytest

from latval.geometry import area2, hull_normalize
from latval.group import (AffineUnimodular, D4_GENERATORS, IDENTITY,
                          NotPrimitive, NotUnimodular, NotUnimodularTriangle,
                          act_on_polygon, act_on_series, complete_primitive,
                          d4_elements, det, is_d4_invariant, mat_inverse,
                          mat_mul, triangle_frame)
from latval.series import Series2, exp_linear


def random_unimodular(rng):
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if abs(det(m)) == 1:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            return AffineUnimodular(m, v)


def random_series(rng, order=8):
    c = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            if rng.random() < 0.3:
                c[(p, q)] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return Series2(c, order)


def test_non_unimodular_rejected():
    with pytest.raises(NotUnimodular):
        AffineUnimodular(((2, 0), (0, 1)))
    with pytest.raises(NotUnimodular):
        mat_inverse(((2, 0), (0, 2)))


def test_compose_and_inverse():
    rng = random.Random(1)
    for _ in range(25):
        a, b = random_unimodular(rng), random_unimodular(rng)
        ab = a.compose(b)
        p = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert ab.apply_point(p) == a.apply_point(b.apply_point(p))
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()
        assert abs(det(ab.m)) == 1


def test_translations_commute():
    t1 = AffineUnimodular.translation((1, 2))
    t2 = AffineUnimodular.translation((-3, 4))
    assert t1.compose(t2) == t2.compose(t1)


def test_act_translation_on_constant():
    f = Series2.constant(1, 8)
    xi = AffineUnimodular.translation((1, 0))
    assert act_on_series(xi, f) == exp_linear(1, 0, 8)


def test_action_substitution_convention():
    # f = x under [[a, b], [c, d]] becomes a*x + c*y
    f = Series2.monomial(1, 1, 0, 6)
    xi = AffineUnimodular.linear(((1, 1), (0, 1)))
    g = act_on_series(xi, f)
    assert g.coeff(1, 0) == 1 and g.coeff(0, 1) == 0
    h = act_on_series(xi, Series2.monomial(1, 0, 1, 6))   # f = y -> b*x + d*y
    assert h.coeff(1, 0) == 1 and h.coeff(0, 1) == 1


def test_group_action_law_on_series():
    rng = random.Random(2)
    for _ in range(12):
        a, b = random_unimodular(rng), random_unimodular(rng)
        f = random_series(rng)
        lhs = act_on_series(a.compose(b), f)
        rhs = act_on_series(a, act_on_series(b, f))
        assert lhs == rhs


def test_action_inverse_restores():
    rng = random.Random(3)
    for _ in range(8):
        a = random_unimodular(rng)
        f = random_series(rng)
        assert act_on_series(a.inverse(), act_on_series(a, f)) == f


def test_d4_has_eight_elements():
    elems = d4_elements()
    assert len(elems) == 8
    assert len(set(elems)) == 8
    for g in D4_GENERATORS:
        assert g in elems
    for a in elems:
        for b in elems:
            assert mat_mul(a, b) in elems


def test_d4_invariant_generators():
    p1 = Series2({(2, 0): 2, (1, 1): 2, (0, 2): 1}, 8)
    p2 = Series2({(2, 2): 4, (1, 3): 4, (0, 4): 1}, 8)
    for m in d4_elements():
        xi = AffineUnimodular.linear(m)
        assert act_on_series(xi, p1) == p1
        assert act_on_series(xi, p2) == p2
    assert is_d4_invariant(p1) == (True, None)
    ok, witness = is_d4_invariant(Series2.monomial(1, 1, 0, 8))
    assert not ok and witness in D4_GENERATORS


def test_complete_primitive():
    assert complete_primitive((1, 0)).m == ((1, 0), (0, 1))
    assert complete_primitive((2, 3)).m == ((2, -1), (3, -1))
    for w in [(1, 0), (0, 1), (-1, 0), (5, 3), (-7, 4), (3, -8), (-2, -9)]:
        m = complete_primitive(w).m
        assert (m[0][0], m[1][0]) == w
        assert det(m) == 1
    with pytest.raises(NotPrimitive):
        complete_primitive((2, 4))


def test_triangle_frame():
    assert triangle_frame((0, 0), (1, 0), (0, 1)) == IDENTITY
    xi = triangle_frame((1, 1), (0, 1), (1, 0))
    assert xi.v == (1, 1) and xi.m == ((-1, 0), (0, -1))
    with pytest.raises(NotUnimodularTriangle):
        triangle_frame((0, 0), (2, 0), (0, 1))
    # frame maps the standard triangle onto the given one
    xi = triangle_frame((2, 3), (3, 5), (1, 2))
    images = {xi.apply_point(p) for p in [(0, 0), (1, 0), (0, 1)]}
    assert images == {(2, 3), (3, 5), (1, 2)}


def test_act_on_polygon():
    T = hull_normalize([(0, 0), (1, 0), (0, 1)])
    xi = AffineUnimodular.translation((1, 1))
    assert act_on_polygon(xi, T).vertices == ((1, 1), (2, 1), (1, 2))
    rng = random.Random(4)
    for _ in range(10):
        a = random_unimodular(rng)
        assert area2(act_on_polygon(a, T)) == area2(T)
