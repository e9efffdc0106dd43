"""Tests for the affine unimodular group and its actions."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latval.geometry import area2, hull_normalize
from latval.group import (AffineUnimodular, D4_GENERATORS, GL2Z_GENERATORS,
                          IDENTITY_MATRIX, NotUnimodular, act_on_polygon,
                          act_on_series, d4_elements, det, mat_apply, mat_mul)
from latval.laws import D4_LAWS, check_law
from latval.series import Series2, exp_linear, mul_exp_linear
from oracles import invariant_generators
from test_series import assert_checked


def mat_inverse(m):
    s = det(m)
    if abs(s) != 1:
        raise NotUnimodular(f"determinant {s}")
    (a, b), (c, d) = m
    # the adjugate over the +-1 determinant stays integral
    return ((d * s, -b * s), (-c * s, a * s))


def inverse(xi):
    """The inverse element: p -> M^-1 (p - v)."""
    mi = mat_inverse(xi.m)
    w = mat_apply(mi, xi.v)
    return AffineUnimodular(mi, (-w[0], -w[1]))


def is_identity(xi):
    return xi.m == IDENTITY_MATRIX and xi.v == (0, 0)


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
        assert is_identity(a.compose(inverse(a)))
        assert is_identity(inverse(a).compose(a))
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


@st.composite
def affine_unimodulars(draw):
    """A random element of GL(2, Z) semidirect Z^2: a word in the GL(2, Z)
    generators and their inverses, and a translation."""
    gens = [AffineUnimodular.linear(g) for g in GL2Z_GENERATORS]
    gens += [inverse(g) for g in gens]
    xi = AffineUnimodular.translation((draw(st.integers(-3, 3)),
                                       draw(st.integers(-3, 3))))
    for g in draw(st.lists(st.sampled_from(gens), max_size=5)):
        xi = xi.compose(g)
    return xi


@st.composite
def series2s(draw, max_order=12):
    order = draw(st.integers(0, max_order))
    exps = st.tuples(st.integers(0, order), st.integers(0, order)) \
        .filter(lambda e: e[0] + e[1] <= order)
    coeffs = st.builds(Q, st.integers(-9, 9), st.integers(1, 12))
    return Series2(draw(st.dictionaries(exps, coeffs, max_size=20)), order)


@settings(max_examples=60)
@given(affine_unimodulars(), affine_unimodulars(), series2s())
def test_group_action_law_on_series(a, b, f):
    lhs = act_on_series(a.compose(b), f)
    assert lhs.key() == act_on_series(a, act_on_series(b, f)).key()


big_rationals = st.builds(Q, st.integers(-10**40, 10**40),
                          st.integers(1, 10**30))


@st.composite
def dense_series2s(draw, max_order=16):
    """Every coefficient up to the order nonzero, with numerators of up to
    40 digits."""
    order = draw(st.integers(0, max_order))
    return Series2({(p, d - p): draw(big_rationals.filter(bool))
                    for d in range(order + 1) for p in range(d + 1)}, order)


@settings(max_examples=80)
@given(affine_unimodulars(), st.one_of(series2s(), dense_series2s()),
       st.one_of(st.just(None), st.tuples(st.integers(-10**6, 10**6),
                                          st.integers(-10**6, 10**6))))
def test_act_on_series_is_substitution_then_twist(xi, f, v):
    # one face of sum_of_images against the two kernels it replaces
    if v is not None:
        xi = AffineUnimodular(xi.m, v)
    (a, b), (c, d) = xi.m
    got = act_on_series(xi, f)
    assert got.key() == mul_exp_linear(f.subst_linear((a, c), (b, d)),
                                       *xi.v).key()
    assert_checked(got)


def test_action_inverse_restores():
    rng = random.Random(3)
    for _ in range(8):
        a = random_unimodular(rng)
        f = random_series(rng)
        assert act_on_series(inverse(a), act_on_series(a, f)) == f


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
    p1, p2 = invariant_generators(8)
    for m in d4_elements():
        xi = AffineUnimodular.linear(m)
        assert act_on_series(xi, p1) == p1
        assert act_on_series(xi, p2) == p2
    assert all(check_law(law, p).holds for law in D4_LAWS for p in (p1, p2))
    # x is fixed by E's substitution alone, y^2 by rho_sym3's alone
    x, y2 = Series2.monomial(1, 1, 0, 8), Series2.monomial(1, 0, 2, 8)
    assert [check_law(law, x).holds for law in D4_LAWS] == [False, True]
    assert [check_law(law, y2).holds for law in D4_LAWS] == [True, False]


def test_act_on_polygon():
    T = hull_normalize([(0, 0), (1, 0), (0, 1)])
    xi = AffineUnimodular.translation((1, 1))
    assert act_on_polygon(xi, T).vertices == ((1, 1), (2, 1), (1, 2))
    rng = random.Random(4)
    for _ in range(10):
        a = random_unimodular(rng)
        assert area2(act_on_polygon(a, T)) == area2(T)
