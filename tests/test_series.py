"""Tests for truncated series arithmetic and the special series."""

from fractions import Fraction as Q
from math import factorial

import pytest

from latval.series import (DEFAULT_ORDER, ConstantTermNotZero,
                           DegreeExceedsOrder, DivisionByNonUnit,
                           NotDivisible, Series1, Series2, bernoulli_numbers,
                           compose_univariate, divide_unit, divide_x,
                           divide_x_minus_y, divide_y, exp_linear,
                           homogeneous_part, linear_substitute,
                           mul_exp_linear, series1_in_x, series1_in_y,
                           special_series)


def test_default_order():
    assert DEFAULT_ORDER == 12
    assert Series2({}).order == 12


def test_zero_coefficients_pruned():
    f = Series2({(1, 0): 0, (0, 1): 2})
    assert f.terms() == [((0, 1), Q(2))]
    assert not Series2({(1, 1): 0}).terms()


def test_terms_beyond_order_dropped():
    f = Series2({(3, 0): 1, (1, 1): 1}, 2)
    assert f.coeff(3, 0) == 0
    assert f.coeff(1, 1) == 1


def test_add_takes_min_order():
    f = Series2({(1, 0): 1}, 10)
    g = Series2({(0, 1): 1}, 7)
    assert (f + g).order == 7
    assert (f - g).order == 7
    assert (f * g).order == 7


def test_mul():
    x = Series2.monomial(1, 1, 0, 5)
    y = Series2.monomial(1, 0, 1, 5)
    f = (x + y) * (x - y)
    assert f.coeff(2, 0) == 1
    assert f.coeff(0, 2) == -1
    assert f.coeff(1, 1) == 0


def test_mul_linear_gains_one_order():
    f = Series2({(2, 0): 1}, 2)
    g = f.mul_linear(1, 1)
    assert g.order == 3
    assert g.coeff(3, 0) == 1 and g.coeff(2, 1) == 1


def test_scale_variables():
    f = Series2({(2, 1): 5}, 6)
    assert f.scale_variables(2).coeff(2, 1) == 40


def test_subst_linear_swap():
    f = Series2({(2, 1): 1}, 5)
    g = f.subst_linear((0, 1), (1, 0))   # f(y, x)
    assert g.coeff(1, 2) == 1


def test_subst_linear_rational():
    f = Series2({(2, 0): 4}, 5)
    g = f.subst_linear((Q(1, 2), 0), (0, 1))
    assert g.coeff(2, 0) == 1


def test_eq_up_to_common_order():
    f = Series2({(1, 0): 1}, 3)
    g = Series2({(1, 0): 1, (4, 0): 9}, 4)
    assert f.eq_up_to(g)
    assert f == g
    assert f.first_difference(g) is None
    h = Series2({(1, 0): 2}, 3)
    assert f.first_difference(h) == ((1, 0), Q(1), Q(2))


def test_exp_linear():
    e = exp_linear(1, 2, 4)
    assert e.coeff(0, 0) == 1
    assert e.coeff(1, 1) == 2
    assert e.coeff(0, 3) == Q(8, 6)
    assert exp_linear(0, 0, 4) == Series2.constant(1, 4)


def test_mul_exp_linear_inverse():
    f = Series2({(2, 1): 3, (0, 0): 1}, 8)
    g = mul_exp_linear(mul_exp_linear(f, 1, -2), -1, 2)
    assert g == f


def test_divide_unit():
    one = Series2.constant(1, 8)
    e = exp_linear(1, 1, 8)
    assert divide_unit(one, e) == exp_linear(-1, -1, 8)
    with pytest.raises(DivisionByNonUnit):
        divide_unit(one, Series2.monomial(1, 1, 0, 8))


def test_divide_x_y():
    f = Series2({(2, 1): 6}, 5)
    assert divide_x(f).coeff(1, 1) == 6
    assert divide_x(f).order == 4
    assert divide_y(f).coeff(2, 0) == 6
    with pytest.raises(NotDivisible):
        divide_x(Series2({(0, 1): 1}, 5))
    with pytest.raises(NotDivisible):
        divide_y(Series2({(1, 0): 1}, 5))


def test_divide_x_minus_y():
    x = Series2.monomial(1, 1, 0, 6)
    y = Series2.monomial(1, 0, 1, 6)
    f = (x - y) * (x * y + y * y + Series2.constant(7, 6))
    q = divide_x_minus_y(f)
    assert q.order == 5
    assert q.coeff(1, 1) == 1 and q.coeff(0, 2) == 1 and q.coeff(0, 0) == 7
    with pytest.raises(NotDivisible):
        divide_x_minus_y(x * y)
    with pytest.raises(NotDivisible):
        divide_x_minus_y(Series2.constant(1, 6))


def test_homogeneous_part():
    f = Series2({(1, 0): 1, (2, 0): 2, (1, 1): 3}, 4)
    assert homogeneous_part(f, 2).terms() == [((1, 1), Q(3)), ((2, 0), Q(2))]
    with pytest.raises(DegreeExceedsOrder):
        homogeneous_part(f, 5)


def test_bernoulli():
    b = bernoulli_numbers(8)
    assert b[0] == 1 and b[1] == Q(-1, 2) and b[2] == Q(1, 6)
    assert b[3] == 0 and b[4] == Q(-1, 30) and b[8] == Q(-1, 30)


def test_special_series_inverse_pair():
    n = 10
    e1 = special_series("expm1_over_t", n)
    bern = special_series("t_over_expm1", n)
    prod = e1.mul(bern)
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, n + 1))


def test_divided_diff_exp():
    dde = special_series("divided_diff_exp", 6)
    assert dde.coeff(0, 0) == 1
    assert dde.coeff(2, 3) == Q(1, factorial(6))
    # symmetric by construction
    assert dde == dde.subst_linear((0, 1), (1, 0))


def test_compose_univariate():
    exp_t = special_series("exp_t", 8)
    xy = Series2.monomial(1, 1, 0, 8) + Series2.monomial(1, 0, 1, 8)
    assert compose_univariate(exp_t, xy) == exp_linear(1, 1, 8)
    with pytest.raises(ConstantTermNotZero):
        compose_univariate(exp_t, Series2.constant(1, 8))


def test_compose_univariate_order_cap():
    g = Series1({1: 1}, 2)                       # known only to degree 2
    inner = Series2.monomial(1, 2, 0, 12)        # lowest degree 2
    assert compose_univariate(g, inner).order == 5


def test_series1_embeddings():
    g = Series1({0: 1, 2: 5}, 6)
    assert series1_in_x(g).coeff(2, 0) == 5
    assert series1_in_y(g).coeff(0, 2) == 5


def test_linear_substitute():
    f = Series2({(1, 0): 1}, 4)     # f = x
    g = linear_substitute(f, ((1, 2), (3, 4)))   # x -> a*x + c*y = x + 3y
    assert g.coeff(1, 0) == 1 and g.coeff(0, 1) == 3
