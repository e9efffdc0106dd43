"""Tests for truncated series arithmetic and the special series."""

import re
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latval import series
from latval.series import (DEFAULT_ORDER, ConstantTermNotZero,
                           NotDivisible, Series1, Series2, SeriesError,
                           bernoulli_numbers, compose_univariate,
                           divide_linear, exp_linear, mul_exp_linear,
                           packed_cells, special_series, sum_of_images,
                           sum_of_products)
from oracles import (bernoulli_by_recurrence, bernoulli_series,
                     divided_diff_exp, expm1_over_t, taylor_shift_by_passes)


class DegreeExceedsOrder(SeriesError):
    pass


def homogeneous_part(f: Series2, d: int) -> Series2:
    """The terms of f of total degree d, built unchecked like a kernel."""
    if d > f.order:
        raise DegreeExceedsOrder(f"degree {d} exceeds order {f.order}")
    den, rows = f.numerators()
    part = [[0] * (e + 1) for e in range(d)] + rows[d:d + 1]
    return Series2._of(part, den, f.order)


def test_default_order():
    assert DEFAULT_ORDER == 12
    assert Series2({}).order == 12


def test_zero_coefficients_pruned():
    f = Series2({(1, 0): 0, (0, 1): 2})
    assert f.terms() == [((0, 1), Q(2))]
    assert not Series2({(1, 1): 0}).terms()


@pytest.mark.parametrize("coeffs, term", [
    ({(-1, 2): 1, (1, 0): 2}, "1*x^-1*y^2"),
    ({(0, -3): Q(1, 2)}, "1/2*x^0*y^-3"),
    ({(Q(1, 2), 0): 1}, "1*x^Fraction(1, 2)*y^0"),
    ({(1.0, 0): 1}, "1*x^1.0*y^0"),
    ({(True, 0): 1}, "1*x^True*y^0"),
], ids=["negative", "negative-y", "fraction", "float", "bool"])
def test_exponents_must_be_ints_at_least_0(coeffs, term):
    # a negative exponent would index its row of numerators from the end
    with pytest.raises(ValueError, match=re.escape(
            f"the term {term} has an exponent that is not an int >= 0")):
        Series2(coeffs, 3)
    with pytest.raises(ValueError, match="not an int >= 0"):
        Series1({-1: 1}, 3)


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
    # degrees 1 and 2 are read back over one denominator, 2^2
    g = Series2({(1, 0): 1, (2, 0): 4}, 5).subst_linear((Q(1, 2), 0), (0, 1))
    assert g.key() == Series2({(1, 0): Q(1, 2), (2, 0): 1}, 5).key()


def test_eq_up_to_common_order():
    f = Series2({(1, 0): 1}, 3)
    g = Series2({(1, 0): 1, (4, 0): 9}, 4)
    assert f.eq_up_to(g)
    assert f == g
    assert f.first_difference(g) is None
    h = Series2({(1, 0): 2}, 3)
    assert f.first_difference(h) == ((1, 0), Q(1), Q(2))
    # equal numerators over unequal denominators
    assert f.first_difference(f.scalar_mul(Q(1, 2))) == ((1, 0), Q(1),
                                                        Q(1, 2))


def test_exp_linear():
    e = exp_linear(1, 2, 4)
    assert e.coeff(0, 0) == 1
    assert e.coeff(1, 1) == 2
    assert e.coeff(0, 3) == Q(8, 6)
    assert exp_linear(0, 0, 4) == Series2.constant(1, 4)


@settings(max_examples=60)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 14))
def test_exp_linear_of_ints_is_the_factorial_table(a, b, n):
    # int arguments are expanded in Fractions too: a / (p! q!) must not
    # become a float division
    table = {(p, q): Q(a ** p * b ** q, factorial(p) * factorial(q))
             for p in range(n + 1) for q in range(n + 1 - p)}
    assert exp_linear(a, b, n).key() == Series2(table, n).key()


@pytest.mark.parametrize("make", [
    lambda: Series2({(0, 0): 0.1}, 2),
    lambda: Series2.constant(1, 3).scalar_mul(0.1),
    lambda: Series1({1: 1}, 3).subst_linear((0.1, 0), (0, 1)),
    lambda: Series1({1: 1}, 3).mul_linear(1, 0.1),
    lambda: Series1({1: 1}, 3).scale_variables(0.1),
    lambda: mul_exp_linear(Series1({1: 1}, 3), 0.1, 0),
    lambda: divide_linear(Series1({1: 1}, 3), 0.1, 0),
    lambda: exp_linear(0, 0.1, 3),
])
def test_floats_are_refused(make):
    # 0.1 is 3602879701896397/2^55 in binary, not 1/10
    with pytest.raises(TypeError, match=r"0\.1 is a float"):
        make()


def test_mul_exp_linear_inverse():
    f = Series2({(2, 1): 3, (0, 0): 1}, 8)
    g = mul_exp_linear(mul_exp_linear(f, 1, -2), -1, 2)
    assert g == f


def test_divide_x_y():
    f = Series2({(2, 1): 6}, 5)
    assert divide_linear(f, 1, 0).coeff(1, 1) == 6
    assert divide_linear(f, 1, 0).order == 4
    assert divide_linear(f, 0, 1).coeff(2, 0) == 6
    # quotients that are not symmetric in x and y
    g = Series2({(3, 1): 2, (1, 0): 1}, 5)
    assert divide_linear(g, 1, 0).key() == Series2({(2, 1): 2, (0, 0): 1},
                                                   4).key()
    assert divide_linear(g.subst_linear((0, 1), (1, 0)), 0, 1).key() \
        == Series2({(1, 2): 2, (0, 0): 1}, 4).key()
    with pytest.raises(NotDivisible):
        divide_linear(Series2({(0, 1): 1}, 5), 1, 0)
    with pytest.raises(NotDivisible):
        divide_linear(Series2({(1, 0): 1}, 5), 0, 1)


def test_divide_x_minus_y():
    x = Series2.monomial(1, 1, 0, 6)
    y = Series2.monomial(1, 0, 1, 6)
    f = (x - y) * (x * y + y * y + Series2.constant(7, 6))
    q = divide_linear(f, 1, -1)
    assert q.order == 5
    assert q.coeff(1, 1) == 1 and q.coeff(0, 2) == 1 and q.coeff(0, 0) == 7
    with pytest.raises(NotDivisible):
        divide_linear(x * y, 1, -1)
    with pytest.raises(NotDivisible):
        divide_linear(Series2.constant(1, 6), 1, -1)


@pytest.mark.parametrize("f", [Series2.constant(1, 0), Series2.zero(0)])
def test_a_series_of_order_0_has_no_quotient(f):
    # a division loses one order, and order 0 has none to lose: refused
    # before any row is divided, whether or not the constant term is 0
    with pytest.raises(ValueError, match="order 0 has no quotient"):
        divide_linear(f, 0, 1)


def test_homogeneous_part():
    f = Series2({(1, 0): 1, (2, 0): 2, (1, 1): 3}, 4)
    assert homogeneous_part(f, 2).terms() == [((1, 1), Q(3)), ((2, 0), Q(2))]
    with pytest.raises(DegreeExceedsOrder):
        homogeneous_part(f, 5)


def test_bernoulli():
    b = bernoulli_numbers(8)
    assert b[0] == 1 and b[1] == Q(-1, 2) and b[2] == Q(1, 6)
    assert b[3] == 0 and b[4] == Q(-1, 30) and b[8] == Q(-1, 30)


def test_bernoulli_numbers_equal_the_recurrence_to_200(monkeypatch):
    # the tangent numbers in ints against the binomial recurrence in
    # Fractions: the same Fractions, in lowest terms, from an empty table
    monkeypatch.setattr(series, "_BERNOULLI", [])
    got = bernoulli_numbers(200)
    assert all(type(b) is Q for b in got)
    assert got == bernoulli_by_recurrence(200)
    for n in (0, 1, 2, 3):
        monkeypatch.setattr(series, "_BERNOULLI", [])
        assert bernoulli_numbers(n) == bernoulli_by_recurrence(n)


def test_bernoulli_numbers_are_made_once_and_handed_out_as_copies(
        monkeypatch):
    # an empty table, grown to 20, read below it at 8, grown again to 25;
    # each returned list is then changed, which no later call may see
    monkeypatch.setattr(series, "_BERNOULLI", [])
    for n in (20, 8, 25):
        got = bernoulli_numbers(n)
        assert got == bernoulli_by_recurrence(n)
        got[1:] = [Q(7)] * n
        got.append(Q(5))
    assert bernoulli_numbers(25) == bernoulli_by_recurrence(25)
    assert bernoulli_numbers(3) == bernoulli_by_recurrence(3)


@pytest.mark.parametrize("kind", ["t_over_expm1"])
def test_special_series_match_fraction_constructions(kind):
    # built coefficient by coefficient in Fractions (the oracle)
    for order in range(41):
        assert special_series(kind, order).key() \
            == bernoulli_series(order).key(), order


def test_special_series_inverse_pair():
    n = 10
    e1 = expm1_over_t(n)
    bern = special_series("t_over_expm1", n)
    prod = e1 * bern
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, n + 1))
    # the inverses g_m's closed form multiplies by: B(y) = 1/E(y), and
    # e^{-x} B(y - x) = (y - x)/(e^y - e^x)
    one = Series2.constant(1, n)
    swap = ((0, 1), (1, 0))
    assert (bern.subst_linear(*swap) * e1.subst_linear(*swap)).key() \
        == one.key()
    inv_dde = mul_exp_linear(bern.subst_linear((-1, 1), (0, 0)), -1, 0)
    assert (divided_diff_exp(n) * inv_dde).key() == one.key()


def test_compose_univariate():
    exp_t = exp_linear(1, 0, 8)
    xy = Series2.monomial(1, 1, 0, 8) + Series2.monomial(1, 0, 1, 8)
    assert compose_univariate(exp_t, xy) == exp_linear(1, 1, 8)
    with pytest.raises(ConstantTermNotZero):
        compose_univariate(exp_t, Series2.constant(1, 8))


def test_compose_univariate_order_cap():
    g = Series1({1: 1}, 2)                       # known only to degree 2
    inner = Series2.monomial(1, 2, 0, 12)        # lowest degree 2
    assert compose_univariate(g, inner).order == 5


def test_series1_embeddings():
    # a univariate series is a Series2 in x alone; its image in y is the swap
    g = Series1({0: 1, 2: 5}, 6)
    assert g == Series2({(0, 0): 1, (2, 0): 5}, 6) and g.order == 6
    assert g.coeff(2) == g.coeff(2, 0) == 5
    assert g.subst_linear((0, 1), (1, 0)).terms() == [((0, 0), 1),
                                                     ((0, 2), 5)]


def test_linear_substitute():
    f = Series2({(1, 0): 1}, 4)     # f = x
    g = f.subst_linear((1, 3), (2, 4))   # x -> x + 3y
    assert g.coeff(1, 0) == 1 and g.coeff(0, 1) == 3


# ---------------------------------------------------------------------------
# property tests of the substitution, exponential-shift and division kernels

small_ints = st.integers(-4, 4)
rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 12))
entries = st.one_of(small_ints, rationals)
large_rationals = st.builds(Q, st.integers(-10**40, 10**40),
                            st.integers(1, 10**30))


@st.composite
def series2s(draw, max_order=12, coeffs=rationals):
    order = draw(st.integers(0, max_order))
    exps = st.tuples(st.integers(0, order), st.integers(0, order)) \
        .filter(lambda e: e[0] + e[1] <= order)
    return Series2(draw(st.dictionaries(exps, coeffs, max_size=30)), order)


@st.composite
def matrices(draw):
    """Rows (a1, b1), (a2, b2); one in four is singular (second row a
    multiple of the first)."""
    first = (draw(entries), draw(entries))
    if draw(st.integers(0, 3)) == 0:
        k = draw(entries)
        return first, (k * first[0], k * first[1])
    return first, (draw(entries), draw(entries))


def evaluate(f, x0, y0):
    return sum((v * x0 ** p * y0 ** q for (p, q), v in f.terms()), Q(0))


@settings(max_examples=150)
@given(series2s(), matrices(), rationals, rationals)
def test_subst_linear_matches_point_evaluation(f, m, x0, y0):
    # f has degree <= order and the substitution keeps degrees, so nothing
    # is truncated and the values at every rational point agree exactly
    (a1, b1), (a2, b2) = m
    g = f.subst_linear((a1, b1), (a2, b2))
    assert g.order == f.order
    assert evaluate(g, x0, y0) == evaluate(f, a1 * x0 + b1 * y0,
                                           a2 * x0 + b2 * y0)


six_digit_rationals = st.builds(Q, st.integers(-10**6, 10**6),
                                st.integers(1, 10**6))
exponents = st.one_of(st.just(0), entries, six_digit_rationals)


@settings(max_examples=150)
@given(st.one_of(series2s(), series2s(max_order=20, coeffs=large_rationals)),
       exponents, exponents)
@example(Series2({(p, d - p): Q(10**40 - p, 10**30 + d) for d in range(21)
                  for p in range(d + 1)}, 20),
         Q(999999, 1000000), Q(-654321, 999983))
def test_mul_exp_linear_equals_product(f, alpha, beta):
    # rational alpha, beta are read back at z / L, for L the lcm of their
    # denominators
    expected = f * exp_linear(alpha, beta, f.order)
    assert mul_exp_linear(f, alpha, beta).key() == expected.key()


@settings(max_examples=150)
@given(series2s(), st.one_of(st.just(0), entries),
       st.one_of(st.just(0), entries), st.integers(0, 13),
       st.integers(0, 13), rationals.filter(lambda c: c != 0))
def test_divide_linear_inverts_mul_linear(g, a, b, p, q, c):
    if a == 0 and b == 0:
        b = 1
    f = g.mul_linear(a, b)
    h = divide_linear(f, a, b)
    assert h.order == g.order and h.key() == g.key()
    # x^p y^q is a multiple of a*x + b*y only if the form is x or y and
    # the monomial contains it; x^0 y^0 never is
    if p + q <= f.order and not ((b == 0 and p > 0) or (a == 0 and q > 0)):
        with pytest.raises(NotDivisible):
            divide_linear(f + Series2.monomial(c, p, q, f.order), a, b)


def naive_product(f, g):
    """The truncated product by a plain Fraction double loop (the oracle)."""
    order = min(f.order, g.order)
    g_terms = g.terms()
    c = {}
    for (p1, q1), a in f.terms():
        for (p2, q2), b in g_terms:
            if p1 + q1 + p2 + q2 <= order:
                e = (p1 + p2, q1 + q2)
                c[e] = c.get(e, Q(0)) + a * b
    return Series2(c, order)


# every numerator of degree <= 20 one 40-digit value, all of one sign or
# of alternating signs: the largest coefficients the packed width admits
FORTY = 10**40 - 1
DENSE_FORTY = Series2({(p, d - p): FORTY for d in range(21)
                       for p in range(d + 1)}, 20)
ALTERNATING_FORTY = Series2({(p, d - p): (-1) ** p * FORTY
                             for d in range(21) for p in range(d + 1)}, 20)


@settings(max_examples=200)
@given(series2s(coeffs=entries | large_rationals),
       series2s(coeffs=entries | large_rationals))
@example(DENSE_FORTY, DENSE_FORTY)
@example(ALTERNATING_FORTY, ALTERNATING_FORTY)
@example(DENSE_FORTY, Series2.zero(20))
@example(Series2.constant(FORTY, 0), DENSE_FORTY)
def test_mul_matches_fraction_double_loop(f, g):
    # independent orders, so one operand's top terms are cut off by the
    # other's order; empty dictionaries give zero series
    expected = naive_product(f, g).key()
    assert (f * g).key() == expected
    assert (g * f).key() == expected


@settings(max_examples=100)
@given(st.lists(st.tuples(series2s(coeffs=entries | large_rationals),
                          series2s(coeffs=entries | large_rationals)),
                min_size=1, max_size=4))
@example([(DENSE_FORTY, DENSE_FORTY), (ALTERNATING_FORTY, DENSE_FORTY)])
@example([(Series2.constant(Q(1, 3), 4), Series2.constant(1, 4)),
          (Series2.constant(Q(1, 2), 4), Series2.constant(1, 4))])
def test_sum_of_products_matches_fraction_double_loops(pairs):
    # pairs of unlike denominators, so each product has its own factor
    order = min(min(a.order, b.order) for a, b in pairs)
    expected = Series2.zero(order)
    for a, b in pairs:
        expected = expected + naive_product(a, b)
    got = sum_of_products(pairs)
    assert got.key() == expected.key()
    assert_checked(got)


def test_mul_of_dense_series_matches_fraction_double_loop():
    f = Series2({(p, d - p): Q(d + 1, p + 2) - p for d in range(16)
                 for p in range(d + 1)}, 15)
    g = Series2({(p, d - p): Q(3 - p, d + 5) for d in range(21)
                 for p in range(d + 1)}, 20)
    assert (f * g).key() == naive_product(f, g).key()
    assert (g * Series2.zero(9)).key() == Series2.zero(9).key()
    assert Series2.zero(9).key() == (9, 1, ())


# ---------------------------------------------------------------------------
# the packed (Kronecker) substitution kernel against plain Fraction loops


def naive_subst(f, first, second):
    """f(a1*x + b1*y, a2*x + b2*y), the powers of each form expanded by
    plain Fraction loops (the oracle)."""
    def powers(a, b):   # row k: {i: nonzero coefficient of x^i y^(k-i)}
        rows = [{0: 1}]
        for _ in range(f.order):
            nxt = {}
            for i, c in rows[-1].items():
                if a:
                    nxt[i + 1] = nxt.get(i + 1, 0) + c * a
                if b:
                    nxt[i] = nxt.get(i, 0) + c * b
            rows.append(nxt)
        return rows

    rows1, rows2 = powers(*first), powers(*second)
    c = {}
    for (p, q), v in f.terms():
        for i, u in rows1[p].items():
            for j, w in rows2[q].items():
                e = (i + j, p + q - i - j)
                c[e] = c.get(e, Q(0)) + v * (u * w)
    return Series2(c, f.order)


forty_digits = st.integers(-10**40, 10**40)


@st.composite
def dense_series2s(draw, max_order=20):
    """Every coefficient up to the order nonzero, with numerators of up to
    40 digits."""
    order = draw(st.integers(0, max_order))
    a, b = draw(forty_digits), draw(forty_digits)
    den = draw(st.integers(1, 10**12))
    return Series2({(p, d - p): Q(a * (p + 1) - b * d + 1, den + p * d)
                    for d in range(order + 1) for p in range(d + 1)}, order)


big = st.integers(-10**6, 10**6)


@st.composite
def integer_frames(draw):
    """Integer rows (a1, b1), (a2, b2) with entries up to 10^6 in size; one
    in three has a1 = -b1, whose packed form a1 * (2^k - 1) borrows
    across every digit."""
    a1, b1, a2, b2 = (draw(big) for _ in range(4))
    if draw(st.integers(0, 2)) == 0:
        b1 = -a1
    return (a1, b1), (a2, b2)


any_series = st.one_of(
    series2s(max_order=20, coeffs=entries | large_rationals),
    dense_series2s())


@settings(max_examples=100)
@given(any_series, st.one_of(matrices(), integer_frames()))
# rows with runs of zeros inside and below their entries, each run one jump
@example(Series2({(0, 3): -2, (1, 2): 5, (3, 0): 1, (4, 1): 7, (2, 3): 3}, 5),
         ((2, 1), (1, 3)))
# rows with one entry, at the end of the row (x^60), at its start (y^60)
# or in its middle (x^20 y^20), under a frame whose packed image of y is
# narrower than that of x, and under one whose image of x is narrower
@example(Series2.monomial(3, 60, 0, 60), ((1, 0), (-1, 1)))
@example(Series2.monomial(3, 60, 0, 60), ((0, 1), (1, 1)))
@example(Series2.monomial(-5, 0, 60, 60), ((1, 0), (-1, 1)))
@example(Series2.monomial(-5, 0, 60, 60), ((0, 1), (1, 1)))
@example(Series2.monomial(7, 20, 20, 40), ((1, 0), (-1, 1)))
@example(Series2.monomial(7, 20, 20, 40), ((0, 1), (1, 1)))
def test_subst_linear_matches_fraction_expansion(f, m):
    # rational, singular and large integer matrices on sparse and dense
    # series of orders 0-20
    assert f.subst_linear(*m).key() == naive_subst(f, *m).key()


@pytest.mark.parametrize("order", [30, 47, 60])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_kernels_at_the_width_edge(ell, order):
    # numerators 2^b - 1, all of one sign or of alternating signs, under
    # forms that send x and y to +-ell times one variable: each
    # coefficient of the image is +-(d + 1) * ell^d * (2^b - 1), the bound
    # of _image_bits, so a width short of it reads a wrong digit (at
    # ell = 3, one factor ell short is two bits short at these orders);
    # and the same numerators over d!, in x alone or dense, twisted by
    # exp(x / ell) or exp(x)
    n = order
    for b in (1, 7, 64):
        top = 2 ** b - 1
        same = Series2({(p, d - p): top for d in range(n + 1)
                        for p in range(d + 1)}, n)
        alternating = Series2({(p, d - p): (-1) ** p * top
                               for d in range(n + 1) for p in range(d + 1)},
                              n)
        for f, m in ((same, ((ell, 0), (ell, 0))),
                     (alternating, ((ell, 0), (-ell, 0))),
                     (alternating, ((0, -ell), (0, ell)))):
            assert f.subst_linear(*m).key() == naive_subst(f, *m).key()
        exp_x = Series2({(d, 0): Q(top, factorial(d)) for d in range(n + 1)},
                        n)
        for alpha in (Q(1, ell), 1):
            assert mul_exp_linear(exp_x, alpha, 0).key() \
                == naive_product(exp_x, exp_linear(alpha, 0, n)).key()
    dense = Series2({(p, d - p): Q(2 ** 64 - 1, factorial(d))
                     for d in range(31) for p in range(d + 1)}, 30)
    assert mul_exp_linear(dense, Q(1, ell), 0).key() \
        == naive_product(dense, exp_linear(Q(1, ell), 0, 30)).key()


@pytest.mark.parametrize("k", [2, 3, 5, 17, 64])
def test_unpack_is_exact_on_the_balanced_digits_of_width_k(k):
    # digits -2^(k-1) and 2^(k-1) - 1 in every place of a degree, alone and
    # mixed, read back exactly; 2^(k-1) does not fit in a digit
    half = 1 << (k - 1)
    for row in ([-half] * 4, [half - 1] * 4, [-half, half - 1, 0, -half],
                [half - 1, -half, -half, half - 1]):
        assert series._unpack([0] * 3 + [series._pack(row, k)], k)[3] == row
    assert series._unpack([0, series._pack([half, 0], k)], k)[1] != [half, 0]


def naive_mul_linear(f, a, b):
    """f * (a*x + b*y) by a plain Fraction loop over f's terms (the
    oracle), one order beyond f's."""
    c = {}
    for (p, q), v in f.terms():
        if a != 0:
            c[(p + 1, q)] = c.get((p + 1, q), Q(0)) + a * v
        if b != 0:
            c[(p, q + 1)] = c.get((p, q + 1), Q(0)) + b * v
    return Series2(c, f.order + 1)


form_entries = entries | large_rationals
linear_forms = st.one_of(st.tuples(form_entries, form_entries),
                         st.tuples(st.just(0), form_entries),
                         st.tuples(form_entries, st.just(0)),
                         st.just((0, 0)))


@settings(max_examples=150)
@given(any_series, linear_forms)
@example(DENSE_FORTY, (0, Q(-1, 3)))
@example(ALTERNATING_FORTY, (Q(1, 2), 0))
@example(DENSE_FORTY, (Q(1, 2), Q(-1, 3)))
# (x - y) * (x + y): the two copies cancel at x*y
@example(Series2({(1, 0): 1, (0, 1): -1}, 1), (1, 1))
def test_mul_linear_matches_fraction_loop(f, form):
    # the product keeps self's top degree: f is lifted one order up
    g = f.mul_linear(*form)
    assert g.order == f.order + 1
    assert g.key() == naive_mul_linear(f, *form).key()


@st.composite
def tables(draw, order):
    """A degree table of the given order, row d the entries of degree d,
    with 40-digit entries: dense, nonzero only at the constant (a point
    cell) or in x alone."""
    kind = draw(st.sampled_from(["dense", "point", "x"]))
    t = [[0] * (d + 1) for d in range(order + 1)]
    for d in range(order + 1):
        for p in range(d + 1):
            if kind == "dense" or (kind == "x" and p == d) or d == 0:
                t[d][p] = draw(forty_digits)
    return t


@st.composite
def face_lists(draw):
    """One to four faces (t, v, u1, u2) of one order whose tables repeat,
    with integer edge vectors u1, u2, among them singular and large pairs,
    and translations v, small or with entries up to 10^6 in size."""
    order = draw(st.integers(0, 20))
    pool = draw(st.lists(tables(order), min_size=1, max_size=3))
    shifts = st.one_of(st.integers(-3, 3), big)
    out = []
    for _ in range(draw(st.integers(1, 4))):
        u1, u2 = draw(st.one_of(integer_frames(), matrices().filter(
            lambda m: all(v == int(v) for row in m for v in row))))
        v = (draw(shifts), draw(shifts))
        out.append((draw(st.sampled_from(pool)), v,
                    tuple(map(int, u1)), tuple(map(int, u2))))
    return out


@st.composite
def faces_on_one_translation(draw):
    """Up to 16 faces (t, v, u1, u2) of one order on one translation v,
    from a pool of up to three tables with 40-digit entries, with edge
    vectors whose entries are up to 10^6 in size: one packed sum must hold
    all their images."""
    order = draw(st.integers(0, 8))
    # one table in two draws: images of one sign, whose sum is largest
    pool = draw(st.lists(tables(order), min_size=1,
                         max_size=draw(st.sampled_from([1, 3]))))
    v = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    out = []
    for _ in range(draw(st.integers(1, 16))):
        u1, u2 = draw(integer_frames())
        out.append((draw(st.sampled_from(pool)), v, u1, u2))
    return out


def _dp_series(t):
    n = len(t) - 1
    return Series2({(p, d - p): Q(s, factorial(d))
                    for d, row in enumerate(t) for p, s in enumerate(row)}, n)


def _check_sum_of_images(faces):
    n = len(faces[0][0]) - 1
    images = {}
    for t, v, u1, u2 in faces:
        images[v] = images.get(v, Series2.zero(n)) \
            + naive_subst(_dp_series(t), u1, u2)
    expected = Series2.zero(n)
    for v, f in images.items():
        expected = expected + naive_product(f, exp_linear(*v, n))
    den, cells = packed_cells([_dp_series(t) for t, _, _, _ in faces])
    got = sum_of_images([(cell, v, u1, u2) for cell, (_, v, u1, u2)
                         in zip(cells, faces)], n, den)
    assert got.order == n
    assert got.key() == expected.key()


DENSE_TABLE = [[10**40 - 1] * (d + 1) for d in range(21)]


@settings(max_examples=60)
@given(face_lists())
@example([(DENSE_TABLE, (10**6, 10**6), (1, 0), (0, 1))])
@example([(DENSE_TABLE, (0, 0), (1, 0), (0, 1)),
          (DENSE_TABLE, (10**6, -10**6), (1, 0), (0, 1))])
@example([([[10**40 - 1]], (i, 0), (1, 0), (0, 1)) for i in range(16)])
def test_sum_of_images_matches_fraction_expansion(faces):
    # the twist by exp(v.z) grows the coefficients with |v0| + |v1|, and
    # the one width of all translations must leave room for the largest;
    # at order 0 nothing twists, and the sum of 16 translations needs the
    # bits of their count
    _check_sum_of_images(faces)


@settings(max_examples=200)
@given(st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=30),
       st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-3, 3)))
@example([], 5)
@example([7], 0)
@example(list(range(-15, 15)), 0)
@example(list(range(-15, 15)), -(2 ** 64) + 3)
def test_taylor_shift_streams_the_passes(h, w):
    # 0 to 30 degrees, w = 0 and w < 0: each degree is yielded after its
    # own input and before the next, and equals n in-place passes
    pulled = []

    def degrees():
        for value in h:
            pulled.append(value)
            yield value
    got = []
    for value in series._taylor_shift(degrees(), w):
        assert len(pulled) == len(got) + 1
        got.append(value)
    assert got == taylor_shift_by_passes(list(h), w)


@settings(max_examples=40)
@given(faces_on_one_translation())
@example([([[10**40 - 1]], (0, 0), (1, 0), (0, 1))] * 16)
def test_sum_of_images_on_one_translation(faces):
    # the images of one translation are read back from one packed sum,
    # whose width must leave room for the number of faces
    _check_sum_of_images(faces)


@settings(max_examples=100)
@given(any_series, any_series, st.sampled_from([1, -1]))
def test_sum_matches_fraction_sum(f, g, sign):
    # operands of independent orders and denominators, so either one may
    # have the more rows, and their top rows may cancel
    n = min(f.order, g.order)
    expected = {e: v for e, v in f.terms() if sum(e) <= n}
    for e, v in g.terms():
        if sum(e) <= n:
            expected[e] = expected.get(e, 0) + sign * v
    got = f + g if sign == 1 else f - g
    assert got.key() == Series2(expected, n).key()


@settings(max_examples=60)
@given(any_series, st.tuples(*[st.one_of(small_ints, big)] * 4))
def test_int_arguments_give_what_fractions_give(f, ints):
    # ints pass through the kernels as they are, never made Fractions;
    # each kernel must give what it gives for the same values as Fractions
    a, b, c, d = ints
    ops = [lambda a, b, c, d: f.subst_linear((a, b), (c, d)),
           lambda a, b, c, d: f.mul_linear(a, b),
           lambda a, b, c, d: mul_exp_linear(f, a, b),
           lambda a, b, c, d: f.scalar_mul(c),
           lambda a, b, c, d: f.scale_variables(d)]
    if (a, b) != (0, 0):
        g = f.mul_linear(a, b)
        ops.append(lambda a, b, c, d: divide_linear(g, a, b))
    for op in ops:
        assert op(a, b, c, d).key() == op(*map(Q, ints)).key()


# ---------------------------------------------------------------------------
# kernel results are built unchecked; they must be in the canonical state
# that the checking constructor makes


def assert_checked(f):
    """f's state is canonical and is the one Series2(...) makes of f's
    coefficients: int numerators in rows by total degree, row d a list of
    d + 1 of them, the last row not all zero and no more rows than
    order + 1, over an int denominator >= 1 with no factor common to all
    of them."""
    assert type(f.order) is int and f.order >= 0
    den, rows = f.numerators()
    assert type(den) is int and den >= 1
    assert type(rows) is list and len(rows) <= f.order + 1
    for d, row in enumerate(rows):
        assert type(row) is list and len(row) == d + 1
        assert all(type(s) is int for s in row)
    assert not rows or any(rows[-1])
    assert gcd(den, *(s for row in rows for s in row)) == 1
    made = Series2(dict(f.terms()), f.order)
    assert made.numerators() == (den, rows)
    assert made.key() == f.key()


X, Y = Series2.monomial(1, 1, 0, 4), Series2.monomial(1, 0, 1, 4)
NO_MAP = ((1, 0), (0, 1))


@settings(max_examples=100)
@given(any_series, series2s(max_order=20, coeffs=entries | large_rationals),
       entries, st.integers(0, 20), matrices(), linear_forms,
       exponents, exponents)
# x*y - y*x, each made by mul_linear: f - g cancels the top row
@example(X.mul_linear(0, 1), Y.mul_linear(1, 0), Q(1, 2), 5, NO_MAP,
         (1, 1), 0, 0)
# row 1 is zero, so truncate(1) leaves a zero row on top; f - f cancels
# every row and scale_variables(0) all rows above the constant
@example(Series2({(0, 0): 1, (2, 0): Q(1, 3), (1, 2): -2}, 4), X, 3, 1,
         NO_MAP, (0, 1), 1, 0)
def test_kernel_results_pass_the_constructor(f, g, s, d, m, form,
                                             alpha, beta):
    # g has its own order, so sums and products cut one operand's top
    # degrees; f - f cancels every term
    assert (f - f).terms() == [] and (f - f).order == f.order
    den, (cell,) = packed_cells([f])
    identity = [(cell, (0, 0), (1, 0), (0, 1))]
    results = [f + g, g + f, f - g, g - f, f - f, -f, f * g,
               f.scalar_mul(s), f.scalar_mul(0), f.scale_variables(s),
               f.scale_variables(0), f.truncate(d), f.mul_linear(*form),
               f.subst_linear(*m), mul_exp_linear(f, alpha, beta),
               sum_of_images(identity, f.order, den),
               sum_of_images(identity, f.order, den, 3)]
    if d <= f.order:
        results.append(homogeneous_part(f, d))
    if form != (0, 0):
        results.append(divide_linear(f.mul_linear(*form), *form))
    for r in results:
        assert_checked(r)
    assert sum_of_images(identity, f.order, den).key() == f.key()


def sorted_scan_difference(f, g, order=None):
    """first_difference by a scan of the sorted union of the exponents,
    two Fraction lookups per exponent (the oracle)."""
    n = min(f.order, g.order)
    if order is not None:
        n = min(n, order)
    a, b = dict(f.terms()), dict(g.terms())
    exps = [e for e in set(a) | set(b) if e[0] + e[1] <= n]
    for e in sorted(exps, key=lambda e: (e[0] + e[1], e[0])):
        x, y = a.get(e, Q(0)), b.get(e, Q(0))
        if x != y:
            return (e, x, y)
    return None


@st.composite
def series_pairs(draw):
    """Two series that differ in a few terms, or in their orders alone,
    or are unrelated."""
    f = draw(any_series)
    kind = draw(st.sampled_from(["near", "truncated", "unrelated"]))
    if kind == "near":
        h = draw(series2s(max_order=20))
        return f, f + h if draw(st.booleans()) else h + f
    if kind == "truncated":
        return f, f.truncate(draw(st.integers(0, 20)))
    return f, draw(any_series)


@settings(max_examples=150)
@given(series_pairs(), st.one_of(st.none(), st.integers(0, 20)))
def test_first_difference_matches_sorted_scan(pair, order):
    f, g = pair
    for a, b in ((f, g), (g, f)):
        got = a.first_difference(b, order)
        assert got == sorted_scan_difference(a, b, order)
        if got is not None:
            assert type(got[1]) is Q and type(got[2]) is Q


@st.composite
def reducible_truncations(draw):
    """(f, d, low): low has terms of total degree <= d over denominators of
    at most 12; f is low plus terms of total degree in (d, n] over primes
    above 12, both of order n > d.  So f's denominator has prime factors
    that f.truncate(d) must reduce away."""
    n = draw(st.integers(1, 20))
    d = draw(st.integers(0, n - 1))

    def exps(lo, hi):
        return st.tuples(st.integers(0, hi), st.integers(0, hi)).filter(
            lambda e: lo <= e[0] + e[1] <= hi)

    low = draw(st.dictionaries(exps(0, d), rationals.filter(bool),
                               max_size=20))
    high = draw(st.dictionaries(exps(d + 1, n), st.builds(
        Q, st.integers(1, 12) | st.integers(-12, -1),
        st.sampled_from([13, 10**9 + 7, 2**61 - 1])), min_size=1,
        max_size=10))
    return Series2({**low, **high}, n), d, Series2(low, n)


@settings(max_examples=150)
@given(reducible_truncations(), st.one_of(st.none(), st.integers(0, 20)),
       entries.filter(bool))
def test_comparisons_across_denominators_and_orders(case, order, s):
    f, d, low = case
    cut = f.truncate(d)
    assert_checked(cut)
    assert cut.numerators()[0] == low.numerators()[0] < f.numerators()[0]
    assert cut.key() == low.truncate(d).key() == Series2(
        dict(low.terms()), d).key()
    assert cut.key() != low.key() and cut.key() != f.key()
    assert f.eq_up_to(low, d) and cut.eq_up_to(f) and cut == low
    pairs = [(f, cut), (f, low), (cut, low), (f, f.scalar_mul(s)),
             (low, low.scalar_mul(s)), (cut, cut.scalar_mul(s).truncate(0))]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        expected = sorted_scan_difference(a, b, order)
        assert a.first_difference(b, order) == expected
        assert a.eq_up_to(b, order) == (expected is None)
        assert (a.key() == b.key()) == (
            a.order == b.order and a.terms() == b.terms())
