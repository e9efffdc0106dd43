"""Tests for the homogeneous solution-space solver."""

from fractions import Fraction as Q
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from latval import laws, linalg, vspace
from latval.laws import check_law, dagger
from latval.series import NotDivisible, Series2
from latval.valuation import InvalidRho, ValuationSpec

EXPECTED_EVEN_DIMS = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3]


def test_predicted_dims():
    assert [vspace.predicted_dim(d) for d in range(0, 31, 2)] \
        == EXPECTED_EVEN_DIMS
    assert all(vspace.predicted_dim(d) == 0 for d in range(1, 31, 2))


def test_dims_table_matches_prediction_to_30():
    for d, computed, predicted in vspace.dims_table(30):
        assert computed == predicted, d


def test_degree_zero_basis_is_constant():
    basis = vspace.vd_basis(0)
    assert basis.dim == 1
    assert basis.vectors == ((Q(1),),)


def test_basis_vectors_are_reduced_echelon():
    for d in (4, 6, 12, 16):
        vectors = vspace.vd_basis(d).vectors
        pivots = []
        for v in vectors:
            lead = next(i for i, x in enumerate(v) if x != 0)
            assert v[lead] == 1
            pivots.append(lead)
        assert pivots == sorted(pivots)
        for i, v in enumerate(vectors):
            for j, p in enumerate(pivots):
                if i != j:
                    assert v[p] == 0


def test_pivot_order_independence():
    for d in (4, 6, 12, 14):
        mat = oracles.constraint_matrix(d, laws.RHO_LAWS)
        reversed_mat = [row[::-1] for row in mat]
        k1 = linalg.nullspace(mat, d + 1)
        k2 = linalg.nullspace(reversed_mat, d + 1)
        # the reversed kernel, un-reversed, is the same space
        assert linalg.rref([v[::-1] for v in k2])[0] == k1


@pytest.mark.parametrize("d", [0, 4, 6, 8, 10, 12])
def test_basis_elements_satisfy_all_laws(d):
    for rho in vspace.vd_basis(d).polynomials():
        for law in ("rhoformula", "Aprime", "E", "Bprime", "Cprime", "D"):
            assert check_law(law, rho).holds, (d, law)
        assert all(check_law(law, rho).holds for law in laws.D4_LAWS), d


@pytest.mark.parametrize("d", [0, 4, 6, 8, 12])
def test_dagger_defined_on_basis(d):
    for rho in vspace.vd_basis(d).polynomials(order=12):
        try:
            f = dagger(rho)
        except NotDivisible:
            pytest.fail(f"dagger undefined on degree-{d} basis element")
        for law in ("A", "B", "C"):
            assert check_law(law, f).holds


def test_is_solution():
    def is_solution(rho):
        return all(check_law(law, rho).holds for law in laws.RHO_LAWS)

    assert is_solution(Series2.constant(1, 10))
    assert not is_solution(Series2.monomial(1, 2, 0, 10))
    combined = Series2.constant(2, 12) \
        + vspace.vd_basis(4).polynomials(order=12)[0]
    assert is_solution(combined)


def test_coefficient_round_trip():
    rho = vspace.vd_basis(6).polynomials()[0]
    coeffs = vspace.to_coefficients(rho, 6)
    assert vspace.from_coefficients(coeffs, 6).eq_up_to(rho)


def test_st_basis_dims_match():
    for d in range(0, 21):
        assert vspace.st_basis(d).dim == vspace.vd_basis(d).dim, d


def test_st_law_kernel_is_st_basis():
    # In (s, t) = (2x + y, y) the space is cut out by (A''), the reflection
    # sigma(s, t) = sigma(s, -t) (law f1neg) and the swap sigma(s, t) =
    # sigma(t, s) (law B).  The swap stands in for the reflection
    # sigma(s, t) = sigma(-t, -s): a homogeneous polynomial of even degree
    # is even, so on even degrees the two agree, and on odd degrees either
    # one together with f1neg forces sigma = -sigma, so both spaces are zero.
    for d in range(0, 25):
        mat = oracles.constraint_matrix(d, ("Adoubleprime", "f1neg", "B"))
        kernel = tuple(tuple(v) for v in linalg.nullspace(mat, d + 1))
        assert kernel == vspace.st_basis(d).vectors, d


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        vspace.vd_basis(-1)
    with pytest.raises(ValueError):
        vspace.st_basis(-2)


# the packed rows and the solve on ker(E), against the Series2 rows


def packed_rows(d, law_ids):
    """The residual rows of the laws on the packed monomials x^(d-k) y^k."""
    return vspace._residual_rows([[((1, 0), d - k), ((0, 1), k)]
                                  for k in range(d + 1)], d, law_ids)


# the laws of law_sides with a factor exp(x): their residual on a form is
# not a form of one degree
NOT_HOMOGENEOUS = ("A", "C", "f2simple2", "f23up", "f1shift")
HOMOGENEOUS = [law for law in laws.LAW_IDS if law not in NOT_HOMOGENEOUS]


@pytest.mark.parametrize("law", HOMOGENEOUS)
def test_constraint_rows_equal_the_series_rows(law):
    for d in range(31):
        assert packed_rows(d, [law]) == oracles.constraint_matrix(d, [law]), d


def test_constraint_rows_of_stacked_laws_equal_the_series_rows():
    for laws_ in (laws.RHO_LAWS, ("Adoubleprime", "f1neg", "B"),
                  ("E", "Aprime", "rhoformula")):
        for d in (0, 1, 7, 24):
            assert packed_rows(d, laws_) \
                == oracles.constraint_matrix(d, laws_), (laws_, d)


def test_residual_rows_of_the_rho_laws_equal_the_series_rows_to_30():
    # each residual is read back at the width its own bounds give, which
    # on the monomials is wider than the forms' for Aprime at every degree
    for d in range(31):
        assert packed_rows(d, laws.RHO_LAWS) \
            == oracles.constraint_matrix(d, laws.RHO_LAWS), d


@pytest.mark.parametrize("d", list(range(41)) + [48, 64])
def test_vd_basis_equals_the_monomial_solve(d):
    assert vspace.vd_basis(d).vectors == oracle_basis(d)


def test_the_forms_that_vd_basis_solves_on_span_the_kernel_of_E():
    # x^(d-2j) (x + y)^(2j), j = 0..d//2, has the coefficient C(2j, k) on
    # x^(d-k) y^k; the forms satisfy E, are independent, and are as many
    # as the kernel of E's rows on the monomials has dimensions, so a law
    # E that changed would not narrow V_d unseen
    for d in range(41):
        forms = [[comb(2 * j, k) for k in range(d + 1)]
                 for j in range(d // 2 + 1)]
        for coeffs in forms:
            assert check_law("E", vspace.from_coefficients(coeffs, d)).holds
        assert all(any(r) for r in linalg.rref(forms)[0]), d
        nullity = len(linalg.nullspace(oracles.constraint_matrix(d, ["E"]),
                                       d + 1))
        assert len(forms) == nullity, d


# the per-degree cache: the basis of each degree, solved once while kept


def oracle_basis(d):
    kernel = linalg.nullspace(oracles.constraint_matrix(d, laws.RHO_LAWS),
                              d + 1)
    return tuple(tuple(v) for v in kernel)


def oracle_st_basis(d):
    images = [vspace.to_coefficients(
        laws.to_st(vspace.from_coefficients(v, d)), d) for v in oracle_basis(d)]
    return tuple(tuple(r) for r in linalg.rref(images)[0])


@pytest.fixture
def solves(monkeypatch):
    """An empty per-degree cache; returns the list of the degrees that
    vspace solves, the argument of each call of vspace._solve."""
    vspace._degree.cache_clear()
    calls = []
    solve = vspace._solve

    def counted(d):
        calls.append(d)
        return solve(d)

    monkeypatch.setattr(vspace, "_solve", counted)
    return calls


def small_degree_cache(monkeypatch):
    """vspace._degree as a new cache of 3 degrees around the same function."""
    monkeypatch.setattr(vspace, "_degree",
                        lru_cache(3)(vspace._degree.__wrapped__))


def test_degree_cache_is_bounded_and_solves_again_after_eviction(
        monkeypatch, solves):
    assert vspace._degree.cache_info().maxsize == vspace.DEGREES_MAX == 64
    small_degree_cache(monkeypatch)
    first = {}
    for d in range(9):
        first[d] = vspace.vd_basis(d)
        assert vspace._degree.cache_info().currsize <= 3
    assert vspace._degree.cache_info().currsize == 3
    for d in range(8, -1, -1):
        basis = vspace.vd_basis(d)
        assert vspace._degree.cache_info().currsize <= 3
        assert basis.vectors == oracle_basis(d), d
        # 8, 7 and 6 were kept; 5..0 were evicted and are solved again
        assert (basis is first[d]) == (d >= 6), d
    assert solves == list(range(9)) + list(range(5, -1, -1))


def test_st_basis_reads_the_one_solve_of_vd_basis(solves):
    for d in range(25):
        before = vspace.st_basis(d)
        vspace.vd_basis(d)
        after = vspace.st_basis(d)
        assert before == after
        assert after.vectors == oracle_st_basis(d), d
    assert solves == list(range(25))


def test_rho_check_solves_no_vd(solves):
    # the spec checks rho's parts by check_law alone, so neither a valid
    # rho nor an invalid one, with parts at degrees 6, 10, 12 and 14,
    # solves V_d
    valid = sum((vspace.from_coefficients(v, d, 14) for d in (6, 10, 12, 14)
                 for v in oracle_basis(d)), Series2.zero(14))
    invalid = valid + Series2.monomial(1, 5, 7, 14)
    ValuationSpec(0, None, valid, 14)
    with pytest.raises(InvalidRho) as err:
        ValuationSpec(0, None, invalid, 14)
    assert err.value.report == check_law("Aprime", invalid)
    assert solves == []


# the degrees in 12..40 at which V_d has at least two dimensions
WIDE_DEGREES = [d for d in range(12, 41) if vspace.predicted_dim(d) >= 2]
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def rhos_of_wide_degrees(draw):
    """A rational combination of the basis vectors of two or three degrees
    of WIDE_DEGREES, up to an order of at most 42; a third of the time one
    more monomial, and a third of the time one more odd-degree part."""
    degrees = draw(st.lists(st.sampled_from(WIDE_DEGREES), min_size=2,
                            max_size=3, unique=True))
    order = max(degrees) + draw(st.integers(0, 2))
    rho = Series2.zero(order)
    for d in degrees:
        for vector in vspace.vd_basis(d).vectors:
            part = vspace.from_coefficients(vector, d, order)
            rho = rho + part.scalar_mul(draw(RATIONALS))
    extra = draw(st.sampled_from(("none", "monomial", "odd")))
    if extra == "monomial":
        d = draw(st.integers(0, order))
        k = draw(st.integers(0, d))
        rho = rho + Series2.monomial(draw(RATIONALS.filter(bool)), d - k, k,
                                     order)
    elif extra == "odd":
        d = draw(st.sampled_from(range(1, order + 1, 2)))
        coeffs = draw(st.lists(RATIONALS, min_size=d + 1, max_size=d + 1))
        rho = rho + vspace.from_coefficients(coeffs, d, order)
    return rho


def test_rho_check_agrees_with_check_law_on_wide_degrees():
    # the sum of the basis vectors of 12 and 16, where V_d has two each
    every_vector = sum((p for d in (12, 16)
                        for p in vspace.vd_basis(d).polynomials(order=16)),
                       Series2.zero(16))

    @settings(max_examples=40, deadline=None)
    @given(rhos_of_wide_degrees())
    @example(every_vector)
    def check(rho):
        # a rejection reports what check_law reports on the whole of rho
        # for the first law it finds violated
        failed = next((report for report in (check_law(law, rho)
                                             for law in laws.RHO_LAWS)
                       if not report.holds), None)
        if failed is None:
            ValuationSpec(0, None, rho, rho.order)
        else:
            with pytest.raises(InvalidRho) as err:
                ValuationSpec(0, None, rho, rho.order)
            assert err.value.report == failed

    check()
