"""Tests for the homogeneous solution-space solver."""

from fractions import Fraction as Q

import pytest

from latval import laws, linalg, vspace
from latval.group import is_d4_invariant
from latval.laws import check_law, dagger
from latval.series import NotDivisible, Series2

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
        mat = vspace.constraint_matrix(d, laws.RHO_LAWS)
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
        assert is_d4_invariant(rho)[0]


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


def test_homogeneous_solution_components():
    combined = Series2.constant(2, 12) \
        + vspace.vd_basis(4).polynomials(order=12)[0].scalar_mul(3)
    comps = vspace.homogeneous_solution_components(combined)
    assert [d for d, _ in comps] == [0, 4]
    assert comps[0][1] == (Q(2),)


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
        mat = vspace.constraint_matrix(d, ("Adoubleprime", "f1neg", "B"))
        kernel = tuple(tuple(v) for v in linalg.nullspace(mat, d + 1))
        assert kernel == vspace.st_basis(d).vectors, d


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        vspace.vd_basis(-1)
    with pytest.raises(ValueError):
        vspace.st_basis(-2)
