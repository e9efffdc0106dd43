"""Tests for the valuation engine."""

import gc
import os
import random
import sys
import threading
import weakref
from fractions import Fraction as Q
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latval import io, linalg, vspace
from latval.geometry import (NotFullDimensional, NoValidChord,
                             Triangulation, boundary_lattice_points,
                             chord_of_split, hull_normalize, scale_polygon,
                             split_pairs, unimodular_triangulation)
from latval.group import (AffineUnimodular, NotUnimodularTriangle,
                          act_on_polygon, act_on_series, det)
from latval.laws import RHO_LAWS, check_law, violation_text
from latval.series import (NotDivisible, Series1, Series2, exp_linear,
                           mul_exp_linear, packed_cells)
from latval import valuation
from latval.valuation import (DecompositionError, InvalidRho,
                              NoCandidatePasses, ValuationError,
                              UNIT_SQUARE, UNIT_TRIANGLE, ValuationSpec,
                              build_triangle_data, calibrate_val0,
                              check_dilative, cosh_type_g, dilative_decompose,
                              evaluator_for, g_m, odd_basis_g,
                              z_mT_closed, z_polygon)
from oracles import (betke_kneser_constant, constraint_matrix,
                     half_boundary_transform, interior_value, interpolate,
                     lattice_point_sum, reassemble, solve,
                     surface_formula_check)
from test_geometry import interior_edges
from test_group import affine_unimodulars

T = UNIT_TRIANGLE
SQUARE = UNIT_SQUARE


def laplace_spec(order=12):
    return ValuationSpec(0, None, Series2.constant(1, order), order)


def case3_spec(order=12, kappa=Q(-1)):
    return ValuationSpec(1, cosh_type_g(order),
                         Series2.constant(kappa, order), order)


def vd_spec(d, index=0, order=12):
    rho = vspace.from_coefficients(vspace.vd_basis(d).vectors[index], d, order)
    return ValuationSpec(0, None, rho, order)


def odd_spec(delta, order=12):
    return ValuationSpec(0, odd_basis_g(delta, order), None, order)


SPECS = [laplace_spec(), vd_spec(4), vd_spec(6), odd_spec(1), case3_spec()]


# ---------------------------------------------------------------------------
# spec validation and triangle data


def test_invalid_rho_rejected():
    with pytest.raises(InvalidRho) as err:
        ValuationSpec(0, None, Series2.monomial(1, 2, 0, 12), 12)
    report = err.value.report
    assert (report.law, report.first_violation) == ("Aprime", ((1, 2), 0, 1))


def test_g_with_a_y_term_rejected():
    with pytest.raises(ValueError, match=r"x\^1\*y\^1"):
        ValuationSpec(0, Series2.monomial(1, 1, 1, 8), None, 8)


def test_spec_defaults_and_simplicity():
    spec = laplace_spec()
    assert spec.c == 0 and spec.g.terms() == []
    assert evaluator_for(spec).order == 11
    case3 = case3_spec()
    assert case3.c != 0 and case3.g.terms() != []


def test_triangle_data_case3():
    data = build_triangle_data(ValuationSpec(1, cosh_type_g(12), None, 12))
    # f1 = (e^x + 1)/2
    assert data.f1.coeff(0, 0) == 1
    assert data.f1.coeff(3, 0) == Q(1, 12)
    assert data.f1.coeff(0, 1) == 0
    assert data.zT.coeff(0, 0) == Q(3, 2)


def test_triangle_data_laplace():
    data = build_triangle_data(laplace_spec())
    for (p, q), v in data.zT.terms():
        assert v == Q(1, factorial(p + q + 2))


def test_triangle_data_zero_spec():
    data = build_triangle_data(ValuationSpec(0, None, None, 12))
    assert data.zT.terms() == []


# ---------------------------------------------------------------------------
# points, segments, polygons


def test_z_point():
    ev = evaluator_for(case3_spec())
    assert ev.z_point((0, 0)).coeff(0, 0) == 1
    assert ev.z_point((1, 0)) == exp_linear(1, 0, 11)
    assert evaluator_for(laplace_spec()).z_point((2, 5)).terms() == []


def test_z_segment_unit():
    spec = case3_spec()
    seg = hull_normalize([(0, 0), (1, 0)])
    data = build_triangle_data(spec)
    assert z_polygon(spec, seg) == data.f1


def test_z_segment_odd_delta_one():
    # g with g(x^2) = x sinh(x/2) gives Z([0, 2e1]) = x (e^{2x} - 1)/2
    spec = odd_spec(1)
    seg = hull_normalize([(0, 0), (2, 0)])
    expected = (exp_linear(2, 0, 11) - Series2.constant(1, 11)).mul_linear(1, 0) \
        .scalar_mul(Q(1, 2)).truncate(11)
    assert z_polygon(spec, seg) == expected


def test_z_segment_case3_length_two():
    spec = case3_spec()
    seg = hull_normalize([(0, 0), (2, 0)])
    expected = (exp_linear(2, 0, 11) + Series2.constant(1, 11)).scalar_mul(Q(1, 2))
    assert z_polygon(spec, seg) == expected


def test_z_segment_direction_independent():
    spec = case3_spec()
    ev = evaluator_for(spec)
    for a, b in [((0, 0), (2, 3)), ((1, -1), (-2, 5)), ((0, 0), (0, 4))]:
        assert ev.z_segment(a, b) == ev.z_segment(b, a)


def test_z_polygon_dispatches_on_dim():
    spec = case3_spec()
    assert z_polygon(spec, hull_normalize([(1, 1)])).coeff(0, 0) == 1
    seg = hull_normalize([(0, 0), (1, 0)])
    assert z_polygon(spec, seg) == evaluator_for(spec).z_segment(*seg.vertices)


def test_z_polygon_constant_terms():
    spec = ValuationSpec(1, cosh_type_g(12), None, 12)
    assert z_polygon(spec, T).coeff(0, 0) == Q(3, 2)
    assert z_polygon(spec, SQUARE).coeff(0, 0) == 2
    assert z_polygon(spec, scale_polygon(T, 2)).coeff(0, 0) == 3


MIRROR = AffineUnimodular(((0, 1), (1, 0)))


def z_polygon_mirrored(spec, P):
    """Z(P) by way of the mirror image (x, y) -> (y, x), whose triangulation
    sweeps P's points in (y, x) order instead of (x, y) order."""
    return act_on_series(MIRROR, z_polygon(spec, act_on_polygon(MIRROR, P)))


def test_z_polygon_triangulation_independent():
    for spec in SPECS:
        for P in (scale_polygon(T, 2), scale_polygon(SQUARE, 2),
                  hull_normalize([(0, 0), (3, 0), (1, 2), (0, 2)])):
            assert z_polygon(spec, P) == z_polygon_mirrored(spec, P)


def test_valuation_axiom():
    corpus = [scale_polygon(T, 2), scale_polygon(T, 3), SQUARE,
              scale_polygon(SQUARE, 2),
              hull_normalize([(0, 0), (2, 0), (0, 2), (0, 1)])]
    for spec in SPECS:
        ev = evaluator_for(spec)
        for P in corpus:
            try:
                pairs = split_pairs(P, 4)
            except Exception:
                continue
            whole = ev.z_polygon(P)
            for P1, P2 in pairs:
                chord = chord_of_split(P1, P2)
                parts = ev.z_polygon(P1) + ev.z_polygon(P2) \
                    - ev.z_segment(*chord.vertices)
                assert whole == parts


def test_equivariance():
    rng = random.Random(13)
    mats = []
    while len(mats) < 6:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if abs(det(m)) == 1:
            mats.append(AffineUnimodular(m, (rng.randint(-2, 2),
                                             rng.randint(-2, 2))))
    for spec in SPECS:
        ev = evaluator_for(spec)
        for xi in mats:
            for P in (T, SQUARE):
                lhs = ev.z_polygon(act_on_polygon(xi, P))
                rhs = act_on_series(xi, ev.z_polygon(P))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# properties on random convex lattice polygons, at order 6

PROPERTY_SPECS = {
    "laplace": laplace_spec(6),
    "general": ValuationSpec(1, cosh_type_g(6) + odd_basis_g(1, 6),
                             Series2.constant(-1, 6)
                             + vd_spec(4, order=6).rho, 6),
}


@st.composite
def lattice_polygons(draw):
    """The convex hull of 3 to 6 points of [0, 3]^2, full-dimensional."""
    point = st.tuples(st.integers(0, 3), st.integers(0, 3))
    P = hull_normalize(draw(st.lists(point, min_size=3, max_size=6)))
    assume(P.dim == 2)
    return P


def _assert_axiom_on_drawn_split(spec, P, data):
    try:
        pairs = split_pairs(P)
    except NoValidChord:        # only three boundary points: no chord
        return
    P1, P2 = data.draw(st.sampled_from(pairs))
    ev = evaluator_for(spec)
    chord = chord_of_split(P1, P2)
    parts = ev.z_polygon(P1) + ev.z_polygon(P2) - ev.z_segment(*chord.vertices)
    assert ev.z_polygon(P) == parts


def _assert_equivariant(spec, P, xi):
    ev = evaluator_for(spec)
    lhs = ev.z_polygon(act_on_polygon(xi, P))
    assert lhs == act_on_series(xi, ev.z_polygon(P))


@pytest.mark.parametrize("name", PROPERTY_SPECS)
@settings(max_examples=25)
@given(P=lattice_polygons(), data=st.data())
def test_valuation_axiom_on_random_polygons(name, P, data):
    _assert_axiom_on_drawn_split(PROPERTY_SPECS[name], P, data)


@pytest.mark.parametrize("name", PROPERTY_SPECS)
@settings(max_examples=25)
@given(P=lattice_polygons(), xi=affine_unimodulars())
def test_equivariance_on_random_polygons(name, P, xi):
    _assert_equivariant(PROPERTY_SPECS[name], P, xi)


@pytest.mark.parametrize("name", PROPERTY_SPECS)
@settings(max_examples=25)
@given(P=lattice_polygons())
def test_insertion_orders_agree_on_random_polygons(name, P):
    spec = PROPERTY_SPECS[name]
    assert z_polygon(spec, P) == z_polygon_mirrored(spec, P)


FACE_SUM_SPECS = {
    "general": PROPERTY_SPECS["general"],
    "vd4": vd_spec(4, order=6),
    "odd_g": ValuationSpec(0, Series1({0: Q(1, 2), 1: -3, 2: Q(5, 7),
                                       4: Q(1, 9)}, 6),
                           Series2.constant(1, 6) + vd_spec(4, order=6).rho,
                           6),
}


# each spec the tests evaluate: the five acceptance families, then the
# property specs and the face-sum specs
CELL_SPECS = {
    **dict(zip(("laplace", "vd4", "vd6", "odd1", "case3"), SPECS)),
    **{f"property_{name}": spec for name, spec in PROPERTY_SPECS.items()},
    **{f"face_sum_{name}": spec for name, spec in FACE_SUM_SPECS.items()},
}


def _frame(v0, v1, v2):
    """The affine map taking o, e1, e2 to v0, v1, v2; its constructor
    rejects a triangle that is not unimodular."""
    return AffineUnimodular(((v1[0] - v0[0], v2[0] - v0[0]),
                             (v1[1] - v0[1], v2[1] - v0[1])), v0)


# the six affine maps of the unit triangle onto itself, and the flip
# p -> e1 - p of the unit segment
TRIANGLE_SYMMETRIES = [_frame(*v)
                       for v in permutations([(0, 0), (1, 0), (0, 1)])]
SEGMENT_FLIP = AffineUnimodular(((-1, 0), (0, -1)), (1, 0))


thirty_digits = st.integers(-10**30, 10**30)
rationals = st.builds(Q, thirty_digits, st.integers(1, 10**30))


@st.composite
def random_specs(draw, max_order=6):
    """A spec of order at most max_order: c a random rational; g a random
    series in x, sparse or dense, with entries of up to 30 digits; rho a
    random rational combination of the vd_basis(d) vectors of even
    degree d, valid by construction."""
    order = draw(st.integers(1, max_order))
    if draw(st.booleans()):
        g = draw(st.dictionaries(st.integers(0, order), rationals,
                                 max_size=2))
    else:
        g = {k: draw(rationals) for k in range(order + 1)}
    rho = Series2.zero(order)
    for d in range(0, order + 1, 2):
        for vector in vspace.vd_basis(d).vectors:
            part = vspace.from_coefficients(vector, d, order)
            rho = rho + part.scalar_mul(draw(rationals))
    return ValuationSpec(draw(rationals), Series1(g, order), rho, order)


BASES = {d: vspace.vd_basis(d) for d in range(15)}
# the kernel of each law of RHO_LAWS alone, degree by degree
LAW_KERNELS = {(law, d): linalg.nullspace(constraint_matrix(d, [law]), d + 1)
               for law in RHO_LAWS for d in range(15)}


@st.composite
def candidate_rhos(draw):
    """A random rational combination of some vd_basis(d) vectors of each
    degree d up to an order of at most 14, and half of the time one more
    homogeneous part, of the highest degree first: a random monomial, or
    a random combination of the kernel vectors of one law, which may
    violate the other."""
    order = draw(st.integers(0, 14))
    rho = Series2.zero(order)
    for d in range(order + 1):
        for vector in BASES[d].vectors:
            if draw(st.booleans()):
                part = vspace.from_coefficients(vector, d, order)
                rho = rho + part.scalar_mul(draw(rationals))
    if draw(st.booleans()):
        d = draw(st.sampled_from(range(order, -1, -1)))
        kind = draw(st.sampled_from(("monomial",) + RHO_LAWS))
        if kind == "monomial":
            k = draw(st.integers(0, d))
            vectors = [[int(j == k) for j in range(d + 1)]]
        else:
            vectors = LAW_KERNELS[kind, d]
        for vector in vectors:
            part = vspace.from_coefficients(vector, d, order)
            rho = rho + part.scalar_mul(draw(rationals.filter(bool)))
    return rho


# every vd_basis vector of each degree up to 14, with rational weights
DENSE_RHO = sum((vspace.from_coefficients(v, d, 14).scalar_mul(Q(d + 1, j + 2))
                 for d in range(15) for j, v in enumerate(BASES[d].vectors)),
                Series2.zero(14))


@given(candidate_rhos())
# x^2 + xy - y^2 satisfies Aprime and violates E, and x^3 violates Aprime:
# Aprime at degree 3 is reported, not E at degree 2
@example(Series2({(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 2): -1, (3, 0): 1},
                 4))
# two parts that violate Aprime: the lower one is reported
@example(Series2({(1, 0): 1, (0, 3): Q(1, 2)}, 4))
@example(DENSE_RHO)
@example(DENSE_RHO + Series2.monomial(Q(1, 7), 9, 3, 14))
def test_spec_accepts_exactly_the_rho_that_satisfy_the_laws(rho):
    # a rejection reports what check_law reports on rho for the first law
    # of RHO_LAWS that rho violates
    failed = next((report for report in (check_law(law, rho)
                                         for law in RHO_LAWS)
                   if not report.holds), None)
    if rho.order == 0:   # dagger(rho) would have order -1
        with pytest.raises(ValueError, match="^rho has order 0; it must"):
            ValuationSpec(0, None, rho, 1)
    elif failed is None:
        ValuationSpec(0, None, rho, rho.order)
    else:
        with pytest.raises(InvalidRho) as err:
            ValuationSpec(0, None, rho, rho.order)
        assert err.value.report == failed


def test_spec_checks_rho_by_one_check_law_per_law(monkeypatch):
    calls = []

    def counted(law, f):
        calls.append((law, f))
        return check_law(law, f)
    monkeypatch.setattr(valuation, "check_law", counted)
    ValuationSpec(0, None, DENSE_RHO, 14)
    assert calls == [(law, DENSE_RHO) for law in RHO_LAWS]


# the laws are necessary: the cell sums of a rho outside the classification
# depend on the triangulation, so no valuation has those cell values

NECESSITY_POLYGONS = (hull_normalize([(0, 0), (3, 0), (2, 2), (0, 3)]),
                      hull_normalize([(0, 0), (4, 1), (1, 3)]),
                      scale_polygon(SQUARE, 2))


def unchecked_spec(rho, order=9):
    """The spec (1, cosh-type g, rho), built without __post_init__, so
    that rho is not checked against RHO_LAWS."""
    spec = object.__new__(ValuationSpec)
    for name, value in (("c", Q(1)), ("g", cosh_type_g(order)),
                        ("rho", rho), ("order", order)):
        object.__setattr__(spec, name, value)
    return spec


def _violating_one_law(law, d):
    """A vector of the kernel of the other law of RHO_LAWS at degree d that
    is outside the kernel of law, or None if there is none."""
    other, = (k for k in RHO_LAWS if k != law)
    rows = constraint_matrix(d, [law])
    return next((v for v in LAW_KERNELS[other, d]
                 if any(sum(a * b for a, b in zip(row, v)) for row in rows)),
                None)


# (law, d, vector) for each degree d <= 7 at which the kernels differ
ONE_LAW_VIOLATIONS = [(law, d, v) for law in RHO_LAWS for d in range(8)
                      for v in [_violating_one_law(law, d)] if v is not None]


def test_each_law_is_violated_alone_somewhere():
    assert {law for law, _, _ in ONE_LAW_VIOLATIONS} == set(RHO_LAWS)


@pytest.mark.parametrize("law, d, vector", ONE_LAW_VIOLATIONS,
                         ids=[f"{law}-{d}" for law, d, _ in ONE_LAW_VIOLATIONS])
def test_rho_violating_one_law_breaks_the_valuation(law, d, vector):
    # rho keeps the other law; either f2 = dagger(rho) does not exist, or
    # the sweep of P and the sweep of its mirror image give different
    # cell sums on every polygon
    rho = vspace.from_coefficients(vector, d, 9)
    assert [check_law(k, rho).holds for k in RHO_LAWS] \
        == [k != law for k in RHO_LAWS]
    try:
        ev = valuation.Evaluator(unchecked_spec(rho))
    except NotDivisible:
        return
    for P in NECESSITY_POLYGONS:
        mirrored = act_on_series(
            MIRROR, ev.z_polygon(act_on_polygon(MIRROR, P)))
        assert ev.z_polygon(P).key() != mirrored.key(), P


@settings(max_examples=20)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.integers(0, n), rationals, max_size=n + 1))))
def test_any_g_gives_an_f1_that_satisfies_the_segment_laws(case):
    # g is free, as the classification says: f1 = g(x^2) e^(x/2) satisfies
    # the laws of the unit segment for every g
    n, g = case
    f1 = build_triangle_data(
        ValuationSpec(1, Series1(g, n), None, n)).f1
    for law in ("f1shift", "f1period", "f1neg"):
        assert check_law(law, f1).holds, law


def _assert_unit_cells_invariant(spec):
    # so the evaluator may anchor a cell at any of its vertices
    data = build_triangle_data(spec)
    for xi in TRIANGLE_SYMMETRIES:
        assert act_on_series(xi, data.zT).key() == data.zT.key()
    assert act_on_series(SEGMENT_FLIP, data.f1).key() == data.f1.key()


@pytest.mark.parametrize("name", CELL_SPECS)
def test_unit_cells_are_invariant_under_their_symmetries(name):
    _assert_unit_cells_invariant(CELL_SPECS[name])


@settings(max_examples=25)
@given(random_specs())
def test_unit_cells_are_invariant_under_their_symmetries_on_random_specs(
        spec):
    _assert_unit_cells_invariant(spec)


# the properties above on random polygons, under random specs

@settings(max_examples=20)
@given(spec=random_specs(), P=lattice_polygons(), data=st.data())
def test_valuation_axiom_on_random_specs(spec, P, data):
    _assert_axiom_on_drawn_split(spec, P, data)


@settings(max_examples=20)
@given(spec=random_specs(), P=lattice_polygons(), xi=affine_unimodulars())
def test_equivariance_on_random_specs(spec, P, xi):
    _assert_equivariant(spec, P, xi)


@settings(max_examples=20)
@given(spec=random_specs(), P=lattice_polygons())
def test_insertion_orders_agree_on_random_specs(spec, P):
    assert z_polygon(spec, P).key() == z_polygon_mirrored(spec, P).key()


@settings(max_examples=20)
@given(spec=random_specs(), kappa=st.sampled_from([Q(0), Q(-1)]))
def test_decompose_then_reassemble_gives_the_spec_on_random_specs(spec,
                                                                  kappa):
    # kappa is passed: with c != 0, calibrate_val0 finds no constant
    # candidate (criterion 9)
    back = reassemble(dilative_decompose(spec, kappa=kappa))
    assert back.key() == spec.key()


def _unit_segment(data, a, w):
    """f1 moved onto the unit segment [a, a + w] by act_on_series, in the
    unimodular frame with columns w and a completion u of it, solved here
    from det(w, u) = w1*u2 - w2*u1 = 1."""
    w1, w2 = w
    if w2 == 0:                     # w = (+-1, 0)
        u1, u2 = 0, w1
    else:
        u2 = pow(w1, -1, abs(w2))   # w1*u2 = 1 modulo w2
        u1 = (w1 * u2 - 1) // w2
    return act_on_series(AffineUnimodular(((w1, u1), (w2, u2)), a), data.f1)


def _point(ev, p):
    """c * e^{p.z}, built apart from the evaluator."""
    return exp_linear(*p, ev.order).scalar_mul(ev.spec.c)


@st.composite
def polygons_with_interior_points(draw):
    """The convex hull of 3 to 6 points of [0, 4]^2 with a lattice point
    in its interior."""
    point = st.tuples(st.integers(0, 4), st.integers(0, 4))
    P = hull_normalize(draw(st.lists(point, min_size=3, max_size=6)))
    assume(P.dim == 2 and unimodular_triangulation(P).interior_vertices)
    return P


@st.composite
def polygons_without_interior_points(draw):
    """The hull of 3 or 4 points on two adjacent lattice lines, in a random
    affine frame: triangles and quadrilaterals, many of them long and thin,
    with no interior lattice point, so no cell starts out anchored."""
    point = st.tuples(st.integers(-2, 5), st.integers(0, 1))
    P = hull_normalize(draw(st.lists(point, min_size=3, max_size=4)))
    assume(P.dim == 2)
    return act_on_polygon(draw(affine_unimodulars()), P)


def _assert_face_sum(spec, P):
    # the inclusion-exclusion over the triangulation, from Series2 pieces:
    # +zT on each triangle, in the frame taken at its first vertex, -f1 on
    # each interior edge and +c at each interior point, whatever faces and
    # anchors the evaluator takes
    ev = evaluator_for(spec)
    tri = unimodular_triangulation(P)
    total = Series2.zero(ev.order)
    for t in tri.triangles:
        total = total + act_on_series(_frame(*t), ev.data.zT)
    for a, b in interior_edges(tri):
        total = total - _unit_segment(ev.data, a, (b[0] - a[0], b[1] - a[1]))
    for p in tri.interior_vertices:
        total = total + _point(ev, p)
    assert ev.z_polygon(P).key() == total.key()


face_sum_polygons = st.one_of(polygons_with_interior_points(),
                              polygons_without_interior_points())


@pytest.mark.parametrize("name", FACE_SUM_SPECS)
@settings(max_examples=30)
@given(P=face_sum_polygons)
@example(P=T)   # one triangle, all three sides on the boundary
@example(P=scale_polygon(T, 3))   # one interior point
@example(P=hull_normalize([(10**6 + x, -10**6 + y)
                           for x, y in ((0, 0), (3, 1), (1, 3))]))
def test_z_polygon_equals_face_sum_on_random_polygons(name, P):
    _assert_face_sum(FACE_SUM_SPECS[name], P)


@settings(max_examples=25)
@given(spec=random_specs(), P=face_sum_polygons)
def test_z_polygon_equals_face_sum_on_random_specs(spec, P):
    _assert_face_sum(spec, P)


@pytest.mark.parametrize("P", [T, SQUARE, scale_polygon(T, 3),
                               scale_polygon(SQUARE, 2),
                               hull_normalize([(0, 0), (4, 1), (2, 3)])],
                         ids=repr)
def test_faces_are_one_per_triangle_and_interior_point(P):
    # each boundary unit segment is the side of one triangle, and sets
    # one bit of that triangle's value index
    tri = unimodular_triangulation(P)
    faces = valuation._faces(P)
    assert len(faces) == len(tri.triangles) + len(tri.interior_vertices)
    masks = [i for i, *_ in faces[:len(tri.triangles)]]
    assert all(0 <= i < 8 for i in masks)
    assert sum(bin(i).count("1") for i in masks) \
        == len(boundary_lattice_points(P))


@pytest.mark.parametrize("spec, distinct", [
    (laplace_spec(), 2),   # g = 0 and c = 0: f2 eight times, then 0
    (ValuationSpec(2, None, Series2.constant(1, 12), 12), 4),   # f2, 0, c, -c
    (case3_spec(), 11)], ids=["laplace", "c=2", "case3"])
def test_equal_values_are_packed_once_and_keep_their_keys(monkeypatch, spec,
                                                          distinct):
    packed = []

    def recording(fs):
        packed.append(len(fs))
        return packed_cells(fs)

    monkeypatch.setattr(valuation, "packed_cells", recording)
    ev = valuation.Evaluator(spec)
    assert packed == [distinct]
    # the same sums over the eleven values packed apart: every face reads
    # the value of its index
    den, cells = packed_cells(valuation._face_values(ev.data))
    for P in (hull_normalize([(2, -1)]), hull_normalize([(0, 0), (3, 3)]),
              T, SQUARE, scale_polygon(T, 3),
              hull_normalize([(0, 0), (4, 1), (2, 3)])):
        assert ev.z_polygon(P).key() \
            == valuation._sum(cells, den, ev.order, P).key(), P


def test_non_unimodular_triangle_is_rejected(monkeypatch):
    # the evaluator checks each triangle's twice-area itself, whatever
    # triangulation it is handed
    P = hull_normalize([(0, 0), (2, 0), (0, 1)])
    fake = Triangulation((P.vertices,), ())
    monkeypatch.setattr(valuation, "unimodular_triangulation",
                        lambda _: fake)
    ev = valuation.Evaluator(PROPERTY_SPECS["laplace"])
    with pytest.raises(NotUnimodularTriangle, match="^twice-area 2$"):
        ev.z_polygon(P)


@st.composite
def primitive_vectors(draw):
    w = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    assume(gcd(*w) == 1)
    return w


@settings(max_examples=30)
@given(spec=random_specs(), a=st.tuples(st.integers(-3, 3),
                                        st.integers(-3, 3)),
       w=primitive_vectors(), ell=st.integers(2, 5))
@example(spec=PROPERTY_SPECS["general"], a=(1, -2), w=(-3, 2), ell=4)
def test_long_segment_is_sum_of_unit_segments(spec, a, w, ell):
    ev = evaluator_for(spec)
    points = [(a[0] + k * w[0], a[1] + k * w[1]) for k in range(ell + 1)]
    total = Series2.zero(ev.order)
    for p in points[:-1]:
        total = total + _unit_segment(ev.data, p, w)
    for p in points[1:-1]:
        total = total - _point(ev, p)
    assert ev.z_segment(points[0], points[-1]).key() == total.key()


def test_simple_specs_vanish_on_lower_faces():
    for spec in (laplace_spec(), vd_spec(4), vd_spec(6)):
        assert z_polygon(spec, hull_normalize([(3, -1)])).terms() == []
        assert z_polygon(spec, hull_normalize([(0, 0), (2, 3)])).terms() == []


# ---------------------------------------------------------------------------
# g_m and the closed triangle formula


def g_m_direct(m, order):
    """g_m as the direct sum of exp(s*x + t*y) over the lattice points of
    the m-fold unit triangle: the oracle of its closed form."""
    total = Series2.zero(order)
    for s in range(m + 1):
        for t in range(m + 1 - s):
            total = total + exp_linear(s, t, order)
    return total


def test_g_m_values():
    assert g_m(0, 8) == Series2.constant(1, 8)
    g1 = g_m(1, 8)
    assert g1.coeff(0, 0) == 3 and g1.coeff(1, 0) == 1 and g1.coeff(0, 1) == 1
    for m in range(7):
        assert g_m(m, 8).coeff(0, 0) == (m + 1) * (m + 2) // 2
        for order in (4, 8, 14):   # criterion 7 covers order 11
            assert g_m(m, order).key() == g_m_direct(m, order).key(), \
                (m, order)
    with pytest.raises(ValueError):
        g_m(-1, 8)


def test_z_mT_closed_matches_polygon_evaluation():
    for spec in (laplace_spec(), vd_spec(4), vd_spec(6), case3_spec(),
                 odd_spec(1)):
        for m in (1, 2, 3, 4):
            assert z_mT_closed(spec, m) == z_polygon(spec, scale_polygon(T, m))


@settings(max_examples=20)
@given(spec=random_specs(), m=st.integers(1, 4))
def test_z_mT_closed_matches_polygon_on_random_specs(spec, m):
    assert z_mT_closed(spec, m).key() \
        == z_polygon(spec, scale_polygon(T, m)).key()


def test_z_mT_closed_m1_is_zT():
    spec = laplace_spec()
    assert z_mT_closed(spec, 1) == build_triangle_data(spec).zT


# ---------------------------------------------------------------------------
# dilativity


def test_laplace_is_minus_two_dilative():
    rep = check_dilative(laplace_spec(), -2, (2, 3), (T, SQUARE))
    assert rep.holds


@pytest.mark.parametrize("d", [0, 4, 6, 8])
def test_vd_elements_are_d_minus_two_dilative(d):
    for i in range(vspace.vd_basis(d).dim):
        rep = check_dilative(vd_spec(d, i), d - 2, (2, 3), (T, SQUARE))
        assert rep.holds


@pytest.mark.parametrize("delta", [-1, 1, 3])
def test_odd_specs_are_delta_dilative(delta):
    rep = check_dilative(odd_spec(delta), delta, (2, 3), (T, SQUARE))
    assert rep.holds


def test_dilative_violation_reported():
    rep = check_dilative(case3_spec(12, Q(0)), 0, (2,), (T,))
    assert not rep.holds
    (p, q), lhs, rhs = rep.cases[0].first_violation
    assert (p, q) == (0, 0) and lhs == 3 and rhs == Q(3, 2)


def test_calibrate_finds_no_constant_candidate():
    # kappa = 0 fails already at the constant term; kappa = -1 matches all
    # constant terms but picks up a degree-3 defect, so neither constant
    # rho is 0-dilative at full order
    with pytest.raises(NoCandidatePasses) as err:
        calibrate_val0(12)
    assert "kappa = 0" in str(err.value) and "kappa = -1" in str(err.value)


def test_case3_adjudication_constant_order():
    two_t = scale_polygon(T, 2)
    assert z_polygon(case3_spec(12, Q(0)), two_t).coeff(0, 0) == 3
    assert z_polygon(case3_spec(12, Q(-1)), two_t).coeff(0, 0) == 1
    assert z_polygon(case3_spec(12, Q(-1)), T).coeff(0, 0) == 1


def test_zero_dilative_spec_exists_with_corrected_rho():
    # the 0-dilative valuation with c = 1 carries higher even corrections
    # in rho; its truncation to order 12 is found by exact linear algebra
    # and then passes every dilativity instance tried
    def defect(spec, m, P):
        ev = evaluator_for(spec)
        return ev.z_polygon(scale_polygon(P, m)) \
            - ev.z_polygon(P).scale_variables(m)

    d0 = defect(case3_spec(), 2, T)
    cols, basis = [], []
    for d in (4, 6, 8, 10, 12):
        for vec in vspace.vd_basis(d).vectors:
            rho = vspace.from_coefficients(vec, d, 12)
            cols.append(defect(ValuationSpec(0, None, rho, 12), 2, T))
            basis.append(rho)
    exps = sorted({e for c in [d0] + cols for e, _ in c.terms()})
    matrix = [[c.coeff(*e) for c in cols] for e in exps]
    sol = solve(matrix, [-d0.coeff(*e) for e in exps])
    assert sol is not None
    rho_star = Series2.constant(-1, 12)
    for a, rho in zip(sol, basis):
        rho_star = rho_star + rho.scalar_mul(a)
    # first correction coefficient is Bernoulli-flavored
    assert rho_star.coeff(4, 0) == Q(-1, 240)
    spec_star = ValuationSpec(1, cosh_type_g(12), rho_star, 12)
    assert check_dilative(spec_star, 0, (2, 3), (T, SQUARE)).holds


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_homogeneous_rho():
    comps = dilative_decompose(vd_spec(4), kappa=Q(-1))
    assert comps.alpha0 == 0 and not comps.odd
    assert list(comps.even_simple) == [2]
    assert reassemble(comps).rho.eq_up_to(vd_spec(4).rho)


def test_decompose_splits_rho_into_its_degrees_at_its_own_order():
    # rho of order 14 under a spec of order 10: each even part is one
    # degree of rho, at rho's order, over its own denominator
    rho = vspace.vd_basis(4).polynomials(order=14)[0].scalar_mul(Q(1, 7)) \
        + vspace.vd_basis(6).polynomials(order=14)[0].scalar_mul(Q(2, 11))
    comps = dilative_decompose(ValuationSpec(0, None, rho, 10))
    assert list(comps.even_simple) == [2, 4]
    for delta, part in comps.even_simple.items():
        den, rows = part.numerators()
        assert part.order == 14 and len(rows) == delta + 3
        assert not any(map(any, rows[:-1])) and gcd(den, *rows[-1]) == 1
    assert sum(comps.even_simple.values(), Series2.zero(14)) == rho


def deltas(comps):
    """The sorted deltas of the nonzero dilative components."""
    out = set(comps.odd) | set(comps.even_simple)
    if comps.alpha0 != 0:
        out.add(0)
    return sorted(out)


def test_decompose_case3():
    comps = dilative_decompose(case3_spec(), kappa=Q(-1))
    assert comps.alpha0 == 1
    assert not comps.odd and not comps.even_simple
    assert deltas(comps) == [0]


def test_decompose_odd_basis():
    comps = dilative_decompose(odd_spec(1), kappa=Q(-1))
    assert comps.odd == {1: 1}
    assert comps.alpha0 == 0


def test_decompose_reassemble_mixed():
    g = cosh_type_g(12).scalar_mul(Q(3, 2)) \
        + odd_basis_g(-1, 12).scalar_mul(2) + odd_basis_g(3, 12)
    rho = Series2.constant(Q(-3, 2), 12) \
        + vspace.vd_basis(6).polynomials(order=12)[0].scalar_mul(Q(5, 7))
    spec = ValuationSpec(Q(3, 2), g, rho, 12)
    comps = dilative_decompose(spec, kappa=Q(-1))
    assert comps.alpha0 == Q(3, 2)
    assert comps.odd == {-1: 2, 3: 1}
    assert list(comps.even_simple) == [4]
    back = reassemble(comps)
    assert back.c == spec.c
    assert back.g.eq_up_to(spec.g)
    assert back.rho.eq_up_to(spec.rho)


def test_decompose_delta_max_enforced():
    with pytest.raises(DecompositionError):
        dilative_decompose(odd_spec(3), delta_max=1, kappa=Q(-1))
    with pytest.raises(DecompositionError):
        dilative_decompose(vd_spec(6), delta_max=2, kappa=Q(-1))


# ---------------------------------------------------------------------------
# surface formula and g recovery


def test_surface_formula_odd_specs():
    for delta in (-1, 1, 3):
        for P in (T, SQUARE, scale_polygon(T, 2)):
            assert surface_formula_check(odd_spec(delta), P).holds


def test_surface_formula_rejects_points_and_segments():
    for P in (hull_normalize([(1, 2)]), hull_normalize([(0, 0), (2, 1)])):
        with pytest.raises(NotFullDimensional, match=f"^dim {P.dim}$"):
            surface_formula_check(laplace_spec(), P)


def test_surface_formula_fails_for_laplace():
    rep = surface_formula_check(laplace_spec(), SQUARE)
    assert not rep.holds
    (p, q), lhs, rhs = rep.first_violation
    assert (p, q) == (0, 0) and lhs == 1 and rhs == 0


def test_surface_formula_fails_for_case3():
    rep = surface_formula_check(case3_spec(12, Q(0)), scale_polygon(T, 2))
    assert not rep.holds
    assert rep.first_violation[0] == (0, 0)
    assert rep.first_violation[1] == 3 and rep.first_violation[2] == Q(3, 2)


class LawViolation(ValuationError):
    def __init__(self, report):
        super().__init__(f"law {report.law} fails at "
                         f"{violation_text(report.first_violation)}")
        self.report = report


def extract_g(f1: Series2) -> Series2:
    """Recover g from a unit-segment series f1 = g(x^2) * exp(x/2)."""
    for law in ("f1shift", "f1period", "f1neg"):
        report = check_law(law, f1)
        if not report.holds:
            raise LawViolation(report)
    h = mul_exp_linear(f1, Q(-1, 2), 0)
    coeffs = {}
    for (p, q), v in h.terms():
        if q != 0 or p % 2 == 1:
            # y-dependence and odd terms are excluded by the laws; anything
            # surviving here is a genuine inconsistency
            raise LawViolation(check_law("f1neg", f1))
        coeffs[p // 2] = v
    return Series1(coeffs, f1.order // 2)


def test_extract_g_round_trip():
    for g in (cosh_type_g(12), odd_basis_g(1, 12),
              cosh_type_g(12).scalar_mul(2) + odd_basis_g(-1, 12)):
        spec = ValuationSpec(0, g, None, 12)
        data = build_triangle_data(spec)
        assert extract_g(data.f1).eq_up_to(g)


def test_extract_g_examples():
    # f1 = (e^x + 1)/2 recovers the cosh-type series
    f1 = (exp_linear(1, 0, 12) + Series2.constant(1, 12)).scalar_mul(Q(1, 2))
    g = extract_g(f1)
    assert g.coeff(0) == 1 and g.coeff(1) == Q(1, 8) and g.coeff(2) == Q(1, 384)


def test_extract_g_rejects_bad_f1():
    with pytest.raises(LawViolation) as err:
        extract_g(exp_linear(1, 0, 12))
    assert err.value.report.law == "f1shift"


def test_evaluator_caching():
    spec = laplace_spec()
    ev = evaluator_for(spec)
    assert evaluator_for(spec) is ev
    first = ev.z_polygon(SQUARE)
    assert ev.z_polygon(SQUARE) is first


def test_evaluator_face_caches_are_bounded(monkeypatch):
    # points, segments and polygons share one cache of FACES_MAX values
    monkeypatch.setattr(valuation, "FACES_MAX", 4)
    ev = valuation.Evaluator(case3_spec(6))
    first = ev.z_polygon(SQUARE)
    kept = (ev.z_polygon(T), ev.z_segment((0, 0), (2, 1)), ev.z_point((1, -1)))
    others = [(ev.z_polygon, [scale_polygon(T, 2)]),
              (ev.z_segment, [(0, 0), (0, 3)]), (ev.z_point, [(4, 2)]),
              (ev.z_polygon, [scale_polygon(SQUARE, 2)]),
              (ev.z_segment, [(1, 1), (4, 3)]), (ev.z_point, [(0, 0)])]
    for value, args in others:
        assert value(*args) is value(*args)
        # used, so never dropped; a segment is the same either way round
        assert ev.z_polygon(T) is kept[0]
        assert ev.z_segment((2, 1), (0, 0)) is kept[1]
        assert ev.z_point((1, -1)) is kept[2]
        assert ev._value.cache_info().currsize <= 4
    assert ev._value.cache_info().currsize == 4
    # SQUARE went unused longest, so it was dropped and is built anew
    assert ev.z_polygon(SQUARE) is not first
    assert ev.z_polygon(SQUARE) == first


def test_a_dropped_evaluator_is_freed_without_the_collector():
    # its cache of values holds no reference back to it, so reference
    # counting alone frees it
    ev = valuation.Evaluator(laplace_spec(4))
    ev.z_polygon(SQUARE)
    ref = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert ref() is None
    finally:
        gc.enable()


def test_evaluator_registry_is_bounded():
    bound = valuation.EVALUATORS_MAX
    specs = [ValuationSpec(0, None, Series2.constant(k, 2), 2)
             for k in range(1, bound + 6)]
    kept = evaluator_for(specs[0])
    second = evaluator_for(specs[1])
    for spec in specs[2:]:
        ev = evaluator_for(spec)
        assert evaluator_for(spec) is ev
        assert evaluator_for(specs[0]) is kept      # used, so never dropped
        assert evaluator_for.cache_info().currsize <= bound
    assert evaluator_for.cache_info().currsize == bound
    # specs[1] went unused longest, so it was dropped and is built anew
    assert evaluator_for(specs[1]) is not second


SPEC_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "golden", "inputs", "spec_general.json")


def test_equal_specs_share_one_evaluator():
    # the CLI loads a new spec object on every call
    a, b = (io.spec_from_obj(io.load_json(SPEC_FILE)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert evaluator_for(a) is evaluator_for(b)
    # only c differs, or only the order to which rho is known
    other_c = ValuationSpec(a.c + 1, a.g, a.rho, a.order)
    other_rho = ValuationSpec(a.c, a.g, a.rho.truncate(a.order - 1), a.order)
    for spec in (other_c, other_rho):
        assert spec != a
        assert evaluator_for(spec) is not evaluator_for(a)
        assert evaluator_for(spec).spec == spec


def test_caches_shared_by_threads(monkeypatch):
    # small bounds, eight keys each, more threads than cores, switching
    # often: a hit racing an eviction must neither raise nor return another
    # value, in vspace's degree cache, the evaluators and an evaluator's
    # values
    monkeypatch.setattr(vspace, "_degree",
                        lru_cache(3)(vspace._degree.__wrapped__))
    monkeypatch.setattr(valuation, "evaluator_for",
                        lru_cache(3)(valuation.evaluator_for.__wrapped__))
    monkeypatch.setattr(valuation, "FACES_MAX", 3)
    specs = [ValuationSpec(k, None, Series2.constant(1, 3), 3)
             for k in range(8)]
    ev = valuation.Evaluator(case3_spec(4))
    polygons = [scale_polygon(T, k + 1) for k in range(4)] + [
        hull_normalize([(0, 0), (k, 1)]) for k in range(4)]
    bases = [vspace.vd_basis(d) for d in range(8)]
    values = [valuation.Evaluator(ev.spec).z_polygon(P).key()
              for P in polygons]
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(100):
                k = rng.randrange(8)
                assert vspace.vd_basis(k) == bases[k]
                assert valuation.evaluator_for(specs[k]).spec.key() \
                    == specs[k].key()
                assert ev.z_polygon(polygons[k]).key() == values[k]
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for cache in (vspace._degree, valuation.evaluator_for, ev._value):
        assert cache.cache_info().currsize == 3


# ---------------------------------------------------------------------------
# oracles that triangulate nothing


@st.composite
def far_hulls(draw):
    """The hull of 3 to 6 points of [-5, 5]^2, each coordinate moved by 0,
    10^6 or 10^12 with either sign."""
    point = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    shift = [draw(st.sampled_from((0, 10**6, 10**12)))
             * draw(st.sampled_from((1, -1))) for _ in range(2)]
    return hull_normalize([(x + shift[0], y + shift[1]) for x, y in
                           draw(st.lists(point, min_size=3, max_size=6))])


# f2 = 0 and zT = 1 + e^x + e^y: the value is the lattice point sum
LATTICE_POINT_SPEC = ValuationSpec(1, cosh_type_g(11).scalar_mul(2),
                                   Series2.zero(11), 11)


@settings(max_examples=60)
@given(P=far_hulls())
@example(P=hull_normalize([(10**12, -10**12), (10**12 + 5, -10**12 + 2),
                           (10**12 - 3, -10**12 + 4)]))
def test_z_polygon_is_the_lattice_point_sum(P):
    value = z_polygon(LATTICE_POINT_SPEC, P)
    assert dict(value.terms()) == lattice_point_sum(P, value.order)


@settings(max_examples=60)
@given(spec=random_specs(), P=far_hulls())
def test_constant_term_is_betke_kneser(spec, P):
    ev = evaluator_for(spec)
    a = ev.z_point((0, 0)).coeff(0, 0)
    s = ev.z_segment((0, 0), (1, 0)).coeff(0, 0) - a
    t = ev.z_polygon(T).coeff(0, 0) - a - Q(3, 2) * s
    assert ev.z_polygon(P).coeff(0, 0) == betke_kneser_constant(P, a, s, t)


# f1 = E(x): the value is half the boundary Laplace transform
HALF_BOUNDARY_SPEC = ValuationSpec(0, odd_basis_g(-1, 9).scalar_mul(2),
                                   None, 9)


@settings(max_examples=40)
@given(P=far_hulls())
@example(P=hull_normalize([(1, 1)]))
@example(P=hull_normalize([(0, 0), (3, 6)]))
def test_z_polygon_is_half_the_boundary_transform(P):
    value = z_polygon(HALF_BOUNDARY_SPEC, P)
    assert dict(value.terms()) == half_boundary_transform(P, value.order)


QUAD = hull_normalize([(0, 0), (3, 1), (1, 2)])
small_hulls = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       min_size=1, max_size=4).map(hull_normalize)


def dilate_samples(spec, P):
    """(ev, values, samples): the evaluator of spec, Z(mP) for
    m = 0..spec.order + 4, Z(0P) being the value of a point at the origin,
    and for each (p, q) the coefficients of x^p y^q at m = 0..p + q + 2,
    from which interpolate reads that coefficient as a polynomial in m."""
    ev = evaluator_for(spec)
    values = [ev.z_point((0, 0))] + [z_polygon(spec, scale_polygon(P, m))
                                     for m in range(1, spec.order + 5)]
    samples = {(p, k - p): [v.coeff(p, k - p) for v in values[:k + 3]]
               for k in range(ev.order + 1) for p in range(k + 1)}
    return ev, values, samples


@settings(max_examples=10)
@given(spec=random_specs(max_order=4), P=small_hulls)
@example(spec=ValuationSpec(0, None, Series2.constant(-1, 9), 9), P=QUAD)
@example(spec=ValuationSpec(1, cosh_type_g(9), Series2.constant(-1, 9)
                            + vd_spec(4, order=9).rho, 9), P=QUAD)
@example(spec=ValuationSpec(Q(2, 3), odd_basis_g(1, 9) + odd_basis_g(3, 9),
                            vd_spec(4, order=9).rho.scalar_mul(5), 9),
         P=QUAD)
def test_dilates_are_polynomial_in_m(spec, P):
    # each degree k is interpolated from m = 0..k + 2 and checked up to
    # m = spec.order + 4
    _, values, samples = dilate_samples(spec, P)
    for (p, q), ys in samples.items():
        for m in range(p + q + 3, len(values)):
            assert values[m].coeff(p, q) == interpolate(ys, m)


@settings(max_examples=10)
@given(spec=random_specs(max_order=4),
       P=small_hulls.filter(lambda P: P.dim > 0))
@example(spec=ValuationSpec(1, cosh_type_g(9), Series2.constant(-1, 9)
                            + vd_spec(4, order=9).rho, 9), P=QUAD)
@example(spec=ValuationSpec(Q(2, 3), odd_basis_g(1, 9) + odd_basis_g(3, 9),
                            vd_spec(4, order=9).rho.scalar_mul(5), 9),
         P=hull_normalize([(1, 2), (4, 3)]))
@example(spec=ValuationSpec(Q(-1, 2), odd_basis_g(-1, 8), None, 8),
         P=hull_normalize([(0, 0), (2, 4)]))
def test_interior_of_a_dilate_is_the_dilate_at_minus_m(spec, P):
    # Ehrhart-Macdonald reciprocity: the interior of mP, e = dim P, has
    # the coefficient (-1)^(e + p + q) F(-m) of x^p y^q, where F(m) is
    # that coefficient of Z(mP) as a polynomial in m
    ev, _, samples = dilate_samples(spec, P)
    for m in (1, 2):
        interior = interior_value(ev, scale_polygon(P, m))
        for (p, q), ys in samples.items():
            assert interior.coeff(p, q) \
                == (-1) ** (P.dim + p + q) * interpolate(ys, -m)
