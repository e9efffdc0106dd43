"""Acceptance suite: ten end-to-end criteria, all in exact rational
arithmetic, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import random
from fractions import Fraction as Q
from math import factorial

from latval import laplace, laws, vspace
from latval.geometry import (chord_of_split, hull_normalize, scale_polygon,
                             split_pairs)
from latval.group import (AffineUnimodular, act_on_polygon, act_on_series,
                          d4_elements, det)
from latval.laws import check_law, dagger, sharp, to_st
from latval.series import Series2
from latval.valuation import (UNIT_SQUARE, UNIT_TRIANGLE,
                              ValuationSpec, calibrate_val0, check_dilative,
                              cosh_type_g, dilative_decompose, evaluator_for,
                              g_m, odd_basis_g, z_mT_closed, z_polygon)
from oracles import reassemble, surface_formula_check
from test_laws import equivalence_suite_f2, equivalence_suite_rho
from test_valuation import g_m_direct

T = UNIT_TRIANGLE
SQUARE = UNIT_SQUARE

CORPUS = [
    T, scale_polygon(T, 2), scale_polygon(T, 3), SQUARE,
    scale_polygon(SQUARE, 2),
    hull_normalize([(0, 0), (2, 0), (1, 1), (0, 1)]),       # trapezoid
    hull_normalize([(0, 0), (3, 0), (1, 2), (0, 2)]),       # trapezoid
    hull_normalize([(0, 0), (2, 1), (3, 3), (1, 3), (-1, 1)]),
    hull_normalize([(0, 0), (4, 1), (2, 3)]),
    hull_normalize([(1, 1), (3, 2), (2, 4)]),
]


def make_specs():
    order = 12
    specs = [ValuationSpec(0, None, Series2.constant(1, order), order)]
    for d in (4, 6):
        rho = vspace.from_coefficients(vspace.vd_basis(d).vectors[0], d, order)
        specs.append(ValuationSpec(0, None, rho, order))
    specs.append(ValuationSpec(0, odd_basis_g(1, order), None, order))
    specs.append(ValuationSpec(1, cosh_type_g(order),
                               Series2.constant(-1, order), order))
    return specs


SPECS = make_specs()


def report(n, description):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {n}: {description}")
                raise
            print(f"PASS criterion {n}: {description}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@report(1, "dimension table matches the closed form for d <= 30")
def test_criterion_01_dimension_table():
    expected_even = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3]
    table = vspace.dims_table(30)
    for d, computed, predicted in table:
        assert computed == predicted, f"d = {d}"
        if d % 2 == 0:
            assert computed == expected_even[d // 2], f"d = {d}"
        else:
            assert computed == 0, f"d = {d}"


@report(2, "engine equals the Laplace moment oracle on 10 polygons, order 11")
def test_criterion_02_laplace_cross_oracle():
    spec = SPECS[0]
    assert len(CORPUS) >= 10
    for P in CORPUS:
        lhs = z_polygon(spec, P)
        assert lhs.order == 11
        assert lhs == laplace.laplace_plus(P, 11), list(P.vertices)
    zT = z_polygon(spec, T)
    for (p, q), v in zT.terms():
        assert v == Q(1, factorial(p + q + 2))


@report(3, "valuation axiom holds on 40 split pairs x 5 specs, order 11")
def test_criterion_03_valuation_axiom():
    pairs = []
    for P in CORPUS:
        try:
            found = split_pairs(P, 8)
        except Exception:
            continue
        pairs.extend((P, P1, P2) for P1, P2 in found)
    assert len(pairs) >= 40
    assert len(SPECS) >= 5
    for spec in SPECS:
        ev = evaluator_for(spec)
        for P, P1, P2 in pairs:
            chord = chord_of_split(P1, P2)
            whole = ev.z_polygon(P)
            parts = ev.z_polygon(P1) + ev.z_polygon(P2) \
                - ev.z_segment(*chord.vertices)
            assert whole.first_difference(parts) is None, list(P.vertices)


@report(4, "equivariance under 20 random affine unimodular maps per spec")
def test_criterion_04_equivariance():
    rng = random.Random(23)
    xis = []
    while len(xis) < 20:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2))
                  for _ in range(2))
        if abs(det(m)) == 1:
            xis.append(AffineUnimodular(m, (rng.randint(-3, 3),
                                            rng.randint(-3, 3))))
    for spec in SPECS:
        ev = evaluator_for(spec)
        base = {P: ev.z_polygon(P) for P in (T, SQUARE)}
        for xi in xis:
            for P in (T, SQUARE):
                lhs = ev.z_polygon(act_on_polygon(xi, P))
                rhs = act_on_series(xi, base[P])
                assert lhs == rhs


@report(5, "sharp and dagger invert each other on 50 random series")
def test_criterion_05_transform_round_trips():
    rng = random.Random(29)

    def rand(order, even):
        c = {}
        for p in range(order + 1):
            for q in range(order + 1 - p):
                if even and (p + q) % 2 == 1:
                    continue
                if rng.random() < 0.35:
                    c[(p, q)] = Q(rng.randint(-6, 6), rng.randint(1, 5))
        return Series2(c, order)

    for i in range(50):
        order = 8 + i % 3
        f = rand(order, even=False)
        assert dagger(sharp(f)).eq_up_to(f)
        rho = rand(order, even=True)
        assert sharp(dagger(rho)).eq_up_to(rho)


@report(6, "laws and law equivalences hold on all solution basis elements")
def test_criterion_06_law_equivalences():
    for d in range(0, 13):
        for rho in vspace.vd_basis(d).polynomials(order=12):
            f = dagger(rho)
            for law in ("A", "B", "C"):
                assert check_law(law, f).holds, (d, law)
            assert equivalence_suite_rho(rho).all_confirmed, d
            assert equivalence_suite_f2(f).all_confirmed, d


@report(7, "basis elements are (d-2)-dilative; closed forms agree")
def test_criterion_07_dilativity():
    for d in (0, 4, 6, 8, 12):
        for i in range(vspace.vd_basis(d).dim):
            rho = vspace.from_coefficients(vspace.vd_basis(d).vectors[i],
                                           d, 12)
            spec = ValuationSpec(0, None, rho, 12)
            assert check_dilative(spec, d - 2, (2, 3), (T, SQUARE)).holds, d
            for m in (1, 2, 3, 4):
                assert z_mT_closed(spec, m) \
                    == z_polygon(spec, scale_polygon(T, m)), (d, m)
    for m in range(7):
        assert g_m(m, 11).key() == g_m_direct(m, 11).key(), m


@report(8, "odd-family specs are delta-dilative and satisfy the edge formula")
def test_criterion_08_odd_dilativity():
    for delta in (-1, 1, 3):
        spec = ValuationSpec(0, odd_basis_g(delta, 12), None, 12)
        ev = evaluator_for(spec)
        for m in (2, 3):
            for a, b in [((0, 0), (1, 0)), ((0, 0), (2, 3)), ((1, 1), (3, 2))]:
                ma = (m * a[0], m * a[1])
                mb = (m * b[0], m * b[1])
                lhs = ev.z_segment(ma, mb)
                rhs = ev.z_segment(a, b).scale_variables(m) \
                    .scalar_mul(Q(m) ** (-delta))
                assert lhs == rhs, (delta, m)
        assert check_dilative(spec, delta, (2, 3), (T, SQUARE)).holds, delta
        for P in (T, SQUARE, scale_polygon(T, 2), CORPUS[5]):
            assert surface_formula_check(spec, P).holds, (delta,
                                                          list(P.vertices))


@report(9, "case-3 adjudication: a unique constant kappa is 0-dilative")
def test_criterion_09_case3_adjudication():
    two_t = scale_polygon(T, 2)
    # the candidate kappa = 0 fails at the constant coefficient on 2T
    z0 = z_polygon(ValuationSpec(1, cosh_type_g(12),
                                 Series2.constant(0, 12), 12), two_t)
    assert z0.coeff(0, 0) == 3 and Q(3, 2) != 3
    # the desk-predicted kappa = -1 matches at the constant coefficient
    z1 = z_polygon(ValuationSpec(1, cosh_type_g(12),
                                 Series2.constant(-1, 12), 12), two_t)
    assert z1.coeff(0, 0) == 1 == z_polygon(
        ValuationSpec(1, cosh_type_g(12), Series2.constant(-1, 12), 12),
        T).coeff(0, 0)
    # decomposition reassembles every test spec exactly
    for spec in SPECS:
        comps = dilative_decompose(spec, kappa=Q(-1))
        back = reassemble(comps)
        assert back.c == spec.c
        assert back.g.eq_up_to(spec.g)
        assert back.rho.eq_up_to(spec.rho)
    # the adjudication itself: at order 11 no constant rho candidate is
    # 0-dilative (kappa = -1 develops a degree-3 defect), so this final
    # requirement is unattainable; the failure below is the recorded finding
    kappa = calibrate_val0(11)
    assert kappa in (Q(0), Q(-1))
    spec = ValuationSpec(1, cosh_type_g(11), Series2.constant(kappa, 11), 11)
    assert check_dilative(spec, 0, (2, 3), (T,)).holds
    assert check_dilative(spec, 0, (2,), (SQUARE,)).holds


@report(10, "dihedral suite: group, invariants, decomposition, st-picture")
def test_criterion_10_d4_suite():
    elems = d4_elements()
    assert len(elems) == 8
    g1 = Series2({(2, 0): 2, (1, 1): 2, (0, 2): 1}, 12)
    g2 = Series2({(2, 2): 4, (1, 3): 4, (0, 4): 1}, 12)
    for m in elems:
        xi = AffineUnimodular.linear(m)
        assert act_on_series(xi, g1) == g1
        assert act_on_series(xi, g2) == g2
    rng = random.Random(31)
    for _ in range(6):
        f = Series2({(p, q): Q(rng.randint(-4, 4), rng.randint(1, 3))
                     for p in range(13) for q in range(13 - p)
                     if rng.random() < 0.3}, 12)
        avg = Series2.zero(12)
        for m in elems:
            avg = avg + act_on_series(AffineUnimodular.linear(m), f)
        assert laws.d4_compose(laws.d4_decompose(avg), 12).eq_up_to(avg)
    for d in range(0, 13):
        for rho in vspace.vd_basis(d).polynomials():
            assert check_law("Adoubleprime", to_st(rho)).holds, d
