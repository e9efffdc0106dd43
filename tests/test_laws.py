"""Tests for the transforms, the law checks, and the invariant-ring
decomposition."""

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden_cases import HOLDS_ON, VIOLATED_ON
from golden_cases import _input as golden_input
from latval import io, laws, linalg, series, vspace
from latval.group import (D4_GENERATORS, GL2Z_GENERATORS, AffineUnimodular,
                          act_on_series, d4_elements)
from latval.laws import (D4_LAWS, LAW_IDS, LawReport, NotInvariant,
                         check_law, d4_compose, d4_decompose, dagger, diamond,
                         from_st, law_sides, sharp, to_st)
from latval.series import (NotDivisible, Series2, divide_linear, exp_linear,
                           mul_exp_linear, special_series)
from oracles import (d4_compose_by_powers, d4_decompose_by_solve,
                     invariant_generators, law_report_by_series)
from test_group import dense_series2s, series2s


def random_series(rng, order=8, even=False):
    c = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            if even and (p + q) % 2 == 1:
                continue
            if rng.random() < 0.35:
                c[(p, q)] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return Series2(c, order)


def basis_polynomial(d, order=12, index=0):
    return vspace.from_coefficients(vspace.vd_basis(d).vectors[index], d, order)


# ---------------------------------------------------------------------------
# transforms


def test_dagger_of_constant_one():
    f = dagger(Series2.constant(1, 10))
    for (p, q), v in f.terms():
        assert v == Q(1, factorial(p + q + 2))
    assert f.coeff(0, 0) == Q(1, 2)
    assert f.coeff(3, 4) == Q(1, factorial(9))


def test_dagger_loses_one_order():
    assert dagger(Series2.constant(1, 10)).order == 9


def test_dagger_undefined_on_odd_series():
    with pytest.raises(NotDivisible):
        dagger(Series2.monomial(1, 1, 0, 8))


def test_sharp_preserves_order():
    assert sharp(Series2.constant(1, 9)).order == 9


def test_sharp_inverts_dagger_on_constant():
    rho = Series2.constant(1, 10)
    assert sharp(dagger(rho)) == rho


def test_round_trip_dagger_sharp():
    rng = random.Random(5)
    for _ in range(15):
        f = random_series(rng)
        assert dagger(sharp(f)).eq_up_to(f)


def test_round_trip_sharp_dagger_on_even():
    rng = random.Random(6)
    for _ in range(15):
        rho = random_series(rng, even=True)
        assert sharp(dagger(rho)).eq_up_to(rho)


def test_diamond_equals_dagger_on_solutions():
    for d in (0, 4, 6):
        rho = basis_polynomial(d)
        assert diamond(rho).eq_up_to(dagger(rho))


def test_st_change_of_variables_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        rho = random_series(rng)
        assert from_st(to_st(rho)).eq_up_to(rho)
        sigma = random_series(rng)
        assert to_st(from_st(sigma)).eq_up_to(sigma)


def sharp_by_formula(f):
    """f-sharp as the module docstring writes it: B(x) * B(x + y) times
    f(x, x + y) + e^x f(y, x + y), in products and substitutions."""
    bern = special_series("t_over_expm1", f.order)
    bracket = f.subst_linear((1, 0), (1, 1)) \
        + mul_exp_linear(f.subst_linear((0, 1), (1, 1)), 1, 0)
    return bern * bern.subst_linear((1, 1), (0, 0)) * bracket


def dagger_by_formula(rho):
    dde = special_series("divided_diff_exp", rho.order)
    e1x = special_series("expm1_over_t", rho.order)
    return divide_linear(dde * rho.subst_linear((-1, 1), (1, 0))
                         - e1x * rho.subst_linear((1, 0), (-1, 1)), 0, 1)


def diamond_by_formula(rho):
    e1x = special_series("expm1_over_t", rho.order)
    e1y = e1x.subst_linear((0, 1), (1, 0))
    return divide_linear(e1x * rho.subst_linear((1, 0), (0, -1))
                         - e1y * rho.subst_linear((0, 1), (-1, 0)), 1, -1)


def outcome(transform, f):
    """The key of transform(f), or the type and text of what it raises."""
    try:
        return transform(f).key()
    except (NotDivisible, NotInvariant, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=40)
@given(st.one_of(series2s(max_order=20), dense_series2s(max_order=20)))
@example(Series2.constant(1, 0))
@example(Series2.monomial(1, 1, 0, 20))
def test_transforms_equal_their_product_and_substitution_formulas(f):
    # f itself mostly has odd parts, on which dagger and diamond refuse;
    # f + f(-x, -y) is even
    assert sharp(f).key() == sharp_by_formula(f).key()
    for rho in (f, f + f.subst_linear((-1, 0), (0, -1))):
        assert outcome(dagger, rho) == outcome(dagger_by_formula, rho)
        assert outcome(diamond, rho) == outcome(diamond_by_formula, rho)


def counting(monkeypatch, module, name):
    """Count the calls of module.name from here on: calls[0]."""
    calls = [0]
    kernel = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_transforms_take_one_pass_of_each_kernel(monkeypatch):
    # sharp: one substitution, one image pass and one product; dagger and
    # diamond: one sum of products for the bracket
    f = random_series(random.Random(10), order=12, even=True)
    products = counting(monkeypatch, series, "sum_of_products")
    laws_products = counting(monkeypatch, laws, "sum_of_products")
    images = counting(monkeypatch, laws, "sum_of_images")
    substs = counting(monkeypatch, Series2, "subst_linear")
    sharp(f)
    assert (substs[0], images[0], products[0] + laws_products[0]) == (1, 1, 1)
    for transform in (dagger, diamond):
        products[0] = laws_products[0] = 0
        transform(f)
        assert (products[0], laws_products[0]) == (0, 1)


def dense_three_digit(rng, n):
    """A dense series of order n whose coefficients are _rational."""
    return Series2({(p, d - p): _rational(rng) or 1 for d in range(n + 1)
                    for p in range(d + 1)}, n)


@pytest.mark.parametrize("law", ["E", "A"])
def test_a_violated_law_computes_nothing_above_its_first_difference(
        monkeypatch, law):
    # a dense order-40 series of three-digit coefficients violates E (a
    # graded law) and A (a twisted one) at degree 1: the check packs and
    # substitutes no row above it, and reports what the series route does
    f = dense_three_digit(random.Random(40), 40)
    degrees = []
    for name in ("_horner", "_pack"):
        kernel = getattr(series, name)

        def recorded(row, *args, kernel=kernel):
            degrees.append(len(row) - 1)
            return kernel(row, *args)
        monkeypatch.setattr(series, name, recorded)
    report = check_law(law, f)
    (p, q), _, _ = report.first_violation
    assert p + q <= 2 and degrees and max(degrees) <= p + q
    assert report == law_report_by_series(law, f)


def test_graded_law_width_follows_the_degrees_own_denominators(
        monkeypatch):
    # a valid rho of order 40 whose degree d is over a prime of its own:
    # their lcm, rho's denominator, has 239 bits, each degree's own
    # denominator at most 60; E keeps every degree, so both sides are
    # packed at the width that the widest degree's numerators over their
    # own denominator set (over the lcm they took 344 bits)
    primes = iter([101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
                   157, 163, 167, 173, 179, 181, 191, 193, 197, 199])
    rho = Series2.zero(40)
    for d in range(0, 41, 2):
        p = next(primes)
        for v in vspace.vd_basis(d).vectors:
            rho = rho + vspace.from_coefficients(v, d, 40).scalar_mul(Q(1, p))
    den, rows = rho.numerators()
    own = [max(map(abs, row)) // gcd(den, *row) for row in rows]
    widths = []
    for name in ("_packed_degrees", "_substitute"):
        kernel = getattr(laws, name)

        def recorded(rows, *args, kernel=kernel):
            widths.append(args[-1])
            return kernel(rows, *args)
        monkeypatch.setattr(laws, name, recorded)
    assert check_law("E", rho).holds
    # a numerator of degree d over its own denominator is below
    # 2^bits(num), and E's substitution by x, -2x - y grows it by at most
    # (d + 1) 3^d
    need = max(own).bit_length() + (41 * 3 ** 40).bit_length() + 2
    assert len(set(widths)) == 1 and widths[0] <= need < den.bit_length()


def test_to_st_sends_solutions_to_Adoubleprime():
    for d in (0, 4, 6, 8, 12):
        for i in range(vspace.vd_basis(d).dim):
            sigma = to_st(basis_polynomial(d, index=i))
            assert check_law("Adoubleprime", sigma).holds


# ---------------------------------------------------------------------------
# law checks


def test_law_ids_complete():
    assert set(LAW_IDS) == {
        "A", "B", "C", "f2simple2", "f23up", "Aprime", "Bprime", "Cprime",
        "D", "E", "rhoformula", "rho_sym1", "rho_sym2", "rho_sym3",
        "Adoubleprime", "f1shift", "f1period", "f1neg", "f0gl2z"}


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        check_law("nonsense", Series2.constant(1, 6))


@pytest.mark.parametrize("law", ["Aprime", "Bprime", "Cprime", "D", "E",
                                 "rhoformula", "rho_sym1", "rho_sym2",
                                 "rho_sym3"])
def test_rho_laws_on_constant(law):
    assert check_law(law, Series2.constant(1, 10)).holds


@pytest.mark.parametrize("d", [0, 4, 6, 8, 12])
def test_rho_laws_on_basis_elements(d):
    for i in range(vspace.vd_basis(d).dim):
        rho = basis_polynomial(d, index=i)
        for law in ("Aprime", "Bprime", "Cprime", "D", "E", "rhoformula",
                    "rho_sym1", "rho_sym2", "rho_sym3"):
            assert check_law(law, rho).holds, (d, law)


@pytest.mark.parametrize("d", [0, 4, 6, 8, 12])
def test_f2_laws_on_dagger_images(d):
    for i in range(vspace.vd_basis(d).dim):
        f = dagger(basis_polynomial(d, index=i))
        for law in ("A", "B", "C", "f2simple2", "f23up"):
            assert check_law(law, f).holds, (d, law)


def test_violation_reported_with_witness():
    report = check_law("D", Series2.monomial(1, 1, 0, 6))
    assert not report.holds
    (p, q), lhs, rhs = report.first_violation
    assert (p, q) == (1, 0) and lhs == -1 and rhs == 1
    assert report.as_dict()["first_violation"]["exponent"] == [1, 0]


def test_law_e_detects_violation():
    assert not check_law("E", Series2.monomial(1, 0, 1, 8)).holds


def test_f1_laws():
    f1 = (exp_linear(1, 0, 10) + Series2.constant(1, 10)).scalar_mul(Q(1, 2))
    for law in ("f1shift", "f1period", "f1neg"):
        assert check_law(law, f1).holds
    assert not check_law("f1shift", exp_linear(1, 0, 10)).holds


def test_f0_gl2z():
    assert check_law("f0gl2z", Series2.constant(3, 8)).holds
    assert not check_law("f0gl2z", Series2.monomial(1, 2, 0, 8)).holds


def test_rhoformula_follows_from_solution_space():
    # rhoformula is the defining equation; every solver output satisfies it
    for d in (4, 6):
        assert check_law("rhoformula", basis_polynomial(d)).holds


# ---------------------------------------------------------------------------
# equivalence suites: the implications between the laws, checked on one
# series at a time by check_law (criterion 6 uses them too)


@dataclass(frozen=True)
class Implication:
    name: str
    applicable: bool
    confirmed: bool


@dataclass(frozen=True)
class EquivalenceReport:
    implications: tuple[Implication, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(i.confirmed for i in self.implications if i.applicable)


def equivalence_suite_rho(rho: Series2) -> EquivalenceReport:
    """Instance-level checks of the claimed implications for a parameter
    series: (A') alone forces the three symmetry laws; (A') + (E) force
    (B'), (C'), (D); under (B') and rho_sym2, dagger and diamond agree."""
    holds = {law: check_law(law, rho).holds
             for law in ("Aprime", "Bprime", "Cprime", "D", "E",
                         "rho_sym1", "rho_sym2", "rho_sym3")}
    imps = []
    a = holds["Aprime"]
    imps.append(Implication("Aprime => rho_sym1..3", a,
                            (not a) or (holds["rho_sym1"] and holds["rho_sym2"]
                                        and holds["rho_sym3"])))
    ae = a and holds["E"]
    imps.append(Implication("Aprime & E => Bprime, Cprime, D", ae,
                            (not ae) or (holds["Bprime"] and holds["Cprime"]
                                         and holds["D"])))
    if holds["Bprime"] and holds["rho_sym2"] and holds["D"]:
        same = dagger(rho).eq_up_to(diamond(rho))
        imps.append(Implication("Bprime & rho_sym2 => dagger = diamond", True, same))
    else:
        imps.append(Implication("Bprime & rho_sym2 => dagger = diamond", False, True))
    return EquivalenceReport(tuple(imps))


def equivalence_suite_f2(f2: Series2) -> EquivalenceReport:
    """Given the symmetry laws (B) and (C), the two forms of the third
    simple-valuation law are equivalent on the instance."""
    holds = {law: check_law(law, f2).holds
             for law in ("B", "C", "f2simple2", "f23up")}
    bc = holds["B"] and holds["C"]
    imps = (Implication("B & C => (f2simple2 <=> f23up)", bc,
                        (not bc) or (holds["f2simple2"] == holds["f23up"])),)
    return EquivalenceReport(imps)


def test_equivalence_suite_rho_on_solutions():
    for d in (0, 4, 6):
        rep = equivalence_suite_rho(basis_polynomial(d))
        assert rep.all_confirmed
        assert any(i.applicable for i in rep.implications)


def test_equivalence_suite_rho_vacuous_on_non_solution():
    rep = equivalence_suite_rho(Series2.monomial(1, 2, 0, 8))
    assert rep.all_confirmed   # implications with false antecedents hold


def test_equivalence_suite_f2():
    rep = equivalence_suite_f2(dagger(basis_polynomial(4)))
    assert rep.all_confirmed


# ---------------------------------------------------------------------------
# invariant ring


def test_invariant_generators_are_d4_invariant():
    for gen in invariant_generators(10):
        assert all(check_law(law, gen).holds for law in D4_LAWS)


@settings(max_examples=25)
@given(st.one_of(series2s(), dense_series2s()))
@example(Series2.monomial(1, 0, 1, 4))
def test_d4_generators_act_as_the_substitutions_of_their_laws(f):
    # D4_LAWS checks D4 invariance: the generator acting on f is the
    # substituted side of its law, rho_sym3's right side and E's left side
    assert D4_LAWS == ("rho_sym3", "E")
    sym3, e = (act_on_series(AffineUnimodular.linear(g), f)
               for g in D4_GENERATORS)
    [(_, sym3_side)] = law_sides("rho_sym3", f)
    [(e_side, _)] = law_sides("E", f)
    assert sym3.key() == sym3_side.key()
    assert e.key() == e_side.key()


def f0gl2z_by_the_action(f):
    """The f0gl2z report with each generator of GL(2, Z) acting on f by
    act_on_series: the first that moves f gives the violation."""
    for g in GL2Z_GENERATORS:
        diff = act_on_series(AffineUnimodular.linear(g), f).first_difference(f)
        if diff is not None:
            return LawReport("f0gl2z", False, f.order, diff)
    return LawReport("f0gl2z", True, f.order, None)


@settings(max_examples=60)
@given(st.one_of(series2s(), dense_series2s()))
# on x, the generators transposed give the same report; on y they do not
@example(Series2.monomial(1, 1, 0, 6))
@example(Series2.monomial(1, 0, 1, 6))
def test_f0gl2z_equals_the_report_through_the_action(f):
    assert check_law("f0gl2z", f) == f0gl2z_by_the_action(f)


@pytest.mark.parametrize("law", LAW_IDS)
def test_every_law_is_written_out_by_law_sides(law):
    # one equation per law, and one per generator of GL(2, Z) for f0gl2z;
    # check_law gives the report of those equations on the golden input
    # on which the law holds, on the one on which it fails, and on a
    # random series
    holds_on, violated_on = HOLDS_ON[law], VIOLATED_ON.get(law, "x")
    inputs = [io.series2_from_obj(io.load_json(golden_input(name)))
              for name in (holds_on, violated_on)]
    inputs.append(random_series(random.Random(law)))
    for f in inputs:
        assert len(law_sides(law, f)) \
            == (len(GL2Z_GENERATORS) if law == "f0gl2z" else 1)
        assert check_law(law, f) == law_report_by_series(law, f)
    assert [check_law(law, f).holds for f in inputs[:2]] == [True, False]


def _rational(rng):
    """A rational of up to three digits above and below."""
    return Q(rng.randint(-999, 999), rng.randint(1, 999))


def law_family(kind, n, rng):
    """A series of order n of the family on which HOLDS_ON says a law
    holds: a solution rho (a combination of the bases of V_d, each degree
    times its own rational, so that the degrees' denominators are
    unrelated), its dagger f2, its (s, t) image sigma, an
    f1 = g(x^2) e^(x/2), or a constant."""
    if kind == "const":
        return Series2.constant(_rational(rng), n)
    if kind == "f1":
        g = series.Series1({2 * i: _rational(rng) for i in range(n // 2 + 1)},
                           n)
        return g * exp_linear(Q(1, 2), 0, n)
    top = n + 1 if kind == "f2" else n
    rho = Series2.zero(top)
    for d in range(0, top + 1, 2):
        for v in vspace.vd_basis(d).vectors:
            rho = rho + vspace.from_coefficients(v, d, top).scalar_mul(
                _rational(rng))
    rho = scaled_degrees(rho, rng)
    return {"rho": rho, "f2": dagger(rho) if top else rho,
            "sigma": to_st(rho)}[kind]


def scaled_degrees(f, rng):
    """f with each degree times its own nonzero three-digit rational."""
    scale = [_rational(rng) or 1 for _ in range(f.order + 1)]
    return Series2({(p, q): v * scale[p + q] for (p, q), v in f.terms()},
                   f.order)


@st.composite
def law_inputs(draw, law):
    """A series of order 0-40 with numerators and denominators of up to
    three digits: dense, in x alone, in y alone, sparse, of the family on
    which the law holds, or of that family with one term changed, half of
    the time one of the top degree.  Half of those that are not of the
    family have each degree times its own three-digit rational, so that
    the degrees carry unrelated denominators, as the family's rho does."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["dense", "x", "y", "sparse", "holds",
                                 "changed"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind in ("holds", "changed"):
        f = law_family(HOLDS_ON.get(law, "rho"), n, rng)
        if kind == "changed":   # often at the top degree
            d = rng.choice([n, rng.randint(0, n)])
            p = rng.randint(0, d)
            f = f + Series2.monomial(_rational(rng) or 1, p, d - p, n)
        return f
    keep = {"dense": lambda p, d: True, "x": lambda p, d: p == d,
            "y": lambda p, d: p == 0,
            "sparse": lambda p, d: rng.random() < 0.2}[kind]
    f = Series2({(p, d - p): _rational(rng) for d in range(n + 1)
                 for p in range(d + 1) if keep(p, d)}, n)
    return scaled_degrees(f, rng) if draw(st.booleans()) else f


def law_outcome(report, law, f):
    """The report of law on f, or the type and text of what it raises."""
    try:
        return report(law, f)
    except Exception as exc:   # whatever the route raises must match
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("law", LAW_IDS + ("no such law",))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_law_equals_the_series_route(law, data):
    # check_law on packed tables against law_sides on the Series2 and
    # first_difference: the same report, or the same error
    f = data.draw(law_inputs(law))
    assert law_outcome(check_law, law, f) \
        == law_outcome(law_report_by_series, law, f)


def table_series(t):
    """The series that the _Table t stands for, read back whole at the
    width of its bounds, degree d over its own denominator."""
    k = max(t.bounds).bit_length() + 2
    rows = series._unpack(t.pack(k), k)
    return Series2({(p, d - p): Q(s, t.dens[d])
                    for d, row in enumerate(rows) for p, s in enumerate(row)
                    if s}, len(t.dens) - 1)


@pytest.mark.parametrize("build", [
    lambda f: laws._mul_exp(f.subst_linear((1, 2), (0, -1)), 1, -1)
    .mul_linear(2, -1),
    lambda f: laws._mul_exp(laws._mul_exp(f, 1, 0), 0, -2)
    - f.subst_linear((3, 1), (-1, 1)).mul_linear(1, 1),
    lambda f: f.mul_linear(0, 1) + laws._mul_exp(f, -2, 1),
    lambda f: f.mul_linear(1, -1) + f.subst_linear((1, 1), (0, 1))],
    ids=["twist then factor", "two twists", "factor and twist",
         "factor and substitution"])
def test_tables_follow_the_series_kernels_beyond_law_sides(build):
    # combinations that no law makes: a twisted table times a linear form,
    # a table twisted twice, and a sum of two tables that no twist weighs
    # but whose degrees come from different degrees of f, read back whole
    # at their bounds, over f's denominator and over each degree's own
    for f in (random_series(random.Random(4), order=9),
              Series2({(p, d - p): Q(10**30 + p, 7 + d) for d in range(13)
                       for p in range(d + 1)}, 12),
              dense_three_digit(random.Random(5), 12)):
        for own in (False, True):
            assert table_series(build(laws._Table.of(f, own))).key() \
                == build(f).key()


def test_d4_decompose_round_trip():
    a, b = invariant_generators(12)
    h = a * a + b.scalar_mul(Q(3, 7)) - a * b + Series2.constant(2, 12)
    g = d4_decompose(h)
    assert d4_compose(g, 12).eq_up_to(h)
    assert g.coeff(2, 0) == 1 and g.coeff(0, 1) == Q(3, 7)
    assert g.coeff(1, 1) == -1 and g.coeff(0, 0) == 2


@settings(max_examples=60)
@given(st.one_of(series2s(max_order=20), dense_series2s(max_order=20)),
       st.integers(0, 20))
# a^2 b^3 lies above the order 12 (weighted degree 16), a^4 b at it; and
# an order above g's own
@example(Series2({(0, 0): 2, (4, 1): Q(-7, 2), (2, 3): Q(5, 3)}, 20), 12)
@example(Series2({(1, 0): 1, (0, 1): Q(3, 7)}, 2), 20)
def test_d4_compose_equals_the_generator_powers(g, n):
    assert d4_compose(g, n).key() == d4_compose_by_powers(g, n).key()


def test_d4_decompose_on_solver_output():
    for d in (4, 6, 8, 12):
        for i in range(vspace.vd_basis(d).dim):
            rho = basis_polynomial(d, index=i)
            assert d4_compose(d4_decompose(rho), 12).eq_up_to(rho)


def test_d4_decompose_rejects_non_invariant():
    # the message names the first law of D4_LAWS that fails, and its first
    # violation in exact rationals
    for h, message in (
            (Series2.monomial(1, 1, 0, 8),
             "violates rho_sym3 at exponent [0, 1]: lhs 0, rhs 1"),
            (Series2.monomial(1, 0, 2, 8),
             "violates E at exponent [1, 1]: lhs 4, rhs 0")):
        with pytest.raises(NotInvariant) as exc:
            d4_decompose(h)
        assert str(exc.value) == message


def d4_average(f):
    """The sum of f's images under the eight elements of D4: invariant."""
    avg = Series2.zero(f.order)
    for m in d4_elements():
        avg = avg + act_on_series(AffineUnimodular.linear(m), f)
    return avg


@settings(max_examples=30)
@given(st.one_of(series2s(max_order=20), dense_series2s(max_order=20)))
def test_d4_decompose_equals_the_solve_on_d4_averages(f):
    h = d4_average(f)
    assert d4_decompose(h).key() == d4_decompose_by_solve(h).key()


@settings(max_examples=30)
@given(dense_series2s(max_order=20))
@example(Series2.monomial(1, 1, 0, 8))    # x
@example(Series2.monomial(1, 0, 2, 8))    # y^2
@example(Series2.monomial(1, 0, 3, 20))   # y^3: an odd degree alone
def test_d4_decompose_refuses_as_the_solve(h):
    assert outcome(d4_decompose, h) == outcome(d4_decompose_by_solve, h)


def test_d4_decompose_checks_no_law_and_solves_nothing_on_invariants(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("called on a D4-invariant series")

    h = d4_average(random_series(random.Random(11), order=20))
    g = d4_decompose_by_solve(h)
    monkeypatch.setattr(laws, "check_law", refuse)
    for name in ("rref", "nullspace"):
        monkeypatch.setattr(linalg, name, refuse)
    assert d4_decompose(h).key() == g.key()


def test_d4_decompose_on_averaged_invariants():
    # averaging any polynomial over the group gives an invariant, and the
    # invariant ring is generated by the two basic polynomials, so the
    # decomposition must succeed on every average
    rng = random.Random(9)
    for _ in range(5):
        avg = d4_average(random_series(rng, order=8))
        # odd-degree parts cancel in the average; decomposition round-trips
        assert d4_compose(d4_decompose(avg), 8).eq_up_to(avg)
