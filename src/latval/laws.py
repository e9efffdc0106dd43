"""The sharp/dagger/diamond transforms and the functional-equation checks.

A valuation's triangle value f2 and its parameter series rho are linked by

    sharp:   rho = x/(e^x-1) * (x+y)/(e^{x+y}-1) * [f(x,x+y) + e^x f(y,x+y)]
    dagger:  f = (1/y) [ (e^y-e^x)/(y-x) rho(y-x,x) - (e^x-1)/x rho(x,y-x) ]

and every displayed functional equation is available as a machine check
returning a structured report (a violated law is a report, not an error).
``law_sides`` is the one place where a law is written out (``f0gl2z`` is
checked against the generators of GL(2, Z) instead); the solution spaces
of ``vspace`` are built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .group import (GL2Z_GENERATORS, AffineUnimodular, act_on_series,
                    is_d4_invariant)
from .series import (Series2, divide_linear,
                     homogeneous_part, mul_exp_linear, special_series)

Q = Fraction


class LawsError(Exception):
    pass


class NotInvariant(LawsError):
    pass


class NoRepresentation(LawsError):
    pass


# the two generators of the D4 invariant ring, as exact polynomials
INVARIANT_GEN_A = {(2, 0): Q(2), (1, 1): Q(2), (0, 2): Q(1)}   # 2x^2+2xy+y^2
INVARIANT_GEN_B = {(2, 2): Q(4), (1, 3): Q(4), (0, 4): Q(1)}   # 4x^2y^2+4xy^3+y^4


def invariant_generators(order: int):
    return (Series2(INVARIANT_GEN_A, order), Series2(INVARIANT_GEN_B, order))


# ---------------------------------------------------------------------------
# transforms


def sharp(f: Series2) -> Series2:
    """f-sharp; order preserved (only unit divisions are involved)."""
    n = f.order
    bern = special_series("t_over_expm1", n)
    bxy = bern.subst_linear((1, 1), (0, 0))
    bracket = f.subst_linear((1, 0), (1, 1)) \
        + mul_exp_linear(f.subst_linear((0, 1), (1, 1)), 1, 0)
    return bern * bxy * bracket


def dagger(rho: Series2) -> Series2:
    """rho-dagger; loses one order to the division by y.

    Raises NotDivisible exactly when rho violates the even-degree
    condition rho(-x,-y) = rho(x,y).
    """
    n = rho.order
    dde = special_series("divided_diff_exp", n)
    e1x = special_series("expm1_over_t", n)
    bracket = dde * rho.subst_linear((-1, 1), (1, 0)) \
        - e1x * rho.subst_linear((1, 0), (-1, 1))
    return divide_linear(bracket, 0, 1)


def diamond(rho: Series2) -> Series2:
    """The antisymmetric variant: equals dagger(rho) whenever rho satisfies
    the (B')-type laws; loses one order to the division by x - y."""
    n = rho.order
    e1x = special_series("expm1_over_t", n)
    e1y = e1x.subst_linear((0, 1), (1, 0))
    bracket = e1x * rho.subst_linear((1, 0), (0, -1)) \
        - e1y * rho.subst_linear((0, 1), (-1, 0))
    return divide_linear(bracket, 1, -1)


def to_st(rho: Series2) -> Series2:
    """Change of variables s = 2x + y, t = y: sigma(s, t) = rho((s-t)/2, t)."""
    return rho.subst_linear((Q(1, 2), Q(-1, 2)), (0, 1))


def from_st(sigma: Series2) -> Series2:
    """Inverse change of variables: rho(x, y) = sigma(2x + y, y)."""
    return sigma.subst_linear((2, 1), (0, 1))


# ---------------------------------------------------------------------------
# law checks


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    verified_order: int
    first_violation: tuple | None   # ((p, q), lhs, rhs)

    def as_dict(self):
        return {"law": self.law, "holds": self.holds,
                "verified_order": self.verified_order,
                "first_violation": violation_obj(self.first_violation)}


def violation_obj(diff):
    """A first difference ((p, q), lhs, rhs) with exact rational text, or
    None for no difference."""
    if diff is None:
        return None
    (p, q), lhs, rhs = diff
    return {"exponent": [p, q], "lhs": str(lhs), "rhs": str(rhs)}


def violation_text(diff) -> str:
    """The same first difference as one line of exact text."""
    if diff is None:
        return "an unlocated coefficient"
    (p, q), lhs, rhs = diff
    return f"exponent [{p}, {q}]: lhs {lhs!s}, rhs {rhs!s}"


def law_sides(law: str, f: Series2):
    """Both sides (lhs, rhs) of the named functional equation on f."""
    x, y = (1, 0), (0, 1)
    if law in ("A", "f23up"):
        return (f + mul_exp_linear(f.subst_linear((-1, 1), y), 1, 0),
                f.subst_linear(x, (1, 1)) + f.subst_linear(y, (1, 1)))
    if law == "B":
        return f, f.subst_linear(y, x)
    if law == "C":
        return f.subst_linear((-1, 1), (-1, 0)), mul_exp_linear(f, -1, 0)
    if law == "f2simple2":
        return (f + mul_exp_linear(f.subst_linear((-1, 0), (0, -1)), 1, 1),
                f.subst_linear(x, (1, 1)) + f.subst_linear((1, 1), y))
    if law == "Aprime":
        return (f.subst_linear(x, (-1, 1)).mul_linear(1, 1),
                f.mul_linear(0, 1) + f.subst_linear(y, x).mul_linear(1, 0))
    if law == "Bprime":
        return (f.subst_linear(x, (-1, 1)).mul_linear(1, -1),
                f.subst_linear(y, (-1, 0)).mul_linear(1, 0)
                - f.subst_linear(x, (0, -1)).mul_linear(0, 1))
    if law == "Cprime":
        return (f.subst_linear((-1, 0), (1, -1)).mul_linear(1, -1),
                f.subst_linear(y, (-1, 0)).mul_linear(1, 0)
                - f.subst_linear(x, (0, -1)).mul_linear(0, 1))
    if law == "D":
        return f.subst_linear((-1, 0), (0, -1)), f
    if law == "E":
        return f.subst_linear(x, (-2, -1)), f
    if law == "rhoformula":
        return (f.mul_linear(2, 1),
                f.subst_linear(x, (1, 1)).mul_linear(1, 1)
                + f.subst_linear((1, 1), x).mul_linear(1, 0))
    if law == "rho_sym1":
        return f.subst_linear(x, (-1, 1)), f.subst_linear(y, (1, -1))
    if law == "rho_sym2":
        return f.subst_linear(y, (-1, 0)), f.subst_linear((-1, 1), x)
    if law == "rho_sym3":
        return f, f.subst_linear((1, 1), (0, -1))
    if law == "Adoubleprime":
        return (f.subst_linear((1, 1), (-1, 1)).mul_linear(1, 1),
                f.subst_linear((1, 2), (1, 0)).mul_linear(1, 0)
                + f.subst_linear((2, 1), (0, 1)).mul_linear(0, 1))
    if law == "f1shift":
        return f.subst_linear((-1, 0), (0, -1)), mul_exp_linear(f, -1, 0)
    if law == "f1period":
        return f, f.subst_linear(x, (1, 1))
    if law == "f1neg":
        return f, f.subst_linear(x, (0, -1))
    raise ValueError(f"unknown law {law!r}")


LAW_IDS = ("A", "B", "C", "f2simple2", "f23up", "Aprime",
           "Bprime", "Cprime", "D", "E", "rhoformula", "rho_sym1",
           "rho_sym2", "rho_sym3", "Adoubleprime", "f1shift", "f1period",
           "f1neg", "f0gl2z")

# the laws that make a series a valid parameter rho
RHO_LAWS = ("Aprime", "E")


def check_law(law: str, f: Series2) -> LawReport:
    """Assemble both sides of the named functional equation exactly and
    compare up to the common valid order."""
    if law == "f0gl2z":
        for g in GL2Z_GENERATORS:
            sub = act_on_series(AffineUnimodular.linear(g), f)
            diff = sub.first_difference(f)
            if diff is not None:
                return LawReport(law, False, f.order, diff)
        return LawReport(law, True, f.order, None)
    lhs, rhs = law_sides(law, f)
    order = min(lhs.order, rhs.order)
    diff = lhs.first_difference(rhs, order)
    return LawReport(law, diff is None, order, diff)


@dataclass(frozen=True)
class Implication:
    name: str
    applicable: bool
    confirmed: bool

    def as_dict(self):
        return {"name": self.name, "applicable": self.applicable,
                "confirmed": self.confirmed}


@dataclass(frozen=True)
class EquivalenceReport:
    implications: tuple[Implication, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(i.confirmed for i in self.implications if i.applicable)

    def as_dict(self):
        return {"implications": [i.as_dict() for i in self.implications],
                "all_confirmed": self.all_confirmed}


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


# ---------------------------------------------------------------------------
# invariant-ring decomposition


def d4_decompose(h: Series2) -> Series2:
    """Express a D4-invariant series as g(a, b) in the two generator
    polynomials, solving degree by degree.

    The returned series lives in the generator variables (a, b); its
    coefficients are determined for weighted degree 2i + 4j <= h.order.
    """
    ok, witness = is_d4_invariant(h)
    if not ok:
        raise NotInvariant(f"not invariant under generator {witness}")
    n = h.order
    out = {}
    for deg in range(n + 1):
        part = homogeneous_part(h, deg)
        if deg % 2 == 1:
            if not part.is_zero():
                raise NotInvariant("odd-degree terms present")
            continue
        monos = [((deg - 4 * j) // 2, j) for j in range(deg // 4 + 1)]
        polys = [d4_compose(Series2.monomial(1, i, j, n), n) for i, j in monos]
        matrix = [[g.coeff(p, deg - p) for g in polys] for p in range(deg + 1)]
        rhs = [part.coeff(p, deg - p) for p in range(deg + 1)]
        sol = linalg.solve(matrix, rhs)
        if sol is None:
            raise NoRepresentation(f"degree {deg} part not in the invariant ring")
        out.update(zip(monos, sol))
    return Series2(out, n)


def d4_compose(g: Series2, order: int) -> Series2:
    """Evaluate g(a, b) back at the generator polynomials."""
    gen_a, gen_b = invariant_generators(order)
    out = Series2.zero(order)
    for (i, j), c in g.terms():
        p = Series2.constant(c, order)
        for _ in range(i):
            p = p * gen_a
        for _ in range(j):
            p = p * gen_b
        out = out + p
    return out
