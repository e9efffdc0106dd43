"""The sharp/dagger/diamond transforms and the functional-equation checks.

A valuation's triangle value f2 and its parameter series rho are linked by

    sharp:   rho = x/(e^x-1) * (x+y)/(e^{x+y}-1) * [f(x,x+y) + e^x f(y,x+y)]
    dagger:  f = (1/y) [ (e^y-e^x)/(y-x) rho(y-x,x) - (e^x-1)/x rho(x,y-x) ]

and every displayed functional equation is available as a machine check
returning a structured report (a violated law is a report, not an error).
``law_sides`` is the one place where a law is written out, as a list of
equations (``f0gl2z``, invariance under GL(2, Z), has one for each of its
generators); ``check_law``, the solution spaces of ``vspace`` and the
refusal of a series that is not D4-invariant by ``d4_decompose`` are
built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .group import GL2Z_GENERATORS
from .series import (Series2, divide_linear, format_rational,
                     mul_exp_linear, packed_cells, separable, special_series,
                     sum_of_images, sum_of_products)

Q = Fraction


class LawsError(Exception):
    pass


class NotInvariant(LawsError):
    pass


# ---------------------------------------------------------------------------
# transforms


def sharp(f: Series2) -> Series2:
    """f-sharp; order preserved.  The unit factors x/(e^x - 1) and
    (x+y)/(e^{x+y} - 1) are the Bernoulli series B(t) = t/(e^t - 1) at
    t = x and t = x + y: the separable B(x) * B(y) at (x, x + y), so
    f-sharp is a product and divides by nothing.  The bracket
    f(x, x + y) + e^x f(y, x + y) is two faces of one cell, added by one
    sum_of_images."""
    n = f.order
    unit = separable(special_series("t_over_expm1", n)) \
        .subst_linear((1, 0), (1, 1))
    den, (cell,) = packed_cells([f])
    bracket = sum_of_images([(cell, (0, 0), (1, 0), (1, 1)),
                             (cell, (1, 0), (0, 1), (1, 1))], n, den)
    return unit * bracket


def dagger(rho: Series2) -> Series2:
    """rho-dagger; loses one order to the division by y.

    Raises NotDivisible exactly when rho violates the even-degree
    condition rho(-x,-y) = rho(x,y).
    """
    n = rho.order
    dde = special_series("divided_diff_exp", n)
    e1x = special_series("expm1_over_t", n)
    bracket = sum_of_products([(dde, rho.subst_linear((-1, 1), (1, 0))),
                               (-e1x, rho.subst_linear((1, 0), (-1, 1)))])
    return divide_linear(bracket, 0, 1)


def diamond(rho: Series2) -> Series2:
    """The antisymmetric variant: equals dagger(rho) whenever rho satisfies
    the (B')-type laws; loses one order to the division by x - y."""
    n = rho.order
    e1x = special_series("expm1_over_t", n)
    e1y = e1x.subst_linear((0, 1), (1, 0))
    bracket = sum_of_products([(e1x, rho.subst_linear((1, 0), (0, -1))),
                               (-e1y, rho.subst_linear((0, 1), (-1, 0)))])
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
    return {"exponent": [p, q], "lhs": format_rational(lhs),
            "rhs": format_rational(rhs)}


def violation_text(diff) -> str:
    """The same first difference as one line of exact text."""
    if diff is None:
        return "an unlocated coefficient"
    (p, q), lhs, rhs = diff
    return (f"exponent [{p}, {q}]: lhs {format_rational(lhs)}, "
            f"rhs {format_rational(rhs)}")


def law_sides(law: str, f: Series2) -> list:
    """The equations [(lhs, rhs), ...] of the named functional equation on
    f: one for each law but f0gl2z, invariance under GL(2, Z), which has
    one for each generator of GL2Z_GENERATORS, in that order."""
    if law == "f0gl2z":
        return [(f.subst_linear((a, c), (b, d)), f)
                for (a, b), (c, d) in GL2Z_GENERATORS]
    return [_sides(law, f)]


def _sides(law: str, f: Series2):
    """Both sides (lhs, rhs) of the named law of one equation on f."""
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
# invariance under D4: the maps of group.D4_GENERATORS, in that order
D4_LAWS = ("rho_sym3", "E")


def check_law(law: str, f: Series2) -> LawReport:
    """Assemble both sides of each equation of the named law exactly and
    compare them up to their common valid order: the report gives the
    first difference of the first equation that has one, or the lowest
    order verified."""
    verified = []
    for lhs, rhs in law_sides(law, f):
        order = min(lhs.order, rhs.order)
        diff = lhs.first_difference(rhs, order)
        if diff is not None:
            return LawReport(law, False, order, diff)
        verified.append(order)
    return LawReport(law, True, min(verified), None)


# ---------------------------------------------------------------------------
# invariant-ring decomposition


def d4_decompose(h: Series2) -> Series2:
    """Express a D4-invariant series as g(a, b) in the two generator
    polynomials, by the leading-term reduction of symmetric polynomials.

    In s = 2x + y, t = y (to_st) the generators are a = (S + T)/2 and
    b = S*T for S = s^2, T = t^2, and D4 acts by the signed permutations
    of s and t.  So h is invariant exactly when sigma = to_st(h) is a
    symmetric polynomial in S and T, and its degree 2m is then the sum
    over j = 0..m/2 of g's coefficient of a^(m-2j) b^j times
    (S + T)^(m-2j) (S*T)^j / 2^(m-2j), whose leading term in S is
    S^(m-j) T^j.  So for j rising, the coefficient c of S^(m-j) T^j left
    over gives g's coefficient c * 2^(m-2j), and c (S + T)^(m-2j) (S*T)^j
    is taken away.  Any odd power of s or t, or anything left over, means
    h is not invariant: NotInvariant then names the first law of D4_LAWS
    that fails, as check_law reports it.

    The returned series lives in the generator variables (a, b); its
    coefficients are determined for weighted degree 2i + 4j <= h.order.
    """
    den, rows = to_st(h).numerators()
    out = {}
    for d, row in enumerate(rows):
        if any(row if d % 2 else row[1::2]):   # an odd power of s or t
            _refuse(h)
        m = d // 2
        rest = row[::2]   # rest[i]: the numerator of S^i T^(m-i)
        for j in range(m // 2 + 1):
            c = rest[m - j]
            if c:
                i = m - 2 * j
                out[(i, j)] = c << i
                for l in range(i + 1):
                    rest[m - j - l] -= c * comb(i, l)
        if any(rest):
            _refuse(h)
    return Series2(out, h.order).scalar_mul(Q(1, den))


def _refuse(h: Series2):
    """Raise NotInvariant for the first law of D4_LAWS that h violates."""
    for law in D4_LAWS:
        report = check_law(law, h)
        if not report.holds:
            raise NotInvariant(f"violates {law} at "
                               f"{violation_text(report.first_violation)}")
    raise AssertionError("the reduction and D4_LAWS disagree")


def d4_compose(g: Series2, order: int) -> Series2:
    """Evaluate g(a, b) back at the generators, up to the given order: the
    inverse of d4_decompose's reduction.  A term v a^i b^j of g is
    v (S + T)^i (S*T)^j / 2^i, so it adds v C(i, l) / 2^i to S^(l+j)
    T^(i-l+j), that is to s^(2(l+j)) t^(2(i-l+j)), for l = 0..i; one
    from_st takes the sum back to x, y."""
    sigma = {}
    for (i, j), v in g.terms():
        if 2 * i + 4 * j <= order:
            for l in range(i + 1):
                e = (2 * (l + j), 2 * (i - l + j))
                sigma[e] = sigma.get(e, 0) + v * comb(i, l) / 2 ** i
    return from_st(Series2(sigma, order))
