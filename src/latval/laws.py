"""The sharp/dagger/diamond transforms and the functional-equation checks.

A valuation's triangle value f2 and its parameter series rho are linked by

    sharp:   rho = x/(e^x-1) * (x+y)/(e^{x+y}-1) * [f(x,x+y) + e^x f(y,x+y)]
    dagger:  f = (1/y) [ (e^y-e^x)/(y-x) rho(y-x,x) - (e^x-1)/x rho(x,y-x) ]

and every displayed functional equation is available as a machine check
returning a structured report (a violated law is a report, not an error).
``law_sides`` is the one place where a law is written out, as a list of
equations (``f0gl2z``, invariance under GL(2, Z), has one for each of its
generators); ``check_law`` (and through it the check of a spec's rho),
the solution spaces of ``vspace`` and the refusal of a series that is
not D4-invariant by ``d4_decompose`` are built from it.  It takes a
``Series2`` or anything with the operations it uses: ``check_law`` hands
it ``_Table``, the series packed degree by degree (Kronecker
substitution, as in ``series``), as ``vspace`` hands it ``_Forms``.  The
two stand-ins keep one protocol: bounds first, carried through the
operations, and one pack at the width the bounds give, made when asked.
Each degree of a side is one int at that width over its own
denominator, carried with it, and two sides meet over the lcm of their
denominators, degree by degree, so they are compared as ints.  A side
is a stream of its packed degrees, lowest first, and the two are pulled
one degree at a time: no degree above the first unequal one is
substituted, twisted or packed, and only that degree is read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import comb, gcd, lcm
from operator import add, floordiv, mul, sub

from .group import GL2Z_GENERATORS
from .series import (Series2, _packed_degrees, _substitute,
                     _taylor_shift, _unpack, divide_linear, format_rational,
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
        return (f + _mul_exp(f.subst_linear((-1, 1), y), 1, 0),
                f.subst_linear(x, (1, 1)) + f.subst_linear(y, (1, 1)))
    if law == "B":
        return f, f.subst_linear(y, x)
    if law == "C":
        return f.subst_linear((-1, 1), (-1, 0)), _mul_exp(f, -1, 0)
    if law == "f2simple2":
        return (f + _mul_exp(f.subst_linear((-1, 0), (0, -1)), 1, 1),
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
        return f.subst_linear((-1, 0), (0, -1)), _mul_exp(f, -1, 0)
    if law == "f1period":
        return f, f.subst_linear(x, (1, 1))
    if law == "f1neg":
        return f, f.subst_linear(x, (0, -1))
    raise ValueError(f"unknown law {law!r}")


LAW_IDS = ("A", "B", "C", "f2simple2", "f23up", "Aprime",
           "Bprime", "Cprime", "D", "E", "rhoformula", "rho_sym1",
           "rho_sym2", "rho_sym3", "Adoubleprime", "f1shift", "f1period",
           "f1neg", "f0gl2z")

# the bits of den above which check_law meets each degree over its own
WIDE_DEN_BITS = 128
# the laws that make a series a valid parameter rho
RHO_LAWS = ("Aprime", "E")
# invariance under D4: the maps of group.D4_GENERATORS, in that order
D4_LAWS = ("rho_sym3", "E")


def _mul_exp(f, a, b):
    """f times exp(a*x + b*y): mul_exp_linear of a Series2, and the twist
    of a _Table by its own method."""
    if isinstance(f, _Table):
        return f.mul_exp_linear(a, b)
    return mul_exp_linear(f, a, b)


def check_law(law: str, f: Series2) -> LawReport:
    """Assemble both sides of each equation of the named law exactly and
    compare them up to their common valid order: the report gives the
    first difference of the first equation that has one, or the lowest
    order verified.

    law_sides runs on the _Table of f, so each side is a _Table; when
    f's denominator is wider than WIDE_DEN_BITS and the sides of each
    equation have equal dens (no side alone twisted), it runs again on
    the table that keeps each degree of f over its own.  Each equation is
    packed once, at the width its bounds need, so that both sides and
    their difference read back exactly, and the two streams are compared
    one degree, one int, at a time.  So a violated law costs the degrees
    up to its first unequal one (and the power table that
    series._substitute grows ahead), and no degree above it is
    substituted, twisted or packed; a law that holds costs every degree."""
    equations = law_sides(law, _Table.of(f))
    if f.numerators()[0] >> WIDE_DEN_BITS and all(
            lhs.dens == rhs.dens for lhs, rhs in equations):
        equations = law_sides(law, _Table.of(f, own=True))
    verified = []
    for lhs, rhs in equations:
        lhs, rhs = _aligned(lhs, rhs)
        order = len(lhs.dens) - 1
        diff = _first_difference(lhs, rhs)
        if diff is not None:
            return LawReport(law, False, order, diff)
        verified.append(order)
    return LawReport(law, True, min(verified), None)


def _aligned(lhs: "_Table", rhs: "_Table") -> tuple:
    """Both tables up to their common order, each degree over the lcm of
    its two denominators: the larger one where it is a multiple of the
    other, as where a twisted side meets one that is not."""
    if lhs.dens == rhs.dens:
        return lhs, rhs
    dens = [a if not a % b else b if not b % a else lcm(a, b)
            for a, b in zip(lhs.dens, rhs.dens)]
    return lhs.over(dens), rhs.over(dens)


def _first_difference(lhs: "_Table", rhs: "_Table"):
    """((p, q), lhs, rhs) at the first exponent at which two aligned
    tables differ, or None.  They are packed at one bit above the largest
    sum of their bounds, at which both, and their difference, read back
    exactly.  The two streams are pulled one degree at a time from
    degree 0 and compared as ints; the first unequal degree ends the
    pull, and only it is read back, over its denominator."""
    k = max(map(add, lhs.bounds, rhs.bounds)).bit_length() + 1
    for d, (g, h) in enumerate(zip(lhs.pack(k), rhs.pack(k))):
        if g != h:
            a, b = (_unpack([0] * d + [x], k)[d] for x in (g, h))
            p = next(p for p, (s, t) in enumerate(zip(a, b)) if s != t)
            w = lhs.dens[d]
            return ((p, d - p), Q(a[p], w), Q(b[p], w))
    return None


class _Table:
    """A series as check_law hands it to law_sides: bounds[d] bounds each
    numerator of degree d, which is over dens[d], and pack(k) is a stream
    of those degrees packed at x = 2^k, y = 1, one int each, lowest
    first, each computed when pulled.  _Table.of(f) puts every degree
    over f's denominator den, and _Table.of(f, own=True) degree d over
    den / gcd(den, row d of f).  A substitution keeps each degree over
    its denominator, a linear factor moves a degree up together with its
    denominator, a twist puts degree d over lcm(dens) * d!, and a sum
    lifts its two tables over the lcms of their dens, degree by degree.
    Bounds and denominators are carried at once and packs made when
    asked, as vspace's _Forms are, so a side is packed once, at the width
    its equation needs; its stream pulls degree d of the streams it is
    made from, and of f's rows (kept for subst_linear), only when its own
    degree d is pulled."""

    __slots__ = ("bounds", "dens", "pack", "rows")

    def __init__(self, bounds, dens, pack, rows=None):
        self.bounds, self.dens, self.pack, self.rows = bounds, dens, pack, rows

    @classmethod
    def of(cls, f: Series2, own=False) -> "_Table":
        den, rows = f.numerators()
        pad = [0] * (f.order + 1 - len(rows))
        dens = [den] * (f.order + 1)
        if own:
            gcds = [gcd(den, *row) for row in rows]
            rows = [[s // g for s in row] for row, g in zip(rows, gcds)]
            dens = [den // g for g in gcds] + [1] * len(pad)
        return cls([max(map(abs, row)) for row in rows] + pad, dens,
                   lambda k: chain(_packed_degrees(rows, k), pad), rows)

    def subst_linear(self, first, second) -> "_Table":
        """The table of f(a1*x + b1*y, a2*x + b2*y), for the integer pairs
        first = (a1, b1) and second = (a2, b2): its degree d is at most
        bounds[d] * (d + 1) * l^d for l the larger of the forms' sums of
        absolute values."""
        (a1, b1), (a2, b2) = first, second
        ell = max(abs(a1) + abs(b1), abs(a2) + abs(b2))
        rows, pad = self.rows, [0] * (len(self.dens) - len(self.rows))
        bounds = [s * (d + 1) * ell ** d for d, s in enumerate(self.bounds)]
        return _Table(bounds, self.dens,
                      lambda k: chain(_substitute(rows, first, second, k),
                                      pad))

    def mul_linear(self, a, b) -> "_Table":
        """The product with a*x + b*y, one order up: one multiply per
        degree, each moved up with its denominator over a zero degree 0."""
        size, inner = abs(a) + abs(b), self.pack
        return _Table([0] + [s * size for s in self.bounds], [1] + self.dens,
                      lambda k: chain([0], map(((a << k) + b).__mul__,
                                               inner(k))))

    def mul_exp_linear(self, a, b) -> "_Table":
        """The product with exp(a*x + b*y), for ints a and b: the
        series._taylor_shift by a*x + b*y packed of the degrees lifted
        over L, the lcm of the denominators, and times d!, which leaves
        degree s over L * s!.  With l = |a| + |b|, degree s is at most
        (1 + l)^s times the largest lifted bound of the degrees up to s."""
        den = lcm(*set(self.dens))
        t = self.over([den] * len(self.dens))
        fact = list(accumulate(range(1, len(self.dens)), mul, initial=1))
        bounds, top, grow = [], 0, 1
        for s, f in zip(t.bounds, fact):
            top = max(top, s * f)
            bounds.append(top * grow)
            grow *= 1 + abs(a) + abs(b)
        return _Table(bounds, [den * f for f in fact],
                      lambda k: _taylor_shift(map(mul, t.pack(k), fact),
                                              (a << k) + b))

    def over(self, dens) -> "_Table":
        """This table up to order len(dens) - 1, degree d over dens[d], a
        multiple of its own denominator: itself if they are equal, else
        each degree times the quotient."""
        if dens == self.dens:
            return self
        lift, inner = list(map(floordiv, dens, self.dens)), self.pack
        return _Table(list(map(mul, self.bounds, lift)), dens,
                      lambda k: map(mul, inner(k), lift))

    def __add__(self, other: "_Table") -> "_Table":
        return self._plus(other, add)

    def __sub__(self, other: "_Table") -> "_Table":
        return self._plus(other, sub)

    def _plus(self, other: "_Table", op) -> "_Table":
        a, b = _aligned(self, other)
        return _Table(list(map(add, a.bounds, b.bounds)), a.dens,
                      lambda k: map(op, a.pack(k), b.pack(k)))


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
