"""Exact solver for the homogeneous-degree-d parameter space V_d.

A degree-d homogeneous polynomial rho(x, y) = sum_k a_k x^{d-k} y^k is a
valid parameter exactly when it satisfies the laws ``laws.RHO_LAWS``:

    (A')  (x + y) rho(x, y - x) = y rho(x, y) + x rho(y, x)
    (E)   rho(x, -2x - y) = rho(x, y)

V_d is the kernel of the stacked residual coefficients of these laws,
taken over Q, with the canonical reduced-echelon basis in the monomial
order x^d > x^{d-1} y > ... > y^d.  The basis in the coordinates
s = 2x + y, t = y is the image of that basis under ``laws.to_st``,
brought to reduced echelon form.  The laws themselves are written only
in ``laws``.

The residuals are taken in integers: ``laws.law_sides`` gets, in place of
a series, ``_Forms``, a basis of degree-d forms, each a product of powers
of integer linear forms, packed as one int at x = 2^k, y = 1 (Kronecker
substitution, as in ``series``) when asked, as ``laws._Table`` packs.  A
linear substitution substitutes the factors; a linear factor, a sum and
a difference are int products and sums.  A bound on each form's
coefficients is carried through them, and each residual is packed once,
at the width its bounds give, at which it reads back exactly.
``vd_basis`` applies the laws to the d // 2 + 1 forms x^(d-2j) (x + y)^(2j),
which span ker(E), since (E) fixes x and sends x + y to -(x + y): the
rows of (E) come out zero, those of (A') have about half the columns,
and the kernel goes back to monomials by the binomials C(2j, k).

V_d has one representation, its basis, kept by ``_degree(d)``, an
lru_cache of DEGREES_MAX degrees.  ``vd_basis``, ``st_basis`` and
``dims_table`` read it, so V_d is solved once while kept (or once per
thread racing that solve).  A spec's rho is checked without it, by
``check_law`` on the whole of rho (``valuation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import laws, linalg
from .series import Series2, _unpack


def from_coefficients(coeffs, d: int, order=None) -> Series2:
    """Build the homogeneous polynomial sum_k coeffs[k] x^{d-k} y^k."""
    if order is None:
        order = d
    return Series2({(d - k, k): c for k, c in enumerate(coeffs)}, order)


def to_coefficients(rho: Series2, d: int):
    """The coefficients of x^{d-k} y^k of rho, k = 0..d, read from its
    numerators: ints when its denominator is 1, Fractions otherwise."""
    den, rows = rho.numerators()
    nums = rows[d][::-1] if d < len(rows) else [0] * (d + 1)
    return nums if den == 1 else [Fraction(s, den) for s in nums]


def _residual_rows(forms, d: int, law_ids) -> list:
    """The rows of the residuals lhs - rhs of the named laws on the
    degree-d forms, given by their factors as in _Forms, one column per
    form: row i of a residual of degree e holds its coefficients of
    x^(e-i) y^i.  The laws must be homogeneous, as those of RHO_LAWS are.
    Each residual is packed once, at one bit above the bit length of its
    largest bound, at which every digit reads back exactly."""
    rows = []
    for law in law_ids:
        for lhs, rhs in laws.law_sides(law, _Forms.of(forms, d)):
            res = lhs - rhs
            rows += res.rows(max(res.bounds).bit_length() + 1)
    return rows


def _bound(form) -> int:
    """A bound on the sum of the sizes of the coefficients of the product
    of the powers (a*x + b*y)^e of the form: the product of the
    (|a| + |b|)^e."""
    out = 1
    for (a, b), e in form:
        out *= (abs(a) + abs(b)) ** e
    return out


class _Forms:
    """Homogeneous forms of one degree, as the columns of the residual
    rows: the sizes of the coefficients of form j sum to at most
    bounds[j], and pack(k) lists the forms packed at x = 2^k, y = 1, made
    when asked, as laws' _Table makes its packs.  A basis (``_Forms.of``)
    also keeps each form as its factors, the pairs ((a, b), e) of the
    powers (a*x + b*y)^e whose product it is, for ``subst_linear``.  These
    are the operations of the homogeneous laws of ``laws.law_sides``; a
    series kernel such as ``mul_exp_linear`` finds no series here."""

    __slots__ = ("degree", "bounds", "pack", "factors")

    def __init__(self, degree, bounds, pack, factors=None):
        self.degree, self.bounds, self.pack = degree, bounds, pack
        self.factors = factors

    @classmethod
    def of(cls, forms, degree: int) -> "_Forms":
        """The forms of the given degree, by their factors."""
        def pack(k):
            cols = []
            for form in forms:
                col = 1
                for (a, b), e in form:
                    col *= ((a << k) + b) ** e
                cols.append(col)
            return cols
        return cls(degree, [_bound(f) for f in forms], pack, forms)

    def subst_linear(self, first, second) -> "_Forms":
        """Each form f as f(a1*x + b1*y, a2*x + b2*y), for first = (a1, b1)
        and second = (a2, b2): a factor a*x + b*y becomes
        (a*a1 + b*a2)*x + (a*b1 + b*b2)*y."""
        (a1, b1), (a2, b2) = first, second
        return _Forms.of([[((a * a1 + b * a2, a * b1 + b * b2), e)
                           for (a, b), e in form] for form in self.factors],
                         self.degree)

    def mul_linear(self, a, b) -> "_Forms":
        size, inner = abs(a) + abs(b), self.pack
        return _Forms(self.degree + 1, [s * size for s in self.bounds],
                      lambda k: list(map(((a << k) + b).__mul__, inner(k))))

    def __add__(self, other: "_Forms") -> "_Forms":
        return self._plus(other, 1)

    def __sub__(self, other: "_Forms") -> "_Forms":
        return self._plus(other, -1)

    def _plus(self, other: "_Forms", sign: int) -> "_Forms":
        if other.degree != self.degree:
            raise TypeError(f"forms of degrees {self.degree} and "
                            f"{other.degree} added")
        return _Forms(self.degree,
                      [s + t for s, t in zip(self.bounds, other.bounds)],
                      lambda k: [a + sign * b for a, b
                                 in zip(self.pack(k), other.pack(k))])

    def rows(self, k: int) -> list:
        """Row i: the coefficients of x^(degree-i) y^i of the forms packed
        at width k, exact while each bound is below 2^(k-1).  One
        series._unpack reads them all, form j as packed degree
        degree + j, whose top j digits are 0."""
        n = self.degree + 1
        cols = _unpack([0] * self.degree + self.pack(k), k)[n - 1:]
        return [list(r) for r in zip(*(col[n - 1::-1] for col in cols))]


@dataclass(frozen=True)
class VdBasis:
    degree: int
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def polynomials(self, order=None):
        return [from_coefficients(v, self.degree, order) for v in self.vectors]


DEGREES_MAX = 64   # degrees whose basis is kept


@lru_cache(maxsize=DEGREES_MAX)
def _degree(d: int) -> VdBasis:
    return _solve(d)


def vd_basis(d: int) -> VdBasis:
    """Canonical basis of the degree-d solution space of (A') and (E)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return _degree(d)


def _solve(d: int) -> VdBasis:
    """V_d's basis, solved on the forms x^(d-2j) (x + y)^(2j), j = 0..d//2,
    which span ker(E): the kernel of the nonzero rows of RHO_LAWS on them
    (those of (E) are zero), each kernel vector c made integral and taken
    to the coefficients sum_j c_j C(2j, k) of x^(d-k) y^k, in reduced
    echelon form."""
    forms = [[((1, 0), d - 2 * j), ((1, 1), 2 * j)]
             for j in range(d // 2 + 1)]
    rows = [r for r in _residual_rows(forms, d, laws.RHO_LAWS) if any(r)]
    vectors = []
    for v in linalg.nullspace(rows, len(forms)):
        c = linalg.integer_row(v)
        vectors.append([sum(c[j] * comb(2 * j, k)
                            for j in range((k + 1) // 2, len(c)))
                        for k in range(d + 1)])
    return VdBasis(d, tuple(tuple(r) for r in linalg.rref(vectors)[0]))


def predicted_dim(d: int) -> int:
    """Closed-form dimension: 0 for odd d; for even d it is
    floor(d/12) + 1 unless d = 2 mod 12, where it is floor(d/12)."""
    if d % 2 == 1:
        return 0
    if d % 12 == 2:
        return d // 12
    return d // 12 + 1


def dims_table(d_max: int):
    """[(d, computed, predicted)] for d = 0..d_max."""
    out = []
    for d in range(d_max + 1):
        out.append((d, vd_basis(d).dim, predicted_dim(d)))
    return out


# ---------------------------------------------------------------------------
# the (s, t)-coordinate picture


def st_basis(d: int) -> VdBasis:
    """Canonical basis in the (s, t) coordinates s = 2x + y, t = y: the
    reduced echelon form of the images of ``vd_basis(d)`` under to_st."""
    images = [to_coefficients(laws.to_st(p), d)
              for p in vd_basis(d).polynomials()]
    return VdBasis(d, tuple(tuple(r) for r in linalg.rref(images)[0]))
