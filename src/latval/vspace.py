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

Each degree d has one record, ``_degree(d)``, an lru_cache of
DEGREES_MAX degrees: the nonzero integer rows of
constraint_matrix(d, RHO_LAWS), built on first need, and V_d's basis,
solved from them when first asked for.  ``vd_basis``, ``st_basis``,
``dims_table`` and ``satisfies_rho_laws`` (the rho check) read it, so
V_d is solved once while kept (or once per thread racing that solve),
and checking a rho never solves one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import laws, linalg
from .series import Series2


def monomials(d: int):
    """Degree-d monomial exponents, leading in x first."""
    return [(d - k, k) for k in range(d + 1)]


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


def constraint_matrix(d: int, law_ids):
    """Rows: the residual lhs - rhs of each named law, one row per residual
    coefficient; columns: the d + 1 monomial coefficients.

    The laws must be homogeneous: linear substitutions, optionally times a
    linear factor.  The residual on a degree-d monomial is then homogeneous
    of degree res.order, which is d, or d + 1 with a linear factor.  The
    entries are ints when the residual's denominator is 1, as it is for
    every law of ``laws.law_sides``, whose forms are all integral, and
    Fractions otherwise."""
    cols = []
    for p, q in monomials(d):
        mono = Series2.monomial(1, p, q, d)
        col = []
        for law in law_ids:
            lhs, rhs = laws.law_sides(law, mono)
            res = lhs - rhs
            col += to_coefficients(res, res.order)
        cols.append(col)
    return [list(r) for r in zip(*cols)]


@dataclass(frozen=True)
class VdBasis:
    degree: int
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def polynomials(self, order=None):
        return [from_coefficients(v, self.degree, order) for v in self.vectors]


@dataclass
class _Degree:
    rows: list                    # of constraint_matrix(d, RHO_LAWS)
    basis: VdBasis | None = None  # their kernel, once asked for


DEGREES_MAX = 64   # degrees whose rows and basis are kept


@lru_cache(maxsize=DEGREES_MAX)
def _degree(d: int) -> _Degree:
    return _Degree([linalg.integer_row(r)
                    for r in constraint_matrix(d, laws.RHO_LAWS) if any(r)])


def vd_basis(d: int) -> VdBasis:
    """Canonical basis of the degree-d solution space of (A') and (E)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    record = _degree(d)
    if record.basis is None:
        kernel = linalg.nullspace(record.rows, d + 1)
        record.basis = VdBasis(d, tuple(tuple(v) for v in kernel))
    return record.basis


def satisfies_rho_laws(rho: Series2) -> bool:
    """Whether rho satisfies RHO_LAWS.  They are linear and graded, so it
    does when each homogeneous part (rho[d - k, k])_k, read as its integer
    numerators, is in the kernel of the rows of degree d."""
    _, parts = rho.numerators()
    for d, part in enumerate(parts):
        if any(part) and any(sum(a * b for a, b in zip(row, reversed(part)))
                             for row in _degree(d).rows):
            return False
    return True


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
