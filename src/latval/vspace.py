"""Exact solver for the homogeneous-degree-d parameter space V_d.

A degree-d homogeneous polynomial rho(x, y) = sum_k a_k x^{d-k} y^k is a
valid parameter exactly when it satisfies the laws ``laws.RHO_LAWS``:

    (A')  (x + y) rho(x, y - x) = y rho(x, y) + x rho(y, x)
    (E)   rho(x, -2x - y) = rho(x, y)

V_d is the kernel of the stacked residual coefficients of these laws,
taken over Q, with the canonical reduced-echelon basis in the monomial
order x^d > x^{d-1} y > ... > y^d.  The basis in the coordinates
s = 2x + y, t = y is the image of that one solve under ``laws.to_st``,
brought to reduced echelon form.  The laws themselves are written only
in ``laws``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import laws, linalg
from .series import Series2, homogeneous_part


def monomials(d: int):
    """Degree-d monomial exponents, leading in x first."""
    return [(d - k, k) for k in range(d + 1)]


def from_coefficients(coeffs, d: int, order=None) -> Series2:
    """Build the homogeneous polynomial sum_k coeffs[k] x^{d-k} y^k."""
    if order is None:
        order = d
    return Series2({(d - k, k): c for k, c in enumerate(coeffs)}, order)


def to_coefficients(rho: Series2, d: int):
    return [rho.coeff(d - k, k) for k in range(d + 1)]


def constraint_matrix(d: int, law_ids):
    """Rows: the residual lhs - rhs of each named law, one row per residual
    coefficient; columns: the d + 1 monomial coefficients.

    The laws must be homogeneous: linear substitutions, optionally times a
    linear factor.  The residual on a degree-d monomial is then homogeneous
    of degree res.order, which is d, or d + 1 with a linear factor."""
    cols = []
    for p, q in monomials(d):
        mono = Series2.monomial(1, p, q, d)
        col = []
        for law in law_ids:
            lhs, rhs = laws.law_sides(law, mono)
            res = lhs - rhs
            col += [res.coeff(res.order - j, j) for j in range(res.order + 1)]
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


def vd_basis(d: int) -> VdBasis:
    """Canonical basis of the degree-d solution space of (A') and (E)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    kernel = linalg.nullspace(constraint_matrix(d, laws.RHO_LAWS), d + 1)
    return VdBasis(d, tuple(tuple(v) for v in kernel))


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


def homogeneous_solution_components(rho: Series2):
    """Split a solution series into its homogeneous degree parts, each of
    which is itself a solution; returns [(d, coefficient vector)]."""
    out = []
    for d in range(rho.order + 1):
        part = homogeneous_part(rho, d)
        if not part.is_zero():
            out.append((d, tuple(to_coefficients(part, d))))
    return out


# ---------------------------------------------------------------------------
# the (s, t)-coordinate picture


def st_basis(d: int) -> VdBasis:
    """Canonical basis in the (s, t) coordinates s = 2x + y, t = y: the
    reduced echelon form of the images of ``vd_basis(d)`` under to_st."""
    images = [to_coefficients(laws.to_st(p), d)
              for p in vd_basis(d).polynomials()]
    return VdBasis(d, tuple(tuple(r) for r in linalg.rref(images)[0]))
