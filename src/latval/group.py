"""The affine unimodular group of the integer lattice and its actions.

Elements are pairs (M, v) with M an integer 2x2 matrix of determinant +-1
and v an integer translation.  On power series the action is the
exponential-twisted substitution

    (Xi . f)(x, y) = exp(alpha*x + beta*y) * f(a*x + c*y, b*x + d*y)

for Xi with linear part [[a, b], [c, d]] and translation (alpha, beta).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import hull_normalize
from .series import Series2, packed_cells, sum_of_images


class GroupError(Exception):
    pass


class NotUnimodular(GroupError):
    pass


class NotUnimodularTriangle(GroupError):
    pass


Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MATRIX: Matrix = ((1, 0), (0, 1))

# generators of the dihedral subgroup D4 of GL(2, Z); on series, the maps
# f(x + y, -y) and f(x, -2x - y) of the laws in laws.D4_LAWS
D4_GENERATORS: tuple[Matrix, Matrix] = (((1, 0), (1, -1)), ((1, -2), (0, -1)))

# a generating set of all of GL(2, Z)
GL2Z_GENERATORS: tuple[Matrix, ...] = (((1, 1), (0, 1)),
                                       ((0, -1), (1, 0)),
                                       ((1, 0), (0, -1)))


def det(m: Matrix) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_apply(m: Matrix, p) -> tuple[int, int]:
    (a, b), (c, d) = m
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


@dataclass(frozen=True)
class AffineUnimodular:
    """Element of Z^2 semidirect GL(2, Z): p -> M p + v."""

    m: Matrix = IDENTITY_MATRIX
    v: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if abs(det(self.m)) != 1:
            raise NotUnimodular(f"determinant {det(self.m)} not +-1")

    @classmethod
    def translation(cls, v) -> "AffineUnimodular":
        return cls(IDENTITY_MATRIX, (int(v[0]), int(v[1])))

    @classmethod
    def linear(cls, m: Matrix) -> "AffineUnimodular":
        return cls(tuple(tuple(int(e) for e in row) for row in m), (0, 0))

    def apply_point(self, p) -> tuple[int, int]:
        q = mat_apply(self.m, p)
        return (q[0] + self.v[0], q[1] + self.v[1])

    def compose(self, other: "AffineUnimodular") -> "AffineUnimodular":
        """self after other: (self.compose(other)).apply = self(other(.))."""
        w = mat_apply(self.m, other.v)
        return AffineUnimodular(mat_mul(self.m, other.m),
                                (w[0] + self.v[0], w[1] + self.v[1]))


def act_on_series(xi: AffineUnimodular, f: Series2) -> Series2:
    """exp(alpha*x + beta*y) * f(a*x + c*y, b*x + d*y): f, packed by
    packed_cells, as the one face of sum_of_images with translation
    (alpha, beta) and edge vectors (a, c), (b, d)."""
    (a, b), (c, d) = xi.m
    den, (cell,) = packed_cells([f])
    return sum_of_images([(cell, tuple(xi.v), (a, c), (b, d))], f.order, den)


def act_on_polygon(xi: AffineUnimodular, P):
    """Image polygon with vertices M p + v, re-normalized."""
    return hull_normalize([xi.apply_point(p) for p in P.vertices])


def d4_elements() -> tuple[Matrix, ...]:
    """All 8 elements of D4, in a deterministic order."""
    seen = {IDENTITY_MATRIX}
    frontier = [IDENTITY_MATRIX]
    while frontier:
        nxt = []
        for m in frontier:
            for g in D4_GENERATORS:
                for prod in (mat_mul(m, g), mat_mul(g, m)):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen))
