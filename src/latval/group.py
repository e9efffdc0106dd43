"""The affine unimodular group of the integer lattice and its actions.

Elements are pairs (M, v) with M an integer 2x2 matrix of determinant +-1
and v an integer translation.  On power series the action is the
exponential-twisted substitution

    (Xi . f)(x, y) = exp(alpha*x + beta*y) * f(a*x + c*y, b*x + d*y)

for Xi with linear part [[a, b], [c, d]] and translation (alpha, beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .series import Series2, linear_substitute, mul_exp_linear


class GroupError(Exception):
    pass


class NotUnimodular(GroupError):
    pass


class NotPrimitive(GroupError):
    pass


class NotUnimodularTriangle(GroupError):
    pass


Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MATRIX: Matrix = ((1, 0), (0, 1))

# generators of the dihedral subgroup D4 of GL(2, Z)
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


def mat_inverse(m: Matrix) -> Matrix:
    d = det(m)
    if abs(d) != 1:
        raise NotUnimodular(f"determinant {d}")
    (a, b), (c, d0) = m
    # adjugate over the +-1 determinant stays integral
    s = det(m)
    return ((d0 * s, -b * s), (-c * s, a * s))


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

    def inverse(self) -> "AffineUnimodular":
        mi = mat_inverse(self.m)
        w = mat_apply(mi, self.v)
        return AffineUnimodular(mi, (-w[0], -w[1]))

    def is_identity(self) -> bool:
        return self.m == IDENTITY_MATRIX and self.v == (0, 0)


IDENTITY = AffineUnimodular()


def act_on_series(xi: AffineUnimodular, f: Series2) -> Series2:
    """exp(alpha*x + beta*y) * f(a*x + c*y, b*x + d*y)."""
    g = linear_substitute(f, xi.m)
    if xi.v == (0, 0):
        return g
    return mul_exp_linear(g, xi.v[0], xi.v[1])


def act_on_polygon(xi: AffineUnimodular, P):
    """Image polygon with vertices M p + v, re-normalized."""
    from .geometry import hull_normalize
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


def is_d4_invariant(f: Series2):
    """Check invariance under both D4 generators.

    Returns (True, None) or (False, witness_matrix); generator invariance
    suffices for the whole group.
    """
    for g in D4_GENERATORS:
        if not linear_substitute(f, g).eq_up_to(f):
            return False, g
    return True, None


def complete_primitive(w) -> AffineUnimodular:
    """A determinant-one matrix with first column the primitive vector w.

    The second column is the Bezout solution with minimal |u1| + |u2|,
    ties broken lexicographically.
    """
    w1, w2 = int(w[0]), int(w[1])
    if gcd(abs(w1), abs(w2)) != 1:
        raise NotPrimitive(f"{(w1, w2)} is not primitive")
    # solve w1*u2 - w2*u1 = 1; one solution from the extended euclid pair
    u1, u2 = _bezout_column(w1, w2)
    # general solution: (u1 + t*w1, u2 + t*w2)
    nn = w1 * w1 + w2 * w2
    t0 = round(-(w1 * u1 + w2 * u2) / nn)
    best = None
    for t in range(t0 - 2, t0 + 3):
        cand = (u1 + t * w1, u2 + t * w2)
        score = (abs(cand[0]) + abs(cand[1]), cand)
        if best is None or score < best[0]:
            best = (score, cand)
    u1, u2 = best[1]
    return AffineUnimodular(((w1, u1), (w2, u2)))


def _bezout_column(w1: int, w2: int) -> tuple[int, int]:
    # extended gcd for a*w1 + b*w2 = 1, rearranged to w1*u2 - w2*u1 = 1
    old_r, r = w1, w2
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*w1 + old_t*w2 = old_r = +-gcd = +-1
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    # w1*u2 - w2*u1 = 1 with u2 = old_s, u1 = -old_t
    return (-old_t, old_s)


def triangle_frame(v0, v1, v2) -> AffineUnimodular:
    """Xi with Xi([e1, e2, o]) = [v0, v1, v2]: translation v0 and linear
    columns v1 - v0, v2 - v0.  Requires the triangle to be unimodular."""
    c1 = (v1[0] - v0[0], v1[1] - v0[1])
    c2 = (v2[0] - v0[0], v2[1] - v0[1])
    d = c1[0] * c2[1] - c1[1] * c2[0]
    if abs(d) != 1:
        raise NotUnimodularTriangle(f"twice-area {abs(d)}")
    return AffineUnimodular(((c1[0], c2[0]), (c1[1], c2[1])),
                            (int(v0[0]), int(v0[1])))
