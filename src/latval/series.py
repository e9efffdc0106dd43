"""Truncated formal power series over Q in two variables, x and y.

Every series carries an explicit ``order``: coefficients are exact for all
total degrees <= order, and nothing is known beyond it.  Binary operations
return the minimum of the operand orders; division by any linear form
a*x + b*y loses one order.  Equality is only ever asserted up to the common
valid order.  A series in one variable is a ``Series2`` in x alone
(``Series1`` builds one); its image in y is the swap
``subst_linear((0, 1), (1, 0))``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

Q = Fraction

DEFAULT_ORDER = 12


class SeriesError(Exception):
    pass


class DivisionByNonUnit(SeriesError):
    pass


class NotDivisible(SeriesError):
    pass


class ConstantTermNotZero(SeriesError):
    pass


class DegreeExceedsOrder(SeriesError):
    pass


def _q(value) -> Q:
    return value if isinstance(value, Q) else Q(value)


def _linear_powers(a: int, b: int, n: int) -> list:
    """Integer rows of (a*x + b*y)^k for k = 0..n: row k lists the
    coefficients C(k, i) a^i b^(k-i) of x^i y^(k-i), for i = 0..k."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        rows.append([b * u + a * w for u, w in zip(prev + [0], [0] + prev)])
    return rows


def _integer_degrees(f) -> dict:
    """f's coefficients grouped by total degree d, each degree over one
    common denominator: {d: (den, {p: s})} with f[p, d - p] = s / den."""
    by_degree = {}
    for (p, q), v in f._c.items():
        by_degree.setdefault(p + q, {})[p] = v
    out = {}
    for d, coeffs in by_degree.items():
        den = lcm(*(v.denominator for v in coeffs.values()))
        out[d] = (den, {p: v.numerator * (den // v.denominator)
                        for p, v in coeffs.items()})
    return out


class Series2:
    """Bivariate truncated series with exact rational coefficients.

    Sparse map (p, q) -> coefficient; stored exponents satisfy p + q <= order
    and zero coefficients are pruned.
    """

    __slots__ = ("order", "_c")

    def __init__(self, coeffs=None, order: int = DEFAULT_ORDER):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        c = {}
        if coeffs:
            for (p, q), v in coeffs.items():
                v = _q(v)
                if p + q <= order and v != 0:
                    c[(p, q)] = v
        self._c = c

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({}, order)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({(0, 0): _q(value)}, order)

    @classmethod
    def monomial(cls, value, p: int, q: int, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({(p, q): _q(value)}, order)

    def coeff(self, p: int, q: int = 0) -> Q:
        return self._c.get((p, q), Q(0))

    def terms(self):
        return sorted(self._c.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))

    def is_zero(self) -> bool:
        return not self._c

    def constant_term(self) -> Q:
        return self.coeff(0, 0)

    def lowest_degree(self):
        """Smallest total degree with a nonzero coefficient, or None for zero."""
        if not self._c:
            return None
        return min(p + q for p, q in self._c)

    def __add__(self, other: "Series2") -> "Series2":
        order = min(self.order, other.order)
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Q(0)) + v
        return Series2(c, order)

    def __sub__(self, other: "Series2") -> "Series2":
        return self + (-other)

    def __neg__(self) -> "Series2":
        return Series2({e: -v for e, v in self._c.items()}, self.order)

    def scalar_mul(self, s) -> "Series2":
        s = _q(s)
        return Series2({e: s * v for e, v in self._c.items()}, self.order)

    def __mul__(self, other: "Series2") -> "Series2":
        order = min(self.order, other.order)
        c = {}
        for (p1, q1), a in self._c.items():
            for (p2, q2), b in other._c.items():
                p, q = p1 + p2, q1 + q2
                if p + q <= order:
                    e = (p, q)
                    c[e] = c.get(e, Q(0)) + a * b
        return Series2(c, order)

    def mul_linear(self, a, b) -> "Series2":
        """Multiply by the exact linear form a*x + b*y.

        The factor is an exact polynomial, so the product is valid one degree
        beyond self.order (the new top coefficients depend only on stored ones).
        """
        a, b = _q(a), _q(b)
        c = {}
        for (p, q), v in self._c.items():
            if a != 0:
                e = (p + 1, q)
                c[e] = c.get(e, Q(0)) + a * v
            if b != 0:
                e = (p, q + 1)
                c[e] = c.get(e, Q(0)) + b * v
        return Series2(c, self.order + 1)

    def truncate(self, order: int) -> "Series2":
        return Series2(self._c, min(self.order, order))

    def scale_variables(self, m) -> "Series2":
        """Substitute (x, y) -> (m*x, m*y)."""
        m = _q(m)
        return Series2({(p, q): v * m ** (p + q) for (p, q), v in self._c.items()},
                       self.order)

    def subst_linear(self, first, second) -> "Series2":
        """Return f(a1*x + b1*y, a2*x + b2*y) for first=(a1,b1), second=(a2,b2).

        Coefficients may be rational; order is preserved since degree-n terms
        map to degree-n terms.  The work is done in integers: with L the lcm
        of the four entries' denominators, (a1 x + b1 y)^p is the integer row
        of (L a1 x + L b1 y)^p divided by L^p.  The coefficients of each total
        degree d are brought to one common denominator den, so every output
        coefficient of degree d is an exact integer sum over den * L^d.
        """
        a1, b1 = _q(first[0]), _q(first[1])
        a2, b2 = _q(second[0]), _q(second[1])
        scale = lcm(a1.denominator, b1.denominator,
                    a2.denominator, b2.denominator)
        rows1 = _linear_powers(int(a1 * scale), int(b1 * scale), self.order)
        rows2 = _linear_powers(int(a2 * scale), int(b2 * scale), self.order)
        out = {}
        for d, (den, nums) in _integer_degrees(self).items():
            acc = [0] * (d + 1)
            for p, s in nums.items():
                q = d - p
                row2 = rows2[q]
                # x^i y^(p-i) of the first power times x^j y^(q-j) of the second
                for i, ci in enumerate(rows1[p]):
                    if ci:
                        ci *= s
                        for j, cj in enumerate(row2):
                            if cj:
                                acc[i + j] += ci * cj
            den *= scale ** d
            for i, num in enumerate(acc):
                if num:
                    out[(i, d - i)] = Q(num, den)
        return Series2(out, self.order)

    def first_difference(self, other: "Series2", order=None):
        """First exponent pair (by total degree, then x-degree) where the two
        series differ up to the common valid order, or None."""
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        exps = [e for e in set(self._c) | set(other._c) if e[0] + e[1] <= n]
        for e in sorted(exps, key=lambda e: (e[0] + e[1], e[0])):
            a, b = self.coeff(*e), other.coeff(*e)
            if a != b:
                return (e, a, b)
        return None

    def eq_up_to(self, other: "Series2", order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        return self.eq_up_to(other)

    __hash__ = None

    def key(self):
        return (self.order, tuple(self.terms()))

    def __repr__(self):
        body = " + ".join(f"({v})*x^{p}*y^{q}" for (p, q), v in self.terms()) or "0"
        return f"Series2[{body}; order {self.order}]"


def Series1(coeffs=None, order: int = DEFAULT_ORDER) -> Series2:
    """A series in x alone, from {n: coefficient of x^n}: the form of g and
    of the univariate special series."""
    return Series2({(n, 0): v for n, v in (coeffs or {}).items()}, order)


# ---------------------------------------------------------------------------
# ring/convenience operations


def exp_linear(alpha, beta, order: int) -> Series2:
    """Truncation of exp(alpha*x + beta*y)."""
    alpha, beta = _q(alpha), _q(beta)
    c = {}
    for p in range(order + 1):
        ap = alpha ** p
        if ap == 0:
            break
        for q in range(order + 1 - p):
            v = ap * beta ** q
            if v != 0:
                c[(p, q)] = v / (factorial(p) * factorial(q))
    return Series2(c, order)


def mul_exp_linear(f: Series2, alpha, beta) -> Series2:
    """f multiplied by the truncation of exp(alpha*x + beta*y).

    Exact integer method: write alpha = an/ad and beta = bn/bd, and scale
    f[p, q] to the integer F[p, q] = den * p! * q! * f[p, q] over the common
    denominator den.  In that scaling the product with the exponential is
    two binomial convolutions, first in x, then in y:

        H[p, q] = sum_i C(p, i) an^i ad^(p-i) F[p-i, q]
        G[p, q] = sum_j C(q, j) bn^j bd^(q-j) H[p, q-j]

    and the result is G[p, q] / (den * p! * q! * ad^p * bd^q).  Every step
    is integer arithmetic, so the result equals f * exp_linear(alpha, beta,
    f.order) exactly, in O(order^3) instead of O(order^4) operations.
    """
    alpha, beta = _q(alpha), _q(beta)
    n = f.order
    fact = [factorial(k) for k in range(n + 1)]
    den = lcm(*(v.denominator for v in f._c.values()))
    rows_x = _linear_powers(alpha.numerator, alpha.denominator, n)
    rows_y = _linear_powers(beta.numerator, beta.denominator, n)
    # h[p][q]: convolution in x of F; row_k[k - m] = C(k, m) an^(k-m) ad^m
    h = [[0] * (n + 1 - p) for p in range(n + 1)]
    for (m, q), v in f._c.items():
        s = v.numerator * (den // v.denominator) * fact[m] * fact[q]
        for k in range(m, n + 1 - q):
            c = rows_x[k][k - m]
            if c:
                h[k][q] += c * s
    out = {}
    for p in range(n + 1):
        hp = h[p]
        for q in range(n + 1 - p):
            s = 0
            row = rows_y[q]
            for m in range(q + 1):
                if hp[m]:
                    s += row[q - m] * hp[m]
            if s:
                out[(p, q)] = Q(s, den * fact[p] * fact[q]
                                * alpha.denominator ** p * beta.denominator ** q)
    return Series2(out, n)


def divide_unit(f: Series2, g: Series2) -> Series2:
    """Exact quotient f / g for a unit g (nonzero constant term)."""
    g0 = g.constant_term()
    if g0 == 0:
        raise DivisionByNonUnit("divisor has zero constant term")
    order = min(f.order, g.order)
    h = {}
    for n in range(order + 1):
        for p in range(n + 1):
            q = n - p
            s = f.coeff(p, q)
            for (i, j), hv in h.items():
                if i <= p and j <= q and (i, j) != (p, q):
                    s -= hv * g.coeff(p - i, q - j)
            if s != 0:
                h[(p, q)] = s / g0
    return Series2(h, order)


def divide_linear(f: Series2, a, b) -> Series2:
    """Exact quotient f / (a*x + b*y) for rationals a, b not both zero;
    loses one order.

    Solved per total degree n in integers: with L the lcm of the
    denominators of a and b, A = L*a, B = L*b, and the degree-n coefficients
    F[p] of x^p y^(n-p) over one common denominator den, the quotient's
    coefficient of x^p y^(n-1-p) is L*N[p] / (den*B^(p+1)), where
    N[p] = F[p]*B^p - A*N[p-1] and N[-1] = 0.  f is a multiple exactly when
    F[n]*B^n = A*N[n-1] on every degree (for n = 0: a zero constant term);
    otherwise NotDivisible is raised.  When B = 0, f is read with x and y
    swapped.
    """
    a, b = _q(a), _q(b)
    if a == 0 and b == 0:
        raise ValueError("the linear form is zero")
    scale = lcm(a.denominator, b.denominator)
    A, B = int(a * scale), int(b * scale)
    swap = B == 0
    if swap:
        A, B = B, A
    powers = [B ** k for k in range(f.order + 2)]
    out = {}
    for n, (den, nums) in _integer_degrees(f).items():
        if swap:
            nums = {n - p: s for p, s in nums.items()}
        prev = 0
        for p in range(n):
            prev = nums.get(p, 0) * powers[p] - A * prev
            if prev:
                e = (n - 1 - p, p) if swap else (p, n - 1 - p)
                out[e] = Q(scale * prev, den * powers[p + 1])
        if nums.get(n, 0) * powers[n] != A * prev:
            raise NotDivisible(f"not a multiple of {a}*x + {b}*y: "
                               f"degree {n} fails the consistency check")
    return Series2(out, f.order - 1)


def homogeneous_part(f: Series2, d: int) -> Series2:
    if d > f.order:
        raise DegreeExceedsOrder(f"degree {d} exceeds order {f.order}")
    return Series2({(p, q): v for (p, q), v in f._c.items() if p + q == d}, f.order)


def compose_univariate(g: Series2, inner: Series2) -> Series2:
    """g(inner) for a series g in x alone and inner with zero constant term,
    truncated to inner's order.

    If g is only known to degree M and inner has lowest degree L, the result
    is additionally capped at (M + 1) * L - 1.
    """
    if inner.constant_term() != 0:
        raise ConstantTermNotZero("inner series has nonzero constant term")
    low = inner.lowest_degree()
    if low is None:
        return Series2.constant(g.coeff(0), inner.order)
    order = min(inner.order, (g.order + 1) * low - 1)
    result = Series2.constant(g.coeff(0), order)
    power = Series2.constant(1, order)
    for n in range(1, g.order + 1):
        if n * low > order:
            break
        power = power * inner.truncate(order)
        c = g.coeff(n)
        if c != 0:
            result = result + power.scalar_mul(c)
    return result


# ---------------------------------------------------------------------------
# special series


def bernoulli_numbers(n_max: int):
    """B_0..B_n_max (convention B_1 = -1/2) via the binomial recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [Q(1)]
    for n in range(1, n_max + 1):
        s = Q(0)
        for k in range(n):
            s += comb(n + 1, k) * out[k]
        out.append(-s / (n + 1))
    return out


def special_series(kind: str, order: int):
    """The named series the formulas rely on.

    kinds: 'expm1_over_t'   -> sum x^n / (n+1)!            (in x alone)
           't_over_expm1'   -> sum B_n / n! x^n            (in x alone)
           'exp_t'          -> sum x^n / n!                (in x alone)
           'divided_diff_exp' -> (e^y - e^x)/(y - x) built directly as
                                 sum_{i,j} x^i y^j / (i+j+1)!
    """
    if kind == "expm1_over_t":
        return Series1({n: Q(1, factorial(n + 1)) for n in range(order + 1)}, order)
    if kind == "t_over_expm1":
        bern = bernoulli_numbers(order)
        return Series1({n: bern[n] / factorial(n) for n in range(order + 1)}, order)
    if kind == "exp_t":
        return Series1({n: Q(1, factorial(n)) for n in range(order + 1)}, order)
    if kind == "divided_diff_exp":
        c = {}
        for p in range(order + 1):
            for q in range(order + 1 - p):
                c[(p, q)] = Q(1, factorial(p + q + 1))
        return Series2(c, order)
    raise ValueError(f"unknown special series {kind!r}")
