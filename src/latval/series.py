"""Truncated formal power series over Q, in one and two variables.

Every series carries an explicit ``order``: coefficients are exact for all
total degrees <= order, and nothing is known beyond it.  Binary operations
return the minimum of the operand orders; division by a monomial (or by
x - y) loses one order.  Equality is only ever asserted up to the common
valid order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

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


class Series1:
    """Univariate truncated series: exact coefficients for degrees 0..order."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs=None, order: int = DEFAULT_ORDER):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        c = {}
        if coeffs:
            for n, v in coeffs.items():
                v = _q(v)
                if n <= order and v != 0:
                    c[n] = v
        self._c = c

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series1":
        return cls({}, order)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER) -> "Series1":
        return cls({0: _q(value)}, order)

    def coeff(self, n: int) -> Q:
        return self._c.get(n, Q(0))

    def terms(self):
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def __add__(self, other: "Series1") -> "Series1":
        order = min(self.order, other.order)
        c = dict(self._c)
        for n, v in other._c.items():
            c[n] = c.get(n, Q(0)) + v
        return Series1(c, order)

    def __sub__(self, other: "Series1") -> "Series1":
        return self + (-other)

    def __neg__(self) -> "Series1":
        return Series1({n: -v for n, v in self._c.items()}, self.order)

    def scalar_mul(self, s) -> "Series1":
        s = _q(s)
        return Series1({n: s * v for n, v in self._c.items()}, self.order)

    def mul(self, other: "Series1") -> "Series1":
        order = min(self.order, other.order)
        c = {}
        for n, a in self._c.items():
            for m, b in other._c.items():
                if n + m <= order:
                    k = n + m
                    c[k] = c.get(k, Q(0)) + a * b
        return Series1(c, order)

    def truncate(self, order: int) -> "Series1":
        return Series1(self._c, min(self.order, order))

    def eq_up_to(self, other: "Series1", order=None) -> bool:
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        for k in set(self._c) | set(other._c):
            if k <= n and self.coeff(k) != other.coeff(k):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Series1):
            return NotImplemented
        return self.eq_up_to(other)

    __hash__ = None

    def key(self):
        return (self.order, tuple(self.terms()))

    def __repr__(self):
        body = " + ".join(f"({v})*x^{n}" for n, v in self.terms()) or "0"
        return f"Series1[{body}; order {self.order}]"


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

    def coeff(self, p: int, q: int) -> Q:
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
        map to degree-n terms.
        """
        a1, b1 = _q(first[0]), _q(first[1])
        a2, b2 = _q(second[0]), _q(second[1])
        out = {}
        for (p, q), v in self._c.items():
            # (a1 x + b1 y)^p expanded via the binomial theorem, same for q
            for i in range(p + 1):
                ci = comb(p, i) * a1 ** i * b1 ** (p - i)
                if ci == 0:
                    continue
                for j in range(q + 1):
                    cj = comb(q, j) * a2 ** j * b2 ** (q - j)
                    if cj == 0:
                        continue
                    e = (i + j, (p - i) + (q - j))
                    out[e] = out.get(e, Q(0)) + v * ci * cj
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


# ---------------------------------------------------------------------------
# ring/convenience operations


def linear_substitute(f: Series2, matrix) -> Series2:
    """f(a*x + c*y, b*x + d*y) for matrix [[a, b], [c, d]]."""
    (a, b), (c, d) = matrix
    return f.subst_linear((a, c), (b, d))


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
    """f multiplied by the truncation of exp(alpha*x + beta*y)."""
    return f * exp_linear(alpha, beta, f.order)


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


def divide_x(f: Series2) -> Series2:
    """Exact quotient f / x; every nonzero term must contain x."""
    c = {}
    for (p, q), v in f._c.items():
        if p == 0:
            raise NotDivisible(f"term x^{p}*y^{q} lacks the factor x")
        c[(p - 1, q)] = v
    return Series2(c, f.order - 1)


def divide_y(f: Series2) -> Series2:
    """Exact quotient f / y; every nonzero term must contain y."""
    c = {}
    for (p, q), v in f._c.items():
        if q == 0:
            raise NotDivisible(f"term x^{p}*y^{q} lacks the factor y")
        c[(p, q - 1)] = v
    return Series2(c, f.order - 1)


def divide_x_minus_y(f: Series2) -> Series2:
    """Exact quotient f / (x - y), solved degree by degree.

    Raises NotDivisible when f is not a multiple of x - y (detected by a
    failed consistency coefficient on each antidiagonal).
    """
    if f.coeff(0, 0) != 0:
        raise NotDivisible("nonzero constant term")
    out = {}
    for n in range(1, f.order + 1):
        # h = (x - y) q  =>  h[p, n-p] = q[p-1, n-p] - q[p, n-p-1]
        prev = f.coeff(n, 0)          # q[n-1, 0]
        if prev != 0:
            out[(n - 1, 0)] = prev
        for j in range(1, n):
            prev = f.coeff(n - j, j) + prev   # q[n-1-j, j]
            if prev != 0:
                out[(n - 1 - j, j)] = prev
        if f.coeff(0, n) != -prev:
            raise NotDivisible("antidiagonal consistency failed at degree %d" % n)
    return Series2(out, f.order - 1)


def homogeneous_part(f: Series2, d: int) -> Series2:
    if d > f.order:
        raise DegreeExceedsOrder(f"degree {d} exceeds order {f.order}")
    return Series2({(p, q): v for (p, q), v in f._c.items() if p + q == d}, f.order)


def compose_univariate(g: Series1, inner: Series2) -> Series2:
    """g(inner) for inner with zero constant term, truncated to inner's order.

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

    kinds: 'expm1_over_t'   -> sum t^n / (n+1)!            (Series1)
           't_over_expm1'   -> sum B_n / n! t^n            (Series1)
           'exp_t'          -> sum t^n / n!                (Series1)
           'divided_diff_exp' -> (e^y - e^x)/(y - x) built directly as
                                 sum_{i,j} x^i y^j / (i+j+1)!   (Series2)
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


def series1_in_x(g: Series1, order=None) -> Series2:
    """View a univariate series as a Series2 in the variable x."""
    if order is None:
        order = g.order
    return Series2({(n, 0): v for n, v in g._c.items() if n <= order}, order)


def series1_in_y(g: Series1, order=None) -> Series2:
    if order is None:
        order = g.order
    return Series2({(0, n): v for n, v in g._c.items() if n <= order}, order)
