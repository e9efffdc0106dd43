"""Truncated formal power series over Q in two variables, x and y.

Every series carries an explicit ``order``: coefficients are exact for all
total degrees <= order, and nothing is known beyond it.  Binary operations
return the minimum of the operand orders; division by any linear form
a*x + b*y loses one order.  Equality is only ever asserted up to the common
valid order.  A series in one variable is a ``Series2`` in x alone
(``Series1`` builds one); its image in y is the swap
``subst_linear((0, 1), (1, 0))``.

Linear substitution, the largest cost of evaluation, is a Kronecker
substitution on Python ints.  A homogeneous polynomial of degree d,
sum_i c_i x^i y^(d-i), is packed into the integer sum_i c_i 2^(k*i), its
value at x = 2^k, y = 1.  The linear form a*x + b*y packs to
u = (a << k) + b, so products of powers of two forms are plain int
products, and the packed image of a degree is one integer sum, as is
the sum of the images of many cells, and so is their product with
exp(v.z), whose degree s is a sum of products with powers of v.z.  Its
coefficients are read back as balanced digits of width k; the width that
``_width`` sets keeps each within (-2^(k-1), 2^(k-1)), so they are read
exactly.  ``Series2.__mul__`` packs each degree of both factors the same
way, so a degree of the product is one sum of int products;
``Series2.mul_linear`` is two shifted copies of the numerators.  Every
packed kernel reads its result back once, by ``_unpack``.

A series holds nonzero int numerators {(p, q): s} over one int den >= 1,
canonical: gcd(den, *s) = 1 and every p + q <= order, so equal series of
one order hold equal state.  ``Series2(...)`` checks what it is given and
brings it over one lcm; the kernels build their results with
``Series2._of``, which reduces by one gcd, so no ``Fraction`` is made
between kernels.  ``coeff``, ``terms`` and ``first_difference`` return
``Fraction``s, and ``Series2.numerators`` gives the integers.  An int
argument of a kernel is used as it is, with no ``Fraction`` made of it; a
float is refused, since it is already rounded to binary.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

Q = Fraction
_ZERO = Q(0)

DEFAULT_ORDER = 12


class SeriesError(Exception):
    pass


class NotDivisible(SeriesError):
    pass


class ConstantTermNotZero(SeriesError):
    pass


def _q(value):
    """value as it is if an int or a Fraction (both have numerator and
    denominator), else made a Fraction; TypeError for a float, which is
    already rounded: 0.1 is 3602879701896397/2^55 in binary."""
    if isinstance(value, (int, Q)):
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float, which is not exact: give an "
                        "int, a Fraction or a \"num/den\" string")
    return Q(value)


def _integral(*values) -> tuple:
    """(L, [L * v for each v]) as ints, L the lcm of the denominators."""
    values = [_q(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


# str() writes an int below this under any setting of Python's limit on
# the digits of an int written as text (at least 640 unless switched off)
_SHORT = 10 ** 600


def format_rational(v, den: int = 1) -> str:
    """v / den as exact text, "num/den" in lowest terms or an integer, with
    any number of digits: v a Fraction or an int, den a positive int."""
    num, den = v.numerator, v.denominator * den
    g = gcd(num, den)
    text = _int_text(num // g)
    return text if den == g else f"{text}/{_int_text(den // g)}"


def _int_text(n: int) -> str:
    """The decimal digits of n, however many: a long n is split at a
    power of 10 below half its digits, and each part is written apart."""
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    low_digits = n.bit_length() * 3 // 20   # 0.15 < log10(2) / 2
    high, low = divmod(n, 10 ** low_digits)
    return _int_text(high) + _int_text(low).zfill(low_digits)


def _packed_powers(a: int, b: int, n: int, k: int) -> list:
    """[u^0, ..., u^n] for u = (a << k) + b: the linear form a*x + b*y
    packed at x = 2^k, y = 1, so that u^p packs (a*x + b*y)^p."""
    u = (a << k) + b
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * u)
    return powers


def _packed_cell(degrees) -> tuple:
    """What the packed substitution needs of homogeneous integer parts:
    (degrees, bits, top1, top2) for degrees a list of (d, nums) sorted by
    d, each nums a nonempty list of (p, s) with s != 0 standing for
    s * x^p * y^(d-p); bits is the largest bit length of an s, and top1
    and top2 are the highest powers p and d - p that any term needs."""
    bits = top1 = top2 = 0
    for d, nums in degrees:
        ps, ss = zip(*nums)
        bits = max(bits, max(max(ss), -min(ss)).bit_length())
        top1 = max(top1, max(ps))
        top2 = max(top2, d - min(ps))
    return degrees, bits, top1, top2


def _width(images, spare: int = 0) -> int:
    """The width k for _packed_sum of the images (cell, first, second):
    the sum over them of sum_p s * P1^p * P2^(d-p), for the _packed_cell
    cell and P1 = a1*x + b1*y, P2 = a2*x + b2*y, with integer
    first = (a1, b1) and second = (a2, b2).  For one image with top
    degree n and l = bitlen(max(|a1| + |b1|, |a2| + |b2|)), each
    coefficient of degree d is at most sum_p |s| (|a1| + |b1|)^p (|a2| + |b2|)^(d-p)
    < 2^(bits + n*l + bitlen(n + 1)); a sum of m images stays below 2^B
    for B = max (bits + n*l + bitlen(n + 1)) + bitlen(m).  The width is
    k = B + spare + 2: the caller may multiply the coefficients by up to
    2^spare before _unpack reads them, which it reads exactly while each is
    below 2^(k-2) in size."""
    k = 0
    for (degrees, bits, _, _), (a1, b1), (a2, b2) in images:
        if degrees:
            n = degrees[-1][0]
            ell = max(abs(a1) + abs(b1), abs(a2) + abs(b2)).bit_length()
            k = max(k, bits + n * ell + (n + 1).bit_length())
    return k + len(images).bit_length() + spare + 2


def _packed_sum(images, k: int) -> dict:
    """{d: h}, h the degree d of the sum that _width describes packed at
    x = 2^k, y = 1: one integer sum of the terms s * U^p * V^(d-p), for
    U, V the _packed_powers of an image's two forms, made once per image."""
    sums = {}
    for (degrees, _, top1, top2), (a1, b1), (a2, b2) in images:
        us = _packed_powers(a1, b1, top1, k)
        vs = _packed_powers(a2, b2, top2, k)
        for d, nums in degrees:
            h = sums.get(d, 0)
            for p, s in nums:
                h += s * us[p] * vs[d - p]
            sums[d] = h
    return sums


# row d: the exponents (i, d - i), i = 0..d, shared as keys by the maps
# that _unpack makes.  Grown (by a longer copy, so that no thread sees a
# part row) to the largest degree read, never cut: one copy of the keys of
# the largest series read; at io.MAX_ORDER, 1000, that is 501,501 tuples.
_EXPONENTS = []


def _unpack(packed, k: int, weights=None) -> dict:
    """{(i, d - i): s * weights[d]} (weights None: s) for the nonzero
    balanced digits s of width k of each h of the list of (d, h), d rising:
    the coefficients of x^i y^(d-i), exact while below 2^(k-2) in size."""
    global _EXPONENTS
    if not packed:
        return {}
    rows, out = _EXPONENTS, {}
    if len(rows) <= packed[-1][0]:
        rows = _EXPONENTS = rows + [[(i, d - i) for i in range(d + 1)] for d
                                    in range(len(rows), packed[-1][0] + 1)]
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    # offset: half in each of the digits 0..d, which makes them all
    # nonnegative, so each is read with one mask and one shift
    offset, done = half, 0
    for d, h in packed:
        for _ in range(d - done):
            offset = (offset << k) | half
        done = d
        h += offset
        m = 1 if weights is None else weights[d]
        for e in rows[d]:
            s = (h & mask) - half
            if s:
                out[e] = s * m
            h >>= k
    return out


def _bits(c: dict) -> int:
    """The largest bit length of a numerator of the map c."""
    return max(map(abs, c.values()), default=0).bit_length()


def _packed_degrees(c: dict, order: int, k: int) -> list:
    """[(d, h)] sorted by d for each degree d <= order of the numerator
    map c, h the int sum_p s * 2^(k*p) of its terms s * x^p * y^(d-p):
    degree d packed at x = 2^k, y = 1."""
    packed = {}
    for (p, q), s in c.items():
        if p + q <= order:
            packed[p + q] = packed.get(p + q, 0) + (s << (k * p))
    return sorted(packed.items())


# ---------------------------------------------------------------------------
# degree tables
#
# A table t over the denominator D stands for the series with coefficients
# f[p, d - p] = t[d][p] / (D * d!), for d <= n: row d is degree d.  A
# linear substitution keeps each total degree, and exp(v.z) carries degree
# d into degree s with the factor C(s, d) * (v.z)^(s-d) once both are
# times their d! and s!, so integer substitutions and twists by integer v
# map integer tables to integer tables.  The tables never leave this
# module: series go in by packed_cells, and the sum of their images (a
# polygon's faces, or the one face of mul_exp_linear or of
# group.act_on_series) comes out of sum_of_images as one Series2.
#
# Series2.subst_linear and exp_linear stay apart.  A substitution routed
# through the tables pays for the d! it does not need: on dense series of
# orders 8 to 20 under integer matrices it was 1.8x slower, and faster in
# none of 15 interleaved pairs.  exp_linear expands the exponential in
# Fractions, so that the tests have an oracle for this kernel that shares
# none of its code.


def packed_cells(fs) -> tuple:
    """(D, cells): the series fs, all of one order, as cells for
    sum_of_images, the _packed_cell of each one's degree table over the
    least D that makes every one of them integral.  Each f, with
    numerators s over den, enters as t[d][p] = d! * s * D / den; the least
    D for f alone is den / gcd(den, the d! * s), and D is their lcm."""
    n = fs[0].order
    fact = [factorial(d) for d in range(n + 1)]
    scaled = [(f._den, [(p + q, p, fact[p + q] * s)
                        for (p, q), s in f._c.items()]) for f in fs]
    den = lcm(*(d // gcd(d, *(s for _, _, s in terms)) for d, terms in scaled))
    cells = []
    for d, terms in scaled:
        degrees = {}
        for k, p, s in terms:
            degrees.setdefault(k, []).append((p, s * den // d))
        cells.append(_packed_cell(sorted(degrees.items())))
    return den, cells


def sum_of_images(faces, n: int, den: int, scale: int = 1) -> "Series2":
    """The series of order n that is the sum of
    exp(v.z) * f(u1.z, u2.z) over the faces (cell, v, u1, u2), read at
    z / scale, for cells of series f from one packed_cells call that gave
    den, and integer vectors v, u1 and u2: the image of f under the affine
    map with translation v and edge vectors u1, u2 (the images of e1 and
    e2), as in group.act_on_series.

    The faces are summed by translation, all at one width k, and read
    back once.  The substituted cells of one translation v add up, by
    _packed_sum, to one packed integer h[d] per degree.  The twist by
    exp(v.z) makes degree s, times s!, the sum
    sum_d C(s, d) * (v.z)^(s-d) * h[d]: a Taylor shift of h, made in
    packed form, with w = (v0 << k) + v1 for v.z, by the n passes
    h[i] += w * h[i-1], i falling.  With l = |v0| + |v1| it grows the
    coefficients at most by sum_d C(s, d) l^(s-d) = (1 + l)^s
    <= 2^(n * bitlen(l)), the spare bits of this translation's _width.
    The T twisted sums are added in packed form, so k is the largest
    _width plus bitlen(T), and read back once into the integer table t:
    its coefficient of x^p y^(d-p) is t[d][p] / (den * d! * scale^d), or
    t[d][p] * w[d] over den * w[0] for w[d] = n!/d! * scale^(n-d)."""
    by_v = {}
    for cell, v, u1, u2 in faces:
        if cell[0]:     # a zero series, such as c = 0, adds nothing
            by_v.setdefault(v, []).append((cell, u1, u2))
    k = max((_width(images, n * (abs(v0) + abs(v1)).bit_length())
             for (v0, v1), images in by_v.items()), default=0) \
        + len(by_v).bit_length()
    total = [0] * (n + 1)
    for (v0, v1), images in by_v.items():
        sums = _packed_sum(images, k)
        h = [sums.get(d, 0) for d in range(n + 1)]
        w = (v0 << k) + v1
        if w:
            for j in range(1, n + 1):
                for i in range(n, j - 1, -1):
                    h[i] += w * h[i - 1]
        total = [a + b for a, b in zip(total, h)]
    w = [1] * (n + 1)
    for d in range(n, 0, -1):
        w[d - 1] = w[d] * d * scale
    return Series2._of(_unpack([(d, h) for d, h in enumerate(total) if h],
                               k, w), den * w[0], n)


class Series2:
    """Bivariate truncated series with exact rational coefficients.

    The coefficients are the int numerators _c over _den, canonical as the
    module docstring says.  The constructor converts, prunes and drops
    what it is given; the kernels build their results with _of.
    """

    __slots__ = ("order", "_den", "_c")

    def __init__(self, coeffs=None, order: int = DEFAULT_ORDER):
        if order < 0:
            raise ValueError("order must be non-negative")
        c = {}
        if coeffs:
            for (p, q), v in coeffs.items():
                v = _q(v)
                if p + q <= order and v != 0:
                    c[(p, q)] = v
        # one lcm and one division per distinct denominator
        dens = {v.denominator for v in c.values()}
        self.order, self._den = order, lcm(*dens)
        scale = {q: self._den // q for q in dens}
        self._c = {e: v.numerator * scale[v.denominator]
                   for e, v in c.items()}

    @classmethod
    def _of(cls, c: dict, den: int, order: int) -> "Series2":
        """The series c / den, reduced by one gcd and otherwise unchecked:
        every value of c must be a nonzero int, every exponent of total
        degree <= order, and den >= 1."""
        g = gcd(den, *c.values())
        f = object.__new__(cls)
        f.order, f._den = order, den // g
        f._c = c if g == 1 else {e: s // g for e, s in c.items()}
        return f

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({}, order)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({(0, 0): value}, order)

    @classmethod
    def monomial(cls, value, p: int, q: int, order: int = DEFAULT_ORDER) -> "Series2":
        return cls({(p, q): value}, order)

    def coeff(self, p: int, q: int = 0) -> Q:
        s = self._c.get((p, q))
        return Q(s, self._den) if s else _ZERO

    def terms(self):
        return [(e, Q(s, self._den)) for e, s in
                sorted(self._c.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))]

    def numerators(self) -> tuple:
        """(den, c): the coefficients c[(p, q)] / den in lowest terms; c is
        the series' own map, to be read and not changed."""
        return self._den, self._c

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
        return self._plus(other, 1)

    def __sub__(self, other: "Series2") -> "Series2":
        return self._plus(other, -1)

    def _plus(self, other: "Series2", sign: int) -> "Series2":
        """self + sign * other, over the lcm of the two denominators."""
        order = min(self.order, other.order)
        den = lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den * sign
        c = {e: s * ma for e, s in self._c.items() if e[0] + e[1] <= order}
        for e, s in other._c.items():
            if e[0] + e[1] <= order:
                c[e] = c.get(e, 0) + s * mb
        return Series2._of({e: s for e, s in c.items() if s}, den, order)

    def __neg__(self) -> "Series2":
        return Series2._of({e: -s for e, s in self._c.items()}, self._den,
                           self.order)

    def scalar_mul(self, s) -> "Series2":
        s = _q(s)
        if not s:
            return Series2._of({}, 1, self.order)
        return Series2._of({e: v * s.numerator for e, v in self._c.items()},
                           self._den * s.denominator, self.order)

    def __mul__(self, other: "Series2") -> "Series2":
        """The truncated product of the numerators, over the product of the
        denominators: the product of packed degrees i and j of the factors
        is degree i + j packed, so each degree is one sum, read back once.

        A coefficient of the product is a sum of at most (order + 1)^2
        products of a numerator of each factor, so it is below
        2^(bits(a) + bits(b) + 2*bitlen(order + 1)), bits the largest bit
        length of a factor's numerators; the width
        k = bits(a) + bits(b) + 2*bitlen(order + 1) + 2 keeps it below the
        2^(k-2) that _unpack reads exactly."""
        order = min(self.order, other.order)
        k = (_bits(self._c) + _bits(other._c)
             + 2 * (order + 1).bit_length() + 2)
        pb = _packed_degrees(other._c, order, k)
        sums = {}
        for i, a in _packed_degrees(self._c, order, k):
            for j, b in pb:
                if i + j > order:
                    break
                sums[i + j] = sums.get(i + j, 0) + a * b
        return Series2._of(_unpack(sorted(sums.items()), k),
                           self._den * other._den, order)

    def mul_linear(self, a, b) -> "Series2":
        """Multiply by the exact linear form a*x + b*y: the product with
        the form, one order beyond self.order.

        Lifting self to that order is exact: the form has no constant
        term, so self's unknown degree self.order + 1 meets it only in
        degrees the product drops.  With L the lcm of the denominators of
        a and b, the product is the numerators times A*x + B*y, A = L*a and
        B = L*b, over den * L: two shifted copies of the numerators, added
        where they meet, and an entry that cancels there is dropped."""
        scale, (A, B) = _integral(a, b)
        c = {(p + 1, q): s * A for (p, q), s in self._c.items()}
        for (p, q), s in self._c.items():
            c[(p, q + 1)] = c.get((p, q + 1), 0) + s * B
        return Series2._of({e: s for e, s in c.items() if s},
                           self._den * scale, self.order + 1)

    def truncate(self, order: int) -> "Series2":
        order = min(self.order, order)
        if order < 0:
            raise ValueError("order must be non-negative")
        return Series2._of({e: s for e, s in self._c.items()
                            if e[0] + e[1] <= order}, self._den, order)

    def scale_variables(self, m) -> "Series2":
        """Substitute (x, y) -> (m*x, m*y): for m = a/b, degree d is times
        a^d * b^(n-d) over b^n, n the order."""
        m, n = _q(m), self.order
        w = [m.numerator ** d * m.denominator ** (n - d) for d in range(n + 1)]
        return Series2._of({(p, q): s * w[p + q] for (p, q), s in self._c.items()
                            if w[p + q]}, self._den * w[0], n)

    def subst_linear(self, first, second) -> "Series2":
        """Return f(a1*x + b1*y, a2*x + b2*y) for first=(a1,b1), second=(a2,b2).

        Coefficients may be rational; order is preserved since degree-n terms
        map to degree-n terms.  The work is done in integers: with L the lcm
        of the four entries' denominators, (a1 x + b1 y)^p is (L a1 x +
        L b1 y)^p divided by L^p.  _packed_sum turns the numerators of each
        total degree d into those of the image as one packed integer
        (Kronecker substitution, with the digit width bound given there), an
        exact integer over den * L^d, which is times L^(n-d) over
        den * L^n for n the top degree.
        """
        scale, (a1, b1, a2, b2) = _integral(*first, *second)
        by_degree = {}
        for (p, q), s in self._c.items():
            by_degree.setdefault(p + q, []).append((p, s))
        images = [(_packed_cell(sorted(by_degree.items())), (a1, b1),
                   (a2, b2))]
        k = _width(images)
        sums = sorted(_packed_sum(images, k).items())
        n = sums[-1][0] if sums else 0
        w = None if scale == 1 else [scale ** (n - d) for d in range(n + 1)]
        return Series2._of(_unpack(sums, k, w), self._den * scale ** n,
                           self.order)

    def first_difference(self, other: "Series2", order=None):
        """First exponent pair (by total degree, then x-degree) where the two
        series differ up to the common valid order, or None.  The numerators
        are compared across the two denominators."""
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        a, b, da, db = self._c, other._c, self._den, other._den
        # no stored value is zero, so a key in only one map is a difference
        diff = [e for e, s in a.items()
                if e[0] + e[1] <= n and s * db != b.get(e, 0) * da]
        diff += [e for e in b if e[0] + e[1] <= n and e not in a]
        if not diff:
            return None
        e = min(diff, key=lambda e: (e[0] + e[1], e[0]))
        return (e, self.coeff(*e), other.coeff(*e))

    def eq_up_to(self, other: "Series2", order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        return self.eq_up_to(other)

    __hash__ = None

    def key(self):   # equal orders and coefficients: the state is canonical
        return (self.order, self._den, frozenset(self._c.items()))

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
    """Truncation of exp(alpha*x + beta*y), expanded in Fractions."""
    alpha, beta = Q(_q(alpha)), Q(_q(beta))
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

    With L the lcm of the denominators of alpha and beta,
    f(L*z) * exp(L*alpha*x + L*beta*y) is the image of f under the affine
    map with the integer translation (L*alpha, L*beta) and edge vectors
    (L, 0), (0, L): one face of sum_of_images, read at z / L.  Every step
    is integer arithmetic, so the result equals
    f * exp_linear(alpha, beta, f.order) exactly.
    """
    scale, v = _integral(alpha, beta)
    den, (cell,) = packed_cells([f])
    face = (cell, tuple(v), (scale, 0), (0, scale))
    return sum_of_images([face], f.order, den, scale)


def divide_linear(f: Series2, a, b) -> Series2:
    """Exact quotient f / (a*x + b*y) for rationals a, b not both zero;
    loses one order.

    Solved per total degree n in integers: with L the lcm of the
    denominators of a and b, A = L*a, B = L*b (both negated if B < 0), and
    f's numerators F[p] of x^p y^(n-p) over den, the quotient's coefficient
    of x^p y^(n-1-p) is L*N[p]*B^(t-1-p) over den*B^t, t f's top degree,
    where N[p] = F[p]*B^p - A*N[p-1] and N[-1] = 0.  f is a multiple
    exactly when F[n]*B^n = A*N[n-1] on every degree (for n = 0: a zero
    constant term); otherwise NotDivisible is raised.  When B = 0, f is
    read with x and y swapped.
    """
    scale, (A, B) = _integral(a, b)
    if A == 0 and B == 0:
        raise ValueError("the linear form is zero")
    swap = B == 0
    if swap:
        A, B = B, A
    if B < 0:
        A, B, scale = -A, -B, -scale
    by_degree = {}
    for (p, q), s in f._c.items():
        by_degree.setdefault(p + q, {})[q if swap else p] = s
    top = max(by_degree, default=0)
    powers = [B ** k for k in range(top + 1)]
    out = {}
    for n, nums in by_degree.items():
        prev = 0
        for p in range(n):
            prev = nums.get(p, 0) * powers[p] - A * prev
            if prev:
                e = (n - 1 - p, p) if swap else (p, n - 1 - p)
                out[e] = scale * prev * powers[top - 1 - p]
        if nums.get(n, 0) * powers[n] != A * prev:
            raise NotDivisible(f"not a multiple of {a}*x + {b}*y: "
                               f"degree {n} fails the consistency check")
    if f.order == 0:
        raise ValueError("order must be non-negative")
    return Series2._of(out, f._den * powers[top], f.order - 1)


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


# B_0, B_1, ...: grown up to the largest order asked (sharp asks for
# B_0..B_order), never cut; like _EXPONENTS it grows by a longer copy
_BERNOULLI = [Q(1)]


def bernoulli_numbers(n_max: int):
    """B_0..B_n_max (convention B_1 = -1/2) via the binomial recurrence,
    each computed once: a new list, so a caller may change it."""
    global _BERNOULLI
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = _BERNOULLI
    if len(out) <= n_max:
        out = out[:]
        for n in range(len(out), n_max + 1):
            s = sum((comb(n + 1, k) * out[k] for k in range(n)), Q(0))
            out.append(-s / (n + 1))
        _BERNOULLI = out
    return out[:n_max + 1]


def special_series(kind: str, order: int):
    """The named series the formulas rely on.

    kinds: 'expm1_over_t'   -> sum x^n / (n+1)!            (in x alone)
           't_over_expm1'   -> sum B_n / n! x^n            (in x alone)
           'divided_diff_exp' -> (e^y - e^x)/(y - x) built directly as
                                 sum_{i,j} x^i y^j / (i+j+1)!

    Each is made over one denominator, with no Fraction per coefficient:
    1/(d+1)! is the integer w[d] = (order+1)!/(d+1)! over (order+1)!, with
    nothing to reduce since w[order] = 1, and B_n/n! is B_n (n+1) w[n]
    over (order+1)!, read over L (order+1)! for L the lcm of the
    denominators of the cached Bernoulli numbers.
    """
    if kind not in ("expm1_over_t", "t_over_expm1", "divided_diff_exp"):
        raise ValueError(f"unknown special series {kind!r}")
    if order < 0:
        raise ValueError("order must be non-negative")
    w = [1] * (order + 1)
    for d in range(order, 0, -1):
        w[d - 1] = w[d] * (d + 1)
    if kind == "expm1_over_t":
        return Series2._of({(d, 0): w[d] for d in range(order + 1)},
                           w[0], order)
    if kind == "t_over_expm1":
        bern = bernoulli_numbers(order)
        den = lcm(*(b.denominator for b in bern))
        return Series2._of({(n, 0): b.numerator * (den // b.denominator)
                            * (n + 1) * w[n]
                            for n, b in enumerate(bern) if b},
                           den * w[0], order)
    return Series2._of({(p, d - p): w[d] for d in range(order + 1)
                        for p in range(d + 1)}, w[0], order)
