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
u = (a << k) + b, and one kernel, ``_horner``, makes the packed image of
a row of numerators under the packed images U of x and V of y by the
homogeneous Horner step h <- h * U^g + s * V^(d-p): it always steps in
U and reads the powers of V from a table grown to the top degree, so
each product has one short factor, and a run of g zero entries costs
one multiply by a tabled power of U.  The packed image of a degree is
one integer, as is the sum of the images of many cells, and so is their
product with exp(v.z), whose degree s is a sum of products with powers
of v.z.  One kernel,
``_taylor_shift``, makes it as a stream: one column of Pascal's rule per
degree, each degree given as soon as the degrees below it are known,
so that ``laws.check_law`` computes no degree above its first unequal
one.
Its coefficients are read back as balanced digits of width k; the width
that ``_image_bits`` bounds keeps each within (-2^(k-1), 2^(k-1)), so
they are read exactly.  The one product kernel, ``sum_of_products``,
packs the degrees of its factors the same way; ``Series2.__mul__`` is
its case of one pair.  ``Series2.mul_linear`` is two shifted copies of
each row.  Every packed kernel reads its result back once, by
``_unpack``.

A series holds its int numerators by total degree, over one int den >= 1:
rows[d] is the list of the d + 1 numerators of x^p y^(d-p), p = 0..d,
the digit order of the packing.  The state is canonical: the last row is
not all zero (so there are at most order + 1 rows) and
gcd(den, every entry) = 1, so equal series of one order hold equal state.
``Series2(...)`` checks what it is given and brings it over one lcm; the
kernels build their results with ``Series2._of``, which drops trailing
zero rows and reduces by one gcd, so no ``Fraction`` is made between
kernels.  ``coeff``, ``terms`` and ``first_difference`` return
``Fraction``s, and ``Series2.numerators`` gives the integers.  An int
argument of a kernel is used as it is, with no ``Fraction`` made of it; a
float is refused, since it is already rounded to binary.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat, zip_longest
from math import factorial, gcd, lcm

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


def coefficient_texts(f: "Series2") -> list:
    """[(d, p, text)] for each nonzero coefficient of f, that of
    x^p y^(d-p), in the order of terms(): text is its format_rational,
    made from the int numerator and den with no Fraction."""
    den, rows = f.numerators()
    short = den < _SHORT
    texts = []
    for d, row in enumerate(rows):
        for p, s in enumerate(row):
            if not s:
                continue
            if short and -_SHORT < s < _SHORT:
                g = gcd(s, den)
                text = str(s // g) if g == den else f"{s // g}/{den // g}"
            else:
                text = format_rational(s, den)
            texts.append((d, p, text))
    return texts


def _grow(powers: list, e: int):
    """Extend the table powers = [1, u, u^2, ...] up to u^e."""
    while len(powers) <= e:
        powers.append(powers[-1] * powers[1])


def _horner(row, steps: list, others: list) -> int:
    """sum_p row[p] * U^p * V^(d-p) for d = len(row) - 1, a row not all
    zero, from the power tables steps[j] = U^j and others[j] = V^j, the
    latter at least up to V^d: h <- h * U^g + s * V^(d-p) over the nonzero
    entries s = row[p], p falling, g the distance from the one before,
    and one multiply by U^p after the last, at the lowest p; steps is
    grown here as far as that needs.  A row with no zero entry steps by U
    alone."""
    d = len(row) - 1
    if 0 not in row:
        step, h = steps[1], 0
        for s, v in zip(reversed(row), others):
            h = h * step + s * v
        return h
    ps = list(compress(range(d + 1), row))   # the nonzero entries' places
    h, last = 0, ps[-1]
    for p in reversed(ps):
        g = last - p
        if len(steps) <= g:
            _grow(steps, g)
        h = h * steps[g] + row[p] * others[d - p]
        last = p
    _grow(steps, ps[0])
    return h * steps[ps[0]]


def _substitute(rows, first, second, k: int):
    """h_0, h_1, ... on demand, h_d the packed image at width k of
    rows[d], the numerators of x^p y^(d-p), under x -> a1*x + b1*y and
    y -> a2*x + b2*y for the integer pairs first = (a1, b1) and
    second = (a2, b2): the _horner sum_p rows[d][p] * U^p * V^(d-p) of
    the packed forms U = (a1 << k) + b1 and V = (a2 << k) + b2.  The rows
    are taken lowest first, so a reader that stops at degree d
    substitutes no row above it.  V's power table is grown to the top
    degree at once, one multiply per power, which timed faster on law
    checks that hold than growing it a row at a time."""
    (a1, b1), (a2, b2) = first, second
    steps, others = [1, (a1 << k) + b1], [1, (a2 << k) + b2]
    _grow(others, len(rows) - 1)
    return (_horner(row, steps, others) if any(row) else 0 for row in rows)


def _image_bits(bits: int, n: int, first, second) -> int:
    """B with each coefficient of f(P1, P2) below 2^B, for f of top degree
    n with numerators below 2^bits and the forms P1, P2 of the integer
    pairs first, second: with l the larger of their sums of absolute
    values, degree d is at most sum_p |s| l^p l^(d-p) < 2^bits (d + 1) l^d,
    so B = bits + bitlen((n + 1) l^n)."""
    (a1, b1), (a2, b2) = first, second
    ell = max(abs(a1) + abs(b1), abs(a2) + abs(b2))
    return bits + ((n + 1) * ell ** n).bit_length()


def _width(images, spare: int = 0) -> int:
    """The width k for _packed_sum of the images (cell, first, second):
    a sum of m images is below 2^B for B the largest _image_bits,
    bits + bitlen((n + 1) l^n), plus bitlen(m), and k = B + spare + 2, so
    the caller may multiply it by up to 2^spare and it stays below
    2^(k-2), within what _unpack reads exactly: a twist by exp(v.z) takes
    spare = bitlen((1 + l)^n), for l = |v0| + |v1|."""
    k = 0
    for (degrees, bits), first, second in images:
        if degrees:
            k = max(k, _image_bits(bits, degrees[-1][0], first, second))
    return k + len(images).bit_length() + spare + 2


def _packed_sum(images, k: int, n: int) -> list:
    """[h_0, ..., h_n], h_d the degree d of the sum that _width describes
    packed at x = 2^k, y = 1: one integer sum of the _horner images of the
    degrees of its cells, each cell's table of V grown at once to its top
    degree, as _substitute grows it; no image may reach above degree n."""
    sums = [0] * (n + 1)
    for (degrees, _), (a1, b1), (a2, b2) in images:
        steps, others = [1, (a1 << k) + b1], [1, (a2 << k) + b2]
        _grow(others, degrees[-1][0])
        for d, row in degrees:
            sums[d] += _horner(row, steps, others)
    return sums


def _taylor_shift(h, w: int):
    """Yield degree s of sum_d C(s, d) * w^(s-d) * h[d] for each degree s of
    the iterable h, lowest first, as soon as h has given its degrees
    0..s.  It keeps one column of Pascal's rule in one list: column s has
    new[0] = h[s] and new[j] = new[j-1] + w * prev[j-1], prev column
    s - 1, and ends in degree s; each entry of prev is read before its
    place takes the new one.  So n + 1 degrees take the n(n+1)/2
    products of n in-place passes.  For h the packed degrees of a series
    times d! and w = (v0 << k) + v1, it is the series times exp(v.z),
    degree s times s!; with l = |v0| + |v1| it grows the coefficients at
    most by sum_d C(s, d) l^(s-d) = (1 + l)^s.  w = 0 yields h as it
    is."""
    if not w:
        yield from h
        return
    col = []
    for acc in h:
        for j, old in enumerate(col):
            col[j] = acc
            acc += w * old
        col.append(acc)
        yield acc


def _unpack(packed, k: int, weights=None) -> list:
    """The rows [s_0 * weights[d], ..., s_d * weights[d]] (weights None:
    the s_i) of the balanced digits s_i of width k of each packed degree
    packed[d]: the coefficients of x^i y^(d-i), exact while each lies in
    [-2^(k-1), 2^(k-1))."""
    mask, half = (1 << k) - 1, (1 << k) >> 1   # k = 0 for a zero sum
    rows = []
    # offset: half in each of the digits 0..d, which makes them all
    # nonnegative, so each is read with one mask and one shift
    offset = 0
    for d, h in enumerate(packed):
        offset = (offset << k) | half
        row = [0] * (d + 1)
        if h:
            # the digits below the lowest set bit of h are 0
            low = ((h & -h).bit_length() - 1) // k
            h = (h >> (k * low)) + (offset >> (k * low))
            m = 1 if weights is None else weights[d]
            for i in range(low, d + 1):
                s = (h & mask) - half
                if s:
                    row[i] = s * m
                h >>= k
        rows.append(row)
    return rows


def _bits(rows) -> int:
    """The largest bit length of an entry of the rows."""
    return max(max(map(max, rows), default=0),
               -min(map(min, rows), default=0)).bit_length()


def _times(rows, weights) -> list:
    """Row d times weights[d]: a zero row, or a row times 1, is the same
    list, so a sparse series (one in x alone, or homogeneous) costs its
    nonzero rows alone."""
    return [row if w == 1 or not any(row) else [s * w for s in row]
            for row, w in zip(rows, weights)]


def _packed_degrees(rows, k: int):
    """h_0, h_1, ... on demand, h_d the int sum_p s * 2^(k*p) of the
    entries s of row d: degree d packed at x = 2^k, y = 1."""
    return (_pack(row, k) if any(row) else 0 for row in rows)


def _pack(row, k: int) -> int:
    """sum_p row[p] * 2^(k*p): a short row by shifts, a long one as its
    two halves, so that no shift runs over the whole row at every entry."""
    if len(row) > 32:
        m = len(row) // 2
        return (_pack(row[m:], k) << (k * m)) + _pack(row[:m], k)
    h = 0
    for s in reversed(row):
        h = (h << k) + s
    return h


def sum_of_products(pairs) -> "Series2":
    """The sum of a * b over the pairs (a, b), to their least order, over
    L, the lcm of the den(a) * den(b); a pair's products are times its
    factor m = L / (den(a) * den(b)).  Packed degrees i and j multiply
    into degree i + j, so each degree is one sum of int products, read
    back once.  A coefficient of a * b sums at most (order + 1)^2
    products, so each one of P pairs is below 2^(k-2) for k the largest
    bits(a) + bits(b) + bitlen(m - 1), plus 2*bitlen(order + 1) +
    bitlen(P - 1) + 2, bits the largest bit length of a numerator."""
    order = min([min(a.order, b.order) for a, b in pairs])
    den = lcm(*[a._den * b._den for a, b in pairs])
    cut = []
    k = top = 0
    for a, b in pairs:
        ra, rb = a._rows[:order + 1], b._rows[:order + 1]
        m = den // (a._den * b._den)
        k = max(k, _bits(ra) + _bits(rb) + (m - 1).bit_length())
        top = max(top, len(ra) + len(rb) - 1)
        cut.append((ra, rb, m))
    k += 2 * (order + 1).bit_length() + (len(cut) - 1).bit_length() + 2
    sums = [0] * min(order + 1, top)
    for ra, rb, m in cut:
        pb = [(j, g) for j, g in enumerate(_packed_degrees(rb, k)) if g]
        for i, h in enumerate(_packed_degrees(ra, k)):
            if m != 1:
                h *= m
            for j, g in pb:
                if i + j > order:
                    break
                sums[i + j] += h * g
    return Series2._of(_unpack(sums, k), den, order)


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
# laws.check_law streams tables of its own, with a denominator per degree,
# through the same _packed_degrees, _substitute and _taylor_shift; a twist
# there puts degree d over the lcm of the denominators times d!.
#
# Series2.subst_linear and exp_linear stay apart.  A substitution routed
# through the tables pays for the d! it does not need: on dense series of
# orders 8 to 20 under integer matrices it was 1.8x slower, and faster in
# none of 15 interleaved pairs.  exp_linear expands the exponential in
# Fractions, so that the tests have an oracle for this kernel that shares
# none of its code.


def packed_cells(fs) -> tuple:
    """(D, cells): the series fs, all of one order, as cells for
    sum_of_images, each one's degree table t over the least D that makes
    every one of them integral: (degrees, bits), degrees the (d, t[d])
    for each row d that is not all zero, kept whole, and bits the largest
    bit length of an entry.  Each f, with numerators s over den, enters
    as t[d][p] = d! * s * D / den; the least D for f alone is
    den / gcd(den, the d! * s), and D is their lcm."""
    n = fs[0].order
    fact = [factorial(d) for d in range(n + 1)]
    scaled = [(f._den, _times(f._rows, fact)) for f in fs]
    den = lcm(*(d // gcd(d, *chain.from_iterable(rows)) for d, rows in scaled))
    cells = []
    for d, rows in scaled:
        degrees = [(e, [s * den // d for s in row])
                   for e, row in enumerate(rows) if any(row)]
        cells.append((degrees, _bits([row for _, row in degrees])))
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
    sum_d C(s, d) * (v.z)^(s-d) * h[d]: the _taylor_shift of h by
    w = (v0 << k) + v1, packed v.z, the one streaming Pascal-column
    kernel that check_law also pulls, here added into the total degree
    by degree as it yields them.  With l = |v0| + |v1| it grows the
    coefficients at most by (1 + l)^n, the bitlen((1 + l)^n) spare bits of
    this translation's _width.  The T twisted sums are added in packed
    form, so k is the largest _width plus bitlen(T), and read back once
    into the integer table t: its coefficient of x^p y^(d-p) is
    t[d][p] / (den * d! * scale^d), or t[d][p] * w[d] over den * w[0] for
    w[d] = n!/d! * scale^(n-d)."""
    by_v = {}
    for cell, v, u1, u2 in faces:
        if cell[0]:     # a zero series, such as c = 0, adds nothing
            by_v.setdefault(v, []).append((cell, u1, u2))
    k = max((_width(images, ((1 + abs(v0) + abs(v1)) ** n).bit_length())
             for (v0, v1), images in by_v.items()), default=0) \
        + len(by_v).bit_length()
    total = [0] * (n + 1)
    for (v0, v1), images in by_v.items():
        h = _taylor_shift(_packed_sum(images, k, n), (v0 << k) + v1)
        total = [a + b for a, b in zip(total, h)]
    w = [1] * (n + 1)
    for d in range(n, 0, -1):
        w[d - 1] = w[d] * d * scale
    return Series2._of(_unpack(total, k, w), den * w[0], n)


class Series2:
    """Bivariate truncated series with exact rational coefficients.

    The coefficients are the int rows _rows over _den, canonical as the
    module docstring says.  The constructor checks, converts, prunes and
    drops what it is given; the kernels build their results with _of.
    """

    __slots__ = ("order", "_den", "_rows")

    def __init__(self, coeffs=None, order: int = DEFAULT_ORDER):
        if order < 0:
            raise ValueError("order must be non-negative")
        c = {}
        for (p, q), v in (coeffs or {}).items():
            if not (type(p) is type(q) is int and p >= 0 and q >= 0):
                raise ValueError(f"the term {v!s}*x^{p!r}*y^{q!r} has an "
                                 "exponent that is not an int >= 0")
            v = _q(v)
            if p + q <= order and v != 0:
                c[(p, q)] = v
        # one lcm and one division per distinct denominator
        dens = {v.denominator for v in c.values()}
        self.order, self._den = order, lcm(*dens)
        scale = {q: self._den // q for q in dens}
        self._rows = [[0] * (d + 1) for d in
                      range(max((p + q for p, q in c), default=-1) + 1)]
        for (p, q), v in c.items():
            self._rows[p + q][p] = v.numerator * scale[v.denominator]

    @classmethod
    def _of(cls, rows: list, den: int, order: int) -> "Series2":
        """The series rows / den with its trailing zero rows dropped,
        reduced by one gcd and otherwise unchecked: row d must be a list
        of d + 1 ints, there must be at most order + 1 rows, and den >= 1."""
        while rows and not any(rows[-1]):
            rows = rows[:-1]
        # the top row alone most often leaves no common factor
        g = gcd(den, *rows[-1]) if rows else den
        g = g if g == 1 else gcd(g, *chain.from_iterable(rows))
        f = object.__new__(cls)
        f.order, f._den = order, den // g
        f._rows = rows if g == 1 else [[s // g for s in row] for row in rows]
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
        d = p + q
        s = self._rows[d][p] if 0 <= p <= d < len(self._rows) else 0
        return Q(s, self._den) if s else _ZERO

    def terms(self):
        den = self._den
        return [((p, d - p), Q(s, den)) for d, row in enumerate(self._rows)
                for p, s in enumerate(row) if s]

    def numerators(self) -> tuple:
        """(den, rows): the coefficient of x^p y^(d-p) is rows[d][p] / den,
        in lowest terms, and is 0 for d >= len(rows); rows are the series'
        own lists, to be read and not changed."""
        return self._den, self._rows

    def constant_term(self) -> Q:
        return self.coeff(0, 0)

    def lowest_degree(self):
        """Smallest total degree with a nonzero coefficient, or None for zero."""
        return next((d for d, row in enumerate(self._rows) if any(row)), None)

    def __add__(self, other: "Series2") -> "Series2":
        return self._plus(other, 1)

    def __sub__(self, other: "Series2") -> "Series2":
        return self._plus(other, -1)

    def _plus(self, other: "Series2", sign: int) -> "Series2":
        """self + sign * other, over the lcm of the two denominators."""
        order = min(self.order, other.order)
        den = lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den * sign
        a, b = self._rows[:order + 1], other._rows[:order + 1]
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        rows = [[s * ma + t * mb for s, t in zip(r, u)] if any(r) or any(u)
                else r for r, u in zip(a, b)]
        rows += _times(a[len(b):], repeat(ma))
        return Series2._of(rows, den, order)

    def __neg__(self) -> "Series2":
        return self.scalar_mul(-1)

    def scalar_mul(self, s) -> "Series2":
        s = _q(s)
        return Series2._of(_times(self._rows, repeat(s.numerator)),
                           self._den * s.denominator, self.order)

    def __mul__(self, other: "Series2") -> "Series2":
        """The truncated product: sum_of_products of the one pair."""
        return sum_of_products([(self, other)])

    def mul_linear(self, a, b) -> "Series2":
        """Multiply by the exact linear form a*x + b*y: the product with
        the form, one order beyond self.order.

        Lifting self to that order is exact: the form has no constant
        term, so self's unknown degree self.order + 1 meets it only in
        degrees the product drops.  With L the lcm of the denominators of
        a and b, the product is the numerators times A*x + B*y, A = L*a and
        B = L*b, over den * L: row d + 1 of the product is row d times B
        plus row d shifted up one place times A."""
        scale, (A, B) = _integral(a, b)
        rows = [[0]] + [[B * row[0]]
                        + [A * s + B * t for s, t in zip(row, row[1:])]
                        + [A * row[-1]] if any(row) else [0] * (len(row) + 1)
                        for row in self._rows]
        return Series2._of(rows, self._den * scale, self.order + 1)

    def truncate(self, order: int) -> "Series2":
        order = min(self.order, order)
        if order < 0:
            raise ValueError("order must be non-negative")
        return Series2._of(self._rows[:order + 1], self._den, order)

    def scale_variables(self, m) -> "Series2":
        """Substitute (x, y) -> (m*x, m*y): for m = a/b, degree d is times
        a^d * b^(n-d) over b^n, n the order."""
        m, n = _q(m), self.order
        w = [m.numerator ** d * m.denominator ** (n - d) for d in range(n + 1)]
        return Series2._of(_times(self._rows, w), self._den * w[0], n)

    def subst_linear(self, first, second) -> "Series2":
        """Return f(a1*x + b1*y, a2*x + b2*y) for first=(a1,b1), second=(a2,b2).

        Coefficients may be rational; order is preserved since degree-n terms
        map to degree-n terms.  The work is done in integers: with L the lcm
        of the four entries' denominators, (a1 x + b1 y)^p is (L a1 x +
        L b1 y)^p divided by L^p.  Each nonzero row d becomes one packed
        integer, its _substitute image (a Kronecker substitution at the
        width of _image_bits), exact over den * L^d, which is times
        L^(n-d) over den * L^n for n the top degree.
        """
        scale, (a1, b1, a2, b2) = _integral(*first, *second)
        rows = self._rows
        n = max(len(rows) - 1, 0)
        k = _image_bits(_bits(rows), n, (a1, b1), (a2, b2)) + 2
        sums = _substitute(rows, (a1, b1), (a2, b2), k)
        w = None if scale == 1 else [scale ** (n - d) for d in range(n + 1)]
        return Series2._of(_unpack(sums, k, w), self._den * scale ** n,
                           self.order)

    def first_difference(self, other: "Series2", order=None):
        """First exponent pair (by total degree, then x-degree) where the two
        series differ up to the common valid order, or None.  The numerators
        are compared across the two denominators."""
        n = min(self.order, other.order, self.order if order is None else order)
        a, b = self._rows[:n + 1], other._rows[:n + 1]
        da, db = self._den, other._den
        # a row that only one of them has is compared with zeros
        for d, (r, u) in enumerate(zip_longest(a, b, fillvalue=[0] * (n + 1))):
            if r != u or da != db:
                for p, (s, t) in enumerate(zip(r, u)):
                    if s * db != t * da:
                        return ((p, d - p), Q(s, da), Q(t, db))
        return None

    def eq_up_to(self, other: "Series2", order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        return self.eq_up_to(other)

    __hash__ = None

    def key(self):   # equal orders and coefficients: the state is canonical
        return (self.order, self._den, tuple(map(tuple, self._rows)))

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
    read with x and y swapped.  A series of order 0 has no quotient.
    """
    if f.order == 0:
        raise ValueError("a series of order 0 has no quotient: a division "
                         "by a linear form loses one order")
    scale, (A, B) = _integral(a, b)
    if A == 0 and B == 0:
        raise ValueError("the linear form is zero")
    swap = B == 0
    if swap:
        A, B = B, A
    if B < 0:
        A, B, scale = -A, -B, -scale
    top = max(len(f._rows) - 1, 0)
    powers = [B ** k for k in range(top + 1)]
    out = []
    for n, row in enumerate(f._rows):
        if swap:
            row = row[::-1]
        prev, quot = 0, []
        for p in range(n):
            prev = row[p] * powers[p] - A * prev
            quot.append(scale * prev * powers[top - 1 - p])
        if row[n] * powers[n] != A * prev:
            raise NotDivisible(f"not a multiple of {a}*x + {b}*y: "
                               f"degree {n} fails the consistency check")
        out.append(quot[::-1] if swap else quot)
    return Series2._of(out[1:], f._den * powers[top], f.order - 1)


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


# B_0, B_1, ...: made up to the largest order asked (sharp asks for
# B_0..B_order), never cut; a longer table replaces it whole, so that no
# thread sees a part table
_BERNOULLI = []


def bernoulli_numbers(n_max: int):
    """B_0..B_n_max (convention B_1 = -1/2), kept up to the largest n_max
    asked: a new list, so a caller may change it.  They come from the
    tangent numbers T_m, in ints: B_2m = (-1)^(m+1) 2m T_m / (4^m (4^m - 1)),
    and B_n = 0 for odd n > 1."""
    global _BERNOULLI
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = _BERNOULLI
    if len(out) <= n_max:
        out = [Q(1), Q(-1, 2)] + [_ZERO] * (n_max - 1)
        for m, t in enumerate(_tangent_numbers(n_max // 2), 1):
            out[2 * m] = Q(2 * m * t if m % 2 else -2 * m * t,
                           4 ** m * (4 ** m - 1))
        _BERNOULLI = out
    return out[:n_max + 1]


def _tangent_numbers(m: int) -> list:
    """[T_1, ..., T_m], the tangent numbers 1, 2, 16, 272, ... (the
    coefficients of tan(x) = sum T_j x^(2j-1) / (2j-1)!), by the integer
    recurrence of Brent and Harvey, "Fast computation of Bernoulli,
    tangent and secant numbers" (2013): T_j starts as (j-1)!, and pass i
    sets T_j = (j-i) T_(j-1) + (j-i+2) T_j for j = i..m."""
    t = [0, 1] + [0] * (m - 1)
    for j in range(2, m + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, m + 1):
        for j in range(i, m + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:m + 1]


def separable(f: Series2) -> Series2:
    """f(x) * f(y) for a series f in x alone: the numerators f_p * f_q of
    x^p y^q over den^2, with no product."""
    den, rows = f.numerators()
    c = [row[-1] for row in rows] + [0] * (f.order + 1 - len(rows))
    return Series2._of([[c[p] * c[d - p] for p in range(d + 1)]
                        for d in range(f.order + 1)], den * den, f.order)


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
        return Series2._of([[0] * d + [w[d]] for d in range(order + 1)],
                           w[0], order)
    if kind == "t_over_expm1":
        bern = bernoulli_numbers(order)
        den = lcm(*(b.denominator for b in bern))
        return Series2._of([[0] * n + [b.numerator * (den // b.denominator)
                                       * (n + 1) * w[n]]
                            for n, b in enumerate(bern)], den * w[0], order)
    return Series2._of([[w[d]] * (d + 1) for d in range(order + 1)], w[0],
                       order)
