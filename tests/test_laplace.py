"""Tests for the moment-based Laplace transform oracle."""

import ast
import random
import signal
from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latval.geometry import (LatticePolygon, NotFullDimensional,
                             hull_normalize, scale_polygon, split_pairs)
from latval.group import AffineUnimodular, act_on_polygon, act_on_series, det
from latval import geometry, laplace
from latval.laplace import _degree_tables, laplace_plus
from latval.series import Series2
from latval.valuation import ValuationSpec, z_polygon

T = hull_normalize([(0, 0), (1, 0), (0, 1)])
SQUARE = hull_normalize([(0, 0), (1, 0), (0, 1), (1, 1)])

CORPUS = [
    T, scale_polygon(T, 2), scale_polygon(T, 3), SQUARE,
    scale_polygon(SQUARE, 2),
    hull_normalize([(0, 0), (2, 0), (0, 2), (0, 1)]),
    hull_normalize([(0, 0), (3, 0), (1, 2), (0, 2)]),
    hull_normalize([(0, 0), (2, 1), (3, 3), (1, 3), (-1, 1)]),
    hull_normalize([(0, 0), (4, 1), (2, 3)]),
    hull_normalize([(1, 1), (3, 2), (2, 4)]),
]


def triangle_moment(a: int, b: int) -> Q:
    """Moment of s^a t^b over the standard triangle: a! b! / (a+b+2)!."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    return Q(factorial(a) * factorial(b), factorial(a + b + 2))


@dataclass(frozen=True)
class MomentTable:
    polygon: LatticePolygon
    max_degree: int
    values: dict   # (a, b) -> Fraction

    def moment(self, a: int, b: int) -> Q:
        """mu(a, b); only the moments with a + b <= max_degree are known."""
        if a < 0 or b < 0:
            raise ValueError("exponents must be non-negative")
        if a + b > self.max_degree:
            raise ValueError(f"moment ({a}, {b}) has degree {a + b}, above "
                             f"the computed maximum {self.max_degree}")
        return self.values[(a, b)]


def polygon_moments(P: LatticePolygon, n_max: int) -> MomentTable:
    """All moments mu(a, b), a + b <= n_max.  Each is an integer over
    K = (n_max+2)!, namely a! b! H[k][a] (K / (k+2)!) with k = a + b."""
    H = _degree_tables(P, n_max)
    f = [factorial(i) for i in range(n_max + 3)]
    return MomentTable(P, n_max, {
        (a, k - a): Q(f[a] * f[k - a] * H[k][a], f[k + 2])
        for k in range(n_max + 1) for a in range(k + 1)})


def test_triangle_moment():
    assert triangle_moment(0, 0) == Q(1, 2)
    assert triangle_moment(1, 0) == Q(1, 6)
    assert triangle_moment(1, 1) == Q(1, 24)
    assert triangle_moment(a=2, b=3) == Q(factorial(2) * factorial(3),
                                          factorial(7))
    with pytest.raises(ValueError):
        triangle_moment(-1, 0)


def test_polygon_moments_T():
    table = polygon_moments(T, 5)
    for a in range(6):
        for b in range(6 - a):
            assert table.moment(a, b) == triangle_moment(a, b)


def test_polygon_moments_square_separable():
    table = polygon_moments(SQUARE, 6)
    for a in range(7):
        for b in range(7 - a):
            assert table.moment(a, b) == Q(1, (a + 1) * (b + 1))


def test_moment_outside_table_raises():
    table = polygon_moments(T, 3)
    assert table.moment(1, 2) == triangle_moment(1, 2)
    # never computed, and nonzero on T
    with pytest.raises(ValueError):
        table.moment(2, 2)
    with pytest.raises(ValueError):
        table.moment(-1, 0)
    with pytest.raises(ValueError):
        table.moment(0, -1)


def test_moment_zero_is_area():
    from latval.geometry import area2
    for P in CORPUS:
        assert polygon_moments(P, 0).moment(0, 0) == Q(area2(P), 2)


def _mirrored_moments(P, n):
    """The moments of P from those of its mirror image (x, y) -> (y, x),
    whose fan starts at the lexicographically first vertex in (y, x)
    order, in general another apex than P's own."""
    mirror = hull_normalize([(y, x) for x, y in P.vertices])
    return {(a, b): v
            for (b, a), v in polygon_moments(mirror, n).values.items()}


def test_moments_triangulation_independent():
    for P in CORPUS:
        assert polygon_moments(P, 6).values == _mirrored_moments(P, 6)


@st.composite
def lattice_hulls(draw):
    """Random full-dimensional hulls: points in a small box, or thin
    triangles with a long edge."""
    small = st.integers(-4, 4)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(small, small), min_size=3, max_size=6))
    else:
        a = draw(st.tuples(small, small))
        d = draw(st.tuples(st.integers(-15, 15), st.integers(-15, 15)))
        off = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
        pts = [a, (a[0] + d[0], a[1] + d[1]),
               (a[0] + d[0] // 2 + off[0], a[1] + d[1] // 2 + off[1])]
    P = hull_normalize(pts)
    assume(P.dim == 2)
    return P


def _green_moment(P, a, b):
    """mu(a, b) from the boundary alone, by Green's formula: 1/(a+1) times
    the integral of s^(a+1) t^b dt counterclockwise around P.  On the edge
    p + tau (q - p) each power is expanded binomially in tau, and
    int_0^1 tau^k dtau = 1/(k+1)."""
    v = P.vertices
    total = Q(0)
    for (ps, pt), (qs, qt) in zip(v, v[1:] + v[:1]):
        ds, dt = qs - ps, qt - pt
        for k in range(a + 2):
            for m in range(b + 1):
                total += Q(comb(a + 1, k) * ps ** (a + 1 - k) * ds ** k
                           * comb(b, m) * pt ** (b - m) * dt ** (m + 1),
                           k + m + 1)
    return total / (a + 1)


@settings(max_examples=100)
@given(P=lattice_hulls(), n=st.integers(0, 10))
def test_moments_match_green_formula(P, n):
    expected = {(a, b): _green_moment(P, a, b)
                for a in range(n + 1) for b in range(n + 1 - a)}
    assert polygon_moments(P, n).values == expected
    assert _mirrored_moments(P, n) == expected


@settings(max_examples=100)
@given(P=lattice_hulls(), n=st.integers(0, 10))
def test_laplace_plus_matches_green_formula(P, n):
    # laplace_plus reads the degree tables without polygon_moments
    lp = laplace_plus(P, n)
    assert lp.order == n
    for a in range(n + 1):
        for b in range(n + 1 - a):
            assert lp.coeff(a, b) == \
                _green_moment(P, a, b) / (factorial(a) * factorial(b))


def test_laplace_plus_T_coefficients():
    lp = laplace_plus(T, 9)
    for a in range(10):
        for b in range(10 - a):
            assert lp.coeff(a, b) == Q(1, factorial(a + b + 2))


def test_laplace_plus_vanishes_on_lower_dims():
    assert laplace_plus(hull_normalize([(0, 0), (3, 1)]), 8).is_zero()
    assert laplace_plus(hull_normalize([(2, 2)]), 8).is_zero()


def test_minus_two_dilativity():
    for m in (2, 3):
        for P in (T, SQUARE):
            lhs = laplace_plus(scale_polygon(P, m), 10)
            rhs = laplace_plus(P, 10).scale_variables(m).scalar_mul(m * m)
            assert lhs == rhs
    # 144 and 288 triangles, summed at the default order
    for P in (T, SQUARE):
        lhs = laplace_plus(scale_polygon(P, 12), 12)
        rhs = laplace_plus(P, 12).scale_variables(12).scalar_mul(144)
        assert lhs == rhs


def test_minus_two_dilativity_beyond_any_triangulation():
    # 10^12 unimodular triangles and about 5 * 10^11 lattice points
    def hang(signum, frame):
        raise TimeoutError("no result within 10 s")
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        lhs = laplace_plus(scale_polygon(T, 10**6), 6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert lhs == laplace_plus(T, 6).scale_variables(10**6).scalar_mul(10**12)


def test_oracle_enumerates_no_lattice_point(monkeypatch):
    expected = [laplace_plus(P, 8) for P in CORPUS]

    def refuse(*args):
        raise AssertionError("the oracle triangulated or walked the points")
    monkeypatch.setattr(laplace, "unimodular_triangulation", refuse)
    monkeypatch.setattr(geometry, "unimodular_triangulation", refuse)
    monkeypatch.setattr(geometry, "lattice_points", refuse)
    assert [laplace_plus(P, 8) for P in CORPUS] == expected


def test_additivity_on_splits():
    for P in CORPUS:
        try:
            pairs = split_pairs(P, 3)
        except Exception:
            continue
        whole = laplace_plus(P, 8)
        for P1, P2 in pairs:
            assert whole == laplace_plus(P1, 8) + laplace_plus(P2, 8)


def test_equivariance():
    rng = random.Random(17)
    xis = []
    while len(xis) < 5:
        m = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        if abs(det(m)) == 1:
            xis.append(AffineUnimodular(m, (rng.randint(-2, 2),
                                            rng.randint(-2, 2))))
    for xi in xis:
        for P in (T, SQUARE):
            lhs = laplace_plus(act_on_polygon(xi, P), 9)
            rhs = act_on_series(xi, laplace_plus(P, 9))
            assert lhs == rhs


def test_oracle_identity_with_engine():
    spec = ValuationSpec(0, None, Series2.constant(1, 12), 12)
    for P in CORPUS:
        assert z_polygon(spec, P) == laplace_plus(P, 11)


def test_oracle_imports_no_engine_code():
    # the oracle may take the result type from series, but no algorithm
    # from series, valuation or group
    with open(laplace.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    may_import = {"series": {"Series2", "DEFAULT_ORDER"}, "valuation": set(),
                  "group": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in may_import, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {alias.name for alias in node.names}
            if module in may_import:
                assert names <= may_import[module], (module, names)
            else:
                assert not names & set(may_import), (module, names)


def test_requires_full_dimension():
    with pytest.raises(NotFullDimensional):
        polygon_moments(hull_normalize([(0, 0), (1, 0)]), 4)
