"""Tests for the exact linear algebra: rref and nullspace, and the solve
that tests/oracles.py reads off rref, against a plain Fraction
Gauss-Jordan elimination kept here as the oracle."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latval import linalg
from oracles import solve


def reference_rref(matrix):
    """Gauss-Jordan elimination over Q, one Fraction per operation."""
    m = [[Q(x) for x in row] for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


small = st.integers(-5, 5)
rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 12))
large = st.builds(Q, st.integers(-10**40, 10**40), st.integers(1, 10**30))
entries = st.one_of(small, rationals, large)


@st.composite
def matrices(draw):
    """Wide, tall and square matrices whose rows include zero rows,
    repeats and rational combinations of other rows, and whose columns
    include zero columns."""
    ncols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.sampled_from([(0, 0), (1, 0)]) | st.tuples(entries, entries))
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)))) if ncols else set()
    rows = [[0 if c in zero_cols else x for c, x in enumerate(row)] for row in rows]
    return draw(st.permutations(rows))


def mat_vec(matrix, x):
    return [sum((Q(a) * b for a, b in zip(row, x)), Q(0)) for row in matrix]


@settings(max_examples=200)
@given(matrices())
def test_rref_matches_fraction_reference(m):
    rows, pivots = linalg.rref(m)
    assert (rows, pivots) == reference_rref(m)
    assert all(type(x) is Q for row in rows for x in row)


@pytest.mark.parametrize("m", [[], [[]], [[], []], [[0, 0], [0, 0]],
                               [[0, 3, 0]], [[2], [4], [-6]]])
def test_rref_edge_shapes(m):
    assert linalg.rref(m) == reference_rref(m)


@settings(max_examples=100)
@given(matrices())
def test_nullspace_is_annihilated(m):
    ncols = len(m[0])
    kernel = linalg.nullspace(m, ncols)
    rank = len(reference_rref(m)[1])
    assert len(kernel) == ncols - rank
    for v in kernel:
        assert any(v) and not any(mat_vec(m, v))


def reference_nullspace(matrix, ncols):
    """The kernel basis read off reference_rref, one vector per free
    column, brought to reduced echelon form by reference_rref."""
    rows, pivots = reference_rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return [row for row in reference_rref(basis)[0] if any(row)]


@settings(max_examples=100)
@given(matrices())
def test_nullspace_matches_fraction_reference(m):
    kernel = linalg.nullspace(m, len(m[0]))
    assert kernel == reference_nullspace(m, len(m[0]))
    assert all(type(x) is Q for v in kernel for x in v)


@settings(max_examples=100)
@given(matrices(), st.data())
def test_solve_solves_or_reports_inconsistent(m, data):
    ncols = len(m[0])
    if data.draw(st.booleans()):
        # consistent by construction: b = M x0
        b = mat_vec(m, data.draw(st.lists(entries, min_size=ncols,
                                          max_size=ncols)))
    else:
        b = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    x = solve(m, b)
    augmented = [list(row) + [v] for row, v in zip(m, b)]
    inconsistent = ncols in reference_rref(augmented)[1]
    assert (x is None) == inconsistent
    if x is not None:
        assert mat_vec(m, x) == [Q(v) for v in b]


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has 2 entries, row 0 has 3"):
        linalg.rref([[1, 2, 3], [1, 1]])


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 2 has 1 entries, row 0 has 2"):
        linalg.nullspace([[1, 2], [3, 4], [5]])
    with pytest.raises(ValueError, match="rows have 2 entries, ncols is 3"):
        linalg.nullspace([[1, 2]], 3)


def test_solve_rejects_ragged_rows_and_short_rhs():
    with pytest.raises(ValueError, match="row 1 has 1 entries, row 0 has 2"):
        solve([[1, 0], [1]], [1, 2])
    with pytest.raises(ValueError, match="rhs has 1 entries, matrix has 2 rows"):
        solve([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError, match="rhs has 1 entries, matrix has 0 rows"):
        solve([], [1])
