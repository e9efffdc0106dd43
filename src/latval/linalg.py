"""Exact rational Gaussian elimination: RREF and kernels.

Matrices come in as lists of equal-length rows of rationals (ints,
Fractions, or anything ``Fraction`` accepts); ragged rows raise
``ValueError``.  The elimination is fraction-free: each row is scaled to
integers by the lcm of its denominators, a row is cleared in a pivot column
by the integer combination pv*row - f*pivot_row and divided by the gcd of
its entries, so no ``Fraction`` is built per intermediate term.  ``rref``
makes its ``Fraction`` rows once, at the end, each divided by its pivot;
``nullspace`` makes one ``Fraction`` per kernel entry.  Since the reduced
row echelon form is unique, this gives the same output as elimination
over Q.  Pivoting is deterministic (first nonzero entry in
column order), so outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def _width(matrix) -> int:
    """The common row length of a non-empty matrix; ValueError if ragged."""
    ncols = len(matrix[0])
    for i, row in enumerate(matrix):
        if len(row) != ncols:
            raise ValueError(f"ragged matrix: row {i} has {len(row)} entries, "
                             f"row 0 has {ncols}")
    return ncols


def _primitive(ints) -> list:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def integer_row(row) -> list:
    """The row scaled to integers by the lcm of its denominators."""
    row = [x if isinstance(x, (int, Q)) else Q(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _echelon(matrix) -> tuple:
    """(rows, pivots) for a non-empty matrix: the nonzero rows of its
    reduced echelon form, each scaled to primitive integers; row r is
    nonzero in column pivots[r], which is zero in every other row."""
    ncols = _width(matrix)
    m = [integer_row(row) for row in matrix]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_cols), with rows
    Fractions and as many rows as the input, zero rows last."""
    if not matrix:
        return [], []
    rows, pivots = _echelon(matrix)
    out = [[Q(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
    out += [[Q(0)] * len(matrix[0]) for _ in range(len(matrix) - len(rows))]
    return out, pivots


def nullspace(matrix, ncols=None):
    """Canonical kernel basis (vectors themselves in reduced echelon form)."""
    if ncols is None:
        if not matrix:
            raise ValueError("empty matrix needs explicit ncols")
        ncols = len(matrix[0])
    if not matrix:
        matrix = [[0] * ncols]
    if _width(matrix) != ncols:
        raise ValueError(f"rows have {len(matrix[0])} entries, "
                         f"ncols is {ncols}")
    rows, pivots = _echelon(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = Q(-row[fc], row[pc])
        basis.append(v)
    if not basis:
        return []
    b, _ = rref(basis)
    return [row for row in b if any(x != 0 for x in row)]
