"""Exact rational Gaussian elimination: RREF, kernels, and linear solves.

Matrices are lists of lists of Fractions.  Pivoting is deterministic
(first nonzero entry in column order), so outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def rref(matrix):
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols)."""
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


def nullspace(matrix, ncols=None):
    """Canonical kernel basis (vectors themselves in reduced echelon form)."""
    if ncols is None:
        if not matrix:
            raise ValueError("empty matrix needs explicit ncols")
        ncols = len(matrix[0])
    if not matrix:
        matrix = [[Q(0)] * ncols]
    m, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    if not basis:
        return []
    b, _ = rref(basis)
    return [row for row in b if any(x != 0 for x in row)]


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent."""
    if not matrix:
        return [] if all(b == 0 for b in rhs) else None
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x

