"""Small exact linear algebra: rref, nullspace and inverse over Fractions.

``mat_vec`` keeps the type of its entries, so an integer matrix maps an
integer vector to one; elimination divides, so its results are Fractions.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def mat_vec(m: Matrix, v: list) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [row[:] for row in m]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column."""
    if not m:
        return []
    a, pivots = rref(m)
    n_cols = len(m[0])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def invert(m: Matrix) -> Matrix:
    n = len(m)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
