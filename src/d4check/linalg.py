"""Small exact linear algebra over the integers: echelon form and nullspace.

Elimination cross-multiplies rows and divides each pivot row by its gcd, so
every entry stays an integer; a nullspace entry that is no integer raises
ValueError instead of being floored.
"""

from __future__ import annotations

import math

Matrix = list[list[int]]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Integer row echelon form with every pivot column cleared above and below.

    A pivot row is divided by its gcd when its pivot is chosen; pivots stay
    positive but are not scaled to 1.  Returns (matrix, pivot column indices).
    """
    a = [row[:] for row in m]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        g = math.gcd(*a[r]) if a[r][c] > 0 else -math.gcd(*a[r])
        a[r] = [x // g for x in a[r]]
        p = a[r][c]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [p * x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def nullspace(m: Matrix) -> Matrix:
    """Basis of the right nullspace: per free column, the vector with 1 there and 0 at the others.

    Raises ValueError if one of those vectors has an entry that is no integer.
    """
    a, pivots = rref(m)
    basis = []
    for f in range(len(m[0]) if m else 0):
        if f in pivots:
            continue
        v = [0] * len(m[0])
        v[f] = 1
        for row, p in zip(a, pivots):
            v[p], rem = divmod(-row[f], row[p])
            if rem:
                raise ValueError(f"nullspace vector of free column {f} is not integral")
        basis.append(v)
    return basis
