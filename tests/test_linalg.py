from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d4check import linalg, obstruct, pontsolve

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n_cols: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n_cols, max_size=n_cols),
        min_size=1,
        max_size=5,
    )
)


def _rational_nullspace(m):
    """Reference: reduced row echelon form over Fractions, one vector per free column."""
    a = [[Fraction(x) for x in row] for row in m]
    n_cols = len(a[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return pivots, basis


def _integral(basis):
    return all(x.denominator == 1 for v in basis for x in v)


@given(matrices)
def test_nullspace_matches_rational_reference(m):
    pivots, expected = _rational_nullspace(m)
    a, got_pivots = linalg.rref(m)
    assert got_pivots == pivots
    assert all(type(x) is int for row in a for x in row)
    if _integral(expected):
        got = linalg.nullspace(m)
        assert got == [[int(x) for x in v] for v in expected]
        assert all(type(x) is int for v in got for x in v)
    else:
        with pytest.raises(ValueError, match="^nullspace vector of free column [0-4] is not integral$"):
            linalg.nullspace(m)


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_nullspace_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    expected = [list(v) for v in sympy.Matrix(m).nullspace()]
    if all(x.is_integer for v in expected for x in v):
        assert linalg.nullspace(m) == expected
    else:
        with pytest.raises(ValueError):
            linalg.nullspace(m)


@pytest.mark.parametrize("disable_symmetry", [False, True])
def test_constraint_system_matches_sympy(disable_symmetry):
    sympy = pytest.importorskip("sympy")
    run = obstruct.Run(disable_symmetry=disable_symmetry)
    eqs = pontsolve.assemble_constraints(run.classes, run.acts, include_symmetry=not disable_symmetry)
    rows = [list(eq.coeffs) for eq in eqs]
    assert pontsolve.solve(eqs) == [list(v) for v in sympy.Matrix(rows).nullspace()]
