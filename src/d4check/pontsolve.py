"""Symbolic solver for the first Pontryagin class of the base curvature bundle.

A candidate class k1*t1 + k2*t2 + k3*t3 + k4*t4 is pulled back along the
words that the Weyl group gives the roots.  A pullback only permutes and
negates coefficients, so each root's class is a signed-permutation code,
which the printed tables are read against through a symbol tuple.  The
classes are constrained three ways: triviality on the base leaf sphere,
vanishing of the total tangent-bundle class, and symmetry of the
focal-manifold part.  Each constraint is a row of integer coefficients, a
plain 4-tuple.  The cofactors of three of the rows give a vector that every
row annihilates, so the solutions are exactly the line it spans,
(1, 1, -1, -1).
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from operator import sub

from . import rootsys
from .cohomring import T_OF_OMEGA, euler_class_d, omega_from_t
from .rootsys import CartanMatrix, SignedPerm, act, along_words, inner

# Linear form over the unknowns (k1, k2, k3, k4); a constraint row is one.
LinForm = tuple[int, int, int, int]


def _sum(codes) -> tuple[LinForm, LinForm, LinForm, LinForm]:
    """The coefficient forms of t1..t4 in the sum of the classes: code c adds +-k_|c[j]| to form j."""
    total = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    for c in codes:
        for form, a in zip(total, c):
            if a > 0:
                form[a - 1] += 1
            else:
                form[-a - 1] -= 1
    return tuple(map(tuple, total))


def orbit_classes(gens: dict[int, SignedPerm], words: dict[int, tuple[int, ...]]) -> dict[int, SignedPerm]:
    """Each root's class, k1*t1 + .. + k4*t4 pulled back along its word: its word's element.

    In class c, t_{j+1} has coefficient k_|c[j]|, negated where c[j] < 0.
    ``gens`` act on t1..t4 as on e_1..e_4, and ``words[i]`` carries the
    first root to root i (``rootsys.orbit``); a word's class is its first
    letter acting on its tail's class.
    """
    return along_words(words, (1, 2, 3, 4), lambda label, c: act(gens[label], c))


def leaf_sphere_constraint() -> LinForm:
    """Stable triviality of the base leaf sphere: the pairing with b1 vanishes.

    The pairing of t_i with b_1 is the first omega coordinate of t_i.
    """
    return tuple(T_OF_OMEGA[i][0] for i in range(4))


def sum_zero_constraint(classes: dict[int, SignedPerm]) -> list[LinForm]:
    """Vanishing of the total class: each t coefficient of the sum is zero."""
    return list(_sum(classes.values()))


def focal_sum(classes: dict[int, SignedPerm]) -> tuple[LinForm, LinForm, LinForm, LinForm]:
    """The coefficient forms of the sum of the focal classes; ValueError names a focal label that is no root."""
    for idx in rootsys.FOCAL_INDICES:
        if idx not in classes:
            raise ValueError(f"focal label {idx} is no root")
    return _sum(map(classes.__getitem__, rootsys.FOCAL_INDICES))


def symmetry_constraint(classes: dict[int, SignedPerm], gens: dict[int, SignedPerm]) -> list[LinForm]:
    """The focal part (the roots ``rootsys.FOCAL_INDICES``) must be a symmetric function of the t_i.

    The stabilizer generators ``rootsys.STABILIZER_INDICES`` act on t by the
    transpositions of adjacent variables, which generate the full symmetric
    group, so invariance under them suffices.  A generator acts on each
    unknown's t-vector, a column of the focal sum.  Four rows per generator,
    one per t coefficient of image minus focal sum.
    """
    total = focal_sum(classes)
    return [
        tuple(map(sub, image, form))
        for g in rootsys.STABILIZER_INDICES
        for image, form in zip(zip(*[act(gens[g], col) for col in zip(*total)]), total)
    ]


def assemble_constraints(
    classes: dict[int, SignedPerm], gens: dict[int, SignedPerm], include_symmetry: bool = True
) -> list[LinForm]:
    """The constraint rows over the orbit classes."""
    rows = [leaf_sphere_constraint()]
    rows += sum_zero_constraint(classes)
    if include_symmetry:
        rows += symmetry_constraint(classes, gens)
    return rows


Solved = tuple[int, LinForm | None]  # (dimension, line when the dimension is 1)


def _det3(u, v, w) -> int:
    return inner(u, (v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0]))


def _cofactors(triple) -> LinForm:
    """The signed 3x3 minors of three rows: a vector each of the three annihilates."""
    cols = list(zip(*triple))
    return tuple((-1) ** j * _det3(*cols[:j], *cols[j + 1:]) for j in range(4))


def solve(rows: list[LinForm]) -> Solved:
    """The solutions of the constraint rows over (k1..k4): (dimension, line).

    The first triple of rows with nonzero cofactors v bounds the solutions to
    multiples of v, and they are all of them if every row annihilates v.  The
    line is primitive with its last nonzero entry positive, as in rref.
    Without such a triple the rank is at most 2.
    """
    for triple in combinations(rows, 3):
        v = _cofactors(triple)
        if any(v):
            if any(inner(row, v) for row in rows):
                return 0, None
            g = math.gcd(*v) * (1 if [x for x in v if x][-1] > 0 else -1)
            return 1, tuple(x // g for x in v)
    if any(a[i] * b[j] != a[j] * b[i] for a, b in combinations(rows, 2) for i, j in combinations(range(4), 2)):
        return 2, None
    return (3 if any(map(any, rows)) else 4), None


# ---------------------------------------------------------------------------
# Oracle tables for the orbit classes.  Coefficients are symbols over the
# reduced unknowns: after the leaf-sphere constraint the first two unknowns
# coincide ("k"), and the second table additionally substitutes k3 = -k.

TABLE_AFTER_LEAF = {
    1: ("k", "k", "k3", "k4"),
    2: ("k3", "k", "k", "k4"),
    3: ("k3", "k4", "k", "k"),
    4: ("k", "k3", "k", "k4"),
    5: ("k3", "k", "k4", "k"),
    6: ("k", "k3", "k4", "k"),
    7: ("k", "-k", "k3", "-k4"),
    8: ("k3", "k", "-k", "-k4"),
    9: ("k3", "-k4", "k", "-k"),
    10: ("k", "k3", "-k", "-k4"),
    11: ("k3", "k", "-k4", "-k"),
    12: ("k", "k3", "-k4", "-k"),
}

TABLE_FOCAL = {
    7: ("k", "-k", "-k", "-k4"),
    8: ("-k", "k", "-k", "-k4"),
    9: ("-k", "-k4", "k", "-k"),
    10: ("k", "-k", "-k", "-k4"),
    11: ("-k", "k", "-k4", "-k"),
    12: ("k", "-k", "-k4", "-k"),
}

#: The symbol of each code entry a, indexed like ``rootsys._table``: k_|a|,
#: negated for a < 0, once k1 = k2 = k, and in the focal table k3 = -k too.
_AFTER_LEAF_SYMBOLS = ("", "k", "k", "k3", "k4", "-k4", "-k3", "-k", "-k")
_FOCAL_SYMBOLS = ("", "k", "k", "-k", "k4", "-k4", "k", "-k", "-k")


def _match_table(table: dict, rows: range | tuple, classes: dict[int, SignedPerm], symbols: tuple) -> dict:
    """Per table row: is the class, read through ``symbols``, the printed row?

    Raises ValueError unless the table has exactly the rows ``rows``, and
    names the first symbol, in row order, that ``symbols`` does not print.
    """
    labels = list(rows)
    if sorted(table) != labels:
        span = f"{labels[0]}..{labels[-1]}" if labels and labels == list(range(labels[0], labels[-1] + 1)) else labels
        raise ValueError(f"table rows {sorted(table)}, expected {span}")
    known = symbols[1:]
    for sym in chain.from_iterable(map(table.__getitem__, rows)):
        if sym not in known:
            raise ValueError(f"unknown table symbol {sym!r}")
    return {idx: tuple(map(symbols.__getitem__, classes[idx])) == table[idx] for idx in rows}


def check_orbit_table(classes: dict[int, SignedPerm]) -> dict[int, bool]:
    """Match all twelve classes against the after-leaf-constraint table."""
    return _match_table(TABLE_AFTER_LEAF, range(1, 13), classes, _AFTER_LEAF_SYMBOLS)


def check_focal_table(classes: dict[int, SignedPerm]) -> dict[int, bool]:
    """Match the six focal classes against the table with k3 eliminated."""
    return _match_table(TABLE_FOCAL, rootsys.FOCAL_INDICES, classes, _FOCAL_SYMBOLS)


def focal_sum_reduced(classes: dict[int, SignedPerm]) -> list[tuple[int, int, int]]:
    """Focal sum over the reduced unknowns (k, k3=-k folded, k4)."""
    return [(k1 + k2 - k3, 0, k4) for k1, k2, k3, k4 in focal_sum(classes)]


# ---------------------------------------------------------------------------
# Final classes of the distinguished 4-plane bundle.


SOLUTION_LINE = (1, 1, -1, -1)


def solution_line(solved: Solved) -> LinForm:
    """The solved line scaled to lead coordinate 1, as integers.

    Raises ``ValueError`` unless ``solved`` is the line ``SOLUTION_LINE``.
    """
    dimension, v = solved
    if dimension != 1:
        raise ValueError(f"solution space has dimension {dimension}, expected 1")
    if not v[0] or v != tuple(v[0] * x for x in SOLUTION_LINE):
        raise ValueError(f"unexpected solution line: {v}")
    return SOLUTION_LINE


def lemma8_classes(cartan: CartanMatrix, solved: Solved) -> tuple[tuple, tuple]:
    """Euler class and the unit-coefficient Pontryagin class in omega coords.

    ``solved`` is the ``solve`` of the full constraint system.
    Returns (euler, p1_unit) where the first Pontryagin class is
    2k * (omega_2 - omega_9), reported here per unit k.  The printed source
    for this conversion has a typo (a nonexistent basis symbol); the
    derivation fixes the last basis vector.
    """
    line = solution_line(solved)
    return euler_class_d(cartan, 1), omega_from_t(line)
