"""Symbolic solver for the first Pontryagin class of the base curvature bundle.

A candidate class k1*t1 + k2*t2 + k3*t3 + k4*t4 is pushed around the root
orbit by pullbacks along the words that the Weyl group gives the roots,
then constrained three ways: triviality on the base leaf sphere, vanishing
of the total tangent-bundle class, and symmetry of the focal-manifold part.
Each constraint is a row of integer coefficients, a plain 4-tuple.  The
cofactors of three of the rows give a vector that every row annihilates, so
the solutions are exactly the line it spans, (1, 1, -1, -1).
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from operator import neg, sub

from . import rootsys
from .cohomring import T_OF_OMEGA, euler_class_d, omega_from_t
from .rootsys import CartanMatrix, TSignedPerm, along_words, inner

# Linear form over the unknowns (k1, k2, k3, k4); a constraint row is one.
LinForm = tuple[int, int, int, int]

# A t-basis class whose coefficients are linear forms in the unknowns:
# entry i is the coefficient form of t_{i+1}.
SymbolicClass = tuple[LinForm, LinForm, LinForm, LinForm]


def generic_class() -> SymbolicClass:
    """k1*t1 + k2*t2 + k3*t3 + k4*t4 with independent unknowns."""
    return ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _sum(classes) -> SymbolicClass:
    """The sum of symbolic classes, one coefficient form at a time."""
    return tuple(tuple(map(sum, zip(*forms))) for forms in zip(*classes))


def apply_pullback(sp: TSignedPerm, cls: SymbolicClass) -> SymbolicClass:
    """``sp`` applied to the t-vector of each unknown: the columns of ``cls``.

    Coefficient form j moves to ``perm[j]``, negated where ``signs[j]`` is -1.
    """
    (p0, p1, p2, p3), signs = sp
    out = [None] * 4
    out[p0], out[p1], out[p2], out[p3] = [form if s > 0 else tuple(map(neg, form)) for form, s in zip(cls, signs)]
    return tuple(out)


def orbit_classes(gens: dict[int, TSignedPerm], words: dict[int, tuple[int, ...]]) -> dict[int, SymbolicClass]:
    """The symbolic class of each positive root: the generic class pulled back along its word.

    ``gens`` are the simple reflections, acting on t1..t4 as on e_1..e_4,
    and ``words[i]`` carries the first root to root i (``rootsys.orbit``).
    The pullback is a left action, so the word's element, whose rightmost
    generator acts first, pulls back one letter at a time from the right:
    a word's class is its first letter's pullback of its tail's class.
    """
    return along_words(words, generic_class(), lambda label, cls: apply_pullback(gens[label], cls))


def leaf_sphere_constraint() -> LinForm:
    """Stable triviality of the base leaf sphere: the pairing with b1 vanishes.

    The pairing of t_i with b_1 is the first omega coordinate of t_i.
    """
    return tuple(T_OF_OMEGA[i][0] for i in range(4))


def sum_zero_constraint(classes: dict[int, SymbolicClass]) -> list[LinForm]:
    """Vanishing of the total class: each t coefficient of the sum is zero."""
    return list(_sum(classes.values()))


def focal_sum(classes: dict[int, SymbolicClass]) -> SymbolicClass:
    return _sum(classes[idx] for idx in rootsys.FOCAL_INDICES)


def symmetry_constraint(classes: dict[int, SymbolicClass], gens: dict[int, TSignedPerm]) -> list[LinForm]:
    """The focal part (the roots ``rootsys.FOCAL_INDICES``) must be a symmetric function of the t_i.

    The stabilizer generators ``rootsys.STABILIZER_INDICES`` act on t by the
    transpositions of adjacent variables, which generate the full symmetric
    group, so invariance under them suffices.  Four rows per
    generator, one per t coefficient of image minus focal sum.
    """
    total = focal_sum(classes)
    return [
        tuple(map(sub, image, form))
        for g in rootsys.STABILIZER_INDICES
        for image, form in zip(apply_pullback(gens[g], total), total)
    ]


def assemble_constraints(
    classes: dict[int, SymbolicClass], gens: dict[int, TSignedPerm], include_symmetry: bool = True
) -> list[LinForm]:
    """The constraint rows over the orbit classes of the generic class."""
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

def _substitute(form: LinForm, k3_is_minus_k: bool) -> tuple[int, int, int]:
    """Collapse (k1, k2, k3, k4) to coordinates over (k, k3, k4) with k1=k2=k.

    With ``k3_is_minus_k`` the k3 slot is folded into k and reported as zero.
    """
    k = form[0] + form[1]
    k3 = form[2]
    k4 = form[3]
    if k3_is_minus_k:
        k, k3 = k - k3, 0
    return (k, k3, k4)


#: The unit form over (k1, k2, k3, k4) of each unsigned table symbol.
_UNIT_FORMS = {"k": (1, 0, 0, 0), "k3": (0, 0, 1, 0), "k4": (0, 0, 0, 1)}


def _symbol_form(sym: str) -> LinForm:
    """A table symbol, exactly -?(k|k3|k4), as a form over (k1, k2, k3, k4); "k" stands for k1.

    Raises ValueError naming any other symbol, such as "--k".
    """
    form = _UNIT_FORMS.get(sym.removeprefix("-"))
    if form is None:
        raise ValueError(f"unknown table symbol {sym!r}")
    return tuple(map(neg, form)) if sym.startswith("-") else form


def _match_table(table: dict, rows: range | tuple, classes: dict[int, SymbolicClass], k3_is_minus_k: bool) -> dict:
    """Per table row: do the class and the row agree over the reduced unknowns?

    Raises ValueError unless the table has exactly the rows ``rows``.
    """
    labels = list(rows)
    if sorted(table) != labels:
        span = f"{labels[0]}..{labels[-1]}" if labels and labels == list(range(labels[0], labels[-1] + 1)) else labels
        raise ValueError(f"table rows {sorted(table)}, expected {span}")
    # each distinct symbol once, in row order, so the first misspelt one is named
    symbols = dict.fromkeys(chain.from_iterable(map(table.__getitem__, rows)))
    reduced = {s: _substitute(_symbol_form(s), k3_is_minus_k) for s in symbols}
    return {
        idx: [_substitute(f, k3_is_minus_k) for f in classes[idx]] == list(map(reduced.__getitem__, table[idx]))
        for idx in rows
    }


def check_orbit_table(classes: dict[int, SymbolicClass]) -> dict[int, bool]:
    """Match all twelve classes against the after-leaf-constraint table."""
    return _match_table(TABLE_AFTER_LEAF, range(1, 13), classes, False)


def check_focal_table(classes: dict[int, SymbolicClass]) -> dict[int, bool]:
    """Match the six focal classes against the table with k3 eliminated."""
    return _match_table(TABLE_FOCAL, rootsys.FOCAL_INDICES, classes, True)


def focal_sum_reduced(classes: dict[int, SymbolicClass]) -> list[tuple[int, int, int]]:
    """Focal sum over the reduced unknowns (k, k3=-k folded, k4)."""
    total = focal_sum(classes)
    return [_substitute(f, True) for f in total]


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
