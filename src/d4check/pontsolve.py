"""Symbolic solver for the first Pontryagin class of the base curvature bundle.

A candidate class k1*t1 + k2*t2 + k3*t3 + k4*t4 is pushed around the root
orbit by composed pullbacks, then constrained three ways: triviality on the
base leaf sphere, vanishing of the total tangent-bundle class, and symmetry
of the focal-manifold part.  The linear forms have integer coefficients, and
integer elimination (``linalg``) leaves a one-dimensional solution line
spanned by (1, 1, -1, -1).
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .cohomring import T_OF_OMEGA, euler_class_d, omega_from_t
from .rootsys import WORD_TABLE, CartanMatrix, TSignedPerm, element_from_word

# Linear form over the unknowns (k1, k2, k3, k4).
LinForm = tuple[int, int, int, int]

# A t-basis class whose coefficients are linear forms in the unknowns:
# entry i is the coefficient form of t_{i+1}.
SymbolicClass = tuple[LinForm, LinForm, LinForm, LinForm]

ZERO_FORM: LinForm = (0,) * 4


def _unit(i: int) -> LinForm:
    return tuple(1 if j == i else 0 for j in range(4))


def generic_class() -> SymbolicClass:
    """k1*t1 + k2*t2 + k3*t3 + k4*t4 with independent unknowns."""
    return tuple(_unit(i) for i in range(4))


def _add(f: LinForm, g: LinForm) -> LinForm:
    return tuple(a + b for a, b in zip(f, g))


def apply_pullback(sp: TSignedPerm, cls: SymbolicClass) -> SymbolicClass:
    """``sp.apply`` on the t-vector of each unknown: the columns of ``cls``."""
    return tuple(zip(*(sp.apply(col) for col in zip(*cls))))


#: Pullback words carrying the base class to each root's class; the base
#: root itself has the empty word.
ORBIT_WORDS: dict[int, tuple[int, ...]] = {1: (), **WORD_TABLE}


def orbit_classes(acts: dict[int, TSignedPerm]) -> dict[int, SymbolicClass]:
    """The twelve symbolic classes, one per positive root.

    ``acts`` are the generator actions on t1..t4 (``cohomring.t_actions``).
    Each class is the pullback of the generic class by the group element of
    its word, which composes contravariantly as written: the rightmost
    starred generator acts first.
    """
    return {
        idx: apply_pullback(element_from_word(word, acts), generic_class())
        for idx, word in sorted(ORBIT_WORDS.items())
    }


class Equation(NamedTuple):
    """Homogeneous linear equation over (k1, k2, k3, k4) with provenance."""

    coeffs: LinForm
    label: str

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def leaf_sphere_constraint() -> Equation:
    """Stable triviality of the base leaf sphere: the pairing with b1 vanishes.

    The pairing of t_i with b_1 is the first omega coordinate of t_i.
    """
    coeffs = tuple(T_OF_OMEGA[i][0] for i in range(4))
    return Equation(coeffs, "leaf-sphere pairing <p1, b1> = 0")


def sum_zero_constraint(classes: dict[int, SymbolicClass]) -> list[Equation]:
    """Vanishing of the total class: each t coefficient of the sum is zero."""
    out = []
    for i in range(4):
        total = ZERO_FORM
        for cls in classes.values():
            total = _add(total, cls[i])
        out.append(Equation(total, f"sum of all 12 classes, t{i + 1} coefficient"))
    return out


def focal_sum(classes: dict[int, SymbolicClass]) -> SymbolicClass:
    total: SymbolicClass = (ZERO_FORM,) * 4
    for idx in range(7, 13):
        total = tuple(_add(a, b) for a, b in zip(total, classes[idx]))
    return total


def symmetry_constraint(classes: dict[int, SymbolicClass], acts: dict[int, TSignedPerm]) -> list[Equation]:
    """The focal part (roots 7..12) must be a symmetric function of the t_i.

    The stabilizer generators 1, 2 and 3 act on t by the transpositions of
    adjacent variables, which generate the full symmetric group, so
    invariance under those three suffices.
    """
    total = focal_sum(classes)
    out = []
    for g in (1, 2, 3):
        image = apply_pullback(acts[g], total)
        for i in range(4):
            diff = tuple(a - b for a, b in zip(image[i], total[i]))
            out.append(Equation(diff, f"focal sum symmetry under generator {g}, t{i + 1} coefficient"))
    return out


def assemble_constraints(
    classes: dict[int, SymbolicClass], acts: dict[int, TSignedPerm], include_symmetry: bool = True
) -> list[Equation]:
    """The constraint system over the orbit classes of the generic class."""
    eqs = [leaf_sphere_constraint()]
    eqs += sum_zero_constraint(classes)
    if include_symmetry:
        eqs += symmetry_constraint(classes, acts)
    return eqs


def solve(equations: list[Equation]) -> linalg.Matrix:
    """Exact integer nullspace basis of the constraint system over (k1..k4)."""
    return linalg.nullspace([list(eq.coeffs) for eq in equations])


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


def _symbol_form(sym: str) -> LinForm:
    """A table symbol as a form over (k1, k2, k3, k4); "k" stands for k1."""
    sign = -1 if sym.startswith("-") else 1
    i = {"k": 0, "k3": 2, "k4": 3}[sym.lstrip("-")]
    return tuple(sign * x for x in _unit(i))


def _match_table(table: dict, rows: range, classes: dict[int, SymbolicClass], k3_is_minus_k: bool) -> dict:
    """Per table row: do the class and the row agree over the reduced unknowns?

    Raises ValueError unless the table has exactly the rows ``rows``.
    """
    if sorted(table) != list(rows):
        raise ValueError(f"table rows {sorted(table)}, expected {rows.start}..{rows.stop - 1}")
    return {
        idx: [_substitute(f, k3_is_minus_k) for f in classes[idx]]
        == [_substitute(_symbol_form(s), k3_is_minus_k) for s in symbols]
        for idx, symbols in table.items()
    }


def check_orbit_table(classes: dict[int, SymbolicClass]) -> dict[int, bool]:
    """Match all twelve classes against the after-leaf-constraint table."""
    return _match_table(TABLE_AFTER_LEAF, range(1, 13), classes, False)


def check_focal_table(classes: dict[int, SymbolicClass]) -> dict[int, bool]:
    """Match the six focal classes against the table with k3 eliminated."""
    return _match_table(TABLE_FOCAL, range(7, 13), classes, True)


def focal_sum_reduced(classes: dict[int, SymbolicClass]) -> list[tuple[int, int, int]]:
    """Focal sum over the reduced unknowns (k, k3=-k folded, k4)."""
    total = focal_sum(classes)
    return [_substitute(f, True) for f in total]


# ---------------------------------------------------------------------------
# Final classes of the distinguished 4-plane bundle.


SOLUTION_LINE = (1, 1, -1, -1)


def solution_line(basis: linalg.Matrix) -> tuple[int, int, int, int]:
    """The solved line scaled to lead coordinate 1, as integers.

    Raises ``ValueError`` unless ``basis`` spans the line ``SOLUTION_LINE``.
    """
    if len(basis) != 1:
        raise ValueError(f"solution space has dimension {len(basis)}, expected 1")
    v = basis[0]
    if not v[0] or tuple(v) != tuple(v[0] * x for x in SOLUTION_LINE):
        raise ValueError(f"unexpected solution line: {v}")
    return SOLUTION_LINE


def lemma8_classes(cartan: CartanMatrix, basis: linalg.Matrix) -> tuple[tuple, tuple]:
    """Euler class and the unit-coefficient Pontryagin class in omega coords.

    ``basis`` is the solved nullspace of the full constraint system.
    Returns (euler, p1_unit) where the first Pontryagin class is
    2k * (omega_2 - omega_9), reported here per unit k.  The printed source
    for this conversion has a typo (a nonexistent basis symbol); the
    derivation fixes the last basis vector.
    """
    line = solution_line(basis)
    return euler_class_d(cartan, 1), omega_from_t(line)
