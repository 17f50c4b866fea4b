"""D4 root system, signed-permutation Weyl group, orbits and word identities.

Everything is exact: a root is an integer 4-tuple in the orthonormal
coordinates e_1..e_4 of the normal plane, so inner products, Cartan numbers
and reflections are integers too; a quotient that is not exact raises
ValueError.  Group elements are signed permutations of four coordinates,
and group enumeration is a breadth-first closure that returns each element
with its shortlex-reduced word over the generator labels 1 < 2 < 3 < 9.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

#: Labels of the simple reflections, in the fixed generator order.
SIMPLE_INDICES = (1, 2, 3, 9)


def inner(u: tuple, v: tuple) -> int:
    """Euclidean inner product of two vectors in e-coordinates."""
    return sum(a * b for a, b in zip(u, v))


class TSignedPerm(NamedTuple):
    """A signed permutation of four coordinates.

    ``perm[i] = j`` and ``signs[i] = s`` mean the i-th basis vector maps to
    s times the j-th basis vector (0-indexed).  The Weyl group acts this way
    on the normal-plane basis e_1..e_4 and, dually, on the variables t1..t4
    (t_j -> signs[j] * t_perm[j]).
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]

    def apply(self, v: tuple) -> tuple:
        out = [0] * 4
        for i in range(4):
            out[self.perm[i]] = self.signs[i] * v[i]
        return tuple(out)


def identity_element() -> TSignedPerm:
    return TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))


def compose(outer: TSignedPerm, inner: TSignedPerm) -> TSignedPerm:
    """outer after inner (inner applied first)."""
    perm = tuple(outer.perm[inner.perm[i]] for i in range(4))
    signs = tuple(inner.signs[i] * outer.signs[inner.perm[i]] for i in range(4))
    return TSignedPerm(perm, signs)


def signed_perm(columns: Sequence[Sequence], what: str) -> TSignedPerm:
    """The signed permutation that sends basis vector k to ``columns[k]``.

    Raises ValueError naming ``what`` if some column is not a signed unit vector.
    """
    perm = [0] * 4
    signs = [0] * 4
    for k, col in enumerate(columns):
        nonzero = [(t, c) for t, c in enumerate(col) if c != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise ValueError(f"{what} is not a signed permutation")
        perm[k] = nonzero[0][0]
        signs[k] = 1 if nonzero[0][1] > 0 else -1
    return TSignedPerm(tuple(perm), tuple(signs))


# Positive roots in the fixed printed order; entries are (+-e_i +- e_j).
_POSITIVE_ROOT_COORDS = (
    (1, -1, 0, 0),
    (0, 1, -1, 0),
    (0, 0, 1, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
    (1, 0, 0, -1),
    (1, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (1, 0, 1, 0),
    (0, 1, 0, 1),
    (1, 0, 0, 1),
)


def build_d4() -> tuple:
    """The twelve positive roots of type D4 in e-coordinates; root i is ``rs[i - 1]``."""
    return _POSITIVE_ROOT_COORDS


def cartan_number(rs: tuple, i: int, j: int) -> int:
    """2(a_i, a_j) / (a_j, a_j); ValueError if root j is zero or the quotient no integer."""
    ai, aj = rs[i - 1], rs[j - 1]
    if not any(aj):
        raise ValueError(f"root {j} is zero")
    q, rem = divmod(2 * inner(ai, aj), inner(aj, aj))
    if rem:
        raise ValueError(f"cartan number {i},{j} is not an integer")
    return q


#: Integer matrix over the simple indices, rows and columns in the order (1, 2, 3, 9).
CartanMatrix = list[list[int]]


def simple_cartan_matrix(rs: tuple) -> CartanMatrix:
    """Cartan matrix over the simple indices, in the order (1, 2, 3, 9).

    It is computed from the roots; callers build it once and pass it on.
    """
    return [[cartan_number(rs, i, j) for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]


def reflection(rs: tuple, i: int) -> TSignedPerm:
    """The reflection in the hyperplane normal to the i-th positive root."""
    alpha = rs[i - 1]
    if not any(alpha):
        raise ValueError(f"root {i} is zero")
    norm = inner(alpha, alpha)
    what = f"reflection {i}"
    images = []
    for k in range(4):
        # e_k - 2 alpha_k / (alpha, alpha) * alpha; a signed permutation has integer entries
        entries = [divmod(2 * alpha[k] * a, norm) for a in alpha]
        if any(rem for _, rem in entries):
            raise ValueError(f"{what} is not a signed permutation")
        images.append([(1 if t == k else 0) - q for t, (q, _) in enumerate(entries)])
    return signed_perm(images, what)


def simple_generators(rs: tuple) -> dict[int, TSignedPerm]:
    return {i: reflection(rs, i) for i in SIMPLE_INDICES}


def enumerate_group(gens: dict[int, TSignedPerm]) -> dict[TSignedPerm, tuple[int, ...]]:
    """Breadth-first closure: each element with its shortlex-least word over the labels.

    Labels are tried in increasing order, so the first word found for an
    element is the shortlex-least one; ``element_from_word`` replays it.
    """
    labelled = sorted(gens.items())
    words = {identity_element(): ()}
    frontier = list(words)
    while frontier:
        nxt = []
        for w in frontier:
            for label, g in labelled:
                h = compose(w, g)
                if h not in words:
                    words[h] = words[w] + (label,)
                    nxt.append(h)
        frontier = nxt
    return words


def orbit(group: Iterable[TSignedPerm], v: tuple) -> set[tuple]:
    return {w.apply(v) for w in group}


def element_from_word(word: Sequence[int], gens: dict[int, TSignedPerm]) -> TSignedPerm:
    """Evaluate a word right-to-left (rightmost generator applied first)."""
    w = identity_element()
    for label in reversed(word):
        w = compose(gens[label], w)
    return w


#: Reduced expressions for roots 2..12 as words acting on the first root.
WORD_TABLE: dict[int, tuple[int, ...]] = {
    2: (1, 2),
    3: (2, 1, 3, 2),
    4: (2,),
    5: (1, 3, 2),
    6: (3, 2),
    7: (2, 3, 9, 2),
    8: (1, 3, 9, 2),
    9: (2, 1, 9, 2),
    10: (3, 9, 2),
    11: (1, 9, 2),
    12: (9, 2),
}


def verify_word_table(rs: tuple, gens: dict[int, TSignedPerm]) -> dict[int, bool]:
    """Check each tabulated word sends the first root to the indexed root."""
    alpha1 = rs[0]
    result = {}
    for idx, word in WORD_TABLE.items():
        w = element_from_word(word, gens)
        result[idx] = w.apply(alpha1) == rs[idx - 1]
    return result
