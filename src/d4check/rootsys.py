"""D4 root system, signed-permutation Weyl group, orbits and word identities.

Everything is exact: roots are integer vectors, so their inner products,
Cartan numbers and reflections are integers too; a quotient that is not
exact raises ValueError.  Group elements are signed permutations of four
coordinates, and group enumeration is a
breadth-first closure that assigns each element a shortlex-reduced word
over the generator labels 1 < 2 < 3 < 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

#: Labels of the simple reflections, in the fixed generator order.
SIMPLE_INDICES = (1, 2, 3, 9)


@dataclass(frozen=True)
class RootVector:
    """A vector in the 4-dimensional normal plane, orthonormal coordinates."""

    coords: tuple[int, int, int, int]

    @staticmethod
    def of(*values) -> "RootVector":
        return RootVector(values)

    def inner(self, other: "RootVector") -> int:
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords))


@dataclass(frozen=True)
class TSignedPerm:
    """A signed permutation of four coordinates.

    ``perm[i] = j`` and ``signs[i] = s`` mean the i-th basis vector maps to
    s times the j-th basis vector (0-indexed).  The Weyl group acts this way
    on the normal-plane basis e_1..e_4 and, dually, on the variables t1..t4
    (t_j -> signs[j] * t_perm[j]).  ``word`` is a reduced word over generator
    labels, read right-to-left when acting (the rightmost generator is
    applied first); it does not participate in equality.
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]
    word: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def apply(self, v: RootVector) -> RootVector:
        out = [0] * 4
        for i in range(4):
            out[self.perm[i]] = self.signs[i] * v.coords[i]
        return RootVector(tuple(out))


def identity_element() -> TSignedPerm:
    return TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1), ())


def compose(outer: TSignedPerm, inner: TSignedPerm) -> TSignedPerm:
    """outer after inner (inner applied first)."""
    perm = tuple(outer.perm[inner.perm[i]] for i in range(4))
    signs = tuple(inner.signs[i] * outer.signs[inner.perm[i]] for i in range(4))
    return TSignedPerm(perm, signs, outer.word + inner.word)


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


@dataclass(frozen=True)
class RootSystem:
    positive_roots: tuple[RootVector, ...]
    simple_indices: tuple[int, ...]

    def root(self, i: int) -> RootVector:
        if not 1 <= i <= len(self.positive_roots):
            raise ValueError(f"root index out of range: {i}")
        return self.positive_roots[i - 1]


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


def build_d4() -> RootSystem:
    """The twelve positive roots of type D4."""
    roots = tuple(RootVector(c) for c in _POSITIVE_ROOT_COORDS)
    return RootSystem(roots, SIMPLE_INDICES)


def cartan_number(rs: RootSystem, i: int, j: int) -> int:
    """2(a_i, a_j) / (a_j, a_j); ValueError naming the pair unless it is an integer."""
    ai, aj = rs.root(i), rs.root(j)
    q, rem = divmod(2 * ai.inner(aj), aj.inner(aj))
    if rem:
        raise ValueError(f"cartan number {i},{j} is not an integer")
    return q


#: Integer matrix over the simple indices, rows and columns in the order (1, 2, 3, 9).
CartanMatrix = list[list[int]]


def simple_cartan_matrix(rs: RootSystem) -> CartanMatrix:
    """Cartan matrix over the simple indices, in the order (1, 2, 3, 9).

    It is computed from the roots; callers build it once and pass it on.
    """
    return [[cartan_number(rs, i, j) for j in rs.simple_indices] for i in rs.simple_indices]


def reflection(rs: RootSystem, i: int) -> TSignedPerm:
    """The reflection in the hyperplane normal to the i-th positive root."""
    alpha = rs.root(i).coords
    norm = sum(a * a for a in alpha)
    what = f"reflection {i}"
    images = []
    for k in range(4):
        # e_k - 2 alpha_k / (alpha, alpha) * alpha; a signed permutation has integer entries
        entries = [divmod(2 * alpha[k] * a, norm) for a in alpha]
        if any(rem for _, rem in entries):
            raise ValueError(f"{what} is not a signed permutation")
        images.append([(1 if t == k else 0) - q for t, (q, _) in enumerate(entries)])
    label = (i,) if i in rs.simple_indices else ()
    return replace(signed_perm(images, what), word=label)


def simple_generators(rs: RootSystem) -> dict[int, TSignedPerm]:
    return {i: reflection(rs, i) for i in rs.simple_indices}


def enumerate_group(generators: Iterable[TSignedPerm]) -> list[TSignedPerm]:
    """Breadth-first closure; each element gets its shortlex-minimal word.

    Generators must carry distinct one-letter words; they are processed in
    increasing label order so the first word found for an element is the
    shortlex-least one.
    """
    gens = sorted(generators, key=lambda g: g.word)
    ident = identity_element()
    seen: dict[tuple, TSignedPerm] = {(ident.perm, ident.signs): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                h = compose(w, g)
                key = (h.perm, h.signs)
                if key not in seen:
                    seen[key] = h
                    nxt.append(h)
        frontier = nxt
    return list(seen.values())


def orbit(group: Iterable[TSignedPerm], v: RootVector) -> set[RootVector]:
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


def verify_word_table(rs: RootSystem, gens: dict[int, TSignedPerm]) -> dict[int, bool]:
    """Check each tabulated word sends the first root to the indexed root."""
    alpha1 = rs.root(1)
    result = {}
    for idx, word in WORD_TABLE.items():
        w = element_from_word(word, gens)
        result[idx] = w.apply(alpha1) == rs.root(idx)
    return result
