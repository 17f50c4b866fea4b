"""D4 root system, signed-permutation Weyl group, orbits and word identities.

Everything is exact: vectors carry Fraction coordinates, group elements are
signed permutations of four coordinates, and group enumeration is a
breadth-first closure that assigns each element a shortlex-reduced word
over the generator labels 1 < 2 < 3 < 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

#: Labels of the simple reflections, in the fixed generator order.
SIMPLE_INDICES = (1, 2, 3, 9)


@dataclass(frozen=True)
class RootVector:
    """A vector in the 4-dimensional normal plane, orthonormal coordinates."""

    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(*values) -> "RootVector":
        return RootVector(tuple(Fraction(v) for v in values))

    def inner(self, other: "RootVector") -> Fraction:
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords))

    def scale(self, c) -> "RootVector":
        c = Fraction(c)
        return RootVector(tuple(c * a for a in self.coords))


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation of the four coordinates.

    ``perm[i] = j`` and ``signs[i] = s`` mean the i-th basis vector maps to
    s times the j-th basis vector (0-indexed).  ``word`` is a reduced word
    over generator labels, read right-to-left when acting (the rightmost
    generator is applied first); it does not participate in equality.
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]
    word: tuple[int, ...] = field(default=(), compare=False)

    def apply(self, v: RootVector) -> RootVector:
        out = [Fraction(0)] * 4
        for i in range(4):
            out[self.perm[i]] = self.signs[i] * v.coords[i]
        return RootVector(tuple(out))

    def sign_product(self) -> int:
        p = 1
        for s in self.signs:
            p *= s
        return p

    def inverse(self) -> "WeylElement":
        perm = [0] * 4
        signs = [1] * 4
        for i in range(4):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return WeylElement(tuple(perm), tuple(signs), tuple(reversed(self.word)))


def identity_element() -> WeylElement:
    return WeylElement((0, 1, 2, 3), (1, 1, 1, 1), ())


def compose(outer: WeylElement, inner: WeylElement) -> WeylElement:
    """outer after inner (inner applied first)."""
    perm = tuple(outer.perm[inner.perm[i]] for i in range(4))
    signs = tuple(inner.signs[i] * outer.signs[inner.perm[i]] for i in range(4))
    return WeylElement(perm, signs, outer.word + inner.word)


@dataclass(frozen=True)
class FoliationSpec:
    diagram: str
    multiplicity: int
    dim_M: int
    ambient_n: int


@dataclass(frozen=True)
class RootSystem:
    positive_roots: tuple[RootVector, ...]
    simple_indices: tuple[int, ...]
    multiplicity: int

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


def build_d4(m: int) -> RootSystem:
    """The twelve positive roots of type D4 with uniform multiplicity m."""
    if m < 1:
        raise ValueError(f"invalid multiplicity: {m}")
    roots = tuple(RootVector.of(*c) for c in _POSITIVE_ROOT_COORDS)
    return RootSystem(roots, SIMPLE_INDICES, m)


def ambient_dims(m: int) -> FoliationSpec:
    if m < 1:
        raise ValueError(f"invalid multiplicity: {m}")
    return FoliationSpec("D4", m, 12 * m, 12 * m + 4)


def cartan_number(rs: RootSystem, i: int, j: int) -> Fraction:
    """2(a_i, a_j) / (a_j, a_j); an integer for any pair of roots."""
    ai, aj = rs.root(i), rs.root(j)
    return 2 * ai.inner(aj) / aj.inner(aj)


#: Integer matrix over the simple indices, rows and columns in the order (1, 2, 3, 9).
CartanMatrix = list[list[int]]


def simple_cartan_matrix(rs: RootSystem) -> CartanMatrix:
    """Cartan matrix over the simple indices, in the order (1, 2, 3, 9).

    It is computed from the roots; callers build it once and pass it on.
    """
    return [
        [int(cartan_number(rs, i, j)) for j in rs.simple_indices]
        for i in rs.simple_indices
    ]


def reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection in the hyperplane normal to the i-th positive root."""
    alpha = rs.root(i)
    norm = alpha.inner(alpha)
    perm = [0] * 4
    signs = [0] * 4
    for k in range(4):
        ek = RootVector.of(*(1 if t == k else 0 for t in range(4)))
        image = ek - alpha.scale(2 * ek.inner(alpha) / norm)
        nonzero = [(t, c) for t, c in enumerate(image.coords) if c != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise ValueError(f"reflection {i} is not a signed permutation")
        perm[k] = nonzero[0][0]
        signs[k] = 1 if nonzero[0][1] > 0 else -1
    label = (i,) if i in rs.simple_indices else ()
    return WeylElement(tuple(perm), tuple(signs), label)


def simple_generators(rs: RootSystem) -> dict[int, WeylElement]:
    return {i: reflection(rs, i) for i in rs.simple_indices}


def enumerate_group(generators: Iterable[WeylElement]) -> list[WeylElement]:
    """Breadth-first closure; each element gets its shortlex-minimal word.

    Generators must carry distinct one-letter words; they are processed in
    increasing label order so the first word found for an element is the
    shortlex-least one.
    """
    gens = sorted(generators, key=lambda g: g.word)
    ident = identity_element()
    seen: dict[tuple, WeylElement] = {(ident.perm, ident.signs): ident}
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


def orbit(group: Iterable[WeylElement], v: RootVector) -> set[RootVector]:
    return {w.apply(v) for w in group}


def element_from_word(word: Sequence[int], gens: dict[int, WeylElement]) -> WeylElement:
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


def verify_word_table(rs: RootSystem, gens: dict[int, WeylElement]) -> dict[int, bool]:
    """Check each tabulated word sends the first root to the indexed root."""
    alpha1 = rs.root(1)
    result = {}
    for idx, word in WORD_TABLE.items():
        w = element_from_word(word, gens)
        result[idx] = w.apply(alpha1) == rs.root(idx)
    return result
