"""D4 root system, signed-permutation Weyl group, and orbits with their words.

Everything is exact: a root is an integer 4-tuple in the orthonormal
coordinates e_1..e_4 of the normal plane, so inner products, Cartan numbers
and reflections are integers too; a quotient that is not exact raises
ValueError.  Like every per-root table, the roots are keyed by their printed
labels 1..12.  A group element is a signed permutation of four coordinates,
written as one int 4-tuple: entry j is s (i + 1) when it sends e_i to s e_j,
so the tuple is its matrix read row by row and the identity is (1, 2, 3, 4).
Reading the table (0, v_1, .., v_4, -v_4, .., -v_1) of a 4-tuple v at the
four entries of w gives w v; reading a group element's table there gives a
product.  Group enumeration is a breadth-first closure that returns each
element with its shortlex-reduced word over the generator labels
1 < 2 < 3 < 9; ``images`` applies the whole group to a vector in one sweep,
and an orbit keeps, per image, the first element that carries the vector
there, so every product of group elements is one the closure computed.
"""

from __future__ import annotations

from operator import mul

#: Labels of the simple reflections, in the fixed generator order.
SIMPLE_INDICES = (1, 2, 3, 9)
#: The point (2-3) of the closed chamber; its stabilizer is generated by the
#: simple reflections whose roots are orthogonal to it, and the focal roots of
#: table (4-3) are the positive roots that are not.
BASE_POINT = (1, 1, 1, 1)
STABILIZER_INDICES = (1, 2, 3)
FOCAL_INDICES = range(7, 13)


def inner(u: tuple, v: tuple) -> int:
    """Euclidean inner product of two vectors in e-coordinates."""
    return sum(map(mul, u, v))


#: A signed permutation: entry j is s (i + 1) when it sends e_i to s e_j.
SignedPerm = tuple[int, int, int, int]


def _table(v: tuple) -> tuple:
    """Entry a is the entry |a| of v, 1-based, negated for a < 0: read at w's entries, it is w v."""
    v0, v1, v2, v3 = v
    return (0, v0, v1, v2, v3, -v3, -v2, -v1, -v0)


def act(w: SignedPerm, v: tuple) -> tuple:
    """w v, v's table read at w's entries; ``enumerate_group`` and ``images`` inline it for speed."""
    t = _table(v)
    a, b, c, d = w
    return (t[a], t[b], t[c], t[d])


# Positive roots by their printed labels 1..12; entries are (+-e_i +- e_j).
_POSITIVE_ROOT_COORDS = {
    1: (1, -1, 0, 0),
    2: (0, 1, -1, 0),
    3: (0, 0, 1, -1),
    4: (1, 0, -1, 0),
    5: (0, 1, 0, -1),
    6: (1, 0, 0, -1),
    7: (1, 1, 0, 0),
    8: (0, 1, 1, 0),
    9: (0, 0, 1, 1),
    10: (1, 0, 1, 0),
    11: (0, 1, 0, 1),
    12: (1, 0, 0, 1),
}


def build_d4() -> dict[int, tuple]:
    """The twelve positive roots of type D4 in e-coordinates, keyed by label: root i is ``rs[i]``."""
    return _POSITIVE_ROOT_COORDS


def cartan_number(rs: dict[int, tuple], i: int, j: int) -> int:
    """2(a_i, a_j) / (a_j, a_j); ValueError if root j is zero or the quotient no integer."""
    ai, aj = rs[i], rs[j]
    if not any(aj):
        raise ValueError(f"root {j} is zero")
    q, rem = divmod(2 * inner(ai, aj), inner(aj, aj))
    if rem:
        raise ValueError(f"cartan number {i},{j} is not an integer")
    return q


#: Integer matrix over the simple indices, rows and columns in the order (1, 2, 3, 9).
CartanMatrix = list[list[int]]


def simple_cartan_matrix(rs: dict[int, tuple]) -> CartanMatrix:
    """Cartan matrix over the simple indices, in the order (1, 2, 3, 9).

    It is computed from the roots; callers build it once and pass it on.
    """
    return [[cartan_number(rs, i, j) for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]


def reflection(rs: dict[int, tuple], i: int) -> SignedPerm:
    """The reflection in the hyperplane normal to the positive root labelled i.

    It is read off the integer vectors norm * s(e_k) = norm * e_k - 2 alpha_k alpha,
    norm = (alpha, alpha): each must have one nonzero entry, and that entry +-norm.
    """
    alpha = rs[i]
    if not any(alpha):
        raise ValueError(f"root {i} is zero")
    norm = inner(alpha, alpha)
    code = [0] * 4
    for k in range(4):
        image = [-2 * alpha[k] * a for a in alpha]
        image[k] += norm
        nonzero = [t for t, x in enumerate(image) if x]
        if len(nonzero) != 1 or abs(image[nonzero[0]]) != norm:
            raise ValueError(f"reflection {i} is not a signed permutation")
        j = nonzero[0]
        code[j] = image[j] // norm * (k + 1)
    return tuple(code)


def simple_generators(rs: dict[int, tuple]) -> dict[int, SignedPerm]:
    return {i: reflection(rs, i) for i in SIMPLE_INDICES}


def enumerate_group(gens: dict[int, SignedPerm]) -> dict[SignedPerm, tuple[int, ...]]:
    """Breadth-first closure: each element with its shortlex-least word over the labels.

    Labels are tried in increasing order, so the first word found for an
    element is the shortlex-least one, and the dict is in shortlex order of
    the words.  The word (l_1, ..., l_n) names the product g_1 ... g_n, whose
    rightmost generator acts first.  Row j of w g is row |w[j]| of g, negated
    for w[j] < 0, so w g is g's table read at w's entries (``act``).
    """
    tables = [(label, _table(g)) for label, g in sorted(gens.items())]
    words = {(1, 2, 3, 4): ()}
    frontier = list(words)
    while frontier:
        nxt = []
        for w in frontier:
            word = words[w]
            a, b, c, d = w
            for label, t in tables:
                h = (t[a], t[b], t[c], t[d])
                if h not in words:
                    words[h] = word + (label,)
                    nxt.append(h)
        frontier = nxt
    return words


def images(group, v: tuple) -> list[tuple]:
    """The image of v under each signed permutation of ``group``, in its order: ``act`` on one table."""
    t = _table(v)
    return [(t[a], t[b], t[c], t[d]) for a, b, c, d in group]


def orbit(group: dict[SignedPerm, tuple[int, ...]], v: tuple) -> dict[tuple, SignedPerm]:
    """Each image of v under ``group`` with the first element, in the group's order, that carries v there.

    ``group`` is the dict of ``enumerate_group``, in shortlex order of the
    words, so that element's word ``group[w]`` is the least carrying v there.
    """
    elements = {}
    for image, w in zip(images(group, v), group):
        elements.setdefault(image, w)
    return elements


def along_words(words: dict, start, step) -> dict:
    """Each word's image of ``start``, its letters applied by ``step(label, x)`` from the right.

    A word (l, *tail) is one ``step`` on the image of its tail, and each
    image is kept, so ``step`` runs once per distinct word or tail.
    """
    done = {(): start}

    def at(word):
        if word not in done:
            done[word] = step(word[0], at(word[1:]))
        return done[word]

    return {i: at(word) for i, word in words.items()}


#: The printed reduced words carrying the first root to roots 2..12; the
#: ``word-table`` check requires each to be the word of that root's ``orbit`` element.
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
