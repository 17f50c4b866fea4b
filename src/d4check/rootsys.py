"""D4 root system, signed-permutation Weyl group, and orbits with their words.

Everything is exact: a root is an integer 4-tuple in the orthonormal
coordinates e_1..e_4 of the normal plane, so inner products, Cartan numbers
and reflections are integers too; a quotient that is not exact raises
ValueError.  Like every per-root table, the roots are keyed by their printed
labels 1..12.  Group elements are signed permutations of four coordinates,
and group enumeration is a breadth-first closure that returns each element
with its shortlex-reduced word over the generator labels 1 < 2 < 3 < 9.
The closure runs on one-line images: the element that sends e_i to s e_j
is the int 4-tuple whose entry i is s (j + 1), so the identity is
(1, 2, 3, 4) and a right multiplication is one gather.  No other code
multiplies group elements: ``images`` applies the whole group to a vector
in one sweep, and an orbit reads each image's word off the group.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Sequence

#: Labels of the simple reflections, in the fixed generator order.
SIMPLE_INDICES = (1, 2, 3, 9)


def inner(u: tuple, v: tuple) -> int:
    """Euclidean inner product of two vectors in e-coordinates."""
    return sum(map(mul, u, v))


class TSignedPerm(NamedTuple):
    """A signed permutation of four coordinates.

    ``perm[i] = j`` and ``signs[i] = s`` mean the i-th basis vector maps to
    s times the j-th basis vector (0-indexed).  The Weyl group acts this way
    on the normal-plane basis e_1..e_4 and, dually, on the variables t1..t4
    (t_j -> signs[j] * t_perm[j]).
    """

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]


def signed_perm(columns: Sequence[Sequence], what: str) -> TSignedPerm:
    """The signed permutation that sends basis vector k to ``columns[k]``.

    Raises ValueError naming ``what`` if some column is not a signed unit vector
    or two columns share a target.
    """
    perm = [0] * 4
    signs = [0] * 4
    for k, col in enumerate(columns):
        nonzero = [(t, c) for t, c in enumerate(col) if c != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1 or nonzero[0][0] in perm[:k]:
            raise ValueError(f"{what} is not a signed permutation")
        perm[k] = nonzero[0][0]
        signs[k] = 1 if nonzero[0][1] > 0 else -1
    return TSignedPerm(tuple(perm), tuple(signs))


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


def reflection(rs: dict[int, tuple], i: int) -> TSignedPerm:
    """The reflection in the hyperplane normal to the positive root labelled i."""
    alpha = rs[i]
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


def simple_generators(rs: dict[int, tuple]) -> dict[int, TSignedPerm]:
    return {i: reflection(rs, i) for i in SIMPLE_INDICES}


def enumerate_group(gens: dict[int, TSignedPerm]) -> dict[TSignedPerm, tuple[int, ...]]:
    """Breadth-first closure: each element with its shortlex-least word over the labels.

    Labels are tried in increasing order, so the first word found for an
    element is the shortlex-least one, and the dict is in shortlex order of
    the words.  The word (l_1, ..., l_n) names the product g_1 ... g_n, whose
    rightmost generator acts first.  The closure keeps one-line images: entry
    i of w is s (j + 1) when w sends e_i to s e_j.  Then w g for
    g = ((p_i), (s_i)) has entry i equal to s_i w[p_i], one gather with no
    call, and each element becomes a ``TSignedPerm`` once, at the end, read
    off its entries by comparison and built by ``tuple.__new__``.  The
    encoding is faithful for signs +-1, which is all ``reflection`` builds.
    Raises ValueError past 2^4 * 4! = 384 elements, which a sign of 2
    reaches; a sign of 0 closes after two elements.
    """
    labelled = [(label, *g.perm, *g.signs) for label, g in sorted(gens.items())]
    words = {(1, 2, 3, 4): ()}
    frontier = list(words)
    while frontier:
        nxt = []
        for x in frontier:
            word = words[x]
            for label, p0, p1, p2, p3, s0, s1, s2, s3 in labelled:
                h = (s0 * x[p0], s1 * x[p1], s2 * x[p2], s3 * x[p3])
                if h not in words:
                    words[h] = word + (label,)
                    nxt.append(h)
        if len(words) > 384:
            raise ValueError("the generators give more than 2^4 * 4! = 384 signed permutations")
        frontier = nxt
    new = tuple.__new__
    return {
        new(TSignedPerm, (
            (a - 1 if a > 0 else -a - 1, b - 1 if b > 0 else -b - 1,
             c - 1 if c > 0 else -c - 1, d - 1 if d > 0 else -d - 1),
            (1 if a > 0 else -1, 1 if b > 0 else -1, 1 if c > 0 else -1, 1 if d > 0 else -1),
        )): word
        for (a, b, c, d), word in words.items()
    }


def images(group, v: tuple) -> list[tuple]:
    """The image of v under each signed permutation of ``group``, in its order.

    Element w sends entry i of v to ``signs[i] * v[i]`` at ``perm[i]``.
    """
    v0, v1, v2, v3 = v
    out = []
    for (p0, p1, p2, p3), (s0, s1, s2, s3) in group:
        image = [0, 0, 0, 0]
        image[p0] = s0 * v0
        image[p1] = s1 * v1
        image[p2] = s2 * v2
        image[p3] = s3 * v3
        out.append(tuple(image))
    return out


def orbit(group: dict[TSignedPerm, tuple[int, ...]], v: tuple) -> dict[tuple, tuple[int, ...]]:
    """Each image of v under ``group`` with the shortlex-least word that carries v there.

    ``group`` is the dict of ``enumerate_group``, already in shortlex order,
    so the first word met for an image is its least.
    """
    words = {}
    for image, word in zip(images(group, v), group.values()):
        if image not in words:
            words[image] = word
    return words


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
#: ``word-table`` check requires each to be that root's word in ``orbit``.
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
