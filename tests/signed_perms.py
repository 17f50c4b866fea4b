"""Test-side reference action and products of signed permutations.

``d4check`` writes a signed permutation as one int 4-tuple, its matrix read
row by row; this module keeps the other encoding, a ``(perm, signs)`` pair,
with plain definitions of the action, the product and the words, and
``code(w)`` converts a pair to ``d4check``'s tuple.  So the oracle shares no
type with ``rootsys.enumerate_group``, ``rootsys.images`` and the actions
that the tests compare against it.  ``ALL_SIGNED_PERMS`` lists every signed
permutation, for tests that run a kernel on each, and ``BY_CODE`` reads each
of ``d4check``'s tuples back as a pair.  ``WORD_SETS`` draws word sets whose
tails need not be words of the set.  ``reflection`` reads a reflection as a
matrix with remainders and then as columns (``signed_perm``); the tests
compare ``rootsys.reflection``, which reads it in one pass, against it.
"""

import itertools
from typing import NamedTuple, Sequence

from hypothesis import strategies as st

from d4check.rootsys import inner


class TSignedPerm(NamedTuple):
    """``perm[i] = j`` and ``signs[i] = s``: the i-th basis vector maps to s times the j-th (0-indexed)."""

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]


IDENTITY = TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))

#: Every signed permutation of four coordinates, 2^4 * 4! = 384 of them.
ALL_SIGNED_PERMS = [
    TSignedPerm(perm, signs)
    for perm in itertools.permutations(range(4))
    for signs in itertools.product((1, -1), repeat=4)
]


def code(w: TSignedPerm) -> tuple[int, int, int, int]:
    """w as ``d4check`` writes it: entry ``perm[i]`` is ``signs[i] * (i + 1)``, its matrix read row by row."""
    out = [0] * 4
    for i in range(4):
        out[w.perm[i]] = w.signs[i] * (i + 1)
    return tuple(out)


#: Each signed permutation by its ``code``.
BY_CODE = {code(w): w for w in ALL_SIGNED_PERMS}


#: Words over the simple labels, keyed by root label; a tail need not be a word of the set.
WORD_SETS = st.dictionaries(st.integers(1, 12), st.lists(st.sampled_from((1, 2, 3, 9)), max_size=6).map(tuple))


def apply(w: TSignedPerm, v: tuple) -> tuple:
    """Basis vector i goes to ``signs[i]`` times basis vector ``perm[i]``."""
    out = [0] * 4
    for i in range(4):
        out[w.perm[i]] = w.signs[i] * v[i]
    return tuple(out)


def compose(outer: TSignedPerm, inner: TSignedPerm) -> TSignedPerm:
    """outer after inner (inner applied first)."""
    return TSignedPerm(
        tuple(outer.perm[p] for p in inner.perm),
        tuple(s * outer.signs[p] for p, s in zip(inner.perm, inner.signs)),
    )


def element_from_word(word, gens) -> TSignedPerm:
    """The product of the word's generators, the rightmost applied first."""
    w = IDENTITY
    for label in reversed(word):
        w = compose(gens[label], w)
    return w


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
