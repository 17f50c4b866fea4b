"""Test-side reference action and products of signed permutations.

``d4check`` multiplies group elements only inside ``rootsys.enumerate_group``
and applies them to a vector only in ``rootsys.images``; these plain
definitions are what the tests compare both, and the words the closure
returns, against.  ``ALL_SIGNED_PERMS`` lists every signed permutation, for
tests that run a kernel on each, and ``WORD_SETS`` draws word sets whose
tails need not be words of the set.
"""

import itertools

from hypothesis import strategies as st

from d4check.rootsys import TSignedPerm

IDENTITY = TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))

#: Every signed permutation of four coordinates, 2^4 * 4! = 384 of them.
ALL_SIGNED_PERMS = [
    TSignedPerm(perm, signs)
    for perm in itertools.permutations(range(4))
    for signs in itertools.product((1, -1), repeat=4)
]


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
