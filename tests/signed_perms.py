"""Test-side reference products of signed permutations.

``d4check`` multiplies group elements only inside ``rootsys.enumerate_group``;
these plain definitions are what the tests compare it, and the words it
returns, against.  ``ALL_SIGNED_PERMS`` lists every signed permutation, for
tests that run a kernel on each.
"""

import itertools

from d4check.rootsys import TSignedPerm

IDENTITY = TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))

#: Every signed permutation of four coordinates, 2^4 * 4! = 384 of them.
ALL_SIGNED_PERMS = [
    TSignedPerm(perm, signs)
    for perm in itertools.permutations(range(4))
    for signs in itertools.product((1, -1), repeat=4)
]


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
