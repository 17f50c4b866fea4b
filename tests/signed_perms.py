"""Test-side reference products of signed permutations.

``d4check`` multiplies group elements only inside ``rootsys.enumerate_group``;
these plain definitions are what the tests compare it, and the words it
returns, against.
"""

from d4check.rootsys import TSignedPerm

IDENTITY = TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))


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
