"""Arithmetic model of rank-4 and rank-5 bundles over the 4-sphere (Lemma 9).

A rank-4 bundle is identified with the integer pair (a, b) of its Euler and
first Pontryagin numbers, a plain tuple; the realizable pairs are exactly
those with 2a - b divisible by 4, which is decided only by ``is_realizable``.
They form the lattice spanned by tau and gamma.  Stabilization forgets the
Euler number.  ``verify_exact_sequence`` checks this on a window box in one
walk, column by column, asking ``is_realizable`` once per pair of the box.
"""

from __future__ import annotations

#: (Euler number, first Pontryagin number)
Pair = tuple[int, int]


def tau() -> Pair:
    """The tangent bundle of the 4-sphere."""
    return (2, 0)


def gamma() -> Pair:
    """Real reduction of the quaternionic line bundle."""
    return (1, -2)


def is_realizable(a: int, b: int) -> bool:
    """A pair is a genuine rank-4 bundle iff 2a - b vanishes mod 4."""
    return (2 * a - b) % 4 == 0


def leaf_congruence(a: int, b: int) -> tuple[str, list[int]]:
    """The realizability congruence of the pairs (a, k*b), and its residues k mod 4.

    The condition is linear in k and read mod 4, so the residues decide it for
    every integer k.
    """
    const = f" {'-' if a < 0 else '+'} {abs(2 * a)}" if a else ""
    residues = [k for k in range(4) if is_realizable(a, k * b)]
    return f"{-b}k{const} == 0 (mod 4)", residues


def decompose(x: Pair) -> tuple[int, int]:
    """Solve x = n*tau + m*gamma for integers (n, m); raise if x is off that lattice."""
    a, b = x
    m = -b // 2
    r = a - m
    # operators, not divmod: this runs once per lattice point of the window walk
    if b % 2 or r % 2:
        raise ValueError(f"class {x} is not an integer combination of tau and gamma")
    return r // 2, m


def compose(n_tau: int, n_gamma: int) -> Pair:
    """The class n_tau*tau + n_gamma*gamma = (2*n_tau + n_gamma, -2*n_gamma); ``decompose`` inverts it."""
    return (2 * n_tau + n_gamma, -2 * n_gamma)


def stabilize(x: Pair) -> int:
    """Add a trivial line: only the Pontryagin number survives."""
    return x[1]


def verify_exact_sequence(window: int) -> dict[str, bool]:
    """Lemma 9 on the box |a|, |b| <= window, compared with the tau/gamma lattice.

    One walk over the box, column by column (fixed b), asks ``is_realizable``
    once per pair.  An odd column must hold no realizable pair and an even
    column b = -2m exactly its lattice points n*tau + m*gamma, in order, so the
    realizable pairs of the box are exactly its lattice points.  Each lattice
    point round-trips through ``decompose`` and is stabilized once: the kernel
    of stabilization must be the multiples of tau and its image the even
    integers of the box.  Only one column is held at a time.
    """
    half = window // 2
    span = range(-window, window + 1)
    closed = roundtrip = True
    kernel, image = [], set()
    for b in span:
        realizable = [(a, b) for a in span if is_realizable(a, b)]
        m, odd = divmod(-b, 2)
        # a = 2n + m must stay in the box; an odd column holds no lattice point
        ns = range(0) if odd else range(-((window + m) // 2), (window - m) // 2 + 1)
        lattice = [compose(n, m) for n in ns]
        if realizable != lattice:
            closed = False
        for n, x in zip(ns, lattice):
            if decompose(x) != (n, m):
                roundtrip = False
            p1 = stabilize(x)
            image.add(p1)
            if p1 == 0:
                kernel.append(x)
    (ta, tb), (ga, gb) = tau(), gamma()
    return {
        "kernel_is_tau_multiples": kernel == [compose(n, 0) for n in range(-half, half + 1)],
        "image_is_even_integers": image == {2 * m for m in range(-half, half + 1)},
        "realizable_closed_under_group_ops": closed,
        "realizable_has_index_4": abs(ta * gb - tb * ga) == 4,
        "decompose_roundtrip": roundtrip,
    }
