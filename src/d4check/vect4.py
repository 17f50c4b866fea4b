"""Arithmetic model of rank-4 and rank-5 bundles over the 4-sphere (Lemma 9).

A rank-4 bundle is identified with the integer pair (a, b) of its Euler and
first Pontryagin numbers, a plain tuple; the realizable pairs are exactly
those with 2a - b divisible by 4, which is decided only by ``is_realizable``.
They form the lattice spanned by tau and gamma.  Stabilization forgets the
Euler number.
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
    m, rem_b = divmod(-b, 2)
    n, rem_a = divmod(a - m, 2)
    if rem_b or rem_a:
        raise ValueError(f"class {x} is not an integer combination of tau and gamma")
    return n, m


def compose(n_tau: int, n_gamma: int) -> Pair:
    """The class n_tau*tau + n_gamma*gamma = (2*n_tau + n_gamma, -2*n_gamma); ``decompose`` inverts it."""
    return (2 * n_tau + n_gamma, -2 * n_gamma)


def stabilize(x: Pair) -> int:
    """Add a trivial line: only the Pontryagin number survives."""
    return x[1]


def verify_exact_sequence(window: int = 20) -> dict[str, bool]:
    """Lemma 9 on the box |a|, |b| <= window, compared with the tau/gamma lattice.

    Every lattice point n*tau + m*gamma of the box is realizable and
    round-trips through ``decompose``, and the box holds as many realizable
    pairs as lattice points, so its realizable pairs are exactly its lattice
    points.  Walking that lattice, the kernel of stabilization must be the
    multiples of tau and its image the even integers of the box.
    """
    half = window // 2
    points = realizable = roundtrips = 0
    kernel, image = [], set()
    for m in range(-half, half + 1):
        # a = 2n + m must stay in the box
        for n in range(-((window + m) // 2), (window - m) // 2 + 1):
            x = compose(n, m)
            points += 1
            realizable += is_realizable(*x)
            roundtrips += decompose(x) == (n, m)
            p1 = stabilize(x)
            image.add(p1)
            if p1 == 0:
                kernel.append(x)
    span = range(-window, window + 1)
    in_box = sum(is_realizable(a, b) for a in span for b in span)
    (ta, tb), (ga, gb) = tau(), gamma()
    return {
        "kernel_is_tau_multiples": kernel == [compose(n, 0) for n in range(-half, half + 1)],
        "image_is_even_integers": image == {2 * m for m in range(-half, half + 1)},
        "realizable_closed_under_group_ops": realizable == points == in_box,
        "realizable_has_index_4": abs(ta * gb - tb * ga) == 4,
        "decompose_roundtrip": roundtrips == points,
    }
