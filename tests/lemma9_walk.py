"""Test-side oracle for Lemma 9: the pair-by-pair walk of the window box.

``vect4.verify_exact_sequence`` reads the realizability rule one column at a
time and asks about no pair, so a fault planted in ``vect4.is_realizable`` at
one pair is out of its reach.  ``walk`` asks ``is_realizable`` once for each
of the (2N + 1)^2 pairs of the box, through the module attributes, so the
tests can plant such a fault and count the calls.
"""

from d4check import vect4


def walk(window: int) -> dict[str, bool]:
    """Lemma 9 on the box |a|, |b| <= window, compared with the tau/gamma lattice.

    One walk over the box, column by column (fixed b), asks ``is_realizable``
    once per pair.  An odd column must hold no realizable pair and an even
    column b = -2m exactly its lattice points n*tau + m*gamma, in order, so the
    realizable pairs of the box are exactly its lattice points.  Each lattice
    point round-trips through ``decompose`` and is stabilized once: the kernel
    of stabilization must be the multiples of tau and its image the even
    integers of the box.  Only one column is held at a time.  The detail keys
    are those of ``vect4.verify_exact_sequence``.
    """
    half = window // 2
    span = range(-window, window + 1)
    closed = roundtrip = True
    kernel, image = [], set()
    for b in span:
        realizable = [(a, b) for a in span if vect4.is_realizable(a, b)]
        m, odd = divmod(-b, 2)
        # a = 2n + m must stay in the box; an odd column holds no lattice point
        ns = range(0) if odd else range(-((window + m) // 2), (window - m) // 2 + 1)
        lattice = [vect4.compose(n, m) for n in ns]
        if realizable != lattice:
            closed = False
        for n, x in zip(ns, lattice):
            if vect4.decompose(x) != (n, m):
                roundtrip = False
            p1 = vect4.stabilize(x)
            image.add(p1)
            if p1 == 0:
                kernel.append(x)
    (ta, tb), (ga, gb) = vect4.tau(), vect4.gamma()
    return {
        "kernel_is_tau_multiples": kernel == [vect4.compose(n, 0) for n in range(-half, half + 1)],
        "image_is_even_integers": image == {2 * m for m in range(-half, half + 1)},
        "realizable_closed_under_group_ops": closed,
        "realizable_has_index_4": abs(ta * gb - tb * ga) == 4,
        "decompose_roundtrip": roundtrip,
    }
