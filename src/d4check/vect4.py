"""Arithmetic model of rank-4 and rank-5 bundles over the 4-sphere (Lemma 9).

A rank-4 bundle is identified with the integer pair (a, b) of its Euler and
first Pontryagin numbers, a plain tuple.  The realizable pairs are those that
satisfy ``RULE``, 2a - b = 0 (mod 4), the relation p1 = 2e (mod 4) (Milnor,
Ann. of Math. 64, 1956); ``is_realizable`` evaluates it on one pair.  They
form the lattice spanned by tau and gamma.  Stabilization forgets the Euler
number.  ``verify_exact_sequence`` checks this on a window box without asking
about any pair: it reads the rule, and the lattice, one column at a time.
"""

from __future__ import annotations

import math

#: (Euler number, first Pontryagin number)
Pair = tuple[int, int]

#: The realizability rule (c_a, c_b, mod): c_a*a + c_b*b = 0 (mod mod).
RULE = (2, -1, 4)


def tau() -> Pair:
    """The tangent bundle of the 4-sphere."""
    return (2, 0)


def gamma() -> Pair:
    """Real reduction of the quaternionic line bundle."""
    return (1, -2)


def is_realizable(a: int, b: int) -> bool:
    """A pair is a genuine rank-4 bundle iff it satisfies ``RULE``."""
    ca, cb, mod = RULE
    return (ca * a + cb * b) % mod == 0


def leaf_congruence(a: int, b: int) -> tuple[str, list[int]]:
    """The realizability congruence of the pairs (a, k*b), and its residues k mod the rule's modulus.

    The condition is linear in k and read mod that modulus, so the residues
    decide it for every integer k.
    """
    ca, cb, mod = RULE
    c0 = ca * a
    const = f" {'-' if c0 < 0 else '+'} {abs(c0)}" if c0 else ""
    residues = [k for k in range(mod) if is_realizable(a, k * b)]
    return f"{cb * b}k{const} == 0 (mod {mod})", residues


def decompose(x: Pair) -> tuple[int, int]:
    """Solve x = n*tau + m*gamma for integers (n, m); raise if x is off that lattice."""
    a, b = x
    m = -b // 2
    r = a - m
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
    """Lemma 9 on the box |a|, |b| <= window, read off ``RULE`` one column (fixed b) at a time.

    With g = gcd(c_a, mod), column b holds no realizable pair unless g divides
    c_b*b, and otherwise every a of one residue class mod mod/g: one range.  The
    column's lattice points n*tau + m*gamma, m = -b/2, form another range, whose
    ends ``compose`` gives.  The two ranges must be equal, so the realizable
    pairs of the box are exactly its lattice points; no pair is asked about.
    Each column's two ends round-trip through ``decompose``.  Stabilization
    keeps only b, so one point per column is stabilized: the kernel must be
    column 0, the tau multiples, and the image the even integers of the box.
    The cost is linear in the window.
    """
    ca, cb, mod = RULE
    g = math.gcd(ca, mod)
    step = mod // g
    inverse = pow(ca // g, -1, step)
    (ta, tb), (ga, gb) = tau(), gamma()
    half = window // 2
    closed = roundtrip = True
    kernel, image = [], set()
    for b in range(-window, window + 1):
        rhs = -cb * b
        # the first a of the residue class rhs/g * inverse (mod step) in the box
        realizable = range(0) if rhs % g else range((rhs // g * inverse + window) % step - window, window + 1, step)
        m, odd = divmod(-b, 2)
        lattice = range(0)
        if not odd:
            # a = 2n + m must stay in the box; successive points differ by tau
            n0, n1 = -((window + m) // 2), (window - m) // 2
            first, last = compose(n0, m), compose(n1, m)
            lattice = range(first[0], last[0] + 1, ta)
            if decompose(first) != (n0, m) or decompose(last) != (n1, m):
                roundtrip = False
            p1 = stabilize(first)
            image.add(p1)
            if p1 == 0:
                kernel.append((b, lattice))
        if realizable != lattice:
            closed = False
    # the multiples n*tau with |n| <= half, all in column tb = 0
    tau_multiples = (tb, range(-half * ta, half * ta + 1, ta))
    return {
        "kernel_is_tau_multiples": kernel == [tau_multiples],
        "image_is_even_integers": image == {2 * m for m in range(-half, half + 1)},
        "realizable_closed_under_group_ops": closed,
        "realizable_has_index_4": abs(ta * gb - tb * ga) == 4,
        "decompose_roundtrip": roundtrip,
    }
