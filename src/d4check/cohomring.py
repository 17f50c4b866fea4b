"""Degree-m cohomology calculus: bases, pairings, induced actions, invariants.

A cohomology class is an integer 4-tuple in the omega basis and a homology
class is a 4-tuple over the dual leaf-sphere basis (b1, b2, b3, b9); entry r
belongs to the r-th simple index of (1, 2, 3, 9).  The variables t1..t4 are
the normal-plane coordinates e_1..e_4, and ``omega_from_t`` turns t
coordinates into omega coordinates in integers.  A polynomial in t1..t4 is a
plain dict from exponent 4-tuples to nonzero ints, and ``expand`` is its one
arithmetic routine.  Signed permutations act on polynomials by substitution,
and the elementary symmetric functions e_i and their squared-variable
analogues theta_i are the invariants of interest.
"""

from __future__ import annotations

import itertools
from operator import mul

from . import rootsys
from .rootsys import CartanMatrix, SignedPerm


def _pos(i: int) -> int:
    """The entry of simple index ``i`` in a class; ValueError for any other index."""
    if i not in rootsys.SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {i}")
    return rootsys.SIMPLE_INDICES.index(i)


def unit(i: int) -> tuple[int, int, int, int]:
    """omega_i, or b_i: the basis class of simple index ``i``."""
    r = _pos(i)
    return tuple(1 if j == r else 0 for j in range(4))


# t-from-omega transition: t_i = sum_j T_OF_OMEGA[i][j] * omega_j.
# The t_i are the normal-plane coordinates e_i, so T_OF_OMEGA[i][j] is the
# inner product of e_i with simple root j, and ``omega_from_t`` sends each
# simple root to its Cartan row.  Rows 3 and 4 are the half-sum (D-type) form;
# the printed source rows (0,-1,1,0) and (0,0,-1,2) fail that reproduction
# (the downstream class conversions agree either way).
T_OF_OMEGA = [
    [1, 0, 0, 0],
    [-1, 1, 0, 0],
    [0, -1, 1, 1],
    [0, 0, -1, 1],
]


def omega_from_t(c: tuple) -> tuple:
    """The omega coordinates of a class given in t coordinates."""
    return tuple([sum(map(mul, c, col)) for col in zip(*T_OF_OMEGA)])


def kronecker(c: tuple, h: tuple) -> int:
    """Evaluation pairing of an omega-basis class with a b-basis class; the bases are dual."""
    return sum(map(mul, c, h))


def euler_class_d(cartan: CartanMatrix, i: int) -> tuple:
    """The Euler class d_i of a simple curvature sphere, in omega coordinates.

    d_i = sum_j B[i][j] omega_j with B the simple Cartan matrix: row i of B.
    """
    return tuple(cartan[_pos(i)])


def homology_action(cartan: CartanMatrix, i: int, h: tuple) -> tuple:
    """Reflection action on homology: b_j -> b_j - beta_ij * b_i."""
    r = _pos(i)
    out = list(h)
    out[r] -= sum(map(mul, cartan[r], h))
    return tuple(out)


def cohomology_action_omega(cartan: CartanMatrix, i: int, c: tuple) -> tuple:
    """Dual reflection action in the omega basis, extended linearly."""
    r = _pos(i)
    row, x = cartan[r], c[r]
    return (c[0] - x * row[0], c[1] - x * row[1], c[2] - x * row[2], c[3] - x * row[3])


# ---------------------------------------------------------------------------
# Polynomials in t1..t4


def expand(*terms) -> dict:
    """The sum of c * f_1 * ... * f_n over the terms ``(c, f_1, ..., f_n)``, zero terms dropped."""
    out: dict[tuple, int] = {}
    for c, *factors in terms:
        prod = {(0, 0, 0, 0): c}
        for f in factors:
            step: dict[tuple, int] = {}
            for e1, c1 in prod.items():
                for e2, c2 in f.items():
                    expo = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    step[expo] = step.get(expo, 0) + c1 * c2
            prod = step
        for expo, coeff in prod.items():
            out[expo] = out.get(expo, 0) + coeff
    return {expo: coeff for expo, coeff in out.items() if coeff}


def _symmetric(i: int, power: int) -> dict:
    """The i-th elementary symmetric function in t1^power..t4^power."""
    combos = itertools.combinations(range(4), i)
    return {tuple([power if j in c else 0 for j in range(4)]): 1 for c in combos}


def elementary_symmetric(i: int) -> dict:
    if not 1 <= i <= 4:
        raise ValueError(f"index out of range: {i}")
    return _symmetric(i, 1)


def theta(i: int) -> dict:
    """Elementary symmetric function in the squared variables."""
    if not 1 <= i <= 3:
        raise ValueError(f"index out of range: {i}")
    return _symmetric(i, 2)


def act_on_polynomial(sp: SignedPerm, p: dict) -> dict:
    """Substitute each t_i by its image under ``sp``, extended multiplicatively.

    Exponent j of the image is exponent |sp[j]| of the term, 1-based, and
    the term picks up (-1)^e for each exponent e moved to a negative entry.
    """
    i0, i1, i2, i3 = [abs(a) - 1 for a in sp]
    flips = [j for j, a in enumerate(sp) if a < 0]
    image: dict[tuple, int] = {}
    for expo, coeff in p.items():
        moved = (expo[i0], expo[i1], expo[i2], expo[i3])
        for j in flips:
            coeff *= (-1) ** moved[j]
        image[moved] = coeff
    return image


def is_invariant(p: dict, generators) -> bool:
    return all(act_on_polynomial(g, p) == p for g in generators)


def verify_theta_identities(e: dict[int, dict], th: dict[int, dict]) -> dict[str, bool]:
    """The three expansions of theta_i in the elementary symmetric functions.

    ``e`` maps 1..4 to e_1..e_4 and ``th`` maps 1..3 to theta_1..theta_3.
    """
    return {
        "theta1": expand((1, th[1]), (-1, e[1], e[1]), (2, e[2])) == {},
        "theta2": expand((1, th[2]), (-1, e[2], e[2]), (2, e[1], e[3]), (-2, e[4])) == {},
        "theta3": expand((1, th[3]), (-1, e[3], e[3]), (2, e[2], e[4])) == {},
    }
