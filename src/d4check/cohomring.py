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
import math

from .rootsys import (
    SIMPLE_INDICES,
    CartanMatrix,
    TSignedPerm,
    cartan_number,
    signed_perm,
)


def _pos(i: int) -> int:
    """The entry of simple index ``i`` in a class; ValueError for any other index."""
    if i not in SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {i}")
    return SIMPLE_INDICES.index(i)


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
    return tuple(sum(x * row[j] for x, row in zip(c, T_OF_OMEGA)) for j in range(4))


def kronecker(c: tuple, h: tuple) -> int:
    """Evaluation pairing of an omega-basis class with a b-basis class; the bases are dual."""
    return sum(a * b for a, b in zip(c, h))


def kronecker_matrix(rs: tuple) -> list[list[int]]:
    """Pairing of all twelve Euler classes against all twelve sphere classes."""
    n = len(rs)
    return [[cartan_number(rs, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def euler_class_d(cartan: CartanMatrix, i: int) -> tuple:
    """The Euler class d_i of a simple curvature sphere, in omega coordinates.

    d_i = sum_j B[i][j] omega_j with B the simple Cartan matrix: row i of B.
    """
    return tuple(cartan[_pos(i)])


def homology_action(cartan: CartanMatrix, i: int, h: tuple) -> tuple:
    """Reflection action on homology: b_j -> b_j - beta_ij * b_i."""
    r = _pos(i)
    out = list(h)
    out[r] -= sum(cartan[r][j] * h[j] for j in range(4))
    return tuple(out)


def cohomology_action_omega(cartan: CartanMatrix, i: int, c: tuple) -> tuple:
    """Dual reflection action in the omega basis, extended linearly."""
    r = _pos(i)
    return tuple(c[j] - c[r] * cartan[r][j] for j in range(4))


def action_on_t(cartan: CartanMatrix, i: int) -> TSignedPerm:
    """The omega-basis action read as an action on t1..t4, in integers.

    t_k in omega coordinates is row k of ``T_OF_OMEGA``.  Its image must be
    +-row j, which sends t_k to +-t_j; an image that matches no row, or two
    that match one, signals a convention error upstream.
    """
    targets = {}
    for j, row in enumerate(T_OF_OMEGA):
        for s in (1, -1):
            targets[tuple(s * x for x in row)] = tuple(s * (t == j) for t in range(4))
    columns = [targets.get(cohomology_action_omega(cartan, i, row), (0, 0, 0, 0)) for row in T_OF_OMEGA]
    return signed_perm(columns, f"t-action of generator {i}")


def t_actions(cartan: CartanMatrix) -> dict[int, TSignedPerm]:
    """The generator actions on t1..t4; ValueError if one is not a signed permutation."""
    return {i: action_on_t(cartan, i) for i in SIMPLE_INDICES}


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
    return {tuple(power if j in c else 0 for j in range(4)): 1 for c in combos}


def elementary_symmetric(i: int) -> dict:
    if not 1 <= i <= 4:
        raise ValueError(f"index out of range: {i}")
    return _symmetric(i, 1)


def theta(i: int) -> dict:
    """Elementary symmetric function in the squared variables."""
    if not 1 <= i <= 3:
        raise ValueError(f"index out of range: {i}")
    return _symmetric(i, 2)


def act_on_polynomial(sp: TSignedPerm, p: dict) -> dict:
    """Substitute each t_j by its image under ``sp``, extended multiplicatively.

    ``sp.apply`` moves each exponent to its variable's image (the signs it
    puts on them are dropped); the term picks up the sign prod_j signs[j]^e_j.
    """
    return {
        tuple(map(abs, sp.apply(expo))): math.prod(s**e for s, e in zip(sp.signs, expo)) * coeff
        for expo, coeff in p.items()
    }


def is_invariant(p: dict, generators) -> bool:
    return all(act_on_polynomial(g, p) == p for g in generators)


def verify_theta_identities() -> dict[str, bool]:
    """The three expansions of theta_i in the elementary symmetric functions."""
    e = {i: elementary_symmetric(i) for i in range(1, 5)}
    return {
        "theta1": expand((1, theta(1)), (-1, e[1], e[1]), (2, e[2])) == {},
        "theta2": expand((1, theta(2)), (-1, e[2], e[2]), (2, e[1], e[3]), (-2, e[4])) == {},
        "theta3": expand((1, theta(3)), (-1, e[3], e[3]), (2, e[2], e[4])) == {},
    }
