"""Degree-m cohomology calculus: bases, pairings, induced actions, invariants.

A cohomology class is an integer 4-tuple in the omega basis and a homology
class is a 4-tuple over the dual leaf-sphere basis (b1, b2, b3, b9); entry r
belongs to the r-th simple index of (1, 2, 3, 9).  The t coordinates of a
class are read off the change of basis below.  The polynomial ring in t1..t4
carries the induced signed-permutation action, and the elementary symmetric
functions e_i and their squared-variable analogues theta_i are the invariants
of interest.
"""

from __future__ import annotations

import itertools

from . import linalg
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
# Rows 3 and 4 are the half-sum (D-type) form: this is the unique change of
# basis under which the dual reflection actions become the signed
# permutations of the variables (the printed source rows (0,-1,1,0) and
# (0,0,-1,2) fail that reproduction; the downstream class conversions agree
# either way).  It is integral with determinant 2, so OMEGA_OF_T has halves:
# the only rationals of the cohomology calculus.
T_OF_OMEGA = [
    [1, 0, 0, 0],
    [-1, 1, 0, 0],
    [0, -1, 1, 1],
    [0, 0, -1, 1],
]
OMEGA_OF_T = linalg.invert(T_OF_OMEGA)


def t_from_omega(c: tuple) -> tuple:
    """The t coordinates of an omega-basis class.

    Coordinates transform by the inverse transpose of the basis transition.
    """
    return tuple(linalg.mat_vec(linalg.transpose(OMEGA_OF_T), list(c)))


def omega_from_t(c: tuple) -> tuple:
    """The omega coordinates of a class given in t coordinates."""
    return tuple(linalg.mat_vec(linalg.transpose(T_OF_OMEGA), list(c)))


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


def _omega_action_matrix(cartan: CartanMatrix, i: int) -> linalg.Matrix:
    cols = [list(cohomology_action_omega(cartan, i, unit(s))) for s in SIMPLE_INDICES]
    return linalg.transpose(cols)


def action_on_t(cartan: CartanMatrix, i: int) -> TSignedPerm:
    """Conjugate the omega-basis action into t coordinates.

    The result must be a signed permutation of the variables; anything else
    signals a convention error upstream.
    """
    m_omega = _omega_action_matrix(cartan, i)
    q = linalg.transpose(T_OF_OMEGA)  # omega coords from t coords
    q_inv = linalg.transpose(OMEGA_OF_T)  # t coords from omega coords
    m_t = linalg.mat_mul(q_inv, linalg.mat_mul(m_omega, q))
    return signed_perm(linalg.transpose(m_t), f"t-action of generator {i}")


def t_actions(cartan: CartanMatrix) -> dict[int, TSignedPerm]:
    """The generator actions on t1..t4; ValueError if one is not a signed permutation."""
    return {i: action_on_t(cartan, i) for i in SIMPLE_INDICES}


# ---------------------------------------------------------------------------
# Polynomials in t1..t4


class Polynomial:
    """Sparse polynomial in t1..t4 with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for expo, coeff in (terms or {}).items():
            if coeff != 0:
                clean[tuple(expo)] = coeff
        self.terms = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0) + c1 * c2
        return Polynomial(out)

    def scale(self, c: int) -> "Polynomial":
        return Polynomial({e: c * v for e, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"Polynomial({self.terms})"


def elementary_symmetric(i: int) -> Polynomial:
    if not 1 <= i <= 4:
        raise ValueError(f"index out of range: {i}")
    out = Polynomial()
    for combo in itertools.combinations(range(4), i):
        expo = tuple(1 if j in combo else 0 for j in range(4))
        out = out + Polynomial({expo: 1})
    return out


def theta(i: int) -> Polynomial:
    """Elementary symmetric function in the squared variables."""
    if not 1 <= i <= 3:
        raise ValueError(f"index out of range: {i}")
    out = Polynomial()
    for combo in itertools.combinations(range(4), i):
        expo = tuple(2 if j in combo else 0 for j in range(4))
        out = out + Polynomial({expo: 1})
    return out


def act_on_polynomial(sp: TSignedPerm, p: Polynomial) -> Polynomial:
    """Substitute t_j -> signs[j] * t_perm[j], extended multiplicatively."""
    out: dict[tuple, int] = {}
    for expo, coeff in p.terms.items():
        new_expo = [0, 0, 0, 0]
        sign = 1
        for j, power in enumerate(expo):
            new_expo[sp.perm[j]] += power
            if sp.signs[j] < 0 and power % 2 == 1:
                sign = -sign
        key = tuple(new_expo)
        out[key] = out.get(key, 0) + sign * coeff
    return Polynomial(out)


def is_invariant(p: Polynomial, generators) -> bool:
    return all(act_on_polynomial(g, p) == p for g in generators)


def verify_theta_identities() -> dict[str, bool]:
    """The three expansions of theta_i in the elementary symmetric functions."""
    e = {i: elementary_symmetric(i) for i in range(1, 5)}
    checks = {
        "theta1": theta(1) - (e[1] * e[1] - e[2].scale(2)),
        "theta2": theta(2) - (e[2] * e[2] - (e[1] * e[3]).scale(2) + e[4].scale(2)),
        "theta3": theta(3) - (e[3] * e[3] - (e[2] * e[4]).scale(2)),
    }
    return {name: diff.is_zero() for name, diff in checks.items()}
