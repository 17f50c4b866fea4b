"""Degree-m cohomology calculus: bases, pairings, induced actions, invariants.

Cohomology classes live in a 4-dimensional space with three coordinate
systems (omega, t, d); homology classes are written over the dual basis
(b1, b2, b3, b9).  The polynomial ring in t1..t4 carries the induced
signed-permutation action, and the elementary symmetric functions e_i and
their squared-variable analogues theta_i are the invariants of interest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rootsys import SIMPLE_INDICES, CartanMatrix, RootSystem, cartan_number

_POS = {idx: k for k, idx in enumerate(SIMPLE_INDICES)}

# t-from-omega transition: t_i = sum_j T_OF_OMEGA[i][j] * omega_j.
# Rows 3 and 4 are the half-sum (D-type) form: this is the unique change of
# basis under which the dual reflection actions become the signed
# permutations of the variables (the printed source rows (0,-1,1,0) and
# (0,0,-1,2) fail that reproduction; the downstream class conversions agree
# either way).
T_OF_OMEGA = linalg.to_matrix(
    [
        [1, 0, 0, 0],
        [-1, 1, 0, 0],
        [0, -1, 1, 1],
        [0, 0, -1, 1],
    ]
)
OMEGA_OF_T = linalg.invert(T_OF_OMEGA)


@dataclass(frozen=True)
class CohClass:
    """Coordinate vector of a degree-m cohomology class in a tagged basis."""

    basis: str  # "omega", "t" or "d"
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(basis: str, *values) -> "CohClass":
        if basis not in ("omega", "t", "d"):
            raise ValueError(f"unknown basis tag: {basis}")
        return CohClass(basis, tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class HomClass:
    """Homology class over the leaf-sphere basis (b1, b2, b3, b9)."""

    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(*values) -> "HomClass":
        return HomClass(tuple(Fraction(v) for v in values))

    @staticmethod
    def basis(i: int) -> "HomClass":
        return HomClass.of(*(1 if s == i else 0 for s in SIMPLE_INDICES))


def t_from_omega(c: CohClass) -> CohClass:
    """Rewrite an omega-basis class in t coordinates.

    Coordinates transform by the inverse transpose of the basis transition.
    """
    if c.basis != "omega":
        raise ValueError("expected omega-basis class")
    y = linalg.mat_vec(linalg.transpose(OMEGA_OF_T), list(c.coords))
    return CohClass("t", tuple(y))


def omega_from_t(c: CohClass) -> CohClass:
    if c.basis != "t":
        raise ValueError("expected t-basis class")
    x = linalg.mat_vec(linalg.transpose(T_OF_OMEGA), list(c.coords))
    return CohClass("omega", tuple(x))


def omega_from_d(c: CohClass, cartan: CartanMatrix) -> CohClass:
    """d_i = sum_j B[i][j] omega_j with B the simple Cartan matrix."""
    if c.basis != "d":
        raise ValueError("expected d-basis class")
    b = linalg.to_matrix(cartan)
    x = linalg.mat_vec(linalg.transpose(b), list(c.coords))
    return CohClass("omega", tuple(x))


def to_omega(c: CohClass) -> CohClass:
    """Omega coordinates of an omega- or t-basis class.

    A d-basis class needs the Cartan matrix: convert it with ``omega_from_d``.
    """
    if c.basis == "omega":
        return c
    if c.basis == "t":
        return omega_from_t(c)
    raise ValueError("d-basis class: convert it with omega_from_d first")


def kronecker(c: CohClass, h: HomClass) -> Fraction:
    """Evaluation pairing; omega and b are dual bases by definition."""
    x = to_omega(c).coords
    return sum((a * b for a, b in zip(x, h.coords)), Fraction(0))


def kronecker_matrix(rs: RootSystem) -> list[list[int]]:
    """Pairing of all twelve Euler classes against all twelve sphere classes."""
    n = len(rs.positive_roots)
    return [
        [int(cartan_number(rs, i, j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def euler_class_d(cartan: CartanMatrix, i: int) -> CohClass:
    """The Euler class d_i of a simple curvature sphere, in omega coordinates."""
    if i not in SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {i}")
    return omega_from_d(CohClass.of("d", *(1 if s == i else 0 for s in SIMPLE_INDICES)), cartan)


def homology_action(cartan: CartanMatrix, i: int, h: HomClass) -> HomClass:
    """Reflection action on homology: b_j -> b_j - beta_ij * b_i."""
    if i not in SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {i}")
    r = _POS[i]
    out = list(h.coords)
    out[r] -= sum(
        Fraction(cartan[r][j]) * h.coords[j] for j in range(4)
    )
    return HomClass(tuple(out))


def cohomology_action_omega(cartan: CartanMatrix, i: int, c: CohClass) -> CohClass:
    """Dual reflection action in the omega basis, extended linearly."""
    if i not in SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {i}")
    if c.basis != "omega":
        raise ValueError("expected omega-basis class")
    r = _POS[i]
    xi = c.coords[r]
    out = [c.coords[j] - xi * Fraction(cartan[r][j]) for j in range(4)]
    return CohClass("omega", tuple(out))


@dataclass(frozen=True)
class TSignedPerm:
    """Signed permutation of the variables t1..t4: t_j -> signs[j] * t_perm[j]."""

    perm: tuple[int, int, int, int]
    signs: tuple[int, int, int, int]

    def compose(self, inner: "TSignedPerm") -> "TSignedPerm":
        perm = tuple(self.perm[inner.perm[j]] for j in range(4))
        signs = tuple(inner.signs[j] * self.signs[inner.perm[j]] for j in range(4))
        return TSignedPerm(perm, signs)


T_IDENTITY = TSignedPerm((0, 1, 2, 3), (1, 1, 1, 1))


def _omega_action_matrix(cartan: CartanMatrix, i: int) -> linalg.Matrix:
    cols = []
    for k in range(4):
        e = CohClass("omega", tuple(Fraction(1 if j == k else 0) for j in range(4)))
        cols.append(list(cohomology_action_omega(cartan, i, e).coords))
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
    perm = [0] * 4
    signs = [0] * 4
    for j in range(4):
        col = [m_t[r][j] for r in range(4)]
        nonzero = [(r, v) for r, v in enumerate(col) if v != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise ValueError(f"t-action of generator {i} is not a signed permutation")
        perm[j] = nonzero[0][0]
        signs[j] = 1 if nonzero[0][1] > 0 else -1
    return TSignedPerm(tuple(perm), tuple(signs))


def t_actions(cartan: CartanMatrix) -> dict[int, TSignedPerm]:
    """The generator actions on t1..t4; ValueError if one is not a signed permutation."""
    return {i: action_on_t(cartan, i) for i in SIMPLE_INDICES}


# ---------------------------------------------------------------------------
# Polynomials in t1..t4


class Polynomial:
    """Sparse polynomial in t1..t4 over the rationals, graded by deg t_i = m."""

    __slots__ = ("terms", "var_degree")

    def __init__(self, terms=None, var_degree: int = 4):
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[tuple(expo)] = coeff
        self.terms = clean
        self.var_degree = var_degree

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(0, 0, 0, 0): Fraction(c)})

    @staticmethod
    def variable(i: int) -> "Polynomial":
        if not 1 <= i <= 4:
            raise ValueError(f"variable index out of range: {i}")
        expo = tuple(1 if j == i - 1 else 0 for j in range(4))
        return Polynomial({expo: Fraction(1)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return Polynomial(out, self.var_degree)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return Polynomial(out, self.var_degree)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial({e: c * v for e, v in self.terms.items()}, self.var_degree)

    def is_zero(self) -> bool:
        return not self.terms

    def graded_degree(self) -> int:
        if not self.terms:
            return 0
        return self.var_degree * max(sum(e) for e in self.terms)

    def _sorted_terms(self):
        # total degree descending, then lexicographic on exponents
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-x for x in kv[0])))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self._sorted_terms():
            mono = "*".join(
                f"t{j + 1}" if p == 1 else f"t{j + 1}^{p}"
                for j, p in enumerate(expo)
                if p > 0
            )
            if not mono:
                parts.append((coeff, str(coeff)))
                continue
            if coeff == 1:
                parts.append((coeff, mono))
            elif coeff == -1:
                parts.append((coeff, f"-{mono}"))
            else:
                parts.append((coeff, f"{coeff}*{mono}"))
        text = parts[0][1]
        for coeff, piece in parts[1:]:
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return text

    def __repr__(self):
        return f"Polynomial({self.render()})"


def elementary_symmetric(i: int) -> Polynomial:
    if not 1 <= i <= 4:
        raise ValueError(f"index out of range: {i}")
    out = Polynomial()
    for combo in itertools.combinations(range(4), i):
        expo = tuple(1 if j in combo else 0 for j in range(4))
        out = out + Polynomial({expo: Fraction(1)})
    return out


def theta(i: int) -> Polynomial:
    """Elementary symmetric function in the squared variables."""
    if not 1 <= i <= 3:
        raise ValueError(f"index out of range: {i}")
    out = Polynomial()
    for combo in itertools.combinations(range(4), i):
        expo = tuple(2 if j in combo else 0 for j in range(4))
        out = out + Polynomial({expo: Fraction(1)})
    return out


def act_on_polynomial(sp: TSignedPerm, p: Polynomial) -> Polynomial:
    """Substitute t_j -> signs[j] * t_perm[j], extended multiplicatively."""
    out: dict[tuple, Fraction] = {}
    for expo, coeff in p.terms.items():
        new_expo = [0, 0, 0, 0]
        sign = 1
        for j, power in enumerate(expo):
            new_expo[sp.perm[j]] += power
            if sp.signs[j] < 0 and power % 2 == 1:
                sign = -sign
        key = tuple(new_expo)
        out[key] = out.get(key, Fraction(0)) + sign * coeff
    return Polynomial(out, p.var_degree)


def is_invariant(p: Polynomial, generators) -> bool:
    return all(act_on_polynomial(g, p) == p for g in generators)


def is_symmetric(p: Polynomial) -> bool:
    transpositions = [
        TSignedPerm((1, 0, 2, 3), (1, 1, 1, 1)),
        TSignedPerm((0, 2, 1, 3), (1, 1, 1, 1)),
        TSignedPerm((0, 1, 3, 2), (1, 1, 1, 1)),
    ]
    return is_invariant(p, transpositions)


def verify_theta_identities() -> dict[str, bool]:
    """The three expansions of theta_i in the elementary symmetric functions."""
    e = {i: elementary_symmetric(i) for i in range(1, 5)}
    checks = {
        "theta1": theta(1) - (e[1] * e[1] - e[2].scale(2)),
        "theta2": theta(2) - (e[2] * e[2] - (e[1] * e[3]).scale(2) + e[4].scale(2)),
        "theta3": theta(3) - (e[3] * e[3] - (e[2] * e[4]).scale(2)),
    }
    return {name: diff.is_zero() for name, diff in checks.items()}
