import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from d4check import cohomring as ch
from d4check.cohomring import Polynomial, TSignedPerm
from d4check.rootsys import (
    SIMPLE_INDICES,
    build_d4,
    compose,
    identity_element,
    simple_cartan_matrix,
)


@pytest.fixture(scope="module")
def rs():
    return build_d4()


@pytest.fixture(scope="module")
def cartan(rs):
    return simple_cartan_matrix(rs)


@pytest.fixture(scope="module")
def acts(cartan):
    return ch.t_actions(cartan)


def omega_unit(k):
    return tuple(Fraction(1 if j == k else 0) for j in range(4))


# -- pairings and bases -----------------------------------------------------


def test_kronecker_matrix_entries(rs):
    km = ch.kronecker_matrix(rs)
    assert km[0][1] == -1
    assert all(km[i][i] == 2 for i in range(12))


def test_kronecker_simple_submatrix_is_cartan(rs):
    km = ch.kronecker_matrix(rs)
    sub = [[km[i - 1][j - 1] for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]
    assert sub == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]


def test_euler_class_d1(cartan):
    assert ch.euler_class_d(cartan, 1) == (2, -1, 0, 0)


def test_euler_class_d9(cartan):
    assert ch.euler_class_d(cartan, 9) == (0, -1, 0, 2)


def test_euler_class_pairings_recover_cartan(rs, cartan):
    for i in SIMPLE_INDICES:
        d = ch.euler_class_d(cartan, i)
        for j in SIMPLE_INDICES:
            from d4check.rootsys import cartan_number

            assert ch.kronecker(d, ch.unit(j)) == cartan_number(rs, i, j)


def test_euler_class_rejects_nonsimple(cartan):
    with pytest.raises(ValueError):
        ch.euler_class_d(cartan, 4)


def test_t_from_omega_unit():
    assert ch.t_from_omega(omega_unit(0)) == (1, 0, 0, 0)


def test_omega_coords_of_pontryagin_combination():
    assert ch.omega_from_t((1, 1, -1, -1)) == (0, 2, 0, -2)


rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.tuples(rational, rational, rational, rational))
def test_basis_roundtrip(coords):
    c = tuple(Fraction(x) for x in coords)
    assert ch.omega_from_t(ch.t_from_omega(c)) == c


@given(st.tuples(rational, rational, rational, rational))
def test_pairing_is_basis_independent(coords):
    # expand the class over t1..t4 and pair each t_i, an omega-basis class, with h
    c = tuple(Fraction(x) for x in coords)
    h = (2, -3, 5, 7)
    t_pairings = [ch.kronecker(row, h) for row in ch.T_OF_OMEGA]
    assert sum(y * p for y, p in zip(ch.t_from_omega(c), t_pairings)) == ch.kronecker(c, h)


# -- induced actions --------------------------------------------------------


def test_homology_action_examples(cartan):
    b1, b2, b9 = ch.unit(1), ch.unit(2), ch.unit(9)
    assert ch.homology_action(cartan, 1, b1) == (-1, 0, 0, 0)
    assert ch.homology_action(cartan, 1, b2) == (1, 1, 0, 0)
    assert ch.homology_action(cartan, 2, b9) == (0, 1, 0, 1)


def test_omega_action_examples(cartan):
    assert ch.cohomology_action_omega(cartan, 1, omega_unit(1)) == (0, 1, 0, 0)
    assert ch.cohomology_action_omega(cartan, 1, omega_unit(0)) == (-1, 1, 0, 0)
    assert ch.cohomology_action_omega(cartan, 9, omega_unit(3)) == (0, 1, 0, -1)


def test_actions_are_involutions(cartan):
    for i in SIMPLE_INDICES:
        for k in range(4):
            c = omega_unit(k)
            twice = ch.cohomology_action_omega(
                cartan, i, ch.cohomology_action_omega(cartan, i, c)
            )
            assert twice == c
            h = ch.unit(SIMPLE_INDICES[k])
            htwice = ch.homology_action(cartan, i, ch.homology_action(cartan, i, h))
            assert htwice == h


def test_t_actions_match_table(rs, acts):
    assert acts[1] == TSignedPerm((1, 0, 2, 3), (1, 1, 1, 1))
    assert acts[2] == TSignedPerm((0, 2, 1, 3), (1, 1, 1, 1))
    assert acts[3] == TSignedPerm((0, 1, 3, 2), (1, 1, 1, 1))
    assert acts[9] == TSignedPerm((0, 1, 3, 2), (1, 1, -1, -1))


def test_duality_exhaustive(cartan):
    for i in SIMPLE_INDICES:
        for k in range(4):
            x = omega_unit(k)
            for j in SIMPLE_INDICES:
                h = ch.unit(j)
                lhs = ch.kronecker(ch.cohomology_action_omega(cartan, i, x), h)
                rhs = ch.kronecker(x, ch.homology_action(cartan, i, h))
                assert lhs == rhs


def test_braid_relations_on_t(acts):
    ident = identity_element()
    s1s2 = compose(acts[1], acts[2])
    cubed = compose(compose(s1s2, s1s2), s1s2)
    assert cubed == ident
    s1s9 = compose(acts[1], acts[9])
    assert compose(s1s9, s1s9) == ident


# -- polynomials ------------------------------------------------------------


def test_elementary_symmetric_e1():
    e1 = ch.elementary_symmetric(1)
    expected = (
        Polynomial({(1, 0, 0, 0): 1})
        + Polynomial({(0, 1, 0, 0): 1})
        + Polynomial({(0, 0, 1, 0): 1})
        + Polynomial({(0, 0, 0, 1): 1})
    )
    assert e1 == expected


def test_theta1_shape():
    t1 = ch.theta(1)
    assert t1.terms == {
        (2, 0, 0, 0): 1,
        (0, 2, 0, 0): 1,
        (0, 0, 2, 0): 1,
        (0, 0, 0, 2): 1,
    }


def test_theta_identities():
    assert ch.verify_theta_identities() == {
        "theta1": True,
        "theta2": True,
        "theta3": True,
    }


def test_act_on_e1_by_sign_flip(rs, acts):
    image = ch.act_on_polynomial(acts[9], ch.elementary_symmetric(1))
    expected = (
        Polynomial({(1, 0, 0, 0): 1})
        + Polynomial({(0, 1, 0, 0): 1})
        - Polynomial({(0, 0, 1, 0): 1})
        - Polynomial({(0, 0, 0, 1): 1})
    )
    assert image == expected


def test_e4_invariant_under_all(rs, acts):
    e4 = ch.elementary_symmetric(4)
    assert ch.is_invariant(e4, acts.values())


def test_theta2_fixed_by_s1(rs, acts):
    assert ch.act_on_polynomial(acts[1], ch.theta(2)) == ch.theta(2)


def test_invariance_suite(rs, acts):
    full = list(acts.values())
    stab = [acts[1], acts[2], acts[3]]
    for i in range(1, 4):
        assert ch.is_invariant(ch.theta(i), full)
    assert ch.is_invariant(ch.elementary_symmetric(4), full)
    for i in range(1, 5):
        assert ch.is_invariant(ch.elementary_symmetric(i), stab)
    assert not ch.is_invariant(ch.elementary_symmetric(1), [acts[9]])
    assert ch.is_invariant(Polynomial({(0, 0, 0, 0): 7}), full)


def test_polynomial_action_is_multiplicative(acts):
    p = ch.elementary_symmetric(2)
    q = ch.theta(1)
    for sp in acts.values():
        lhs = ch.act_on_polynomial(sp, p * q)
        rhs = ch.act_on_polynomial(sp, p) * ch.act_on_polynomial(sp, q)
        assert lhs == rhs

