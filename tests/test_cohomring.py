import itertools

import pytest
from hypothesis import given, settings, strategies as st

from d4check import cohomring as ch
from d4check.cohomring import TSignedPerm
from d4check.rootsys import SIMPLE_INDICES, build_d4, inner, reflection, simple_cartan_matrix
from signed_perms import IDENTITY, compose


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
    return tuple(int(j == k) for j in range(4))


# -- pairings and bases -----------------------------------------------------


def test_kronecker_matrix_entries(rs):
    km = ch.kronecker_matrix(rs)
    assert km[1][2] == -1
    assert all(km[i][i] == 2 for i in rs)


def test_kronecker_simple_submatrix_is_cartan(rs):
    km = ch.kronecker_matrix(rs)
    sub = [[km[i][j] for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]
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


def test_omega_from_t_sends_simple_roots_to_cartan_rows(rs, cartan):
    assert [ch.omega_from_t(rs[i]) for i in SIMPLE_INDICES] == [tuple(row) for row in cartan]


def test_omega_coords_of_pontryagin_combination():
    assert ch.omega_from_t((1, 1, -1, -1)) == (0, 2, 0, -2)


coord = st.integers(min_value=-20, max_value=20)


@given(st.tuples(coord, coord, coord, coord))
def test_basis_roundtrip(c):
    # t is e: pairing a class with b_j is the inner product of its t coordinates with simple root j
    rs = build_d4()
    assert [ch.kronecker(ch.omega_from_t(c), ch.unit(j)) for j in SIMPLE_INDICES] == [
        inner(c, rs[j]) for j in SIMPLE_INDICES
    ]


@given(st.tuples(coord, coord, coord, coord))
def test_pairing_is_basis_independent(c):
    # expand the class over t1..t4 and pair each t_i, an omega-basis class, with h
    h = (2, -3, 5, 7)
    t_pairings = [ch.kronecker(row, h) for row in ch.T_OF_OMEGA]
    assert sum(y * p for y, p in zip(c, t_pairings)) == ch.kronecker(ch.omega_from_t(c), h)


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


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("rows", ["solved", "printed"])
def test_t_actions_are_the_reflections(monkeypatch, rs, cartan, rows):
    # t is e, so each generator acts on t1..t4 as its reflection acts on e_1..e_4
    if rows == "printed":
        # the source's rows for t3 and t4; some generators then act by no signed permutation
        printed = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 2]]
        monkeypatch.setattr(ch, "T_OF_OMEGA", printed)
    outcomes = {i: _outcome(lambda: ch.action_on_t(cartan, i)) for i in SIMPLE_INDICES}
    matches = {i: outcomes[i] == reflection(rs, i) for i in SIMPLE_INDICES}
    assert all(matches.values()) == (rows == "solved")
    assert any(isinstance(o, str) for o in outcomes.values()) == (rows == "printed")


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
    s1s2 = compose(acts[1], acts[2])
    cubed = compose(compose(s1s2, s1s2), s1s2)
    assert cubed == IDENTITY
    s1s9 = compose(acts[1], acts[9])
    assert compose(s1s9, s1s9) == IDENTITY


# -- polynomials ------------------------------------------------------------


def test_elementary_symmetric_e1():
    assert ch.elementary_symmetric(1) == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}


def test_theta1_shape():
    assert ch.theta(1) == {
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
    assert image == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1}


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
    assert ch.is_invariant({(0, 0, 0, 0): 7}, full)


def test_polynomial_action_is_multiplicative(acts):
    p = ch.elementary_symmetric(2)
    q = ch.theta(1)
    for sp in acts.values():
        lhs = ch.act_on_polynomial(sp, ch.expand((1, p, q)))
        rhs = ch.expand((1, ch.act_on_polynomial(sp, p), ch.act_on_polynomial(sp, q)))
        assert lhs == rhs


def test_expand_drops_zero_coefficients():
    e1 = ch.elementary_symmetric(1)
    assert ch.expand() == {}
    assert ch.expand((0,)) == {}
    assert ch.expand((3,)) == {(0, 0, 0, 0): 3}
    assert ch.expand((1, e1), (-1, e1)) == {}
    assert ch.expand((2, e1), (-1, e1)) == e1
    # (t1 + t2)(t1 - t2) = t1^2 - t2^2: the cross terms cancel
    plus, minus = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}
    assert ch.expand((1, plus, minus)) == {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}


# -- sympy as an independent oracle (skipped without sympy) -----------------


exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
polynomials = st.dictionaries(exponents, st.integers(min_value=-3, max_value=3).filter(bool), max_size=3)
terms = st.tuples(st.integers(min_value=-3, max_value=3), st.lists(polynomials, max_size=3)).map(
    lambda t: (t[0], *t[1])
)


def _to_expr(sympy, t, p):
    return sum((c * sympy.prod(x**k for x, k in zip(t, expo)) for expo, c in p.items()), sympy.Integer(0))


@settings(max_examples=50, deadline=None)
@given(st.lists(terms, max_size=3))
def test_expand_matches_sympy(ts):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t1:5")
    expr = sum((c * sympy.prod(_to_expr(sympy, t, f) for f in fs) for c, *fs in ts), sympy.Integer(0))
    got = ch.expand(*ts)
    assert got == sympy.Poly(expr, *t).as_dict()
    assert all(type(c) is int and c != 0 for c in got.values())


def test_theta_expansions_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t1:5")
    e = {i: sum(sympy.prod(c) for c in itertools.combinations(t, i)) for i in range(1, 5)}
    th = {i: sum(sympy.prod(x**2 for x in c) for c in itertools.combinations(t, i)) for i in range(1, 4)}
    assert sympy.expand(th[1] - (e[1] ** 2 - 2 * e[2])) == 0
    assert sympy.expand(th[2] - (e[2] ** 2 - 2 * e[1] * e[3] + 2 * e[4])) == 0
    assert sympy.expand(th[3] - (e[3] ** 2 - 2 * e[2] * e[4])) == 0
    # and the dicts d4check builds are these polynomials
    assert all(_to_expr(sympy, t, ch.elementary_symmetric(i)) == e[i] for i in e)
    assert all(_to_expr(sympy, t, ch.theta(i)) == th[i] for i in th)


@settings(max_examples=50, deadline=None)
@given(polynomials)
def test_act_on_polynomial_matches_sympy_subs(acts, p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t1:5")
    for sp in acts.values():
        # t_j -> signs[j] * t_perm[j], all four at once
        images = {t[j]: s * t[k] for j, (k, s) in enumerate(zip(sp.perm, sp.signs))}
        expected = sympy.expand(_to_expr(sympy, t, p).subs(images, simultaneous=True))
        assert _to_expr(sympy, t, ch.act_on_polynomial(sp, p)) == expected

