import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from d4check import cohomring as ch
from d4check import obstruct
from d4check.rootsys import SIMPLE_INDICES, build_d4, cartan_number, inner, simple_cartan_matrix, simple_generators
from signed_perms import ALL_SIGNED_PERMS, BY_CODE, IDENTITY, apply, code, compose


@pytest.fixture(scope="module")
def rs():
    return build_d4()


@pytest.fixture(scope="module")
def cartan(rs):
    return simple_cartan_matrix(rs)


@pytest.fixture(scope="module")
def acts(rs):
    # t is e, so the simple reflections are the actions on t1..t4
    return simple_generators(rs)


def omega_unit(k):
    return tuple(int(j == k) for j in range(4))


# -- pairings and bases -----------------------------------------------------


@pytest.fixture(scope="module")
def pushed():
    return obstruct.Run().pushed


@pytest.fixture(scope="module")
def km(rs, pushed):
    # <d_k, b_l> for the classes pushed along the orbit words, keyed by root labels
    return {k: {l: ch.kronecker(pushed[k][0], pushed[l][1]) for l in rs} for k in rs}


def test_kronecker_matrix_entries(rs, km):
    # Lemma 2 for all twelve roots: <d_k, b_l> is the Cartan number of roots k and l
    assert km == {k: {l: cartan_number(rs, k, l) for l in rs} for k in rs}
    assert km[1][2] == -1
    assert all(km[i][i] == 2 for i in rs)


def test_kronecker_simple_submatrix_is_cartan(km):
    sub = [[km[i][j] for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]
    assert sub == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]


def test_pushed_euler_classes_are_roots_in_omega_coordinates(rs, pushed):
    # a second oracle for the cohomology action: d_k is root k read through t = e
    assert {k: d for k, (d, _) in pushed.items()} == {k: ch.omega_from_t(rs[k]) for k in rs}


def test_euler_class_d1(cartan):
    assert ch.euler_class_d(cartan, 1) == (2, -1, 0, 0)


def test_euler_class_d9(cartan):
    assert ch.euler_class_d(cartan, 9) == (0, -1, 0, 2)


def test_euler_class_pairings_recover_cartan(rs, cartan):
    for i in SIMPLE_INDICES:
        d = ch.euler_class_d(cartan, i)
        for j in SIMPLE_INDICES:
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


# -- integer kernels against their defining formulas ------------------------


integer = st.integers()
vector = st.tuples(integer, integer, integer, integer)
matrix = st.lists(st.lists(integer, min_size=4, max_size=4), min_size=4, max_size=4)
simple_index = st.sampled_from(SIMPLE_INDICES)


def _is_int_tuple(v):
    return type(v) is tuple and len(v) == 4 and all(type(x) is int for x in v)


@given(vector, vector)
def test_pairings_are_sums_of_products(u, v):
    expected = u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]
    assert inner(u, v) == ch.kronecker(u, v) == expected
    assert type(inner(u, v)) is int and type(ch.kronecker(u, v)) is int


@given(matrix, simple_index, vector)
def test_actions_match_their_formulas_on_any_matrix(b, i, v):
    # (3-3) and (3-4) with any integer matrix in place of the Cartan matrix
    r = SIMPLE_INDICES.index(i)
    omega = ch.cohomology_action_omega(b, i, v)
    assert omega == tuple(v[j] - v[r] * b[r][j] for j in range(4)) and _is_int_tuple(omega)
    homology = ch.homology_action(b, i, v)
    assert homology == tuple(v[j] - (j == r) * sum(b[r][k] * v[k] for k in range(4)) for j in range(4))
    assert _is_int_tuple(homology)


@given(matrix, vector)
def test_omega_from_t_reads_the_table_at_call_time(t_of_omega, c):
    # t_i = sum_j T[i][j] omega_j, so omega_j of sum_i c_i t_i is sum_i c_i T[i][j]
    with mock.patch.object(ch, "T_OF_OMEGA", t_of_omega):
        got = ch.omega_from_t(c)
    assert got == tuple(sum(c[i] * t_of_omega[i][j] for i in range(4)) for j in range(4))
    assert _is_int_tuple(got)


@given(st.sampled_from(ALL_SIGNED_PERMS), st.dictionaries(st.tuples(*[st.integers(0, 6)] * 4), integer.filter(bool)))
def test_act_on_polynomial_sign_is_a_product_of_powers(sp, p):
    # t_j -> signs[j] t_perm[j] sends t^e to prod_j signs[j]^e_j times the monomial with e_j at perm[j]
    expected = {}
    for expo, coeff in p.items():
        image, sign = [0] * 4, 1
        for j in range(4):
            image[sp.perm[j]] = expo[j]
            sign *= sp.signs[j] ** expo[j]
        expected[tuple(image)] = sign * coeff
    assert ch.act_on_polynomial(code(sp), p) == expected


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
    # the transpositions of t1 t2, t2 t3 and t3 t4, and t3 -> -t4, t4 -> -t3
    assert BY_CODE[acts[1]] == ((1, 0, 2, 3), (1, 1, 1, 1))
    assert BY_CODE[acts[2]] == ((0, 2, 1, 3), (1, 1, 1, 1))
    assert BY_CODE[acts[3]] == ((0, 1, 3, 2), (1, 1, 1, 1))
    assert BY_CODE[acts[9]] == ((0, 1, 3, 2), (1, 1, -1, -1))


@pytest.mark.parametrize("rows", ["solved", "printed"])
def test_reflections_intertwine_with_the_omega_action(monkeypatch, cartan, acts, rows):
    # omega_from_t carries each reflection's action on t1..t4 to (3-3)
    if rows == "printed":
        # the source's rows for t3 and t4
        printed = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 2]]
        monkeypatch.setattr(ch, "T_OF_OMEGA", printed)
    holds = {
        i: all(
            ch.omega_from_t(apply(BY_CODE[acts[i]], e)) == ch.cohomology_action_omega(cartan, i, ch.omega_from_t(e))
            for e in map(omega_unit, range(4))
        )
        for i in SIMPLE_INDICES
    }
    assert all(holds.values()) == (rows == "solved")


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
    s1, s2, s9 = BY_CODE[acts[1]], BY_CODE[acts[2]], BY_CODE[acts[9]]
    s1s2 = compose(s1, s2)
    cubed = compose(compose(s1s2, s1s2), s1s2)
    assert cubed == IDENTITY
    s1s9 = compose(s1, s9)
    assert compose(s1s9, s1s9) == IDENTITY


# -- polynomials ------------------------------------------------------------


def test_elementary_symmetric_e1():
    assert ch.elementary_symmetric(1) == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}


@pytest.mark.parametrize(
    "build, index",
    [("elementary_symmetric", 0), ("elementary_symmetric", 5), ("theta", 0), ("theta", 4)],
)
def test_symmetric_function_index_out_of_range(build, index):
    with pytest.raises(ValueError, match=f"index out of range: {index}"):
        getattr(ch, build)(index)


def test_theta1_shape():
    assert ch.theta(1) == {
        (2, 0, 0, 0): 1,
        (0, 2, 0, 0): 1,
        (0, 0, 2, 0): 1,
        (0, 0, 0, 2): 1,
    }


def test_theta_identities():
    e = {i: ch.elementary_symmetric(i) for i in range(1, 5)}
    th = {i: ch.theta(i) for i in range(1, 4)}
    assert ch.verify_theta_identities(e, th) == {
        "theta1": True,
        "theta2": True,
        "theta3": True,
    }
    # theta_i without the squares is e_i, which none of the expansions gives
    assert ch.verify_theta_identities(e, e) == {"theta1": False, "theta2": False, "theta3": False}


def test_pipeline_builds_the_invariants_once(monkeypatch):
    # theta-identities and invariance-suite read the seven polynomials off the run
    calls = []
    build = ch._symmetric

    def counted(i, power):
        calls.append((i, power))
        return build(i, power)

    monkeypatch.setattr(ch, "_symmetric", counted)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    assert sorted(calls) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]


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


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=5)] * 4), st.integers(), max_size=6))
def test_act_on_polynomial_places_each_exponent(p):
    # the reference moves each exponent with apply and strips the signs it puts on them
    assert len(set(ALL_SIGNED_PERMS)) == 384
    for sp in ALL_SIGNED_PERMS:
        expected = {
            tuple(map(abs, apply(sp, expo))): math.prod(map(pow, sp.signs, expo)) * coeff
            for expo, coeff in p.items()
        }
        assert ch.act_on_polynomial(code(sp), p) == expected


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
    for g in acts.values():
        # t_j -> signs[j] * t_perm[j], all four at once
        sp = BY_CODE[g]
        images = {t[j]: s * t[k] for j, (k, s) in enumerate(zip(sp.perm, sp.signs))}
        expected = sympy.expand(_to_expr(sympy, t, p).subs(images, simultaneous=True))
        assert _to_expr(sympy, t, ch.act_on_polynomial(g, p)) == expected

