import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from d4check import rootsys
from d4check.obstruct import EXPECTED_CARTAN
from d4check.rootsys import build_d4, compose, identity_element, inner


@pytest.fixture(scope="module")
def rs():
    return build_d4()


@pytest.fixture(scope="module")
def gens(rs):
    return rootsys.simple_generators(rs)


@pytest.fixture(scope="module")
def group(gens):
    return rootsys.enumerate_group(gens)


def test_first_root(rs):
    assert rs[0] == (1, -1, 0, 0)


def test_twelve_positive_roots(rs):
    assert len(rs) == 12


def test_all_roots_have_squared_length_two(rs):
    assert all(inner(a, a) == 2 for a in rs)


def test_cartan_numbers(rs):
    assert rootsys.cartan_number(rs, 1, 2) == -1
    assert rootsys.cartan_number(rs, 1, 9) == 0
    assert all(rootsys.cartan_number(rs, i, i) == 2 for i in range(1, 13))


def test_simple_cartan_matrix(rs):
    m = rootsys.simple_cartan_matrix(rs)
    assert m == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]
    assert m == [list(col) for col in zip(*m)]  # symmetric


def test_generator_actions(rs, gens):
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    e3 = (0, 0, 1, 0)
    e4 = (0, 0, 0, 1)
    assert gens[1].apply(e1) == e2 and gens[1].apply(e2) == e1
    assert gens[9].apply(e3) == (0, 0, 0, -1) and gens[9].apply(e4) == (0, 0, -1, 0)


def test_reflections_are_involutions(rs):
    ident = identity_element()
    for i in range(1, 13):
        s = rootsys.reflection(rs, i)
        sq = compose(s, s)
        assert (sq.perm, sq.signs) == (ident.perm, ident.signs)


def test_apply_examples(rs, gens):
    a1 = rs[0]
    assert gens[2].apply(a1) == rs[3]
    w = compose(gens[9], gens[2])
    assert w.apply(a1) == rs[11]
    assert identity_element().apply(a1) == a1


def test_group_order(group):
    assert len(group) == 192


def test_apply_matches_definition(group):
    # basis vector i goes to signs[i] times basis vector perm[i]
    v = (1, 2, 3, 4)
    for w in group:
        out = [0] * 4
        for i in range(4):
            out[w.perm[i]] = w.signs[i] * v[i]
        assert w.apply(v) == tuple(out)


def test_compose_is_the_action(group):
    v = (1, 2, 3, 4)
    for g in group:
        for h in group:
            assert compose(g, h).apply(v) == g.apply(h.apply(v))


@pytest.mark.parametrize(
    "columns",
    [
        [(1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)],
    ],
)
def test_signed_perm_rejects_repeated_target(columns):
    # signed unit columns that send two basis vectors to one target
    with pytest.raises(ValueError, match="^x is not a signed permutation$"):
        rootsys.signed_perm(columns, "x")


def test_stabilizer_subgroup(rs, gens):
    sub = rootsys.enumerate_group({i: gens[i] for i in (1, 2, 3)})
    assert len(sub) == 24
    b = (1, 1, 1, 1)
    assert all(w.apply(b) == b for w in sub)


def test_stabilizer_is_exact(rs, gens, group):
    # nothing outside the order-24 subgroup fixes the chamber-edge point
    b = (1, 1, 1, 1)
    fixers = [w for w in group if w.apply(b) == b]
    assert len(fixers) == 24


def test_empty_generator_set():
    assert rootsys.enumerate_group({}) == {identity_element(): ()}


def test_closure_stops_past_all_signed_permutations():
    # a sign of 2 makes a new element at every step; the child process has its
    # memory capped and a timeout, so an unbounded closure fails instead of hanging
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
        "from d4check.rootsys import TSignedPerm, enumerate_group; "
        "enumerate_group({1: TSignedPerm((0, 1, 2, 3), (2, 1, 1, 1))})"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rootsys.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.stderr.endswith("ValueError: the generators give more than 2^4 * 4! = 384 signed permutations\n")


def test_orbit_of_first_root(rs, group):
    orb = rootsys.orbit(group, rs[0])
    assert len(orb) == 24
    full = set(rs) | {tuple(-x for x in a) for a in rs}
    assert orb == full


def test_orbit_of_identity(rs):
    v = (3, 1, 4, 1)
    assert rootsys.orbit([identity_element()], v) == {v}


def test_word_table(rs, gens):
    assert all(rootsys.verify_word_table(rs, gens).values())


def test_words_replay_to_elements(rs, gens, group):
    for w, word in group.items():
        assert rootsys.element_from_word(word, gens) == w


def test_even_sign_invariant(group):
    assert all(math.prod(w.signs) == 1 for w in group)


def test_group_closure_and_inverses(group):
    assert {compose(w, v) for w in group for v in group} == set(group)
    ident = identity_element()
    for w in group:
        assert any(compose(w, v) == ident for v in group)


def test_roots_permuted_by_group(rs, group):
    full = set(rs) | {tuple(-x for x in a) for a in rs}
    for w in group:
        assert {w.apply(a) for a in full} == full


# signed permutations are linear, so integer vectors check the same property
# as rational ones
coordinate = st.integers(-70, 70)
vectors = st.tuples(coordinate, coordinate, coordinate, coordinate)


@given(vectors, vectors, st.integers(min_value=0, max_value=191))
def test_group_acts_by_isometries(group, u, v, n):
    w = list(group)[n]
    assert inner(w.apply(u), w.apply(v)) == inner(u, v)


# -- sympy.liealgebras as an independent oracle (skipped without sympy) -----


def test_cartan_matrix_matches_sympy(rs):
    cartan_matrix = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    expected = cartan_matrix.CartanMatrix("D4").tolist()
    assert expected == EXPECTED_CARTAN
    assert rootsys.simple_cartan_matrix(rs) == expected


def test_simple_roots_match_sympy(rs):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    simple = [tuple(r) for r in root_system.RootSystem("D4").simple_roots().values()]
    assert simple == [rs[i - 1] for i in (1, 2, 3, 9)]
    assert rootsys.SIMPLE_INDICES == (1, 2, 3, 9)


def test_all_roots_match_sympy(rs, group):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    roots = [tuple(r) for r in root_system.RootSystem("D4").all_roots().values()]
    assert len(roots) == 24
    assert set(roots) == rootsys.orbit(group, rs[0])


def test_group_order_matches_sympy(group):
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    assert int(weyl_group.WeylGroup("D4").group_order()) == len(group) == 192
