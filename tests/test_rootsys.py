import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from d4check import obstruct, rootsys
from d4check.obstruct import EXPECTED_CARTAN
from d4check.rootsys import WORD_TABLE, TSignedPerm, build_d4, inner
from signed_perms import IDENTITY, compose, element_from_word


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
    assert rs[1] == (1, -1, 0, 0)


def test_twelve_positive_roots(rs):
    assert list(rs) == list(range(1, 13))


def test_all_roots_have_squared_length_two(rs):
    assert all(inner(a, a) == 2 for a in rs.values())


def test_cartan_numbers(rs):
    assert rootsys.cartan_number(rs, 1, 2) == -1
    assert rootsys.cartan_number(rs, 1, 9) == 0
    assert all(rootsys.cartan_number(rs, i, i) == 2 for i in rs)


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
    for i in rs:
        s = rootsys.reflection(rs, i)
        assert compose(s, s) == IDENTITY


def test_apply_examples(rs, gens):
    a1 = rs[1]
    assert gens[2].apply(a1) == rs[4]
    w = compose(gens[9], gens[2])
    assert w.apply(a1) == rs[12]
    assert IDENTITY.apply(a1) == a1


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
    assert rootsys.enumerate_group({}) == {IDENTITY: ()}


def _reference_closure(gens):
    """Reference: the breadth-first closure over ``compose``, labels in increasing order."""
    labelled = sorted(gens.items())
    words = {IDENTITY: ()}
    frontier = list(words)
    while frontier:
        nxt = []
        for w in frontier:
            for label, g in labelled:
                h = compose(w, g)
                if h not in words:
                    words[h] = words[w] + (label,)
                    nxt.append(h)
        frontier = nxt
    return words


# all 384 signed permutations of four coordinates, odd sign changes included
SIGNED_PERMUTATIONS = [
    TSignedPerm(perm, signs)
    for perm in itertools.permutations(range(4))
    for signs in itertools.product((1, -1), repeat=4)
]
D4_GENERATORS = rootsys.simple_generators(build_d4())


@given(st.dictionaries(st.integers(1, 12), st.sampled_from(SIGNED_PERMUTATIONS), max_size=4))
@example(D4_GENERATORS)
@example({i: D4_GENERATORS[i] for i in (1, 2, 3)})
def test_closure_matches_compose_reference(gens):
    # same keys, same words, same order
    assert list(rootsys.enumerate_group(gens).items()) == list(_reference_closure(gens).items())


def test_closure_reaches_all_signed_permutations(gens):
    # the D4 reflections and the sign change of e_4 generate B4, all 2^4 * 4! elements
    b4 = {**gens, 4: TSignedPerm((0, 1, 2, 3), (1, 1, 1, -1))}
    group = rootsys.enumerate_group(b4)
    assert len(group) == 384
    assert set(group) == set(SIGNED_PERMUTATIONS)


def test_pipeline_builds_the_group_and_the_orbit_once(monkeypatch):
    # the full group and the stabilizer are the only closures; the word table,
    # the orbit size and the orbit classes all read one orbit of root 1
    calls = {"enumerate_group": 0, "orbit": 0}
    for name in calls:
        def counted(*args, _build=getattr(rootsys, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(rootsys, name, counted)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    assert calls == {"enumerate_group": 2, "orbit": 1}


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
    # the images are exactly the 24 roots +-alpha
    orb = rootsys.orbit(group, rs[1])
    assert len(orb) == 24
    full = set(rs.values()) | {tuple(-x for x in a) for a in rs.values()}
    assert set(orb) == full


def test_orbit_of_identity(rs):
    v = (3, 1, 4, 1)
    assert rootsys.orbit(rootsys.enumerate_group({}), v) == {v: ()}


def test_orbit_words_are_least_by_brute_force(rs, gens, group):
    # each image's word is the least (length, word) over all 192 elements that
    # carry root 1 there, and that word's product does carry it there
    orb = rootsys.orbit(group, rs[1])
    for image, word in orb.items():
        least = min((len(u), u) for w, u in group.items() if w.apply(rs[1]) == image)
        assert (len(word), word) == least
        assert element_from_word(word, gens).apply(rs[1]) == image


def test_word_table(rs, group):
    # the printed words are the derived ones, and root 1 has the empty word
    orb = rootsys.orbit(group, rs[1])
    assert {i: orb[a] for i, a in rs.items()} == {1: (), **WORD_TABLE}


def test_words_replay_to_elements(rs, gens, group):
    for w, word in group.items():
        assert element_from_word(word, gens) == w


def test_even_sign_invariant(group):
    assert all(math.prod(w.signs) == 1 for w in group)


def test_group_closure_and_inverses(group):
    assert {compose(w, v) for w in group for v in group} == set(group)
    for w in group:
        assert any(compose(w, v) == IDENTITY for v in group)


def test_roots_permuted_by_group(rs, group):
    full = set(rs.values()) | {tuple(-x for x in a) for a in rs.values()}
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
    assert simple == [rs[i] for i in (1, 2, 3, 9)]
    assert rootsys.SIMPLE_INDICES == (1, 2, 3, 9)


def test_all_roots_match_sympy(rs, group):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    roots = [tuple(r) for r in root_system.RootSystem("D4").all_roots().values()]
    assert len(roots) == 24
    assert set(roots) == set(rootsys.orbit(group, rs[1]))


def test_group_order_matches_sympy(group):
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    assert int(weyl_group.WeylGroup("D4").group_order()) == len(group) == 192
