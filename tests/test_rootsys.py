import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from d4check import cohomring, obstruct, pontsolve, rootsys, vect4
from d4check.obstruct import EXPECTED_CARTAN
from d4check.rootsys import WORD_TABLE, build_d4, inner
from signed_perms import ALL_SIGNED_PERMS, BY_CODE, IDENTITY, WORD_SETS, apply, code, compose, element_from_word
from signed_perms import reflection as reference_reflection


@pytest.fixture(scope="module")
def rs():
    return build_d4()


@pytest.fixture(scope="module")
def gens(rs):
    return rootsys.simple_generators(rs)


@pytest.fixture(scope="module")
def ref_gens(rs):
    # the reference's own reflections, as (perm, signs) pairs
    return {i: reference_reflection(rs, i) for i in rootsys.SIMPLE_INDICES}


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
    s1, s9 = BY_CODE[gens[1]], BY_CODE[gens[9]]
    assert apply(s1, e1) == e2 and apply(s1, e2) == e1
    assert apply(s9, e3) == (0, 0, 0, -1) and apply(s9, e4) == (0, 0, -1, 0)


def test_reflections_are_involutions(rs):
    for i in rs:
        s = BY_CODE[rootsys.reflection(rs, i)]
        assert compose(s, s) == IDENTITY


def test_apply_examples(rs, gens):
    a1 = rs[1]
    assert apply(BY_CODE[gens[2]], a1) == rs[4]
    w = compose(BY_CODE[gens[9]], BY_CODE[gens[2]])
    assert apply(w, a1) == rs[12]
    assert apply(IDENTITY, a1) == a1


def test_group_order(group):
    assert len(group) == 192


@given(st.lists(st.integers(), min_size=4, max_size=4, unique=True))
@example([1, 2, 3, 4])
def test_images_match_the_reference_action(v):
    # four distinct entries, so an image that reads one entry for another differs;
    # the certificate's own vectors (1,1,1,1) and root 1 repeat an entry
    v = tuple(v)
    assert rootsys.images([code(w) for w in ALL_SIGNED_PERMS], v) == [apply(w, v) for w in ALL_SIGNED_PERMS]
    assert rootsys.images({}, v) == []


@given(WORD_SETS)
@example({5: (2, 1, 3, 2), 4: (1, 3, 2), 3: (1, 3, 2), 2: (9,), 1: ()})
def test_along_words_steps_once_per_word_or_tail(words):
    # a step that prepends its letter rebuilds each word; every distinct
    # nonempty word or tail is stepped once, the rightmost letter first
    steps = []

    def step(label, x):
        steps.append((label, *x))
        return (label, *x)

    assert rootsys.along_words(words, (), step) == words
    assert list(rootsys.along_words(words, (), lambda label, x: x)) == list(words)
    assert sorted(steps) == sorted({w[k:] for w in words.values() for k in range(len(w))})
    assert all(s[1:] in steps[:n] for n, s in enumerate(steps) if len(s) > 1)


def test_compose_is_the_action(group):
    v = (1, 2, 3, 4)
    pairs = [BY_CODE[w] for w in group]
    for g in pairs:
        for h in pairs:
            assert apply(compose(g, h), v) == apply(g, apply(h, v))


def _reflection_or_message(reflection, alpha):
    try:
        return reflection({1: alpha}, 1)
    except ValueError as exc:
        return str(exc)


def test_reflection_matches_the_reference_on_every_small_vector():
    # every integer 4-tuple with entries in -3..3: the same signed permutation, or the same message
    outcomes = {}
    for alpha in itertools.product(range(-3, 4), repeat=4):
        got = _reflection_or_message(rootsys.reflection, alpha)
        expected = _reflection_or_message(reference_reflection, alpha)
        assert got == (expected if isinstance(expected, str) else code(expected)), alpha
        outcomes[type(got)] = outcomes.get(type(got), 0) + 1
    assert outcomes == {tuple: 96, str: 2401 - 96}


def test_named_sets_are_read_off_the_base_point(rs, gens):
    # the stabilizer labels are the simple roots orthogonal to the base point, the focal
    # labels the positive roots that are not, and only generator 9 moves the point
    point = rootsys.BASE_POINT
    assert rootsys.STABILIZER_INDICES == tuple(i for i in rootsys.SIMPLE_INDICES if inner(rs[i], point) == 0)
    assert list(rootsys.FOCAL_INDICES) == [i for i, root in rs.items() if inner(root, point) != 0]
    assert all(apply(BY_CODE[gens[i]], point) == point for i in rootsys.STABILIZER_INDICES)
    assert apply(BY_CODE[gens[9]], point) != point


def test_stabilizer_subgroup(rs, gens):
    sub = rootsys.enumerate_group({i: gens[i] for i in (1, 2, 3)})
    assert len(sub) == 24
    b = (1, 1, 1, 1)
    assert all(apply(BY_CODE[w], b) == b for w in sub)


def test_stabilizer_is_exact(rs, gens, group):
    # nothing outside the order-24 subgroup fixes the chamber-edge point
    b = (1, 1, 1, 1)
    fixers = [w for w in group if apply(BY_CODE[w], b) == b]
    assert len(fixers) == 24


@pytest.mark.parametrize(
    "point, order",
    [((1, 1, 1, 1), 24), ((1, 1, 1, 0), 6), ((2, 1, 0, 0), 4), ((1, 1, 1, -1), 24), ((3, 2, 1, 0), 1)],
)
def test_stabilizer_is_the_parabolic_subgroup(rs, group, point, order):
    # a point of the closed chamber is fixed exactly by the elements whose
    # reduced word uses only the simple reflections orthogonal to it
    letters = {i for i in rootsys.SIMPLE_INDICES if inner(rs[i], point) == 0}
    fixers = [w for w in group if apply(BY_CODE[w], point) == point]
    assert len(fixers) == order
    assert fixers == [w for w, word in group.items() if set(word) <= letters]


def test_empty_generator_set():
    assert rootsys.enumerate_group({}) == {(1, 2, 3, 4): ()}


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


D4_GENERATORS = {i: reference_reflection(build_d4(), i) for i in (1, 2, 3, 9)}


# all 384 signed permutations of four coordinates, odd sign changes included
@given(st.dictionaries(st.integers(1, 12), st.sampled_from(ALL_SIGNED_PERMS), max_size=4))
@example(D4_GENERATORS)
@example({i: D4_GENERATORS[i] for i in (1, 2, 3)})
def test_closure_matches_compose_reference(gens):
    # the same elements, read through code, with the same words in the same order
    group = rootsys.enumerate_group({label: code(g) for label, g in gens.items()})
    assert list(group.items()) == [(code(w), word) for w, word in _reference_closure(gens).items()]


def test_closure_reaches_all_signed_permutations(gens):
    # the D4 reflections and the sign change of e_4 generate B4, all 2^4 * 4! elements
    b4 = {**gens, 4: (1, 2, 3, -4)}
    group = rootsys.enumerate_group(b4)
    assert len(group) == 384
    assert set(group) == set(BY_CODE)


def test_pipeline_builds_the_group_and_the_orbit_once(monkeypatch):
    # the full group is the only closure, and the stabilizer is read off it; the
    # word table, the orbit size and the orbit classes all read one orbit of root 1;
    # the group is applied in two sweeps, to root 1 and to (1,1,1,1)
    calls = {"enumerate_group": 0, "orbit": 0, "images": 0}
    for name in calls:
        def counted(*args, _build=getattr(rootsys, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(rootsys, name, counted)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    assert calls == {"enumerate_group": 1, "orbit": 1, "images": 2}


def test_pipeline_computes_only_the_simple_cartan_numbers(monkeypatch):
    # the 16 entries of the simple Cartan matrix; every other pairing of
    # roots comes from the classes pushed along the orbit words
    calls = []

    def counted(*args, _build=rootsys.cartan_number):
        calls.append(args)
        return _build(*args)

    for module in (rootsys, cohomring, pontsolve, vect4, obstruct):
        if hasattr(module, "cartan_number"):
            monkeypatch.setattr(module, "cartan_number", counted)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    assert len(calls) == 16


def test_orbit_of_first_root(rs, group):
    # the images are exactly the 24 roots +-alpha
    orb = rootsys.orbit(group, rs[1])
    assert len(orb) == 24
    full = set(rs.values()) | {tuple(-x for x in a) for a in rs.values()}
    assert set(orb) == full


def test_orbit_of_identity(rs):
    v = (3, 1, 4, 1)
    assert rootsys.orbit(rootsys.enumerate_group({}), v) == {v: (1, 2, 3, 4)}


def test_orbit_words_are_least_by_brute_force(rs, ref_gens, group):
    # each image's element carries root 1 there and has the least (length, word)
    # over all 192 elements that do, and that word's product carries it there too
    orb = rootsys.orbit(group, rs[1])
    for image, element in orb.items():
        word = group[element]
        assert apply(BY_CODE[element], rs[1]) == image
        least = min((len(u), u) for w, u in group.items() if apply(BY_CODE[w], rs[1]) == image)
        assert (len(word), word) == least
        assert apply(element_from_word(word, ref_gens), rs[1]) == image


def test_word_table(rs, group):
    # the printed words are the derived ones, and root 1 has the empty word
    orb = rootsys.orbit(group, rs[1])
    assert {i: group[orb[a]] for i, a in rs.items()} == {1: (), **WORD_TABLE}


def test_words_replay_to_elements(rs, ref_gens, group):
    for w, word in group.items():
        assert code(element_from_word(word, ref_gens)) == w


def test_even_sign_invariant(group):
    assert all(math.prod(BY_CODE[w].signs) == 1 for w in group)


def test_group_closure_and_inverses(group):
    pairs = {BY_CODE[w] for w in group}
    assert {compose(w, v) for w in pairs for v in pairs} == pairs
    for w in pairs:
        assert any(compose(w, v) == IDENTITY for v in pairs)


def test_roots_permuted_by_group(rs, group):
    full = set(rs.values()) | {tuple(-x for x in a) for a in rs.values()}
    for w in group:
        assert {apply(BY_CODE[w], a) for a in full} == full


# signed permutations are linear, so integer vectors check the same property
# as rational ones
coordinate = st.integers(-70, 70)
vectors = st.tuples(coordinate, coordinate, coordinate, coordinate)


@given(vectors, vectors, st.integers(min_value=0, max_value=191))
def test_group_acts_by_isometries(group, u, v, n):
    w = BY_CODE[list(group)[n]]
    assert inner(apply(w, u), apply(w, v)) == inner(u, v)


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
