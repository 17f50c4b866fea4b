import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from d4check import cohomring as ch
from d4check import obstruct
from d4check import pontsolve as ps
from d4check.rootsys import WORD_TABLE, act, build_d4, enumerate_group, simple_cartan_matrix, simple_generators
from signed_perms import ALL_SIGNED_PERMS, BY_CODE, apply, code, compose, element_from_word

#: each root's word as printed; root 1 has the empty word
WORDS = {1: (), **WORD_TABLE}


@pytest.fixture(scope="module")
def cartan():
    return simple_cartan_matrix(build_d4())


@pytest.fixture(scope="module")
def acts():
    # t is e, so the simple reflections are the actions on t1..t4
    return simple_generators(build_d4())


@pytest.fixture(scope="module")
def classes():
    return obstruct.Run().classes


def test_base_class_is_generic(classes):
    # k1*t1 + k2*t2 + k3*t3 + k4*t4: the identity code
    assert classes[1] == (1, 2, 3, 4)


def test_orbit_class_for_second_root(classes):
    # k3*t1 + k1*t2 + k2*t3 + k4*t4; at k1=k2=k this is k3*t1 + k*t2 + k*t3 + k4*t4
    assert classes[2] == (3, 1, 2, 4)
    assert [ps._AFTER_LEAF_SYMBOLS[a] for a in classes[2]] == ["k3", "k", "k", "k4"]


def test_orbit_class_for_seventh_root(classes):
    # k1*t1 - k2*t2 + k3*t3 - k4*t4; at k1=k2=k this is k*t1 - k*t2 + k3*t3 - k4*t4
    assert classes[7] == (1, -2, 3, -4)
    assert [ps._AFTER_LEAF_SYMBOLS[a] for a in classes[7]] == ["k", "-k", "k3", "-k4"]


def _printed(a, k3_is_minus_k):
    """Reference: the table symbol of k_|a|, negated for a < 0, once k1 = k2 = k, and k3 = -k if asked."""
    name, negated = {1: "k", 2: "k", 3: "k3", 4: "k4"}[abs(a)], a < 0
    if k3_is_minus_k and name == "k3":
        name, negated = "k", not negated
    return "-" * negated + name


@pytest.mark.parametrize("symbols, k3_is_minus_k", [(ps._AFTER_LEAF_SYMBOLS, False), (ps._FOCAL_SYMBOLS, True)])
def test_symbol_tuples_print_each_signed_unknown(symbols, k3_is_minus_k):
    # every code entry, also those no class of the D4 data has, such as -3
    entries = (1, 2, 3, 4, -4, -3, -2, -1)
    assert [symbols[a] for a in entries] == [_printed(a, k3_is_minus_k) for a in entries]


def test_full_orbit_table(classes):
    assert all(ps.check_orbit_table(classes).values())


def test_focal_table(classes):
    assert all(ps.check_focal_table(classes).values())


def _word_element(word, acts):
    """The code of the word's product, multiplied by the reference."""
    return code(element_from_word(word, {label: BY_CODE[g] for label, g in acts.items()}))


def test_classes_are_pullbacks_by_the_word_elements(acts, classes):
    # a run's class for each root is the code of its printed word's product
    assert list(classes) == list(range(1, 13))
    for idx, word in WORDS.items():
        assert classes[idx] == _word_element(word, acts)


def test_group_elements_are_the_letter_by_letter_pullbacks(acts):
    # the generic class pulled back one letter at a time, rightmost first, by the
    # reference action is the element that the closure keeps with the word
    group = enumerate_group(acts)
    assert len(group) == 192
    ref = {label: BY_CODE[g] for label, g in acts.items()}
    for w, word in group.items():
        cls = (1, 2, 3, 4)
        for label in reversed(word):
            cls = apply(ref[label], cls)
        assert cls == w


def test_run_classes_read_the_group_words(classes):
    # root i's class carries root 1 to root i, and its word is the run's word for root i
    run = obstruct.Run()
    assert list(classes) == list(run.rs)
    for i, w in classes.items():
        assert run.group[w] == run.words[i]
        assert act(w, run.rs[1]) == run.rs[i]


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.integers()] * 4))
def test_pullback_places_each_form(v):
    # the pullback of a class, and the symmetry rows' action on each unknown's
    # t-vector, is rootsys.act: the reference's action of each signed permutation
    assert len(set(ALL_SIGNED_PERMS)) == 384
    for sp in ALL_SIGNED_PERMS:
        assert act(code(sp), v) == apply(sp, v)


def test_pullback_roundtrip(acts, classes):
    # applying a word then its reverse returns every class unchanged
    for idx, word in WORDS.items():
        cls = classes[idx]
        for label in word:
            cls = act(acts[label], cls)
        for label in reversed(word):
            cls = act(acts[label], cls)
        assert cls == classes[idx]


def test_pullback_and_substitution_act_on_the_left(acts):
    # the closure builds a word's element one generator at a time, from the
    # right of the word; pulling back by that product equals pulling back
    # generator by generator only if each action is a left action
    group = enumerate_group(acts)
    assert len(group) == 192
    generic = (1, 2, 3, 4)
    p = ch.expand((1, ch.elementary_symmetric(2), ch.theta(1)))
    for a in acts.values():
        for b in group:
            ab = code(compose(BY_CODE[a], BY_CODE[b]))
            assert act(ab, generic) == act(a, act(b, generic)) == ab
            assert ch.act_on_polynomial(ab, p) == ch.act_on_polynomial(a, ch.act_on_polynomial(b, p))


def test_leaf_sphere_constraint():
    assert ps.leaf_sphere_constraint() == (1, -1, 0, 0)


def test_sum_zero_constraints(classes):
    rows = ps.sum_zero_constraint(classes)
    # t1 column: 6k + 6k3, the row that forces k3 = -k
    assert rows[0] == (6, 0, 6, 0)
    # t2 and t3 columns are scalar multiples of it (redundant after k3 = -k)
    assert rows[1] == (4, 0, 4, 0)
    assert rows[2] == (2, 0, 2, 0)
    # t4 column cancels identically
    assert rows[3] == (0, 0, 0, 0)


def test_symmetry_rows(acts, classes):
    # stabilizer generator g swaps t_g and t_{g+1}, so of its four rows (image
    # minus focal sum, per t coefficient) those two are -(1, 1, 1, 1) and
    # (1, 1, 1, 1), and the other two vanish
    rows = ps.symmetry_constraint(classes, acts)
    assert len(rows) == 12
    for g in (1, 2, 3):
        expected = [(0, 0, 0, 0)] * 4
        expected[g - 1], expected[g] = (-1, -1, -1, -1), (1, 1, 1, 1)
        assert rows[4 * (g - 1):4 * g] == expected


def test_constraint_system_rows(acts, classes):
    # leaf row, four sum-zero rows, twelve symmetry rows; seven of them vanish
    rows = ps.assemble_constraints(classes, acts)
    groups = [ps.leaf_sphere_constraint()], ps.sum_zero_constraint(classes), ps.symmetry_constraint(classes, acts)
    assert rows == [row for group in groups for row in group]
    assert len(rows) == 17
    assert sum(not any(row) for row in rows) == 7
    assert len(ps.assemble_constraints(classes, acts, include_symmetry=False)) == 5


def test_focal_sum_factors(classes):
    # with k3 = -k folded in, the focal sum is -(k + k4)(t2 + 2 t3 + 3 t4)
    fsum = ps.focal_sum_reduced(classes)
    assert fsum == [
        (0, 0, 0),
        (-1, 0, -1),
        (-2, 0, -2),
        (-3, 0, -3),
    ]


def test_symmetry_constraints_reduce_to_k4(acts, classes):
    # together with the other constraints, symmetry forces k4 = -k
    eqs = ps.assemble_constraints(classes, acts, include_symmetry=True)
    assert ps.solve(eqs) == (1, (-1, -1, 1, 1))


def test_solution_annihilates_every_constraint(acts, classes):
    v = [1, 1, -1, -1]
    for row in ps.assemble_constraints(classes, acts, include_symmetry=True):
        assert sum(c * x for c, x in zip(row, v)) == 0


def test_without_symmetry_dimension_two(acts, classes):
    eqs = ps.assemble_constraints(classes, acts, include_symmetry=False)
    assert ps.solve(eqs) == (2, None)
    # so the solutions are the plane { (k, k, -k, k4) } that these two span
    for v in [(1, 1, -1, 0), (0, 0, 0, 1)]:
        assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in eqs)


def test_lemma8_classes(cartan, acts, classes):
    euler, p1_unit = ps.lemma8_classes(cartan, ps.solve(ps.assemble_constraints(classes, acts)))
    assert euler == (2, -1, 0, 0)
    assert p1_unit == (0, 2, 0, -2)


def test_focal_sum_vanishes_at_solution(classes):
    # substituting k1=k2=k, k3=k4=-k kills the focal sum entirely
    total = ps.focal_sum(classes)
    sol = [1, 1, -1, -1]
    for form in total:
        assert sum(c * x for c, x in zip(form, sol)) == 0


# ---------------------------------------------------------------------------
# Oracles for the cofactor solve on 4-column integer matrices.

matrices = st.lists(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 4), min_size=1, max_size=6)

#: one matrix of each rank 0..4
RANK_EXAMPLES = [
    [(0, 0, 0, 0)],
    [(0, 2, 0, -4), (0, -1, 0, 2)],
    [(1, 2, 0, 0), (2, 4, 0, 1), (3, 6, 0, 1)],
    [(1, -1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (2, -1, 1, 0)],
    [(0, 0, 0, 1), (1, -1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)],
]


def _rational_nullspace(m):
    """Reference: reduced row echelon form over Fractions, one vector per free column."""
    a = [[Fraction(x) for x in row] for row in m]
    n_cols = len(a[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def _assert_solves_like(m, reference):
    """``solve(m)`` has the dimension of the reference basis and, at dimension 1, its line."""
    dimension, line = ps.solve(m)
    assert dimension == len(reference)
    if dimension != 1:
        assert line is None
        return
    (r,) = reference
    assert all(type(x) is int for x in line)
    assert math.gcd(*line) == 1
    assert all(line[i] * r[j] == line[j] * r[i] for i in range(4) for j in range(4))
    assert [x for x in line if x][-1] > 0


def test_rank_examples_cover_every_dimension():
    assert [len(_rational_nullspace(m)) for m in RANK_EXAMPLES] == [4, 3, 2, 1, 0]


@given(matrices)
@example(RANK_EXAMPLES[0])
@example(RANK_EXAMPLES[1])
@example(RANK_EXAMPLES[2])
@example(RANK_EXAMPLES[3])
@example(RANK_EXAMPLES[4])
def test_solve_matches_rational_reference(m):
    _assert_solves_like(m, _rational_nullspace(m))


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_solve_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    _assert_solves_like(m, [list(v) for v in sympy.Matrix(m).nullspace()])


@pytest.mark.parametrize("disable_symmetry", [False, True])
def test_constraint_system_matches_sympy(disable_symmetry):
    sympy = pytest.importorskip("sympy")
    run = obstruct.Run(disable_symmetry=disable_symmetry)
    rows = ps.assemble_constraints(run.classes, run.gens, include_symmetry=not disable_symmetry)
    _assert_solves_like(rows, [list(v) for v in sympy.Matrix(rows).nullspace()])
