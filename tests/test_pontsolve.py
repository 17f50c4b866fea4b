import pytest

from d4check import cohomring as ch
from d4check import pontsolve as ps
from d4check.cohomring import t_actions
from d4check.rootsys import build_d4, compose, enumerate_group, simple_cartan_matrix


@pytest.fixture(scope="module")
def cartan():
    return simple_cartan_matrix(build_d4())


@pytest.fixture(scope="module")
def acts(cartan):
    return t_actions(cartan)


@pytest.fixture(scope="module")
def classes(acts):
    return ps.orbit_classes(acts)


def test_base_class_is_generic(classes):
    assert classes[1] == ps.generic_class()


def test_orbit_class_for_second_root(classes):
    # at k1=k2=k this is k3*t1 + k*t2 + k*t3 + k4*t4
    got = [ps._substitute(f, False) for f in classes[2]]
    assert got == [
        (0, 1, 0),
        (1, 0, 0),
        (1, 0, 0),
        (0, 0, 1),
    ]


def test_orbit_class_for_seventh_root(classes):
    # k*t1 - k*t2 + k3*t3 - k4*t4
    got = [ps._substitute(f, False) for f in classes[7]]
    assert got == [
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, 0, -1),
    ]


def test_full_orbit_table(classes):
    assert all(ps.check_orbit_table(classes).values())


def test_focal_table(classes):
    assert all(ps.check_focal_table(classes).values())


def test_pullback_roundtrip(acts, classes):
    # applying a word then its reverse returns every class unchanged
    for idx, word in ps.ORBIT_WORDS.items():
        cls = classes[idx]
        for label in word:
            cls = ps.apply_pullback(acts[label], cls)
        for label in reversed(word):
            cls = ps.apply_pullback(acts[label], cls)
        assert cls == classes[idx]


def test_pullback_and_substitution_act_on_the_left(acts):
    # orbit_classes pulls back once by element_from_word(word), the composite
    # with the rightmost generator applied first; that equals pulling back
    # generator by generator only if each action is a left action
    group = enumerate_group(acts)
    assert len(group) == 192
    generic = ps.generic_class()
    p = ch.elementary_symmetric(2) * ch.theta(1)
    for a in acts.values():
        for b in group:
            ab = compose(a, b)
            assert ps.apply_pullback(ab, generic) == ps.apply_pullback(a, ps.apply_pullback(b, generic))
            assert ch.act_on_polynomial(ab, p) == ch.act_on_polynomial(a, ch.act_on_polynomial(b, p))


def test_leaf_sphere_constraint():
    eq = ps.leaf_sphere_constraint()
    assert eq.coeffs == (1, -1, 0, 0)


def test_sum_zero_constraints(classes):
    eqs = ps.sum_zero_constraint(classes)
    # t1 column: 6k + 6k3, the equation that forces k3 = -k
    assert eqs[0].coeffs == (6, 0, 6, 0)
    # t2 and t3 columns are scalar multiples of it (redundant after k3 = -k)
    assert eqs[1].coeffs == (4, 0, 4, 0)
    assert eqs[2].coeffs == (2, 0, 2, 0)
    # t4 column cancels identically
    assert eqs[3].is_trivial()


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
    basis = ps.solve(eqs)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] != 0 and v == [v[0] * x for x in (1, 1, -1, -1)]


def test_solution_annihilates_every_constraint(acts, classes):
    eqs = ps.assemble_constraints(classes, acts, include_symmetry=True)
    v = [1, 1, -1, -1]
    for eq in eqs:
        assert sum(c * x for c, x in zip(eq.coeffs, v)) == 0


def test_without_symmetry_dimension_two(acts, classes):
    eqs = ps.assemble_constraints(classes, acts, include_symmetry=False)
    basis = ps.solve(eqs)
    assert len(basis) == 2
    # the plane is { (k, k, -k, k4) }
    for v in basis:
        assert v[0] == v[1] and v[2] == -v[0]


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
