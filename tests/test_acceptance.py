"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact integer arithmetic; there are no tolerances to
tune.
"""

import json

import pytest

from d4check import cohomring as ch
from d4check import obstruct, pontsolve as ps, rootsys, vect4
from d4check.cli import main as cli_main
from d4check.rootsys import SIMPLE_INDICES, build_d4
from signed_perms import BY_CODE, apply


@pytest.fixture(scope="module")
def rs():
    return build_d4()


@pytest.fixture(scope="module")
def gens(rs):
    return rootsys.simple_generators(rs)


@pytest.fixture(scope="module")
def cartan(rs):
    return rootsys.simple_cartan_matrix(rs)


@pytest.fixture(scope="module")
def classes(rs, gens):
    # each root's class is the orbit element that carries root 1 to it
    orbit = rootsys.orbit(rootsys.enumerate_group(gens), rs[1])
    return {i: orbit[a] for i, a in rs.items()}


def report(name, ok):
    print(f"acceptance {'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_criterion_01_group_orders(rs, gens):
    full = rootsys.enumerate_group(gens)
    b = (1, 1, 1, 1)
    # the stabilizer of b is the subgroup generated by 1, 2 and 3: the words avoiding 9
    fixers = [w for w in full if apply(BY_CODE[w], b) == b]
    report("1. group order 192 / stabilizer order 24",
           len(full) == 192 and len(fixers) == 24 and fixers == [w for w, word in full.items() if 9 not in word])


def test_criterion_02_cartan_matrix(rs):
    expected = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    report("2. simple Cartan matrix", rootsys.simple_cartan_matrix(rs) == expected)


def test_criterion_03_word_table_and_orbit(rs, gens):
    group = rootsys.enumerate_group(gens)
    orbit = rootsys.orbit(group, rs[1])
    words_ok = all(group.get(orbit.get(rs[i])) == word for i, word in rootsys.WORD_TABLE.items())
    report("3. word table (11 shortlex-least words) and root orbit of size 24",
           words_ok and len(orbit) == 24)


def test_criterion_04_t_actions_and_duality():
    run = obstruct.Run()
    actions_ok = run.gens == obstruct.EXPECTED_T_ACTIONS
    # omega_from_t carries each reflection's action on t1..t4 to (3-3)
    intertwine_ok = all(
        ch.omega_from_t(apply(BY_CODE[g], e)) == ch.cohomology_action_omega(run.cartan, i, ch.omega_from_t(e))
        for i, g in run.gens.items()
        for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    # each pushed b_k is root k in simple-root coordinates
    duality_ok = all(
        tuple(sum(x * run.rs[j][t] for x, j in zip(b, SIMPLE_INDICES)) for t in range(4)) == run.rs[k]
        for k, (_, b) in run.pushed.items()
    )
    report("4. reflections match the table and intertwine with (3-3); pushed b_k is root k",
           actions_ok and intertwine_ok and duality_ok)


def test_criterion_05_theta_identities():
    report("5. three theta identities are literal zero polynomials",
           all(ch.verify_theta_identities(*obstruct.Run().invariants).values()))


def test_criterion_06_invariance_suite(gens):
    full = list(gens.values())
    stab = [gens[1], gens[2], gens[3]]
    ok = (
        all(ch.is_invariant(ch.theta(i), full) for i in range(1, 4))
        and ch.is_invariant(ch.elementary_symmetric(4), full)
        and all(ch.is_invariant(ch.elementary_symmetric(i), stab) for i in range(1, 5))
        and not ch.is_invariant(ch.elementary_symmetric(1), [gens[9]])
    )
    report("6. invariance suite", ok)


def test_criterion_07_orbit_tables(classes):
    t42 = all(ps.check_orbit_table(classes).values())
    t43 = all(ps.check_focal_table(classes).values())
    fsum = ps.focal_sum_reduced(classes)
    # -(k + k4)(t2 + 2 t3 + 3 t4)
    fsum_ok = fsum == [(0, 0, 0), (-1, 0, -1), (-2, 0, -2), (-3, 0, -3)]
    report("7. orbit class tables and factored focal sum", t42 and t43 and fsum_ok)


def test_criterion_08_solver(gens, classes):
    full = ps.solve(ps.assemble_constraints(classes, gens, include_symmetry=True))
    partial = ps.solve(ps.assemble_constraints(classes, gens, include_symmetry=False))
    report("8. solver: line span{(1,1,-1,-1)}; dimension 2 without symmetry",
           full == (1, (-1, -1, 1, 1)) and partial == (2, None))


def test_criterion_09_bundle_classes(cartan, gens, classes):
    solved = ps.solve(ps.assemble_constraints(classes, gens))
    euler, p1_unit = ps.lemma8_classes(cartan, solved)
    report("9. Euler class (2,-1,0,0) and Pontryagin class 2k(w2 - w9)",
           euler == (2, -1, 0, 0) and p1_unit == (0, 2, 0, -2))


def test_criterion_10_sphere_bundle_arithmetic():
    t, g = vect4.tau(), vect4.gamma()
    gen_ok = (
        t == (2, 0)
        and g == (1, -2)
        and vect4.is_realizable(*t)
        and vect4.is_realizable(*g)
        and not vect4.is_realizable(1, 0)
    )
    roundtrip_ok = all(
        vect4.decompose(vect4.compose(n, m)) == (n, m)
        for n in range(-10, 11)
        for m in range(-10, 11)
    )
    window_ok = all(vect4.verify_exact_sequence(20).values())
    report("10. sphere-bundle arithmetic, decompose round trip, window checks",
           gen_ok and roundtrip_ok and window_ok)


def test_criterion_11_theorem(capsys):
    rep = obstruct.theorem_pipeline()
    restr = next(c for c in rep.checks if c.id == "leaf-restrictions")
    cong = next(c for c in rep.checks if c.id == "congruence-obstruction")
    pipeline_ok = (
        rep.theorem_status == "OBSTRUCTED"
        and restr.status == "pass"
        and cong.status == "pass"
        and "[1, 3]" in cong.detail
        and "[0, 2]" in cong.detail
        and "intersection []" in cong.detail
    )
    exit_code = cli_main(["verify-all", "--format", "json"])
    capsys.readouterr()
    report("11. theorem pipeline: OBSTRUCTED with exit code 0",
           pipeline_ok and exit_code == 0)


def test_criterion_12_determinism(capsys):
    cli_main(["verify-all", "--format", "json"])
    out1 = capsys.readouterr().out
    cli_main(["verify-all", "--format", "json"])
    out2 = capsys.readouterr().out
    ok = out1 == out2 and json.loads(out1)["schema"] == 1
    report("12. byte-identical consecutive JSON reports", ok)
