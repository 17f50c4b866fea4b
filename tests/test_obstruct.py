import inspect
import sys

import pytest
from hypothesis import example, given, settings

from d4check import cohomring, obstruct, pontsolve, rootsys, vect4
from signed_perms import WORD_SETS


def test_restrict_euler_to_second_sphere():
    # a class restricts to leaf sphere j as its pairing with b_j
    e = (2, -1, 0, 0)
    assert cohomring.kronecker(e, cohomring.unit(2)) == -1
    assert cohomring.kronecker(e, cohomring.unit(9)) == 0
    assert cohomring.kronecker((1, 0, 0, 0), cohomring.unit(1)) == 1


def test_restrict_p1_unit():
    p1 = (0, 2, 0, -2)
    assert cohomring.kronecker(p1, cohomring.unit(2)) == 2
    assert cohomring.kronecker(p1, cohomring.unit(9)) == -2


def test_restrict_rejects_nonsimple():
    with pytest.raises(ValueError):
        cohomring.kronecker((1, 0, 0, 0), cohomring.unit(4))


def test_details_render_integers():
    # every computed number is an int, so str renders it exactly
    details = {c.id: c.detail for c in obstruct.theorem_pipeline().checks}
    assert details["pontryagin-solver"] == "nullspace basis [[-1, -1, 1, 1]]"
    assert details["bundle-classes"] == "euler (2, -1, 0, 0), p1 per unit k (0, 2, 0, -2)"
    assert details["focal-table"].endswith("focal sum [(0, 0, 0), (-1, 0, -1), (-2, 0, -2), (-3, 0, -3)]")


def test_pipeline_obstructed():
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "OBSTRUCTED"
    assert rep.all_passed()
    assert [c.id for c in rep.checks if c.status == "fail"] == []


def test_pipeline_check_ids_are_unique_and_known():
    rep = obstruct.theorem_pipeline()
    ids = [c.id for c in rep.checks]
    assert len(ids) == len(set(ids))
    non_errata = [c.id for c in rep.checks if c.status != "noted-erratum"]
    assert set(non_errata) <= set(obstruct.CHECK_IDS)


def test_pipeline_congruence_detail():
    rep = obstruct.theorem_pipeline()
    rec = next(c for c in rep.checks if c.id == "congruence-obstruction")
    assert rec.status == "pass"
    assert "[1, 3]" in rec.detail and "[0, 2]" in rec.detail
    assert "intersection []" in rec.detail


def test_pipeline_each_congruence_alone_is_satisfiable():
    # the contradiction needs both leaf spheres: each congruence has solutions
    for a, b in obstruct.Run().pairs:
        assert vect4.leaf_congruence(a, b)[1] != []


#: root label -> (Euler, p1 per unit k) of the Lemma 8 bundle on that root's pushed
#: b_k, and the residues k mod 4 that leave the pair realizable
LEAF_SPHERE_TABLE = {
    1: ((2, 0), [0, 1, 2, 3]),
    2: ((-1, 2), [1, 3]),
    3: ((0, 0), [0, 1, 2, 3]),
    4: ((1, 2), [1, 3]),
    5: ((-1, 2), [1, 3]),
    6: ((1, 2), [1, 3]),
    7: ((0, 2), [0, 2]),
    8: ((-1, 0), []),
    9: ((0, -2), [0, 2]),
    10: ((1, 0), []),
    11: ((-1, 0), []),
    12: ((1, 0), []),
}


def test_bundle_on_every_pushed_leaf_class():
    # the certificate reads only roots 2 and 9; this pins what the model gives on all twelve
    run = obstruct.Run()
    euler, p1_unit = run.bundle
    table = {}
    for k, (_, b) in run.pushed.items():
        pair = cohomring.kronecker(euler, b), cohomring.kronecker(p1_unit, b)
        table[k] = pair, vect4.leaf_congruence(*pair)[1]
    assert table == LEAF_SPHERE_TABLE


def test_pipeline_without_symmetry_is_inconclusive():
    rep = obstruct.theorem_pipeline(disable_symmetry=True)
    assert rep.theorem_status == "INCONCLUSIVE"
    solver = next(c for c in rep.checks if c.id == "pontryagin-solver")
    assert solver.status == "pass"
    assert "dimension 2" in solver.detail
    ran = {c.id for c in rep.checks}
    assert [i for i in obstruct.CHECK_IDS if i not in ran] == [
        "bundle-classes",
        "generator-pairs",
        "exact-sequence-window",
        "leaf-restrictions",
        "congruence-obstruction",
    ]


def test_pipeline_skip_window_keeps_theorem():
    rep = obstruct.theorem_pipeline(skip_window=True)
    assert rep.theorem_status == "OBSTRUCTED"
    ran = {c.id for c in rep.checks}
    assert [i for i in obstruct.CHECK_IDS if i not in ran] == ["exact-sequence-window"]


def test_pipeline_is_deterministic():
    from d4check import report

    a = report.to_json(obstruct.theorem_pipeline())
    b = report.to_json(obstruct.theorem_pipeline())
    assert a == b


@settings(max_examples=50, deadline=None)
@given(words=WORD_SETS)
@example(words={5: (2, 1, 3, 2), 4: (1, 3, 2), 3: (1, 3, 2), 2: (9,), 1: ()})
def test_pushed_classes_match_the_letter_by_letter_push(words):
    # in the example, (3, 2) is no word of the set, so it takes its own step on (2,)
    run = obstruct.Run()
    run.words = words
    cartan = run.cartan
    expected = {}
    for i, word in words.items():
        d, b = cohomring.euler_class_d(cartan, 1), cohomring.unit(1)
        for label in reversed(word):
            d = cohomring.cohomology_action_omega(cartan, label, d)
            b = cohomring.homology_action(cartan, label, b)
        expected[i] = d, b
    assert run.pushed == expected
    assert list(run.pushed) == list(words)


def test_pipeline_pushes_one_letter_per_root(monkeypatch):
    # each root's word is one letter on another root's word, so the eleven
    # roots other than root 1 take one step each, for the pushed and for the
    # orbit classes; the 16 other cohomology actions are t-actions' intertwining
    calls = {}
    for module, name in (
        (cohomring, "cohomology_action_omega"),
        (cohomring, "homology_action"),
    ):
        def counted(*args, _act=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _act(*args)

        monkeypatch.setattr(module, name, counted)

    def counted_classes(words, start, step, _along=pontsolve.along_words):
        def counted_step(*args):
            calls["class step"] = calls.get("class step", 0) + 1
            return step(*args)

        return _along(words, start, counted_step)

    monkeypatch.setattr(pontsolve, "along_words", counted_classes)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    assert calls == {"cohomology_action_omega": 27, "homology_action": 11, "class step": 11}


def test_erratum_records_present():
    rep = obstruct.theorem_pipeline()
    errata = [c for c in rep.checks if c.status == "noted-erratum"]
    assert {c.id for c in errata} == {"basis-change-erratum", "bundle-classes-erratum"}


def _printed_basis_rows(monkeypatch):
    # the printed rows for t3 and t4; simple roots 2 and 3 then miss their Cartan rows
    printed = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 2]]
    monkeypatch.setattr(cohomring, "T_OF_OMEGA", printed)


def _perturbed_omega_of_t(monkeypatch):
    # the rows of T_OF_OMEGA are the omega coordinates of t1..t4
    rows = [row[:] for row in cohomring.T_OF_OMEGA]
    rows[0][0] += 1
    monkeypatch.setattr(cohomring, "T_OF_OMEGA", rows)


def _bond_dropped(monkeypatch):
    # entries [1][3] and [3][1] are the bond between simple roots 2 and 9
    def dropped(rs, _build=rootsys.simple_cartan_matrix):
        cartan = _build(rs)
        cartan[1][3] = cartan[3][1] = 0
        return cartan

    monkeypatch.setattr(rootsys, "simple_cartan_matrix", dropped)


def _generator(label, code):
    """Plant simple reflection ``label`` as the int 4-tuple ``code``: entry j is s (i + 1) when e_i goes to s e_j."""
    def plant(monkeypatch):
        def planted(rs, _build=rootsys.simple_generators):
            return {**_build(rs), label: code}

        monkeypatch.setattr(rootsys, "simple_generators", planted)

    return plant


def _polynomial(name, index, terms):
    """Plant ``cohomring.<name>(index)`` as the polynomial ``terms``; other indices are unchanged."""
    def plant(monkeypatch):
        build = getattr(cohomring, name)
        monkeypatch.setattr(cohomring, name, lambda i: dict(terms) if i == index else build(i))

    return plant


#: fault -> (plant it, the check id that must fail, text that check's detail contains);
#: every planted fault must end the run FAILED, never in an exception
PLANTED_FAULTS = {
    # (3-3) carries the printed rows of t2..t4 to no signed row
    "printed-basis-rows": (
        _printed_basis_rows,
        "t-actions",
        "intertwine (3-3): {1: True, 2: False, 3: False, 9: False}",
    ),
    # with the printed rows, simple roots 2 and 3 do not land on their Cartan rows
    "printed-basis-rows-roundtrip": (_printed_basis_rows, "basis-roundtrip", "(-1, 2, -1, 0), (0, -1, 2, -2)"),
    # the Cartan matrix is computed from the roots, not taken from a table;
    # the ninth root should be (0, 0, 1, 1)
    "ninth-root": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 9, (0, 0, 0, 1)),
        "cartan-matrix",
        "",
    ),
    # the first root should be (1, -1, 0, 0); its reflection is no signed permutation
    "first-root": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (2, -1, 0, 0)),
        "weyl-order",
        "reflection 1 is not a signed permutation",
    ),
    # the same root has norm 5: 2(a_2, a_1) / (a_1, a_1) = -2/5 must not be floored to 0
    "first-root-cartan": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (2, -1, 0, 0)),
        "cartan-matrix",
        "cartan number 2,1 is not an integer",
    ),
    # a zero root has no reflection and divides no Cartan number
    "zero-first-root": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (0, 0, 0, 0)),
        "weyl-order",
        "gens: root 1 is zero",
    ),
    # no word carries the first root to a zero root, so root 5 has no pushed
    # classes and no orbit class
    "zero-fifth-root": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 5, (0, 0, 0, 0)),
        "kronecker-submatrix",
        "words: root 5 is not in the orbit of the first root",
    ),
    "zero-fifth-root-orbit": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 5, (0, 0, 0, 0)),
        "orbit-table",
        "words: root 5 is not in the orbit of the first root",
    ),
    # Lemma 2 and (3-3)/(3-4): d_1 and b_1 pushed along the orbit words with
    # the 2-9 bond missing from the Cartan matrix pair to no Cartan matrix
    # and land on no roots
    "cartan-bond-dropped": (
        _bond_dropped,
        "kronecker-submatrix",
        "submatrix [[2, -1, 0, 1], [-1, 2, -1, -2], [0, -1, 2, 1], [1, -2, 1, 2]]",
    ),
    "cartan-bond-dropped-duality": (
        _bond_dropped,
        "pairing-duality",
        "7: False, 8: False, 9: False, 10: False, 11: False, 12: False",
    ),
    # a first root of (1, 0, 0, 0) still reflects by a signed permutation, so the group builds
    "first-root-e1-stabilizer": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "stabilizer-order",
        "6 fix (1,1,1,1), 12 have words in 1, 2, 3, the same: False",
    ),
    # the transposition of e_1 and e_4 fixes (1,1,1,1), but with 1, 2 and 3 it
    # is no simple system, so the shortest words miss half of the fixers:
    # 24 elements fix the point, 12 have words in 1, 2, 3
    "generator-9-transposition": (
        _generator(9, (4, 2, 3, 1)),
        "stabilizer-order",
        "24 fix (1,1,1,1), 12 have words in 1, 2, 3, the same: False",
    ),
    # the named sets are data that the checks certify: 1 and 2 alone generate 6 of the 24 fixers,
    # six roots from 6 on are no focal table, and (1,1,1,0) has 6 fixers
    "stabilizer-indices-dropped": (
        lambda mp: mp.setattr(rootsys, "STABILIZER_INDICES", (1, 2)),
        "stabilizer-order",
        "6 have words in 1, 2",
    ),
    "focal-indices-shifted": (
        lambda mp: mp.setattr(rootsys, "FOCAL_INDICES", range(6, 12)),
        "focal-table",
        "expected 6..11",
    ),
    # five focal labels are no focal table either, named by their span
    "focal-indices-tuple": (
        lambda mp: mp.setattr(rootsys, "FOCAL_INDICES", (7, 8, 9, 10, 11)),
        "focal-table",
        "expected 7..11",
    ),
    # a focal label past the roots is no table row, and no class the focal sum can read
    "focal-indices-past-roots": (
        lambda mp: mp.setattr(rootsys, "FOCAL_INDICES", range(7, 14)),
        "focal-table",
        "expected 7..13",
    ),
    "focal-indices-past-roots-solver": (
        lambda mp: mp.setattr(rootsys, "FOCAL_INDICES", range(7, 14)),
        "pontryagin-solver",
        "basis: focal label 13 is no root",
    ),
    "focal-indices-shifted-solver": (
        lambda mp: mp.setattr(rootsys, "FOCAL_INDICES", range(6, 12)),
        "pontryagin-solver",
        "solution space has dimension 0",
    ),
    "base-point-moved": (
        lambda mp: mp.setattr(rootsys, "BASE_POINT", (1, 1, 1, 0)),
        "stabilizer-order",
        "24 have words in 1, 2, 3, the same: False",
    ),
    "first-root-e1-orbit": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "root-orbit",
        "orbit size 2",
    ),
    "first-root-e1-bundle": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "bundle-classes",
        "words: root 2 is not in the orbit of the first root",
    ),
    "first-root-e1-leaf": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "leaf-restrictions",
        "words: root 2 is not in the orbit of the first root",
    ),
    "omega-of-t-entry": (_perturbed_omega_of_t, "basis-roundtrip", "(3, -1, 0, 0)"),
    "omega-of-t-entry-intertwine": (
        _perturbed_omega_of_t,
        "t-actions",
        "intertwine (3-3): {1: False, 2: True, 3: True, 9: True}",
    ),
    # a generator that sends two basis vectors to the same line is no signed permutation
    "generator-repeated-entry": (
        _generator(1, (2, 2, 3, 4)),
        "weyl-order",
        "gens: generator 1 is not a signed permutation",
    ),
    # the gather table with +v_4 where -v_4 belongs: products and images read a wrong sign
    "gather-table-sign": (
        lambda mp: mp.setattr(rootsys, "_table", lambda v: (0, *v, v[3], -v[2], -v[1], -v[0])),
        "weyl-order",
        "enumerated 384 elements",
    ),
    # Lemma 5: the sign flips of generator 9 are what keep e1 from being fully invariant
    "unsigned-substitution": (
        lambda mp: mp.setattr(
            cohomring,
            "act_on_polynomial",
            lambda sp, p, act=cohomring.act_on_polynomial: act(tuple(map(abs, sp)), p),
        ),
        "invariance-suite",
        "",
    ),
    # theta_i without the squares is e_i, which none of the three expansions gives
    "theta-unsquared": (
        lambda mp: mp.setattr(cohomring, "theta", cohomring.elementary_symmetric),
        "theta-identities",
        "{'theta1': False, 'theta2': False, 'theta3': False}",
    ),
    "theta-unsquared-invariance": (
        lambda mp: mp.setattr(cohomring, "theta", cohomring.elementary_symmetric),
        "invariance-suite",
        "",
    ),
    # Lemma 5, one conjunct of invariance-suite at a time: each fault below
    # breaks only the conjunct it names, so that conjunct alone fails it.
    # theta_1 without the squares is e_1, which the sign flips of generator 9 move
    "theta-1-unsquared-invariance": (
        _polynomial("theta", 1, cohomring.elementary_symmetric(1)),
        "invariance-suite",
        "",
    ),
    # generator 9 with one sign flip negates e_4 = t1 t2 t3 t4; the squares of
    # theta_i and the stabilizer do not see it, and e_1 still moves
    "generator-9-one-sign-invariance": (_generator(9, (1, 2, -4, 3)), "invariance-suite", ""),
    # a stabilizer generator that negates the two coordinates it swaps (the
    # reflection in e_a + e_b) moves e_1, e_2 and e_3, but neither e_4 nor any theta_i
    "stabilizer-generator-1-signed-invariance": (_generator(1, (-2, -1, 3, 4)), "invariance-suite", ""),
    "stabilizer-generator-2-signed-invariance": (_generator(2, (1, -3, -2, 4)), "invariance-suite", ""),
    "stabilizer-generator-3-signed-invariance": (_generator(3, (1, 2, -4, -3)), "invariance-suite", ""),
    # e_1 = t1 + t3 is no symmetric function, and generator 9 still moves it
    "e1-not-symmetric-invariance": (
        _polynomial("elementary_symmetric", 1, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}),
        "invariance-suite",
        "",
    ),
    # e_1 planted as theta_1 is fixed by generator 9, which still moves e_2
    "e1-squared-invariance": (
        _polynomial("elementary_symmetric", 1, cohomring.theta(1)),
        "invariance-suite",
        "",
    ),
    "orbit-table-sign": (
        lambda mp: mp.setitem(pontsolve.TABLE_AFTER_LEAF, 4, ("-k", "k3", "k", "k4")),
        "orbit-table",
        "4: False",
    ),
    "focal-table-row-8": (
        lambda mp: mp.setitem(pontsolve.TABLE_FOCAL, 8, ("k", "k", "-k", "-k4")),
        "focal-table",
        "8: False",
    ),
    # a doubled sign is no symbol: it is not read as one sign
    "orbit-table-double-minus": (
        lambda mp: mp.setitem(pontsolve.TABLE_AFTER_LEAF, 7, ("k", "--k", "k3", "-k4")),
        "orbit-table",
        "unknown table symbol '--k'",
    ),
    "focal-table-double-minus": (
        lambda mp: mp.setitem(pontsolve.TABLE_FOCAL, 8, ("--k", "k", "-k", "-k4")),
        "focal-table",
        "unknown table symbol '--k'",
    ),
    # a misspelt symbol is no form over the unknowns
    "orbit-table-symbol": (
        lambda mp: mp.setitem(pontsolve.TABLE_AFTER_LEAF, 4, ("k5", "k3", "k", "k4")),
        "orbit-table",
        "unknown table symbol 'k5'",
    ),
    # misspelt symbols in two rows: the first in row order is named, though
    # the later row's sits in an earlier column
    "orbit-table-two-symbols": (
        lambda mp: (
            mp.setitem(pontsolve.TABLE_AFTER_LEAF, 3, ("k3", "k4", "k", "kk")),
            mp.setitem(pontsolve.TABLE_AFTER_LEAF, 5, ("k6", "k", "k4", "k")),
        ),
        "orbit-table",
        "unknown table symbol 'kk'",
    ),
    "focal-table-symbol": (
        lambda mp: mp.setitem(pontsolve.TABLE_FOCAL, 7, ("k", "-k", "-k", "-kk4")),
        "focal-table",
        "unknown table symbol '-kk4'",
    ),
    # a table row that is missing is no row that matches
    "orbit-table-row-dropped": (
        lambda mp: mp.delitem(pontsolve.TABLE_AFTER_LEAF, 4),
        "orbit-table",
        "expected 1..12",
    ),
    "focal-table-row-dropped": (
        lambda mp: mp.delitem(pontsolve.TABLE_FOCAL, 10),
        "focal-table",
        "expected 7..12",
    ),
    "word-table-entry": (
        lambda mp: mp.setitem(rootsys.WORD_TABLE, 5, (1,)),
        "word-table",
        "5: False",
    ),
    # (3, 1, 2) names the same element as (1, 3, 2), but it is not the shortlex-least word
    "word-table-commuted": (
        lambda mp: mp.setitem(rootsys.WORD_TABLE, 5, (3, 1, 2)),
        "word-table",
        "5: False",
    ),
    # (2, 3) also carries the first root to root 4, but (2,) is shorter; the
    # orbit classes read the group's words, so only word-table sees it
    "word-table-not-least": (
        lambda mp: mp.setitem(rootsys.WORD_TABLE, 4, (2, 3)),
        "word-table",
        "4: False",
    ),
    "gamma-sign": (
        lambda mp: mp.setattr(vect4, "gamma", lambda: (1, 2)),
        "generator-pairs",
        "",
    ),
    # Lemma 9: the window check compares the realizable pairs the rule gives each column with
    # its lattice points; a - b = 0 (mod 4) holds for every fourth a, the lattice has every second
    "rule-a-minus-b": (
        lambda mp: mp.setattr(vect4, "RULE", (1, -1, 4)),
        "exact-sequence-window",
        "'realizable_closed_under_group_ops': False",
    ),
    # a modulus of 0 is no congruence; the rule is rejected where it is first read
    "rule-modulus-zero": (
        lambda mp: mp.setattr(vect4, "RULE", (2, -1, 0)),
        "generator-pairs",
        "RULE (2, -1, 0): the modulus 0 is not positive",
    ),
    "stabilize-keeps-euler": (
        lambda mp: mp.setattr(vect4, "stabilize", lambda x: x[0]),
        "exact-sequence-window",
        "'kernel_is_tau_multiples': False",
    ),
    # the congruence reaches obstruct only through vect4.is_realizable
    "realizable-mod-2": (
        lambda mp: mp.setattr(vect4, "is_realizable", lambda a, b: (2 * a - b) % 2 == 0),
        "congruence-obstruction",
        "residues [0, 1, 2, 3]",
    ),
    "sum-zero-dropped": (
        lambda mp: mp.setattr(pontsolve, "sum_zero_constraint", lambda classes: []),
        "pontryagin-solver",
        "",
    ),
    # a line with lead coordinate 0 cannot be scaled to (1, 1, -1, -1)
    "solution-lead-zero": (
        lambda mp: mp.setattr(pontsolve, "solve", lambda eqs: (1, (0, 1, -1, -1))),
        "pontryagin-solver",
        "unexpected solution line",
    ),
    # a row that misses the cofactor line of the first independent triple
    "independent-row": (
        lambda mp: mp.setattr(
            pontsolve,
            "assemble_constraints",
            lambda *args, _rows=pontsolve.assemble_constraints, **kw: _rows(*args, **kw) + [(0, 0, 0, 1)],
        ),
        "pontryagin-solver",
        "dimension 0",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_planted_fault_fails_named_check(monkeypatch, fault):
    plant, check_id, detail = PLANTED_FAULTS[fault]
    plant(monkeypatch)
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    assert check_id in [c.id for c in rep.checks if c.status == "fail"]
    rec = next(c for c in rep.checks if c.id == check_id)
    assert detail in rec.detail


def test_planted_faults_name_every_check():
    # every check must be able to fail: some planted fault names it
    assert set(obstruct.CHECK_IDS) <= {check_id for _, check_id, _ in PLANTED_FAULTS.values()}


@pytest.mark.parametrize(
    "fault",
    sorted(
        f for f, (_, check_id, _) in PLANTED_FAULTS.items()
        if obstruct.CHECK_IDS.index(check_id) < obstruct.CHECK_IDS.index("pontryagin-solver")
    ),
)
def test_planted_fault_fails_without_symmetry(monkeypatch, fault):
    # a failed check ends the run FAILED, not INCONCLUSIVE, under the diagnostic switch too
    plant, check_id, _ = PLANTED_FAULTS[fault]
    plant(monkeypatch)
    rep = obstruct.theorem_pipeline(disable_symmetry=True)
    assert rep.theorem_status == "FAILED"
    assert check_id in [c.id for c in rep.checks if c.status == "fail"]


def test_simple_indices_are_read_through_rootsys(monkeypatch):
    # a reordered simple system reaches every reader at call time: the pairing matrix is
    # taken over the same order as the Cartan matrix, and b_9 is the first basis class
    monkeypatch.setattr(rootsys, "SIMPLE_INDICES", (9, 1, 2, 3))
    details = {c.id: c.detail for c in obstruct.theorem_pipeline().checks}
    matrix = "[[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]"
    assert details["cartan-matrix"] == f"computed {matrix}"
    assert details["kronecker-submatrix"] == f"submatrix {matrix}"
    assert cohomring.unit(9) == (1, 0, 0, 0)


@pytest.mark.parametrize("rule", [(1, -1, 4), (2, -1, 2), (2, -1, 8), (2, -2, 4)])
def test_wrong_rule_fails_every_check_that_reads_it(monkeypatch, rule):
    # (2, 1, 4) is no such fault: realizable pairs have b even, so it is the same congruence
    monkeypatch.setattr(vect4, "RULE", rule)
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    assert [c.id for c in rep.checks if c.status == "fail"] == [
        "generator-pairs",
        "exact-sequence-window",
        "congruence-obstruction",
    ]


#: with the first root planted as (2, -1, 0, 0) neither the generators nor the
#: Cartan matrix builds; each check fails on the first of the two it reads
GENS_READERS = (
    "weyl-order",
    "stabilizer-order",
    "word-table",
    "root-orbit",
    "kronecker-submatrix",
    "t-actions",
    "pairing-duality",
    "invariance-suite",
    "orbit-table",
    "focal-table",
    "pontryagin-solver",
)
CARTAN_READERS = (
    "cartan-matrix",
    "basis-roundtrip",
    "bundle-classes",
    "leaf-restrictions",
    "congruence-obstruction",
)


def test_failed_object_is_built_once(monkeypatch):
    # a derived object that fails to build is kept as failed, not rebuilt for every reader
    monkeypatch.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (2, -1, 0, 0))
    calls = {"simple_generators": 0, "simple_cartan_matrix": 0}
    for name in calls:
        def counted(*args, _build=getattr(rootsys, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(rootsys, name, counted)
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    assert calls == {"simple_generators": 1, "simple_cartan_matrix": 1}
    # each downstream detail names the object that failed
    details = {c.detail for c in rep.checks if "is not a signed permutation" in c.detail}
    assert details == {"gens: reflection 1 is not a signed permutation"}
    failed = {c.id: c.detail for c in rep.checks if c.status == "fail"}
    assert set(failed) == set(GENS_READERS) | set(CARTAN_READERS)
    assert all(failed[i].startswith("gens: ") for i in GENS_READERS)
    assert all(failed[i].startswith("cartan: ") for i in CARTAN_READERS)


def test_built_object_is_read_as_a_plain_attribute(monkeypatch):
    # each derived object passes through the descriptor once, when it is built
    reads = []
    get = obstruct._derived.__get__

    def counted(self, run, owner=None):
        reads.append(self.name)
        return get(self, run, owner)

    monkeypatch.setattr(obstruct._derived, "__get__", counted)
    assert obstruct.theorem_pipeline().theorem_status == "OBSTRUCTED"
    derived = [name for name, value in vars(obstruct.Run).items() if isinstance(value, obstruct._derived)]
    assert len(derived) == 12
    assert sorted(reads) == sorted(derived)

    # a failed object is not stored as an attribute: each read raises its message again, unrebuilt
    monkeypatch.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (2, -1, 0, 0))
    calls = []
    build = rootsys.simple_generators

    def counted_build(rs):
        calls.append(rs)
        return build(rs)

    monkeypatch.setattr(rootsys, "simple_generators", counted_build)
    run = obstruct.Run()
    messages = []
    for _ in range(2):
        with pytest.raises(obstruct._Unbuilt) as exc:
            run.gens
        messages.append(str(exc.value))
    assert messages[0].startswith("gens: reflection 1 ") and messages[0] == messages[1]
    assert len(calls) == 1


def test_derived_object_read_on_the_class_is_its_descriptor():
    # like functools.cached_property: getattr, inspect and help read the descriptor off the class
    assert isinstance(obstruct.Run.rs, obstruct._derived)
    derived = {name for name, value in vars(obstruct.Run).items() if isinstance(value, obstruct._derived)}
    members = dict(inspect.getmembers(obstruct.Run))
    assert {name for name in derived if members[name] is vars(obstruct.Run)[name]} == derived
    assert obstruct.Run.pushed.__doc__.startswith("(d_k, b_k) per root label")


#: The fixed-length integer kernels of the certificate: each runs on map, sum
#: and written-out entries, with no generator frame per element.
INTEGER_KERNELS = (
    rootsys.inner,
    rootsys.reflection,
    rootsys.images,
    cohomring.omega_from_t,
    cohomring.kronecker,
    cohomring.homology_action,
    cohomring.cohomology_action_omega,
    cohomring._symmetric,
    cohomring.act_on_polynomial,
    rootsys.act,
    pontsolve._sum,
    pontsolve.symmetry_constraint,
    obstruct._reflections_on_t,
    obstruct._pairing_duality,
)


def test_kernels_open_no_generator_frame():
    kernels = {f.__code__: f.__qualname__ for f in INTEGER_KERNELS}
    entered, generators = set(), []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in kernels:
            entered.add(kernels[frame.f_code])
        elif frame.f_code.co_name == "<genexpr>":
            # a generator resumed by sum, tuple or a comprehension of a kernel;
            # comprehensions open frames of their own before Python 3.12
            caller = frame.f_back
            while caller is not None and caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            if caller is not None and caller.f_code in kernels:
                generators.append(kernels[caller.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rep = obstruct.theorem_pipeline()
    finally:
        sys.setprofile(previous)
    assert rep.theorem_status == "OBSTRUCTED"
    assert entered == set(kernels.values())
    assert generators == []


def _flip(symbol):
    return symbol[1:] if symbol.startswith("-") else "-" + symbol


def _single_datum_faults():
    """(module, table name, key, wrong value) for each single-datum fault of the D4 data.

    +-1 on each root coordinate, every one-letter substitution in the printed
    words, every sign flip in the two orbit-class tables: 96 + 96 + 72 faults.
    """
    for i, root in rootsys._POSITIVE_ROOT_COORDS.items():
        for c in range(4):
            for d in (1, -1):
                yield rootsys, "_POSITIVE_ROOT_COORDS", i, root[:c] + (root[c] + d,) + root[c + 1:]
    for i, word in rootsys.WORD_TABLE.items():
        for c, letter in enumerate(word):
            for other in rootsys.SIMPLE_INDICES:
                if other != letter:
                    yield rootsys, "WORD_TABLE", i, word[:c] + (other,) + word[c + 1:]
    for name in ("TABLE_AFTER_LEAF", "TABLE_FOCAL"):
        for i, row in getattr(pontsolve, name).items():
            for c in range(4):
                yield pontsolve, name, i, row[:c] + (_flip(row[c]),) + row[c + 1:]


def test_every_single_datum_fault_fails(monkeypatch):
    # each fault is planted in a copy of its table, so the module's own dict is never written
    first_failures = {}
    for module, name, key, wrong in _single_datum_faults():
        with monkeypatch.context() as mp:
            mp.setattr(module, name, {**getattr(module, name), key: wrong})
            rep = obstruct.theorem_pipeline()
        assert rep.theorem_status == "FAILED", (name, key, wrong)
        first = next(c.id for c in rep.checks if c.status == "fail")
        first_failures[first] = first_failures.get(first, 0) + 1
    assert first_failures == {"word-table": 160, "orbit-table": 48, "weyl-order": 32, "focal-table": 24}
