import pytest

from d4check import cohomring, obstruct, pontsolve, rootsys, vect4


def test_restrict_euler_to_second_sphere():
    e = (2, -1, 0, 0)
    assert obstruct.restrict(e, 2) == -1
    assert obstruct.restrict(e, 9) == 0
    assert obstruct.restrict((1, 0, 0, 0), 1) == 1


def test_restrict_p1_unit():
    p1 = (0, 2, 0, -2)
    assert obstruct.restrict(p1, 2) == 2
    assert obstruct.restrict(p1, 9) == -2


def test_restrict_rejects_nonsimple():
    with pytest.raises(ValueError):
        obstruct.restrict((1, 0, 0, 0), 4)


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


def test_erratum_records_present():
    rep = obstruct.theorem_pipeline()
    errata = [c for c in rep.checks if c.status == "noted-erratum"]
    assert {c.id for c in errata} == {"basis-change-erratum", "bundle-classes-erratum"}


def _printed_basis_rows(monkeypatch):
    # the printed rows for t3 and t4 give actions that are not signed permutations
    printed = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 2]]
    monkeypatch.setattr(cohomring, "T_OF_OMEGA", printed)


def _perturbed_omega_of_t(monkeypatch):
    # the rows of T_OF_OMEGA are the omega coordinates of t1..t4
    rows = [row[:] for row in cohomring.T_OF_OMEGA]
    rows[0][0] += 1
    monkeypatch.setattr(cohomring, "T_OF_OMEGA", rows)


#: fault -> (plant it, the check id that must fail, text that check's detail contains);
#: every planted fault must end the run FAILED, never in an exception
PLANTED_FAULTS = {
    "printed-basis-rows": (_printed_basis_rows, "t-actions", "is not a signed permutation"),
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
    "zero-fifth-root": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 5, (0, 0, 0, 0)),
        "kronecker-submatrix",
        "root 5 is zero",
    ),
    # no word carries the first root to a zero root, so root 5 has no orbit class
    "zero-fifth-root-orbit": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 5, (0, 0, 0, 0)),
        "orbit-table",
        "classes: root 5 is not in the orbit of the first root",
    ),
    # a first root of (1, 0, 0, 0) still reflects by a signed permutation, so the group builds
    "first-root-e1-stabilizer": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "stabilizer-order",
        "enumerated 12 elements, all fixing the base point: False",
    ),
    "first-root-e1-orbit": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "root-orbit",
        "orbit size 2",
    ),
    "first-root-e1-bundle": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "bundle-classes",
        "acts: t-action of generator 1 is not a signed permutation",
    ),
    "first-root-e1-leaf": (
        lambda mp: mp.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (1, 0, 0, 0)),
        "leaf-restrictions",
        "acts: t-action of generator 1 is not a signed permutation",
    ),
    "omega-of-t-entry": (_perturbed_omega_of_t, "basis-roundtrip", "(3, -1, 0, 0)"),
    # signs other than +-1 close to no finite group; the closure stops at 2^4 * 4! elements
    "generator-sign-two": (
        lambda mp: mp.setattr(
            rootsys,
            "simple_generators",
            lambda rs, build=rootsys.simple_generators: {
                **build(rs), 1: rootsys.TSignedPerm((1, 0, 2, 3), (2, 1, 1, 1))
            },
        ),
        "weyl-order",
        "more than 2^4 * 4! = 384 signed permutations",
    ),
    # Lemma 5: the sign flips of generator 9 are what keep e1 from being fully invariant
    "unsigned-substitution": (
        lambda mp: mp.setattr(
            cohomring,
            "act_on_polynomial",
            lambda sp, p, act=cohomring.act_on_polynomial: act(rootsys.TSignedPerm(sp.perm, (1, 1, 1, 1)), p),
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
    # Lemma 9: the window check compares every realizable pair of the box with the lattice
    "realizable-19-20": (
        lambda mp: mp.setattr(
            vect4, "is_realizable", lambda a, b, exact=vect4.is_realizable: (a, b) == (19, 20) or exact(a, b)
        ),
        "exact-sequence-window",
        "'realizable_closed_under_group_ops': False",
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


#: the checks that read the t-actions, directly or through the objects built from them
ACTS_READERS = (
    "t-actions",
    "invariance-suite",
    "orbit-table",
    "focal-table",
    "pontryagin-solver",
    "bundle-classes",
    "leaf-restrictions",
    "congruence-obstruction",
)


def test_failed_object_is_built_once(monkeypatch):
    # a derived object that fails to build is kept as failed, not rebuilt for every reader
    monkeypatch.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, (2, -1, 0, 0))
    calls = {"simple_generators": 0, "simple_cartan_matrix": 0, "t_actions": 0}
    for module, name in (
        (rootsys, "simple_generators"),
        (rootsys, "simple_cartan_matrix"),
        (cohomring, "t_actions"),
    ):
        def counted(*args, _build=getattr(module, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counted)
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    # the Cartan matrix fails first, so the t-actions are never built
    assert calls == {"simple_generators": 1, "simple_cartan_matrix": 1, "t_actions": 0}
    # each downstream detail names the object that failed
    details = {c.detail for c in rep.checks if "is not a signed permutation" in c.detail}
    assert details == {"gens: reflection 1 is not a signed permutation"}
    readers = [c for c in rep.checks if c.id in ACTS_READERS and c.status == "fail"]
    assert {c.id for c in readers} == set(ACTS_READERS)
    assert all(c.detail.startswith("cartan: ") for c in readers)
