from fractions import Fraction

import pytest

from d4check import cohomring, linalg, obstruct, rootsys
from d4check.cohomring import CohClass
from d4check.obstruct import CongruenceCondition, solve_congruence, residues_mod2


def test_restrict_euler_to_second_sphere():
    e = CohClass.of("omega", 2, -1, 0, 0)
    assert obstruct.restrict(e, 2) == -1
    assert obstruct.restrict(e, 9) == 0
    assert obstruct.restrict(CohClass.of("omega", 1, 0, 0, 0), 1) == 1


def test_restrict_p1_unit():
    p1 = CohClass.of("omega", 0, 2, 0, -2)
    assert obstruct.restrict(p1, 2) == 2
    assert obstruct.restrict(p1, 9) == -2


def test_restrict_rejects_nonsimple():
    with pytest.raises(ValueError):
        obstruct.restrict(CohClass.of("omega", 1, 0, 0, 0), 4)


def test_solve_congruence_odd():
    assert solve_congruence(CongruenceCondition(2, 2, 4)) == [1, 3]


def test_solve_congruence_even():
    assert solve_congruence(CongruenceCondition(2, 0, 4)) == [0, 2]


def test_solve_congruence_unsatisfiable():
    assert solve_congruence(CongruenceCondition(0, 1, 4)) == []


def test_congruence_requires_positive_modulus():
    with pytest.raises(ValueError):
        CongruenceCondition(1, 0, 0)


def test_residues_mod2():
    assert residues_mod2([1, 3], 4) == [1]
    assert residues_mod2([0, 2], 4) == [0]
    assert residues_mod2([1], 4) is None  # not a union of mod-2 classes


def test_pipeline_obstructed():
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "OBSTRUCTED"
    assert rep.all_passed()
    assert rep.failed_ids() == []


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
    assert solve_congruence(CongruenceCondition(-2, -2, 4)) != []
    assert solve_congruence(CongruenceCondition(2, 0, 4)) != []


def test_pipeline_without_symmetry_is_inconclusive():
    rep = obstruct.theorem_pipeline(disable_symmetry=True)
    assert rep.theorem_status == "INCONCLUSIVE"
    solver = next(c for c in rep.checks if c.id == "pontryagin-solver")
    assert solver.status == "pass"
    assert "dimension 2" in solver.detail
    ran = {c.id for c in rep.checks}
    assert [i for i in obstruct.CHECK_IDS if i not in ran] == obstruct.OMITTED_WITHOUT_SYMMETRY


def test_pipeline_skip_window_keeps_theorem():
    rep = obstruct.theorem_pipeline(skip_window=True)
    assert rep.theorem_status == "OBSTRUCTED"
    ran = {c.id for c in rep.checks}
    assert [i for i in obstruct.CHECK_IDS if i not in ran] == obstruct.OMITTED_WITHOUT_WINDOW


def test_pipeline_is_deterministic():
    from d4check import report

    a = report.to_json(obstruct.theorem_pipeline())
    b = report.to_json(obstruct.theorem_pipeline())
    assert a == b


def test_erratum_records_present():
    rep = obstruct.theorem_pipeline()
    errata = [c for c in rep.checks if c.status == "noted-erratum"]
    assert {c.id for c in errata} == {"basis-change-erratum", "bundle-classes-erratum"}


def test_printed_basis_rows_fail_t_actions(monkeypatch):
    # the printed rows for t3 and t4 give actions that are not signed permutations
    printed = linalg.to_matrix(
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 2]]
    )
    monkeypatch.setattr(cohomring, "T_OF_OMEGA", printed)
    monkeypatch.setattr(cohomring, "OMEGA_OF_T", linalg.invert(printed))
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    assert "t-actions" in rep.failed_ids()
    rec = next(c for c in rep.checks if c.id == "t-actions")
    assert "not a signed permutation" in rec.detail


def test_wrong_root_coordinate_fails_cartan_matrix(monkeypatch):
    # the Cartan matrix is computed from the roots, not taken from a table
    coords = list(rootsys._POSITIVE_ROOT_COORDS)
    coords[8] = (0, 0, 0, 1)  # the ninth root should be (0, 0, 1, 1)
    monkeypatch.setattr(rootsys, "_POSITIVE_ROOT_COORDS", tuple(coords))
    rep = obstruct.theorem_pipeline()
    assert rep.theorem_status == "FAILED"
    assert "cartan-matrix" in rep.failed_ids()
