"""End-to-end verification pipeline for the nonexistence theorem.

Runs every lemma-level check in a fixed order, restricts the distinguished
bundle to two leaf spheres, turns the realizability conditions into
congruences in the single integer unknown k, and certifies that their
residue sets are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import cohomring, pontsolve, rootsys, vect4
from .cohomring import CohClass, HomClass, kronecker
from .rootsys import SIMPLE_INDICES


@dataclass(frozen=True)
class CongruenceCondition:
    """c*k + d = 0 (mod modulus)."""

    coeff: int
    const: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError(f"modulus must be positive: {self.modulus}")

    def render(self) -> str:
        return f"{self.coeff}k + {self.const} == 0 (mod {self.modulus})"


def solve_congruence(c: CongruenceCondition) -> list[int]:
    """All residues r in [0, modulus) satisfying the condition."""
    return [
        r for r in range(c.modulus) if (c.coeff * r + c.const) % c.modulus == 0
    ]


def residues_mod2(residues: list[int], modulus: int) -> list[int] | None:
    """Collapse a residue set mod ``modulus`` to one mod 2, if it is one."""
    if modulus % 2 != 0:
        return None
    as_mod2 = {r % 2 for r in residues}
    expanded = [r for r in range(modulus) if r % 2 in as_mod2]
    return sorted(as_mod2) if expanded == sorted(residues) else None


def restrict(c: CohClass, j: int) -> Fraction:
    """Pairing of a class with the j-th leaf-sphere homology class."""
    if j not in SIMPLE_INDICES:
        raise ValueError(f"not a simple index: {j}")
    return kronecker(c, HomClass.basis(j))


# ---------------------------------------------------------------------------
# Report plumbing


@dataclass
class CheckRecord:
    id: str
    ref: str
    statement: str
    status: str  # "pass" | "fail" | "noted-erratum"
    detail: str


@dataclass
class VerificationReport:
    checks: list[CheckRecord] = field(default_factory=list)
    theorem_status: str = "NOT-RUN"

    def add(self, id: str, ref: str, statement: str, ok: bool, detail: str = "") -> bool:
        status = "pass" if ok else "fail"
        self.checks.append(CheckRecord(id, ref, statement, status, detail))
        return ok

    def note_erratum(self, id: str, ref: str, statement: str, detail: str) -> None:
        self.checks.append(CheckRecord(id, ref, statement, "noted-erratum", detail))

    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed_ids(self) -> list[str]:
        return [c.id for c in self.checks if c.status == "fail"]


#: Canonical check ids, in pipeline order.
CHECK_IDS = [
    "weyl-order",
    "stabilizer-order",
    "cartan-matrix",
    "word-table",
    "root-orbit",
    "kronecker-submatrix",
    "basis-roundtrip",
    "t-actions",
    "pairing-duality",
    "theta-identities",
    "invariance-suite",
    "orbit-table",
    "focal-table",
    "pontryagin-solver",
    "bundle-classes",
    "generator-pairs",
    "exact-sequence-window",
    "leaf-restrictions",
    "congruence-obstruction",
]

#: Checks that ``theorem_pipeline`` leaves out under each diagnostic switch:
#: without the symmetry constraint the run stops after the solver.
OMITTED_WITHOUT_SYMMETRY = CHECK_IDS[CHECK_IDS.index("pontryagin-solver") + 1:]
OMITTED_WITHOUT_WINDOW = ["exact-sequence-window"]


def theorem_pipeline(
    window: int = 20,
    disable_symmetry: bool = False,
    skip_window: bool = False,
) -> VerificationReport:
    """Run every check and certify the contradiction.

    Diagnostic switches: ``disable_symmetry`` drops the focal-symmetry
    constraint (the solver then keeps a two-dimensional solution space and
    the run is INCONCLUSIVE); ``skip_window`` omits the finite-window bundle
    checks, which are independent of the congruence logic.
    """
    rep = VerificationReport()
    rs = rootsys.build_d4(4)
    gens = rootsys.simple_generators(rs)

    # Root system and group structure
    group = rootsys.enumerate_group(gens.values())
    rep.add(
        "weyl-order",
        "Remark 1",
        "the four simple reflections generate a group of order 2^3 * 4! = 192",
        len(group) == 192,
        f"enumerated {len(group)} elements",
    )
    stab = rootsys.enumerate_group([gens[1], gens[2], gens[3]])
    b_point = rootsys.RootVector.of(1, 1, 1, 1)
    stab_fixes = all(w.apply(b_point) == b_point for w in stab)
    rep.add(
        "stabilizer-order",
        "(2-3)",
        "the subgroup fixing (1,1,1,1) is generated by the first three reflections, order 24",
        len(stab) == 24 and stab_fixes,
        f"enumerated {len(stab)} elements, all fixing the base point: {stab_fixes}",
    )

    expected_cartan = [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]
    cartan = rootsys.simple_cartan_matrix(rs)
    rep.add(
        "cartan-matrix",
        "(2-1)",
        "the simple Cartan matrix matches entry for entry",
        cartan == expected_cartan,
        f"computed {cartan}",
    )

    words = rootsys.verify_word_table(rs, gens)
    rep.add(
        "word-table",
        "(2-4)",
        "all 11 word identities carry the first root to the tabulated roots",
        all(words.values()),
        f"per-root results: {words}",
    )

    orb = rootsys.orbit(group, rs.root(1))
    rep.add(
        "root-orbit",
        "(2-4)",
        "the orbit of the first root under the full group has 24 elements",
        len(orb) == 24,
        f"orbit size {len(orb)}",
    )

    # Cohomology calculus
    km = cohomring.kronecker_matrix(rs)
    sub = [[km[i - 1][j - 1] for j in SIMPLE_INDICES] for i in SIMPLE_INDICES]
    rep.add(
        "kronecker-submatrix",
        "Lemma 2",
        "the pairing matrix restricted to simple indices equals the Cartan matrix",
        sub == expected_cartan,
        f"submatrix {sub}",
    )

    import random

    rng = random.Random(0)
    roundtrip_ok = True
    for _ in range(20):
        coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        c = CohClass("omega", coords)
        back = cohomring.omega_from_t(cohomring.t_from_omega(c))
        roundtrip_ok = roundtrip_ok and back.coords == coords
    rep.add(
        "basis-roundtrip",
        "(3-1)/(3-2)",
        "the two basis-change matrices are mutually inverse",
        roundtrip_ok,
    )
    rep.note_erratum(
        "basis-change-erratum",
        "(3-1)/(3-2)",
        "the printed basis-change rows for t3 and t4 do not reproduce the tabulated variable actions",
        "rows 3/4 read as (0,-1,1,1) and (0,0,-1,1); every printed class conversion is unchanged",
    )

    expected_t = {
        1: cohomring.TSignedPerm((1, 0, 2, 3), (1, 1, 1, 1)),
        2: cohomring.TSignedPerm((0, 2, 1, 3), (1, 1, 1, 1)),
        3: cohomring.TSignedPerm((0, 1, 3, 2), (1, 1, 1, 1)),
        9: cohomring.TSignedPerm((0, 1, 3, 2), (1, 1, -1, -1)),
    }
    try:
        acts = cohomring.t_actions(cartan)
        acts_ok, acts_detail = acts == expected_t, f"computed {acts}"
    except ValueError as exc:
        acts, acts_ok, acts_detail = None, False, str(exc)
    rep.add(
        "t-actions",
        "Lemma 4",
        "the conjugated t-basis actions are the four tabulated signed permutations",
        acts_ok,
        acts_detail,
    )
    if acts is None:
        # every later check reads the t-actions
        rep.theorem_status = "FAILED"
        return rep

    duality_ok = True
    for i in SIMPLE_INDICES:
        for x_idx, xi in enumerate(SIMPLE_INDICES):
            x = CohClass("omega", tuple(Fraction(1 if s == x_idx else 0) for s in range(4)))
            for h_idx in SIMPLE_INDICES:
                h = HomClass.basis(h_idx)
                lhs = kronecker(cohomring.cohomology_action_omega(cartan, i, x), h)
                rhs = kronecker(x, cohomring.homology_action(cartan, i, h))
                duality_ok = duality_ok and lhs == rhs
    rep.add(
        "pairing-duality",
        "(3-3)/(3-4)",
        "the cohomology and homology actions are adjoint under the pairing",
        duality_ok,
    )

    thetas = cohomring.verify_theta_identities()
    rep.add(
        "theta-identities",
        "Lemma 5 context",
        "the three expansions of the squared-variable symmetric functions hold",
        all(thetas.values()),
        f"{thetas}",
    )

    full_gens = [acts[i] for i in SIMPLE_INDICES]
    stab_gens = [acts[i] for i in (1, 2, 3)]
    e = {i: cohomring.elementary_symmetric(i) for i in range(1, 5)}
    th = {i: cohomring.theta(i) for i in range(1, 4)}
    inv_ok = (
        all(cohomring.is_invariant(th[i], full_gens) for i in range(1, 4))
        and cohomring.is_invariant(e[4], full_gens)
        and all(cohomring.is_invariant(e[i], stab_gens) for i in range(1, 5))
        and not cohomring.is_invariant(e[1], [acts[9]])
    )
    rep.add(
        "invariance-suite",
        "Lemma 5",
        "the tabulated generators are invariant; the first symmetric function is not fully invariant",
        inv_ok,
    )

    # Pontryagin constraint solve
    classes = pontsolve.orbit_classes(acts, pontsolve.generic_class())
    tbl42 = pontsolve.check_orbit_table(classes)
    rep.add(
        "orbit-table",
        "(4-2)",
        "the twelve pushed-around classes match the table after the leaf constraint",
        all(tbl42.values()),
        f"{tbl42}",
    )
    tbl43 = pontsolve.check_focal_table(classes)
    fsum = pontsolve.focal_sum_reduced(classes)
    # expected focal sum: -(k + k4) * (t2 + 2*t3 + 3*t4)
    expected_fsum = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0), Fraction(-1)),
        (Fraction(-2), Fraction(0), Fraction(-2)),
        (Fraction(-3), Fraction(0), Fraction(-3)),
    ]
    rep.add(
        "focal-table",
        "(4-3)",
        "the six focal classes match the table and their sum factors as -(k+k4)(t2+2t3+3t4)",
        all(tbl43.values()) and fsum == expected_fsum,
        f"classes {tbl43}, focal sum {fsum}",
    )

    eqs = pontsolve.assemble_constraints(classes, include_symmetry=not disable_symmetry)
    basis = pontsolve.solve(eqs)
    if disable_symmetry:
        rep.add(
            "pontryagin-solver",
            "Lemma 7",
            "with the symmetry constraint disabled the solution space is 2-dimensional",
            len(basis) == 2,
            f"dimension {len(basis)}",
        )
        rep.theorem_status = "INCONCLUSIVE"
        return rep

    solver_ok = len(basis) == 1
    if solver_ok:
        v = basis[0]
        scale = Fraction(1) / v[0] if v[0] != 0 else Fraction(1)
        solver_ok = [x * scale for x in v] == [
            Fraction(1),
            Fraction(1),
            Fraction(-1),
            Fraction(-1),
        ]
    rep.add(
        "pontryagin-solver",
        "Lemma 7",
        "the full constraint system has solution line spanned by (1, 1, -1, -1)",
        solver_ok,
        f"nullspace basis {basis}",
    )

    if not rep.all_passed():
        rep.theorem_status = "FAILED"
        return rep

    euler, p1_unit = pontsolve.lemma8_classes(cartan, basis)
    classes_ok = euler.coords == (2, -1, 0, 0) and p1_unit.coords == (0, 2, 0, -2)
    rep.add(
        "bundle-classes",
        "Lemma 8",
        "the distinguished bundle has Euler class 2w1 - w2 and Pontryagin class 2k(w2 - w9)",
        classes_ok,
        f"euler {euler.coords}, p1 per unit k {p1_unit.coords}",
    )
    rep.note_erratum(
        "bundle-classes-erratum",
        "(4-4)",
        "the printed Pontryagin class names a nonexistent basis symbol w4",
        "read w4 as w9; the derivation and the basis list both give 2k(w2 - w9)",
    )

    # Bundle arithmetic over the 4-sphere
    t, g = vect4.tau(), vect4.gamma()
    gen_ok = (
        (t.a, t.b) == (2, 0)
        and (g.a, g.b) == (1, -2)
        and vect4.is_realizable(t)
        and vect4.is_realizable(g)
        and not vect4.is_realizable(vect4.SphereBundleClass(1, 0))
    )
    rep.add(
        "generator-pairs",
        "Lemma 9 Example",
        "the tangent and quaternionic classes are (2,0) and (1,-2), both realizable; (1,0) is not",
        gen_ok,
    )

    if not skip_window:
        seq = vect4.verify_exact_sequence(window)
        rep.add(
            "exact-sequence-window",
            "Lemma 9",
            f"stabilization kernel/image and subgroup structure hold on the window |a|,|b| <= {window}",
            all(seq.values()),
            f"{seq}",
        )

    # Theorem: restrictions and congruences
    f1 = (restrict(euler, 2), restrict(p1_unit, 2))  # per unit k in second slot
    f2 = (restrict(euler, 9), restrict(p1_unit, 9))
    restr_ok = f1 == (-1, 2) and f2 == (0, -2)
    rep.add(
        "leaf-restrictions",
        "Theorem proof",
        "restriction to the two leaf spheres gives the pairs (-1, 2k) and (0, -2k)",
        restr_ok,
        f"pairs per unit k: {f1}, {f2}",
    )

    # realizability: 2a - b == 0 mod 4 with b linear in k
    cong1 = CongruenceCondition(-int(f1[1]), 2 * int(f1[0]), 4)  # 2(-1) - 2k == 0 (mod 4)
    cong2 = CongruenceCondition(-int(f2[1]), 2 * int(f2[0]), 4)
    r1 = solve_congruence(cong1)
    r2 = solve_congruence(cong2)
    m1 = residues_mod2(r1, 4)
    m2 = residues_mod2(r2, 4)
    inter = sorted(set(r1) & set(r2))
    obstruction_ok = m1 == [1] and m2 == [0] and inter == []
    rep.add(
        "congruence-obstruction",
        "Theorem proof",
        "the two realizability congruences force k odd and k even; no integer satisfies both",
        obstruction_ok,
        f"{cong1.render()} -> residues {r1} (k odd); "
        f"{cong2.render()} -> residues {r2} (k even); intersection {inter}",
    )

    if not rep.all_passed():
        rep.theorem_status = "FAILED"
    elif inter:
        rep.theorem_status = "NOT-OBSTRUCTED"
    else:
        rep.theorem_status = "OBSTRUCTED"
    return rep
