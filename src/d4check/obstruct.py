"""End-to-end verification pipeline for the nonexistence theorem.

Every lemma-level check is declared once, in certificate order, in
``CHECKS``.  The last checks restrict the distinguished bundle to two leaf
spheres, read the realizability congruences in the single integer unknown k
off ``vect4``, and certify that their residue sets are disjoint.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul, neg

from . import cohomring, pontsolve, rootsys, vect4


# ---------------------------------------------------------------------------
# Report plumbing


#: One line of a report; ``status`` is "pass", "fail" or "noted-erratum".
CheckRecord = namedtuple("CheckRecord", "id ref statement status detail")


class VerificationReport:
    def __init__(self):
        self.checks: list[CheckRecord] = []
        self.theorem_status = "NOT-RUN"

    def add(self, id: str, ref: str, statement: str, ok: bool, detail: str = "") -> None:
        status = "pass" if ok else "fail"
        self.checks.append(CheckRecord(id, ref, statement, status, detail))

    def note_erratum(self, id: str, ref: str, statement: str, detail: str) -> None:
        self.checks.append(CheckRecord(id, ref, statement, "noted-erratum", detail))

    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


# ---------------------------------------------------------------------------
# The check list


class _Unbuilt(ValueError):
    """A derived object of a run could not be built; the message names it."""


class _derived:
    """Like ``functools.cached_property``, but keeps a ``ValueError`` as well as a value.

    A built object is stored under its own name, so every later read is a plain
    attribute lookup. A failure is stored as its message under ``"_" + name``;
    every later read raises ``_Unbuilt`` with it, and an object built from it
    passes that error on unchanged.
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, run, owner=None):
        if run is None:
            return self
        failed = "_" + self.name
        if failed not in vars(run):
            try:
                value = vars(run)[self.name] = self.build(run)
                return value
            except ValueError as exc:
                vars(run)[failed] = str(exc) if isinstance(exc, _Unbuilt) else f"{self.name}: {exc}"
        raise _Unbuilt(vars(run)[failed])


#: Half-width of the box |a|, |b| <= window that ``exact-sequence-window`` checks.
DEFAULT_WINDOW = 20


class Run:
    """One certificate run: the switches and the objects its checks read.

    Each object is built on first use and kept, value or error, so a run
    builds every object at most once and a single check builds only what it
    reads.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, disable_symmetry: bool = False, skip_window: bool = False):
        self.window, self.disable_symmetry, self.skip_window = window, disable_symmetry, skip_window

    @_derived
    def rs(self):
        """The roots, keyed 1..12 and each a 4-tuple; the simple and stabilizer labels must name them."""
        rs, simple, stabilizer = rootsys.build_d4(), rootsys.SIMPLE_INDICES, rootsys.STABILIZER_INDICES
        if sorted(rs) != list(range(1, 13)):
            raise ValueError(f"root labels {sorted(rs)}, expected 1..12")
        for i, root in rs.items():
            if not isinstance(root, tuple) or len(root) != 4:
                raise ValueError(f"root {i} {root} is no 4-tuple")
        if len(set(simple)) != 4 or not set(simple) <= set(rs):
            raise ValueError(f"SIMPLE_INDICES {simple}: expected four distinct root labels")
        if not set(stabilizer) <= set(simple):
            raise ValueError(f"STABILIZER_INDICES {stabilizer}: expected simple labels")
        return rs

    @_derived
    def gens(self):
        gens = rootsys.simple_generators(self.rs)
        # every action reads entry |a| of a table, so only signed permutations keep the closure inside B4
        for label, g in gens.items():
            if sorted(map(abs, g)) != [1, 2, 3, 4]:
                raise ValueError(f"generator {label} is not a signed permutation")
        return gens

    @_derived
    def group(self):
        return rootsys.enumerate_group(self.gens)

    @_derived
    def cartan(self):
        return rootsys.simple_cartan_matrix(self.rs)

    @_derived
    def orbit(self):
        """The orbit of root 1: each image with the first group element carrying root 1 there."""
        return rootsys.orbit(self.group, self.rs[1])

    @_derived
    def words(self):
        """Each root label with the orbit word carrying root 1 to that root."""
        words = {}
        for i, root in self.rs.items():
            if root not in self.orbit:
                raise ValueError(f"root {i} is not in the orbit of the first root")
            words[i] = self.group[self.orbit[root]]
        return words

    @_derived
    def pushed(self):
        """(d_k, b_k) per root label: d_1 and b_1 pushed along the root's word by (3-3)/(3-4)."""
        words = self.words  # read first: a failed orbit is named before a failed Cartan matrix
        cartan = self.cartan

        def step(label, db):
            d, b = db
            return cohomring.cohomology_action_omega(cartan, label, d), cohomring.homology_action(cartan, label, b)

        return rootsys.along_words(words, (cohomring.euler_class_d(cartan, 1), cohomring.unit(1)), step)

    @_derived
    def classes(self):
        """Each root's class, k1*t1 + .. + k4*t4 pulled back along its word: the root's orbit element."""
        return {i: self.orbit[self.rs[i]] for i in self.words}

    @_derived
    def basis(self):
        """The solve of the constraint rows: (dimension, line when it is 1)."""
        eqs = pontsolve.assemble_constraints(self.classes, self.gens, include_symmetry=not self.disable_symmetry)
        return pontsolve.solve(eqs)

    @_derived
    def bundle(self) -> tuple[tuple, tuple]:
        """Euler class and Pontryagin class per unit k in omega coordinates (Lemma 8)."""
        return pontsolve.lemma8_classes(self.cartan, self.basis)

    @_derived
    def pairs(self):
        """The bundle's (Euler, Pontryagin per unit k) pairs on the leaf spheres 2 and 9."""
        euler, p1_unit = self.bundle
        pair = cohomring.kronecker
        return tuple((pair(euler, b), pair(p1_unit, b)) for _, b in (self.pushed[2], self.pushed[9]))

    @_derived
    def invariants(self):
        """(e, theta): e_1..e_4 and theta_1..theta_3 by index, the polynomials of Lemma 5."""
        e = {i: cohomring.elementary_symmetric(i) for i in range(1, 5)}
        return e, {i: cohomring.theta(i) for i in range(1, 4)}

    def selected(self) -> list[Check]:
        """The checks this run's switches keep, in order: without symmetry the run ends at the solver."""
        if self.disable_symmetry:
            return [*CHECKS[:CHECK_IDS.index("pontryagin-solver")], _SOLVER_WITHOUT_SYMMETRY]
        return [c for c in CHECKS if not (self.skip_window and c.id == "exact-sequence-window")]


#: One lemma-level fact: ``test(run)`` returns ``(ok, detail)`` or raises ``ValueError``;
#: ``statement`` may name {window}, and ``erratum``, if any, is the (id, ref, statement,
#: detail) of a printed erratum noted right after the check.
Check = namedtuple("Check", "id ref statement test erratum", defaults=(None,))


EXPECTED_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

EXPECTED_T_ACTIONS = {1: (2, 1, 3, 4), 2: (1, 3, 2, 4), 3: (1, 2, 4, 3), 9: (1, 2, -4, -3)}


def _weyl_order(run):
    return len(run.group) == 192, f"enumerated {len(run.group)} elements"


def _stabilizer_order(run):
    # the words are reduced, so the stabilizer labels generate the elements whose word avoids the moving labels
    point, labels = rootsys.BASE_POINT, rootsys.STABILIZER_INDICES
    moving = set(rootsys.SIMPLE_INDICES).difference(labels)
    fixers = [w for w, image in zip(run.group, rootsys.images(run.group, point)) if image == point]
    parabolic = [w for w, word in run.group.items() if moving.isdisjoint(word)]
    return (
        len(fixers) == 24 and fixers == parabolic,
        f"{len(fixers)} fix ({','.join(map(str, point))}), {len(parabolic)} have words in "
        f"{', '.join(map(str, labels))}, the same: {fixers == parabolic}",
    )


def _word_table(run):
    if sorted(rootsys.WORD_TABLE) != list(range(2, 13)):
        raise ValueError(f"WORD_TABLE labels {sorted(rootsys.WORD_TABLE)}, expected 2..12")
    words = {
        i: rootsys.WORD_TABLE.get(i) == run.group.get(run.orbit.get(root)) for i, root in run.rs.items() if i != 1
    }
    return all(words.values()), f"per-root results: {words}"


def _root_orbit(run):
    return len(run.orbit) == 24, f"orbit size {len(run.orbit)}"


def _kronecker_submatrix(run):
    simple = rootsys.SIMPLE_INDICES
    sub = [[cohomring.kronecker(run.pushed[i][0], run.pushed[j][1]) for j in simple] for i in simple]
    return sub == EXPECTED_CARTAN, f"submatrix {sub}"


def _basis_roundtrip(run):
    # t is e: a simple root in t coordinates has its Cartan row as omega coordinates
    images = [cohomring.omega_from_t(run.rs[i]) for i in rootsys.SIMPLE_INDICES]
    return images == [tuple(row) for row in run.cartan], f"simple roots in omega coordinates {images}"


def _reflections_on_t(run):
    # (3-3) on the omega rows of t1..t4: a reflection whose entry j is s (k + 1) sends e_k to s e_j,
    # so it sends s times row k to row j; entry a of ``signed`` is row |a|, negated for a < 0
    rows = cohomring.t_rows()
    signed = [(), *rows, *[tuple(map(neg, row)) for row in reversed(rows)]]
    intertwine = {
        i: [cohomring.cohomology_action_omega(run.cartan, i, signed[a]) for a in g] == rows
        for i, g in run.gens.items()
    }
    ok = run.gens == EXPECTED_T_ACTIONS and all(intertwine.values())
    return ok, f"reflections {run.gens}; intertwine (3-3): {intertwine}"


def _pairing_duality(run):
    # b_k names the root sum_j b_k[j] * (simple root j), whose entry t pairs b_k with column t of the simple roots
    columns = list(zip(*[run.rs[j] for j in rootsys.SIMPLE_INDICES]))
    roots = {k: tuple([sum(map(mul, b, col)) for col in columns]) == run.rs[k] for k, (_, b) in run.pushed.items()}
    return all(roots.values()), f"per-root results: {roots}"


def _theta_identities(run):
    thetas = cohomring.verify_theta_identities(*run.invariants)
    return all(thetas.values()), f"{thetas}"


def _invariance_suite(run):
    full_gens = [run.gens[i] for i in rootsys.SIMPLE_INDICES]
    stab_gens = [run.gens[i] for i in rootsys.STABILIZER_INDICES]
    moving_gens = [run.gens[i] for i in rootsys.SIMPLE_INDICES if i not in rootsys.STABILIZER_INDICES]
    e, th = run.invariants
    ok = (
        all(cohomring.is_invariant(th[i], full_gens) for i in range(1, 4))
        and cohomring.is_invariant(e[4], full_gens)
        and all(cohomring.is_invariant(e[i], stab_gens) for i in range(1, 5))
        and not cohomring.is_invariant(e[1], moving_gens)
    )
    return ok, ""


def _orbit_table(run):
    tbl = pontsolve.check_orbit_table(run.classes)
    return all(tbl.values()), f"{tbl}"


def _focal_table(run):
    tbl = pontsolve.check_focal_table(run.classes)
    fsum = pontsolve.focal_sum_reduced(run.classes)
    # expected focal sum: -(k + k4) * (t2 + 2*t3 + 3*t4)
    expected = [(0, 0, 0), (-1, 0, -1), (-2, 0, -2), (-3, 0, -3)]
    return all(tbl.values()) and fsum == expected, f"classes {tbl}, focal sum {fsum}"


def _pontryagin_solver(run):
    pontsolve.solution_line(run.basis)
    return True, f"nullspace basis {[list(run.basis[1])]}"


def _bundle_classes(run):
    euler, p1_unit = run.bundle
    return (
        euler == (2, -1, 0, 0) and p1_unit == (0, 2, 0, -2),
        f"euler {euler}, p1 per unit k {p1_unit}",
    )


def _generator_pairs(run):
    # gcd 1: the rule maps Z^2 onto Z/mod, so the realizable pairs, its kernel,
    # have index mod, and two of them with |det| = mod span them
    ca, cb, mod = vect4.RULE
    if mod <= 0:
        raise ValueError(f"RULE {vect4.RULE}: the modulus {mod} is not positive")
    t, g = vect4.tau(), vect4.gamma()
    gcd, det = math.gcd(ca, cb, mod), abs(t[0] * g[1] - t[1] * g[0])
    off = (1, 0)  # a pair off the lattice
    tr, gr, unit = (vect4.is_realizable(*x) for x in (t, g, off))
    ok = t == (2, 0) and g == (1, -2) and gcd == 1 and tr and gr and not unit and det == mod
    realizable = f"tau {t} {tr}, gamma {g} {gr}, {off} {unit}"
    return ok, f"gcd{vect4.RULE} = {gcd}; realizable: {realizable}; |det(tau, gamma)| = {det}"


def _exact_sequence_window(run):
    seq = vect4.verify_exact_sequence(run.window)
    return all(seq.values()), f"{seq}"


def _leaf_restrictions(run):
    f1, f2 = run.pairs
    return f1 == (-1, 2) and f2 == (0, -2), f"pairs per unit k: {f1}, {f2}"


def _congruence_obstruction(run):
    (c1, r1), (c2, r2) = (vect4.leaf_congruence(a, b) for a, b in run.pairs)
    inter = sorted(set(r1) & set(r2))
    ok = r1 == [1, 3] and r2 == [0, 2] and inter == []
    return ok, f"{c1} -> residues {r1} (k odd); {c2} -> residues {r2} (k even); intersection {inter}"


#: The certificate, one check per id, in order.
CHECKS = (
    Check("weyl-order", "Remark 1",
          "the four simple reflections generate a group of order 2^3 * 4! = 192", _weyl_order),
    Check("stabilizer-order", "(2-3)",
          "the subgroup fixing (1,1,1,1) is generated by the first three reflections, order 24",
          _stabilizer_order),
    Check("cartan-matrix", "(2-1)", "the simple Cartan matrix matches entry for entry",
          lambda run: (run.cartan == EXPECTED_CARTAN, f"computed {run.cartan}")),
    Check("word-table", "(2-4)",
          "each of the 11 printed words is the shortlex-least word carrying the first root to its root",
          _word_table),
    Check("root-orbit", "(2-4)",
          "the orbit of the first root under the full group has 24 elements", _root_orbit),
    Check("kronecker-submatrix", "Lemma 2",
          "the pairing matrix restricted to simple indices equals the Cartan matrix",
          _kronecker_submatrix),
    Check("basis-roundtrip", "(3-1)/(3-2)",
          "with t = e, the t-to-omega basis change sends each simple root to its Cartan row",
          _basis_roundtrip,
          erratum=(
              "basis-change-erratum", "(3-1)/(3-2)",
              "the printed basis-change rows for t3 and t4 do not reproduce the tabulated variable actions",
              "rows 3/4 read as (0,-1,1,1) and (0,0,-1,1); every printed class conversion is unchanged",
          )),
    Check("t-actions", "Lemma 4",
          "the simple reflections are the tabulated actions on t1..t4; the basis change intertwines them with (3-3)",
          _reflections_on_t),
    Check("pairing-duality", "(3-3)/(3-4)",
          "b1 pushed along the orbit word of each root is that root in simple-root coordinates",
          _pairing_duality),
    Check("theta-identities", "Lemma 5 context",
          "the three expansions of the squared-variable symmetric functions hold", _theta_identities),
    Check("invariance-suite", "Lemma 5",
          "the tabulated generators are invariant; the first symmetric function is not fully invariant",
          _invariance_suite),
    Check("orbit-table", "(4-2)",
          "the twelve pushed-around classes match the table after the leaf constraint", _orbit_table),
    Check("focal-table", "(4-3)",
          "the six focal classes match the table and their sum factors as -(k+k4)(t2+2t3+3t4)",
          _focal_table),
    Check("pontryagin-solver", "Lemma 7",
          "the full constraint system has solution line spanned by (1, 1, -1, -1)", _pontryagin_solver),
    Check("bundle-classes", "Lemma 8",
          "the distinguished bundle has Euler class 2w1 - w2 and Pontryagin class 2k(w2 - w9)",
          _bundle_classes,
          erratum=(
              "bundle-classes-erratum", "(4-4)",
              "the printed Pontryagin class names a nonexistent basis symbol w4",
              "read w4 as w9; the derivation and the basis list both give 2k(w2 - w9)",
          )),
    Check("generator-pairs", "Lemma 9 Example",
          "the tangent and quaternionic classes (2,0) and (1,-2) span the realizable pairs, of index 4; "
          "(1,0) is not one",
          _generator_pairs),
    Check("exact-sequence-window", "Lemma 9",
          "stabilization kernel/image and subgroup structure hold on the window |a|,|b| <= {window}",
          _exact_sequence_window),
    Check("leaf-restrictions", "Theorem proof",
          "restriction to the two leaf spheres gives the pairs (-1, 2k) and (0, -2k)",
          _leaf_restrictions),
    Check("congruence-obstruction", "Theorem proof",
          "the two realizability congruences force k odd and k even; no integer satisfies both",
          _congruence_obstruction),
)

#: Canonical check ids, in certificate order.
CHECK_IDS = [c.id for c in CHECKS]

#: The solver's check when the symmetry constraint is dropped: the run ends with it.
_SOLVER_WITHOUT_SYMMETRY = Check(
    "pontryagin-solver", "Lemma 7", "with the symmetry constraint disabled the solution space is 2-dimensional",
    lambda run: (run.basis[0] == 2, f"dimension {run.basis[0]}"))


def run_checks(checks: list[Check], run: Run) -> VerificationReport:
    """Record each check in order; a ``ValueError`` it raises makes it fail."""
    rep = VerificationReport()
    for c in checks:
        try:
            ok, detail = c.test(run)
        except ValueError as exc:
            ok, detail = False, str(exc)
        rep.add(c.id, c.ref, c.statement.format(window=run.window), ok, detail)
        if c.erratum:
            rep.note_erratum(*c.erratum)
    return rep


def theorem_pipeline(
    window: int = DEFAULT_WINDOW,
    disable_symmetry: bool = False,
    skip_window: bool = False,
) -> VerificationReport:
    """Run every check and certify the contradiction.

    Diagnostic switches: ``disable_symmetry`` drops the focal-symmetry
    constraint (the solver then keeps a two-dimensional solution space and
    the run is INCONCLUSIVE); ``skip_window`` omits the finite-window bundle
    checks, which are independent of the congruence logic.
    """
    run = Run(window, disable_symmetry, skip_window)
    rep = run_checks(run.selected(), run)
    if not rep.all_passed():
        rep.theorem_status = "FAILED"
    else:
        rep.theorem_status = "INCONCLUSIVE" if disable_symmetry else "OBSTRUCTED"
    return rep
