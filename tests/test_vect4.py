import re

import pytest
from hypothesis import given, strategies as st

from d4check import vect4
from lemma9_walk import walk

#: the detail keys of the window check, read by report consumers
WINDOW_KEYS = (
    "kernel_is_tau_multiples",
    "image_is_even_integers",
    "realizable_closed_under_group_ops",
    "realizable_has_index_4",
    "decompose_roundtrip",
)


def test_generator_pairs():
    assert vect4.tau() == (2, 0)
    assert vect4.gamma() == (1, -2)


def test_generators_realizable():
    assert vect4.is_realizable(*vect4.tau())
    assert vect4.is_realizable(*vect4.gamma())


def test_unrealizable_pair():
    assert not vect4.is_realizable(1, 0)


def test_zero_is_realizable():
    assert vect4.is_realizable(0, 0)


def test_group_operations():
    assert vect4.compose(1, 1) == (3, -2)
    assert vect4.compose(0, -1) == (-1, 2)
    assert vect4.compose(0, 0) == (0, 0)
    assert vect4.compose(1, 0) == vect4.tau()


def test_decompose_generators():
    assert vect4.decompose(vect4.tau()) == (1, 0)
    assert vect4.decompose(vect4.gamma()) == (0, 1)
    assert vect4.decompose((3, -2)) == (1, 1)


def test_decompose_rejects_unrealizable():
    with pytest.raises(ValueError):
        vect4.decompose((1, 0))


def test_decompose_is_exact_on_a_box():
    # every quotient is tested for a remainder: an odd b and an odd a - m both raise
    for a in range(-9, 10):
        for b in range(-9, 10):
            if (2 * a - b) % 4:
                with pytest.raises(ValueError, match=re.escape(f"class {(a, b)} is not")):
                    vect4.decompose((a, b))
            else:
                assert vect4.compose(*vect4.decompose((a, b))) == (a, b)


@given(st.integers(), st.integers())
def test_rule_and_lattice_hold_for_every_integer(x, y):
    # p1 = 2e (mod 4) on unbounded pairs; decompose inverts compose on the whole lattice
    assert vect4.is_realizable(x, y) == ((2 * x - y) % 4 == 0)
    assert vect4.decompose(vect4.compose(x, y)) == (x, y)


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_decompose_roundtrip(n, m):
    assert vect4.decompose(vect4.compose(n, m)) == (n, m)


def test_stabilize_examples():
    assert vect4.stabilize(vect4.tau()) == 0
    assert vect4.stabilize(vect4.gamma()) == -2
    assert vect4.stabilize((0, 0)) == 0


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_stable_class_must_be_even(n, m):
    assert vect4.stabilize(vect4.compose(n, m)) % 2 == 0


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_g_is_a_homomorphism(a1, b1, a2, b2):
    # 2a - b mod 4 is additive: adding a realizable pair keeps (non-)realizability
    if vect4.is_realizable(a1, b1):
        assert vect4.is_realizable(a1 + a2, b1 + b2) == vect4.is_realizable(a2, b2)


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
def test_stabilize_is_additive(n1, m1, n2, m2):
    x, y = vect4.compose(n1, m1), vect4.compose(n2, m2)
    assert vect4.stabilize(vect4.compose(n1 + n2, m1 + m2)) == vect4.stabilize(x) + vect4.stabilize(y)


def test_realizable_has_index_four():
    hits = sum(
        1
        for a in range(4)
        for b in range(4)
        if vect4.is_realizable(a, b)
    )
    assert hits == 4


def test_exact_sequence_window():
    assert all(vect4.verify_exact_sequence(20).values())


@pytest.mark.parametrize("window", [4, 5, 6, 7, 8, 9, 21, 200, 201, 10000])
def test_exact_sequence_window_sizes(window):
    # odd windows included: the image is compared with the even integers of the box;
    # the check reads one column at a time, so a window of 10000 is cheap
    assert vect4.verify_exact_sequence(window) == dict.fromkeys(WINDOW_KEYS, True)


#: the rule, a form it is equivalent to (realizable pairs have b even), and wrong forms
@pytest.mark.parametrize("rule", [(2, -1, 4), (2, 1, 4), (1, -1, 4), (2, -1, 2), (2, -1, 8), (2, -2, 4), (0, -1, 4)])
@pytest.mark.parametrize("window", [4, 5, 6, 7, 20, 21])
def test_exact_sequence_window_agrees_with_the_walk(monkeypatch, rule, window):
    # the columns read off the rule say what asking is_realizable at every pair of the box says
    monkeypatch.setattr(vect4, "RULE", rule)
    seq = vect4.verify_exact_sequence(window)
    assert seq == walk(window)
    assert seq["realizable_closed_under_group_ops"] is (rule in ((2, -1, 4), (2, 1, 4)))


# the certificate reads the rule, not is_realizable, so a point fault planted in
# is_realizable is caught by the pair-by-pair walk of tests/lemma9_walk.py;
# (20, 19) is the last pair of the walk's last odd column
@pytest.mark.parametrize("extra", [(-20, -19), (1, 0), (20, 19), (19, 20)])
def test_exact_sequence_window_sees_one_extra_pair(monkeypatch, extra):
    # the realizable pairs of the box are compared with its lattice points one for one
    exact = vect4.is_realizable
    monkeypatch.setattr(vect4, "is_realizable", lambda a, b: (a, b) == extra or exact(a, b))
    assert walk(20)["realizable_closed_under_group_ops"] is False


#: one wrong datum for the window-20 walk: the function it is planted in, the fault, the key it flips
WALK_FAULTS = {
    "lattice-pair-dropped": (
        "is_realizable",
        lambda exact: lambda a, b: (a, b) != (2, 0) and exact(a, b),
        "realizable_closed_under_group_ops",
    ),
    "point-mis-decomposed": (
        "decompose",
        lambda exact: lambda x: (0, 1) if x == (2, 0) else exact(x),
        "decompose_roundtrip",
    ),
    "point-mis-stabilized": (
        "stabilize",
        lambda exact: lambda x: 21 if x == (-20, 20) else exact(x),
        "image_is_even_integers",
    ),
}


@pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
def test_exact_sequence_walk_sees_one_wrong_datum(monkeypatch, fault):
    name, plant, key = WALK_FAULTS[fault]
    monkeypatch.setattr(vect4, name, plant(getattr(vect4, name)))
    assert walk(20) == dict(dict.fromkeys(WINDOW_KEYS, True), **{key: False})


@pytest.mark.parametrize(
    "name, plant, keys",
    [
        # the first end of column 20 is the point the column is stabilized at
        ("stabilize", lambda exact: lambda x: 21 if x == (-20, 20) else exact(x), ["image_is_even_integers"]),
        ("decompose", lambda exact: lambda x: (0, 1) if x == (20, 0) else exact(x), ["decompose_roundtrip"]),
        # the last end of column 2 is (19, 2); the next lattice point there makes the range one longer than the rule's
        (
            "compose",
            lambda exact: lambda n, m: (21, 2) if (n, m) == (10, -1) else exact(n, m),
            ["realizable_closed_under_group_ops", "decompose_roundtrip"],
        ),
    ],
    ids=["end-mis-stabilized", "end-mis-decomposed", "end-mis-composed"],
)
def test_exact_sequence_window_sees_one_wrong_column_end(monkeypatch, name, plant, keys):
    monkeypatch.setattr(vect4, name, plant(getattr(vect4, name)))
    assert vect4.verify_exact_sequence(20) == dict(dict.fromkeys(WINDOW_KEYS, True), **dict.fromkeys(keys, False))


def test_exact_sequence_walk_rejects_off_lattice_compose(monkeypatch):
    # decompose raises on the off-lattice class; obstruct reports the check failed
    exact = vect4.compose
    monkeypatch.setattr(vect4, "compose", lambda n, m: (1, 0) if (n, m) == (1, 0) else exact(n, m))
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        walk(20)


# lattice points of the box |a|, |b| <= window
@pytest.mark.parametrize("window, points", [(20, 431), (21, 451), (200, 40301)])
def test_exact_sequence_walk_call_counts(monkeypatch, window, points):
    calls = dict.fromkeys(("is_realizable", "compose", "decompose", "stabilize"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(vect4, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(vect4, name, counted)
    assert all(walk(window).values())
    # the walk: one call per pair of the box, one per lattice point, and the tau multiples of the kernel check
    assert calls == {
        "is_realizable": (2 * window + 1) ** 2,
        "compose": points + 2 * (window // 2) + 1,
        "decompose": points,
        "stabilize": points,
    }
    calls.update(dict.fromkeys(calls, 0))
    assert all(vect4.verify_exact_sequence(window).values())
    # the certificate asks about no pair: per even column, its two ends, one of them stabilized
    columns = 2 * (window // 2) + 1
    assert calls == {"is_realizable": 0, "compose": 2 * columns, "decompose": 2 * columns, "stabilize": columns}


def test_leaf_congruence_odd():
    assert vect4.leaf_congruence(-1, 2) == ("-2k - 2 == 0 (mod 4)", [1, 3])


def test_leaf_congruence_even():
    assert vect4.leaf_congruence(0, -2) == ("2k == 0 (mod 4)", [0, 2])


def test_leaf_congruence_unsatisfiable():
    assert vect4.leaf_congruence(1, 0)[1] == []


def test_leaf_congruence_render_signs():
    assert vect4.leaf_congruence(-1, 2)[0] == "-2k - 2 == 0 (mod 4)"
    assert vect4.leaf_congruence(0, -2)[0] == "2k == 0 (mod 4)"
    assert vect4.leaf_congruence(1, -2)[0] == "2k + 2 == 0 (mod 4)"


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-100, 100))
def test_leaf_congruence_residues_decide_every_k(a, b, k):
    assert vect4.is_realizable(a, k * b) == (k % 4 in vect4.leaf_congruence(a, b)[1])


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_leaf_congruence_text_agrees_with_residues(a, b):
    # the text is written by hand, the residues come from is_realizable
    text, residues = vect4.leaf_congruence(a, b)
    match = re.fullmatch(r"(-?\d+)k(?: ([+-]) (\d+))? == 0 \(mod 4\)", text)
    assert match is not None, text
    c1 = int(match[1])
    c0 = int(match[3] or 0) * (-1 if match[2] == "-" else 1)
    assert residues == [k for k in range(4) if (c1 * k + c0) % 4 == 0]


def test_kernel_elements_are_tau_multiples():
    # oracle: exhaustive scan of the window
    window = 20
    kernel = [
        (a, b)
        for a in range(-window, window + 1)
        for b in range(-window, window + 1)
        if vect4.is_realizable(a, b) and b == 0
    ]
    assert kernel == [(2 * n, 0) for n in range(-window // 2, window // 2 + 1)]


def test_image_of_stabilize_is_even():
    window = 20
    image = {
        vect4.stabilize((a, b))
        for a in range(-window, window + 1)
        for b in range(-window, window + 1)
        if vect4.is_realizable(a, b)
    }
    assert -2 in image
    assert all(p % 2 == 0 for p in image)
    assert image == set(range(-window, window + 1, 2))
