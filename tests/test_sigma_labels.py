"""Sigma-set disjointness on S_n and A_n from the cycle type.

``power_labels`` on S_n and A_n reads the labels of all powers of x off
its cycle type: one label per divisor of ord x, plus the other A_n half
of a split class when a Jacobi symbol says it occurs.  It is checked
against the labels of the explicit powers.  The exact sigma test built
on it is checked, verdict and witness, against the test that labelled
every power of a, c and ac on both sides, which is copied here.
"""

import json
import math
import random
from pathlib import Path

import pytest

from beauville import structures
from beauville.core import MalformedElementError
from beauville.gallery import alt_reality_structure, sym_structure
from beauville.literals import structure_from_json
from beauville.perms import AlternatingGroup, SymmetricGroup, cycle_to_perm, pmul
from beauville.structures import UnmixedStructure, check_unmixed, try_sigma_disjoint

BASE = Path(__file__).resolve().parents[1] / "perfbench" / "base.json"


def _explicit_labels(G, x) -> set:
    """``class_label`` of each power of x, formed one product at a time."""
    out, acc = {G.class_label(G.identity)}, x
    while acc != G.identity:
        out.add(G.class_label(acc))
        acc = G.mul(acc, x)
    return out


def _random_element(G, rng):
    points = list(range(G.n))
    rng.shuffle(points)
    x = tuple(points)
    if not G.contains(x):  # an odd permutation, in A_n: drop it into the coset
        x = pmul(cycle_to_perm([0, 1], G.n), x)
    return x


def _with_parts(n, parts):
    """The element whose cycles, of the given lengths, run over consecutive points."""
    x, start = tuple(range(n)), 0
    for k in parts:
        x = pmul(cycle_to_perm(list(range(start, start + k)), n), x)
        start += k
    return x


SMALL = [SymmetricGroup(n) for n in (5, 6, 7)] + [AlternatingGroup(n) for n in (5, 6, 7, 8)]


@pytest.mark.parametrize("G", SMALL, ids=lambda G: f"{G.kind}{G.n}")
def test_power_labels_on_every_element(G):
    for x in G.elements():
        assert G.power_labels(x) == _explicit_labels(G, x), x


@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("kind", [SymmetricGroup, AlternatingGroup])
def test_power_labels_on_seeded_elements(kind, n):
    G, rng = kind(n), random.Random(n)
    for _ in range(60):
        x = _random_element(G, rng)
        assert G.power_labels(x) == _explicit_labels(G, x), x


@pytest.mark.parametrize("n, parts, halves", [
    (10, (1, 9), 1),     # 1 * 9 is a square: every unit power stays in its half
    (9, (1, 3, 5), 2),   # 15 is not
    (5, (5,), 2),        # the 5-cycles
])
def test_power_labels_on_split_classes(n, parts, halves):
    G = AlternatingGroup(n)
    x = _with_parts(n, parts)
    split = {label for label in G.power_labels(x) if label[0] == parts}
    assert len(split) == halves
    assert G.power_labels(x) == _explicit_labels(G, x)


def test_a5_five_cycle_and_its_square_lie_in_different_halves():
    G = AlternatingGroup(5)
    x = _with_parts(5, (5,))
    assert G.class_label(x) != G.class_label(G.mul(x, x))


# -- the exact sigma test against the all-powers test it replaced -------------


def _all_powers(G, a, c) -> list:
    G.check_element(a)
    G.check_element(c)
    out = [G.identity]
    for x in (a, c, G.mul(a, c)):
        acc = x
        while acc != G.identity:
            out.append(acc)
            acc = G.mul(acc, x)
    return out


def _old_exact(G, p1, p2):
    label = G.class_label
    theirs = {label(y) for y in _all_powers(G, *p2)} - {label(G.identity)}
    extra = [y for y in _all_powers(G, *p1) if label(y) in theirs]
    return (not extra), "exact", (min(extra, key=repr) if extra else None)


def _assert_same(G, p1, p2):
    got = try_sigma_disjoint(G, p1, p2, strategy="exact")
    assert got == _old_exact(G, p1, p2), (p1, p2)
    return got[0]


def _cycle(G, rng):
    """A random cycle of random length, made even on A_n."""
    points = rng.sample(range(G.n), rng.randrange(2, G.n + 1))
    x = cycle_to_perm(points, G.n)
    return x if G.contains(x) else pmul(cycle_to_perm(points[:2], G.n), x)


@pytest.mark.parametrize("G", [SymmetricGroup(8), SymmetricGroup(11), SymmetricGroup(14),
                               AlternatingGroup(16)], ids=lambda G: f"{G.kind}{G.n}")
def test_exact_sigma_test_matches_all_powers_on_seeded_pairs(G):
    rng = random.Random(G.n)
    verdicts = set()
    for i in range(40):
        # Single cycles with the identity as well as random pairs, so that
        # both verdicts occur.
        if i % 2:
            p1 = (_random_element(G, rng), _random_element(G, rng))
            p2 = (_random_element(G, rng), _random_element(G, rng))
        else:
            p1, p2 = (_cycle(G, rng), G.identity), (_cycle(G, rng), G.identity)
        verdicts.add(_assert_same(G, p1, p2))
    assert verdicts == {True, False}


@pytest.mark.parametrize("v", [sym_structure(n) for n in (8, 11, 14, 17)]
                         + [alt_reality_structure(13)],
                         ids=lambda v: f"{v.group.kind}{v.group.n}")
def test_exact_sigma_test_matches_all_powers_on_gallery_structures(v):
    G, (p1, p2) = v.group, v.pairs()
    assert _assert_same(G, p1, p2) is True
    assert _assert_same(G, p2, p1) is True
    assert _assert_same(G, p1, p1) is False
    assert _assert_same(G, (G.mul(*p1), G.identity), p1) is False
    assert _assert_same(G, p2, (p2[0], p1[1])) is False


def _benchmark_structures():
    base = json.loads(BASE.read_text())
    return [pytest.param(t["id"], structure_from_json(t["args"]["structure"]), id=t["id"])
            for workload in ("certify", "refute") for t in base[workload]
            if t["id"].startswith(("check-", "meet-")) and t["relabel"] == "perm"]


@pytest.mark.parametrize("name, v", _benchmark_structures())
def test_exact_sigma_test_matches_all_powers_on_benchmark_templates(name, v):
    G, (p1, p2) = v.group, v.pairs()
    assert _assert_same(G, p1, p2) is name.startswith("check-")
    assert _assert_same(G, p2, p1) is name.startswith("check-")


# -- inputs and metrics ---------------------------------------------------------


@pytest.mark.parametrize("slot", range(4))
def test_exact_sigma_test_rejects_a_non_element(slot):
    v = sym_structure(8)
    G = v.group
    bad = (1, 0, 2, 3, 4, 5, 6)  # a permutation of 7 points, not of 8
    words = [v.a1, v.c1, v.a2, v.c2]
    words[slot] = bad
    with pytest.raises(MalformedElementError, match=r"is not an element of <SymmetricGroup"):
        try_sigma_disjoint(G, tuple(words[:2]), tuple(words[2:]), strategy="exact")


def test_exact_sigma_test_checks_the_second_pair_first():
    # As the all-powers test did: the first non-element of a2, c2, a1, c1 is named.
    G = AlternatingGroup(5)
    odd1, odd2 = cycle_to_perm([0, 1], 5), cycle_to_perm([1, 2], 5)
    with pytest.raises(MalformedElementError) as got:
        try_sigma_disjoint(G, (odd1, G.identity), (odd2, G.identity), strategy="exact")
    with pytest.raises(MalformedElementError) as want:
        _old_exact(G, (odd1, G.identity), (odd2, G.identity))
    assert str(got.value) == str(want.value) == f"{odd2!r} is not an element of {G!r}"


def test_check_unmixed_computes_pair_metrics_once_per_pair(monkeypatch):
    calls = []
    original = structures.pair_metrics

    def counting(G, a, c):
        calls.append((a, c))
        return original(G, a, c)

    monkeypatch.setattr(structures, "pair_metrics", counting)
    v = sym_structure(11)
    report = check_unmixed(v.group, v)
    assert report.passed
    assert sorted(calls) == sorted(v.pairs())
    # A shared divisor of the nu values sends the ladder to the exact rung.
    G = v.group
    w = UnmixedStructure(G, v.a1, v.c1, v.a1, v.c1)
    calls.clear()
    assert not check_unmixed(G, w).passed
    assert len(calls) == 2 and math.gcd(*(original(G, *p).nu for p in w.pairs())) > 1
