"""Sigma-set disjointness on S_n and A_n from the cycle type.

``power_labels`` on S_n and A_n reads the labels of all powers of x off
its cycle type: one label per divisor of ord x, plus the other A_n half
of a split class when a Jacobi symbol says it occurs.  ``prime_labels``
reads the cycle type q^k of every element of prime order q in <x>, and
``matching_powers`` the powers whose label is in a given set.  Each is
checked against the explicit powers.  The exact sigma test built on
them is checked, verdict and witness, against the test that labelled
every power of a, c and ac on both sides, and against the previous
test, which decided from the power labels of every word; both are
copied here.
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
from beauville.matgroups import PSL2Group, SL2Group
from beauville.perms import (
    AlternatingGroup,
    SymmetricGroup,
    _jacobi,
    cycle_to_perm,
    cycles_of,
    perm_order,
    pmul,
)
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


# -- prime labels and matching powers against the explicit powers ---------------


def _explicit_powers(G, x) -> list:
    """x, x^2, ..., up to the last power before the identity."""
    out, acc = [], x
    while acc != G.identity:
        out.append(acc)
        acc = G.mul(acc, x)
    return out


def _check_prime_and_matching(G, x, other):
    """``prime_labels(x)`` is the (q, number of cycles) of each power of x
    of prime order q.  ``matching_powers(x, labels)`` keeps the powers
    whose label is in labels: tried with all labels of x, its class
    alone, the other half of a split class alone, and the nontrivial
    power labels of another element."""
    powers = _explicit_powers(G, x)
    labels = [G.class_label(y) for y in powers]
    primes = set()
    for y in powers:
        q = perm_order(y)
        if all(q % d for d in range(2, q)):
            primes.add((q, len(cycles_of(y))))
    assert G.prime_labels(x) == primes, x
    own = G.class_label(x)
    tries = [set(labels), {own}, _explicit_labels(G, other) - {G.class_label(G.identity)}]
    if G.kind == "alt" and isinstance(own[0], tuple):
        tries.append({(own[0], 1 - own[1])})
    for wanted in tries:
        want = [y for y, label in zip(powers, labels) if label in wanted]
        assert G.matching_powers(x, wanted) == want, (x, wanted)


def _explicit_matches(G, x, labels) -> list:
    return [y for y in _explicit_powers(G, x) if G.class_label(y) in labels]


@pytest.mark.parametrize("G", SMALL, ids=lambda G: f"{G.kind}{G.n}")
def test_prime_labels_and_matching_powers_on_every_element(G):
    rng = random.Random(G.n)
    elements = sorted(G.elements())
    for x in elements:
        _check_prime_and_matching(G, x, rng.choice(elements))


@pytest.mark.parametrize("n, parts", [(5, (5,)), (7, (7,)), (8, (1, 7)), (8, (3, 5)), (9, (1, 3, 5))])
def test_matching_powers_picks_the_half_of_each_unit_power(n, parts):
    # The split 5- and 7-cycles of A_5, A_7 and A_8, and two split classes
    # with more than one cycle: each half alone matches exactly the unit
    # powers that lie in it.
    G = AlternatingGroup(n)
    x = _with_parts(n, parts)
    own = G.class_label(x)
    assert isinstance(own[0], tuple)
    for half in (own, (own[0], 1 - own[1])):
        got = G.matching_powers(x, {half})
        assert got == _explicit_matches(G, x, {half})
        assert got
    _check_prime_and_matching(G, x, x)


@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("kind", [SymmetricGroup, AlternatingGroup])
def test_prime_labels_and_matching_powers_on_seeded_elements(kind, n):
    G, rng = kind(n), random.Random(100 + n)
    for _ in range(40):
        _check_prime_and_matching(G, _random_element(G, rng), _random_element(G, rng))
    for _ in range(20):
        _check_prime_and_matching(G, _cycle(G, rng), _random_element(G, rng))


@pytest.mark.parametrize("G", [SL2Group(5), SL2Group(7), PSL2Group(7), PSL2Group(11)],
                         ids=lambda G: f"{G.kind}{G.p}")
def test_default_prime_labels_and_matching_powers_on_every_element(G):
    # The defaults, which SL(2,p) and PSL(2,p) use: the prime orders in
    # <x>, and one labelled walk.
    elements = sorted(G.elements())
    rng = random.Random(G.p)
    for x in elements:
        powers = _explicit_powers(G, x)
        orders = {G.element_order(y) for y in powers}
        assert G.prime_labels(x) == {q for q in orders if all(q % d for d in range(2, q))}
        wanted = _explicit_labels(G, rng.choice(elements)) - {G.class_label(G.identity)}
        assert G.matching_powers(x, wanted) == [y for y in powers if G.class_label(y) in wanted]


def test_jacobi_symbol_is_the_sign_of_multiplication():
    # Zolotarev's lemma as the A_n labels use it: i -> k i on Z/n has
    # sign (k / n) for odd n.
    for n in range(1, 46, 2):
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                perm = tuple(k * i % n for i in range(n))
                lengths = [len(c) for c in cycles_of(perm, include_fixed=True)]
                sign = (-1) ** (n - len(lengths))
                assert _jacobi(k, n) == sign, (k, n)


def test_least_by_repr_is_min_by_repr():
    rng = random.Random(7)
    for length in (1, 2, 4, 9):
        for _ in range(300):
            items = [tuple(rng.choice([rng.randrange(12), rng.randrange(200), -rng.randrange(30)])
                           for _ in range(length)) for _ in range(rng.randrange(1, 12))]
            assert structures._least_by_repr(items) == min(items, key=repr), items


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


# -- the exact sigma test against the previous one, on every label backend ------


def _previous_exact(G, p1, p2):
    """The exact label test before prime labels: the labels of every
    power of a2, c2 and a2c2, then the powers of each word of side 1
    whose power labels meet them.  ``power_labels`` is replaced by the
    labels of the explicit powers, which it equals (tests above)."""
    label = G.class_label
    for x in (*p2, *p1):
        G.check_element(x)
    (a1, c1), (a2, c2) = p1, p2
    theirs = set().union(*(_explicit_labels(G, x) for x in (a2, c2, G.mul(a2, c2))))
    theirs.discard(label(G.identity))
    extra = [y for x in (a1, c1, G.mul(a1, c1)) if not _explicit_labels(G, x).isdisjoint(theirs)
             for y in _explicit_powers(G, x) if label(y) in theirs]
    return (not extra), "exact", (min(extra, key=repr) if extra else None)


def _random_matrix(G, rng):
    p = G.p
    while True:
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a:
            x = (a, b, c, (1 + b * c) * pow(a, -1, p) % p)
            return G.project(x)


def _seeded_pairs(G, rng, element, count=40):
    """Random pairs, and single elements paired with the identity so that
    both verdicts occur."""
    for i in range(count):
        if i % 2:
            yield ((element(G, rng), element(G, rng)), (element(G, rng), element(G, rng)))
        else:
            yield (element(G, rng), G.identity), (element(G, rng), G.identity)


def _agree_with_previous(G, pairs):
    verdicts = set()
    for p1, p2 in pairs:
        got = try_sigma_disjoint(G, p1, p2, strategy="exact")
        assert got == _previous_exact(G, p1, p2), (p1, p2)
        verdicts.add(got[0])
    assert verdicts == {True, False}


PERM_GROUPS = [kind(n) for kind, n in [(SymmetricGroup, 5), (SymmetricGroup, 9), (SymmetricGroup, 17),
                                       (SymmetricGroup, 28), (SymmetricGroup, 40),
                                       (AlternatingGroup, 5), (AlternatingGroup, 8),
                                       (AlternatingGroup, 13), (AlternatingGroup, 24),
                                       (AlternatingGroup, 40)]]


@pytest.mark.parametrize("G", PERM_GROUPS, ids=lambda G: f"{G.kind}{G.n}")
def test_exact_sigma_test_matches_previous_on_seeded_perm_pairs(G):
    rng = random.Random(300 + G.n)
    # Cycles make passing pairs; random elements make the failing ones.
    _agree_with_previous(G, _seeded_pairs(G, rng, lambda G, rng: rng.choice(
        [_cycle, _random_element])(G, rng)))


@pytest.mark.parametrize("G", [kind(p) for kind in (SL2Group, PSL2Group) for p in (5, 7, 13, 31, 37)],
                         ids=lambda G: f"{G.kind}{G.p}")
def test_exact_sigma_test_matches_previous_on_seeded_matrix_pairs(G):
    _agree_with_previous(G, _seeded_pairs(G, random.Random(400 + G.p), _random_matrix))


@pytest.mark.parametrize("G", [SymmetricGroup(6), AlternatingGroup(7), SL2Group(13), PSL2Group(13)],
                         ids=lambda G: f"{G.kind}{getattr(G, 'n', getattr(G, 'p', ''))}")
def test_exact_sigma_test_reads_both_product_words(G):
    # Pairs whose sets meet only through the product word of one side:
    # z = a c shares no nontrivial power label with a or c.
    rng, nontrivial = random.Random(11), lambda x: _explicit_labels(G, x) - {G.class_label(G.identity)}
    element = _random_matrix if isinstance(G, (SL2Group, PSL2Group)) else _random_element
    found = 0
    for _ in range(2000):
        a, c = element(G, rng), element(G, rng)
        z = G.mul(a, c)
        if z == G.identity or not nontrivial(z).isdisjoint(nontrivial(a) | nontrivial(c)):
            continue
        for p1, p2 in (((z, G.identity), (a, c)), ((a, c), (z, G.identity))):
            got = try_sigma_disjoint(G, p1, p2, strategy="exact")
            assert got == _previous_exact(G, p1, p2)
            assert got[0] is False and G.class_label(got[2]) in nontrivial(z)
        found += 1
        if found == 5:
            break
    assert found == 5


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
