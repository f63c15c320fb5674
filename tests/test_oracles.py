"""Differential oracles for the exact generation certificates and the
catalogue scan.

The known-order stabilizer chain (S_n, A_n) and orbit-stabilizer on
vectors (SL(2,p), PSL(2,p)) are checked against the deterministic chain
``bsgs_order`` and against closure, which know nothing of either.  The
unmixed catalogue scan is checked against a brute force that uses
neither the indexed tables nor fingerprint buckets.
"""

import random

import pytest

from beauville import core, gallery, perms, search
from beauville.constructions import (
    Abelian2,
    catalogue,
    dihedral,
    format_descriptor,
    group_from_descriptor,
)
from beauville.core import conjugacy_class, generated_subgroup, generates
from beauville.matgroups import PSL2Group, SL2Group, diag_mat, sl2_constants
from beauville.perms import (
    AlternatingGroup,
    SymmetricGroup,
    bsgs_order,
    parity,
    parse_cycles,
)
from beauville.structures import UnmixedStructure, check_unmixed


def _class_reps(G, elements):
    reps, seen = [], set()
    for x in elements:
        if x not in seen:
            cls = conjugacy_class(G, x)
            seen |= cls
            reps.append(min(cls))
    return reps


def _by_closure(G, a, c):
    return len(generated_subgroup(G, [a, c])) == G.order


@pytest.fixture
def fallbacks(monkeypatch):
    """Calls of the deterministic chain made while a test runs."""
    calls = []
    real = perms.bsgs_order

    def counting(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(perms, "bsgs_order", counting)
    return calls


@pytest.fixture
def no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closure ran for a backend with its own certificate")

    monkeypatch.setattr(core, "generated_subgroup", refuse)


@pytest.mark.parametrize("G", [SymmetricGroup(5), AlternatingGroup(5), AlternatingGroup(6)],
                         ids=lambda g: f"{g.kind}{g.n}")
def test_chain_certificate_all_pairs(G):
    elements = sorted(G.elements())
    for a in _class_reps(G, elements):
        for c in elements:
            want = bsgs_order([a, c]) == G.order
            assert _by_closure(G, a, c) == want
            assert G.generates_pair(a, c) == want, (a, c)


@pytest.mark.parametrize("G", [SymmetricGroup(7), AlternatingGroup(8)],
                         ids=lambda g: f"{g.kind}{g.n}")
def test_chain_certificate_seeded_pairs(G, fallbacks):
    rng = random.Random(7)
    elements = sorted(G.elements())
    positives = 0
    for _ in range(40):
        a, c = rng.choice(elements), rng.choice(elements)
        want = perms.StabilizerChain([a, c]).order == G.order
        assert _by_closure(G, a, c) == want
        before = len(fallbacks)
        assert G.generates_pair(a, c) == want, (a, c)
        if want:
            positives += 1
            # A positive is proved by the chain's lower bound alone.
            assert len(fallbacks) == before
    assert positives >= 20


def test_even_pairs_refuted_without_chain(fallbacks):
    # Two even permutations lie in A_7 < S_7.
    S7 = SymmetricGroup(7)
    evens = sorted(x for x in S7.elements() if parity(x) == 0)
    rng = random.Random(5)
    for _ in range(40):
        a, c = rng.choice(evens), rng.choice(evens)
        assert not _by_closure(S7, a, c)
        assert not S7.generates_pair(a, c), (a, c)
    # A_7's own generators reach all of A_7, still a proper subgroup.
    A7 = AlternatingGroup(7)
    assert not S7.generates_pair(*A7.generators)
    assert fallbacks == []


@pytest.mark.parametrize("G", [SL2Group(5), PSL2Group(7)], ids=lambda g: f"{g.kind}{g.p}")
def test_orbit_stabilizer_all_pairs(G):
    elements = sorted(G.elements())
    orbit_size = (G.p ** 2 - 1) // (2 if G.kind == "psl2" else 1)
    regular = 0
    for a in _class_reps(G, elements):
        for c in elements:
            size = len(generated_subgroup(G, [a, c]))
            assert G.generates_pair(a, c) == (size == G.order), (a, c)
            regular += size == orbit_size
    # 2.A4 in SL(2,5) and S4 in PSL(2,7) act regularly: a full orbit with
    # only trivial Schreier generators, the second kind of negative.
    assert regular > 0


@pytest.mark.parametrize("G", [SL2Group(7), PSL2Group(11)], ids=lambda g: f"{g.kind}{g.p}")
def test_orbit_stabilizer_seeded_pairs(G):
    rng = random.Random(11)
    elements = sorted(G.elements())
    for _ in range(150):
        a, c = rng.choice(elements), rng.choice(elements)
        assert G.generates_pair(a, c) == _by_closure(G, a, c), (a, c)


def test_regular_subgroups_are_refused():
    # 2.S4 <= SL(2,7) and A5 <= PSL(2,11) have order p^2-1 and (p^2-1)/2:
    # transitive on the orbit, yet proper.
    for G, size in ((SL2Group(7), 48), (PSL2Group(11), 60)):
        elements = sorted(G.elements())
        rng = random.Random(3)
        found = 0
        for _ in range(3000):
            a, c = rng.choice(elements), rng.choice(elements)
            if len(generated_subgroup(G, [a, c])) == size:
                assert not G.generates_pair(a, c)
                found += 1
                if found == 3:
                    break
        assert found == 3


def test_negative_kinds(fallbacks, no_closure):
    # Intransitive: decided by the level-0 orbit, no chain.
    S7 = SymmetricGroup(7)
    assert not generates(S7, parse_cycles("(1,2)", 7), parse_cycles("(3,4,5,6,7)", 7))
    assert fallbacks == []
    # Imprimitive: blocks {1,2},{3,4},{5,6},{7,8}; the chain can never reach
    # |A8|, so the deterministic chain decides.
    A8 = AlternatingGroup(8)
    assert not generates(A8, parse_cycles("(1,3,5,7)(2,4,6,8)", 8),
                         parse_cycles("(1,2)(3,4)", 8))
    assert len(fallbacks) == 1
    # Primitive proper subgroup AGL(1,7) = <x+1, 3x> of S7 (order 42).
    shift = tuple((x + 1) % 7 for x in range(7))
    scale = tuple((3 * x) % 7 for x in range(7))
    assert bsgs_order([shift, scale]) == 42
    fallbacks.clear()
    assert not generates(S7, shift, scale)
    assert len(fallbacks) == 1
    # Borel: upper triangular, the orbit of e1 is a line.
    for p in (7, 11):
        k = sl2_constants(p)
        assert not generates(SL2Group(p), k["T"], diag_mat(p, 2))
        G = PSL2Group(p)
        assert not generates(G, G.project(k["T"]), G.project(diag_mat(p, 2)))
        assert generates(G, G.project(k["B"]), G.project(k["S"]))


def test_large_positives_without_closure_or_fallback(fallbacks, no_closure):
    pw = gallery.alt_pair_2_3_84(16)
    assert generates(pw.group, pw.a, pw.c)
    k = sl2_constants(71)
    assert generates(SL2Group(71), k["B"], k["S"])
    assert fallbacks == []


def test_reports_are_deterministic():
    sym = gallery.sym_structure(8)
    G = SL2Group(13)
    first = gallery.sl2_pair_46p(13)
    second = gallery.sl2_pair_qqq_nonsplit(13, 7)
    sl2 = UnmixedStructure(G, first.a, first.c, second.a, second.c)
    for v in (sym, sl2):
        one = check_unmixed(v.group, v).to_json()
        assert one == check_unmixed(v.group, v).to_json()
        assert one["verdict"] == "pass"


@pytest.mark.parametrize("G, label", [
    (SymmetricGroup(6), "bsgs"),
    (SL2Group(5), "orbit-stabilizer"),
    (Abelian2(5), "determinant"),
    (dihedral(5), "closure"),
])
def test_generation_strategy_names_the_certificate(G, label):
    a, c = G.generators
    v = UnmixedStructure(G, a, c, a, c)
    report = check_unmixed(G, v)
    strategies = {cond.id: cond.strategy for cond in report.conditions}
    assert strategies["generates-1"] == strategies["generates-2"] == label


def _has_structure_by_brute_force(G) -> bool:
    """Whether G has an unmixed structure: two generating hyperbolic pairs
    whose sets of conjugacy classes of powers of a, c and ac meet only in
    the identity class.  Generation is checked by closure.  The set of
    such class sets is invariant under conjugating the pair, so a runs
    over class representatives only."""
    elements = sorted(G.elements(), key=repr)
    class_of = {}
    for x in elements:
        if x not in class_of:
            cls = conjugacy_class(G, x)
            class_of.update(dict.fromkeys(cls, cls))
    reps = sorted({min(cls, key=repr) for cls in class_of.values()}, key=repr)

    def power_classes(g):
        out, x = set(class_of[G.identity]), g
        while x != G.identity:
            out |= class_of[x]
            x = G.mul(x, g)
        return out

    sigmas = set()
    for a in reps:
        r = G.element_order(a)
        for c in elements:
            ac = G.mul(a, c)
            s, t = G.element_order(c), G.element_order(ac)
            if s * t + r * t + r * s >= r * s * t:
                continue
            if len(generated_subgroup(G, [a, c])) != G.order:
                continue
            sigmas.add(frozenset(power_classes(a) | power_classes(c) | power_classes(ac)))
    return any(s1 & s2 == {G.identity} for s1 in sigmas for s2 in sigmas)


def test_unmixed_scan_against_brute_force(monkeypatch):
    # (Z/5)^2, off the catalogue, has structures: the positive control.
    descs = catalogue(48) + [{"kind": "ab2", "n": 5}]
    monkeypatch.setattr(search, "catalogue", lambda max_order: descs)
    rep = search.scan_catalogue(48, "unmixed")
    assert rep["complete"] is True
    assert rep["groups_scanned"] == len(descs)
    hits = {f["group"] for f in rep["found"]}
    assert hits == {"ab2:5"}
    for desc in descs:
        G = group_from_descriptor(desc)
        name = format_descriptor(desc)
        assert (name in hits) == _has_structure_by_brute_force(G), name
