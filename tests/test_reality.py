import random

import pytest

from beauville.constructions import (
    H4,
    Abelian2,
    Wallpaper,
    dihedral,
    group_from_descriptor,
    parse_descriptor,
)
from beauville.core import (
    CapacityExceeded,
    MalformedElementError,
    PreconditionError,
    generated_subgroup,
)
from beauville.gallery import (
    alt_pair_2_3_84,
    alt_pair_skew,
    h4_mixed_structure,
    sl2_pair_555,
    sym_structure,
)
from beauville.matgroups import PSL2Group, SL2Group, sl2_constants
from beauville.perms import (
    AlternatingGroup,
    SymmetricGroup,
    conjugator_search,
    parity,
    parse_cycles,
    pinv,
    pmul,
)
from beauville.reality import (
    StructureKeys,
    apply_sigma,
    backend_for,
    case_targets,
    iota_pair,
    it_orbit,
    lemma_case_table,
    reality_mixed,
    reality_unmixed,
)
from beauville.structures import UnmixedStructure, pair_metrics


def _random_pairs(G, count, seed):
    rng = random.Random(seed)
    els = sorted(generated_subgroup(G, G.generators, cap=10**5), key=repr)
    return [(rng.choice(els), rng.choice(els)) for _ in range(count)]


@pytest.mark.parametrize("G,seed", [
    (Abelian2(5), 1), (SymmetricGroup(6), 2), (SL2Group(5), 3),
    (dihedral(6), 4), (Wallpaper(3, 3), 5),
])
def test_sigma_relations(G, seed):
    for pair in _random_pairs(G, 30, seed):
        s1 = lambda p: apply_sigma(G, 1, p)
        s3 = lambda p: apply_sigma(G, 3, p)
        assert s1(s1(s1(pair))) == pair
        assert s3(s3(pair)) == pair
        assert apply_sigma(G, 2, pair) == s1(s1(pair))
        assert apply_sigma(G, 4, pair) == s1(s3(pair))
        assert apply_sigma(G, 5, pair) == s1(s1(s3(pair)))
        a, c = pair
        ci = G.inv(c)
        assert apply_sigma(G, 4, apply_sigma(G, 4, pair)) == (G.mul(ci, G.mul(a, c)), c)


def test_sigma_index_range():
    A = Abelian2(5)
    with pytest.raises(PreconditionError):
        apply_sigma(A, 6, ((1, 0), (0, 1)))


def test_sigma_preserves_generation():
    G = SL2Group(5)
    from beauville.core import generates

    k = sl2_constants(5)
    pair = (k["B"], k["S"])
    for i in range(6):
        x, y = apply_sigma(G, i, pair)
        assert generates(G, x, y)


def test_iota_involution_and_invariants():
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    assert v.inverted().inverted() == v
    for pair in _random_pairs(A, 20, 7):
        assert pair_metrics(A, *iota_pair(A, pair)).mu == pair_metrics(A, *pair).mu


def test_it_orbit_abelian():
    A = Abelian2(5)
    orbit = it_orbit(A, ((1, 0), (0, 1)))
    assert len(orbit) == 6
    # closed under every transformation
    for pair in orbit:
        for i in range(6):
            assert apply_sigma(A, i, pair) in orbit


def test_it_orbit_cap():
    S7 = SymmetricGroup(7)
    a = parse_cycles("(1,2)", 7)
    c = parse_cycles("(1,2,3,4,5,6,7)", 7)
    with pytest.raises(CapacityExceeded):
        it_orbit(S7, (a, c), cap=10)
    # A cap equal to the orbit size passes; one less raises with the label.
    # The structure orbit of 11520 4-tuples has 320 keys (side-orbit minima).
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    for orbit_of, label, size in (
        (lambda cap: it_orbit(A, (v.a1, v.c1), cap=cap), "pair orbit", 6),
        (lambda cap: StructureKeys(A, cap).orbit(v), "structure orbit", 320),
    ):
        assert len(orbit_of(size)) == size
        with pytest.raises(CapacityExceeded) as exc:
            orbit_of(size - 1)
        assert (exc.value.what, exc.value.cap) == (label, size - 1)


@pytest.mark.parametrize("G,pair", [
    (SymmetricGroup(5), ((1, 0, 2, 3, 4), (0, 0, 1, 2, 3))),  # not a permutation
    (SymmetricGroup(5), ((1, 0, 2, 3), (0, 1, 2, 3))),  # wrong degree
    (SymmetricGroup(5), ((0, 1, 2, 3), (1, 0, 2, 3, 4))),  # wrong degree, first
    (Abelian2(5), ((7, 0), (0, 1))),  # coordinate out of range
    (Abelian2(5), ((1, 0), (0, 1, 2))),  # wrong length
])
def test_it_orbit_rejects_non_elements(G, pair):
    with pytest.raises(MalformedElementError):
        it_orbit(G, pair)
    with pytest.raises(MalformedElementError):
        it_orbit(G, pair, cap=0)


def test_case_targets_match_sigma_algebra():
    # If psi realizes the case-i pattern then psi after sigma_i inverts the pair.
    G = SymmetricGroup(5)
    els = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random(9)
    for _ in range(6):
        a, c = rng.choice(els), rng.choice(els)
        for i in range(6):
            u, v = case_targets(G, i, a, c)
            for g in els:
                if pmul(g, pmul(a, pinv(g))) == u and pmul(g, pmul(c, pinv(g))) == v:
                    x, y = apply_sigma(G, i, (a, c))
                    got = (pmul(g, pmul(x, pinv(g))), pmul(g, pmul(y, pinv(g))))
                    assert got == (G.inv(a), G.inv(c))


def test_case_table_sym8_case0_unsolvable():
    S8 = SymmetricGroup(8)
    a = parse_cycles("(5,4,1)(2,6)", 8)
    c = parse_cycles("(1,2,3)(4,5,6,7,8)", 8)
    table = lemma_case_table(S8, (a, c))
    sol0 = table.entries[0]
    assert sol0 is not None and not sol0.labels and sol0.decided


def test_case_table_alt16_skew():
    pw = alt_pair_skew(8)
    table = lemma_case_table(pw.group, (pw.a, pw.c))
    # cases 0 and 3 are empty; case 5 is solvable by the witness
    assert table.entries[3] is None  # order mismatch kills the swap pattern
    assert table.entries[0] is not None and not table.entries[0].labels
    sol5 = table.entries[5]
    assert sol5 is not None and "odd" in sol5.labels


def test_case_table_abelian_case0():
    A = Abelian2(5)
    table = lemma_case_table(A, ((1, 0), (0, 1)))
    assert table.entries[0] is not None and table.entries[0].labels


def test_reality_abelian_always_real():
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    verdict = reality_unmixed(A, v)
    assert verdict.biholo_conjugate is True
    assert verdict.real is True
    assert verdict.strongly_real is True


def test_reality_sym8_not_biholo():
    v = sym_structure(8)
    verdict = reality_unmixed(v.group, v)
    assert verdict.biholo_conjugate is False
    assert verdict.real is False
    assert verdict.strongly_real is False


def test_reality_verdict_json():
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    data = reality_unmixed(A, v).to_json()
    assert data["real"] is True
    assert len(data["cases"]) == 2


def test_reality_mixed_coset_incompatible():
    M = h4_mixed_structure(11)
    impossible = {"possible": False, "labels": []}
    assert reality_mixed(M.group, M).to_json() == {
        "biholo_conjugate": False,
        "real": False,
        "strongly_real": None,
        "decided_by": "component-coset",
        "cases": [{"0": {"possible": True, "labels": [], "decided": True},
                   **{str(i): impossible for i in range(1, 6)}}],
    }


def test_reality_mixed_inner_only_real_needs_a_real_case():
    """Over H4(A4) only inner automorphisms are tried.  Case 4 alone is
    solved, and it squares to the identity only for a commuting pair, so
    the pair is biholomorphic to its conjugate but its reality is open.
    (check_mixed fails it on the conjugate sigma sets: the test pins the
    verdict rule, not a structure.)"""
    from beauville.structures import MixedQuadruple

    G = H4(AlternatingGroup(4))
    a = (parse_cycles("(1,4,3)", 4), parse_cycles("(1,3)(2,4)", 4), 2)
    c = (parse_cycles("(1,2,3)", 4), parse_cycles("(1,4,3)", 4), 0)
    assert len(generated_subgroup(G, [a, c])) == G.index2_order
    verdict = reality_mixed(G, MixedQuadruple(G, a, c, G.coset_rep))
    entries = verdict.tables[0].entries
    assert (entries[0].labels, entries[4].labels) == (frozenset(), {"inner"})
    assert (verdict.biholo_conjugate, verdict.real) == (True, None)


def test_reality_mixed_compatible_synthetic():
    """Components chosen with inversions solvable in a common coset give a
    conjugate-equivalent structure."""
    from beauville.structures import MixedQuadruple

    H = SL2Group(11)
    k = sl2_constants(11)
    # (B, S) inverts only in the W-coset; pairing it with itself shares that coset.
    G = H4(H)
    a = (k["B"], k["B"], 2)
    c = (k["S"], k["S"], 2)
    M = MixedQuadruple(G, a, c, G.coset_rep)
    verdict = reality_mixed(G, M)
    assert verdict.biholo_conjugate is True
    assert verdict.real is True


def test_reality_mixed_outer_class_for_p_1_mod_4():
    """Over SL(2,13), -1 is a square: the only inversions of this pair
    conjugate by a non-square determinant (the sl2:13 case labels of
    tests/test_oracles.py), and the shared label is the outer one."""
    from beauville.structures import MixedQuadruple

    G = H4(SL2Group(13))
    a1, c1 = (0, 1, 12, 0), (0, 11, 7, 4)
    M = MixedQuadruple(G, (a1, a1, 2), (c1, c1, 2), G.coset_rep)
    verdict = reality_mixed(G, M)
    assert verdict.tables[0].entries[0].labels == {"slw"}
    assert verdict.biholo_conjugate is True and verdict.real is True


def test_sl2_555_coset_selection():
    from beauville.matgroups import conjugation_cosets, minv

    for coset in ("sl", "slw"):
        pw = sl2_pair_555(11, coset)
        p = 11
        sols = conjugation_cosets(p, pw.a, minv(pw.a, p), pw.c, minv(pw.c, p))
        assert (sols["sl"] is not None) == (coset == "sl")
        assert (sols["slw"] is not None) == (coset == "slw")


def test_outer_maps_unknown():
    # Unknown outer maps: no orbit over keys, not a smaller automorphism set.
    for G in (dihedral(5), Abelian2(25)):  # no backend; composite modulus
        assert backend_for(G).outer is None
        with pytest.raises(PreconditionError):
            StructureKeys(G)


def test_outer_maps_are_automorphisms():
    for G in (Abelian2(5), SymmetricGroup(5), AlternatingGroup(5), SL2Group(5),
              SL2Group(13), PSL2Group(7), PSL2Group(13)):
        els = sorted(generated_subgroup(G, G.generators), key=repr)
        rng = random.Random(1)
        for f in backend_for(G).outer:
            assert {f(x) for x in els} == set(els)
            for _ in range(20):
                x, y = rng.choice(els), rng.choice(els)
                assert f(G.mul(x, y)) == G.mul(f(x), f(y))


@pytest.mark.parametrize("desc", ["sl2:5", "sl2:7", "sl2:13", "psl2:7", "psl2:13",
                                  "alt:5", "alt:7"])
def test_outer_maps_are_not_inner(desc):
    # Brute force over G: no element conjugates the generators as the map
    # does.  For p = 1 mod 4, conjugation by [[0,1],[1,0]] is inner.
    G = group_from_descriptor(parse_descriptor(desc))
    outer = backend_for(G).outer
    assert outer
    els = generated_subgroup(G, G.generators)
    for f in outer:
        images = [f(x) for x in G.generators]
        assert not any(all(G.mul(g, G.mul(x, G.inv(g))) == y
                           for x, y in zip(G.generators, images)) for g in els)


def test_alt_backend_labels_split_by_parity():
    # The labels are the parities of the S_n conjugators solving the case.
    G = AlternatingGroup(8)
    solve = backend_for(G).solve
    a = parse_cycles("(1,2,3)", 8)
    c = parse_cycles("(4,5,6)", 8)  # centralized by the odd (7,8)
    assert {parity(g) for g in conjugator_search(a, a, c, c)} == {0, 1}
    assert solve(G, a, c, a, c).labels == {"even", "odd"}
    c = parse_cycles("(4,5,6,7,8)", 8)
    assert {parity(g) for g in conjugator_search(a, a, c, c)} == {0}
    assert solve(G, a, c, a, c).labels == {"even"}


def test_backend_rejects_degree_six():
    with pytest.raises(PreconditionError):
        backend_for(SymmetricGroup(6))
    with pytest.raises(PreconditionError):
        backend_for(AlternatingGroup(6))


def test_equal_type_swap_decided_by_case_tables():
    # Two pairs of identical type multiset on a small abelian group: the
    # swap route is available, and the GL(2) case tables decide it.
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    m1 = pair_metrics(A, v.a1, v.c1)
    m2 = pair_metrics(A, v.a2, v.c2)
    assert m1.order_multiset() == m2.order_multiset()
    verdict = reality_unmixed(A, v)
    assert verdict.biholo_conjugate is True
    assert verdict.decided_by == "case-table"


def test_swap_route_on_s10_exchange_image():
    # The second pair is an exchange image of the first, whose own case
    # table is empty: only the swap route makes v biholomorphic to its
    # conjugate.  A key orbit of S_10 would outgrow any practical cap.
    G = SymmetricGroup(10)
    p1 = (parse_cycles("(1,2,3,4,5,6,7,8,9,10)", 10), parse_cycles("(1,2,4)(3,7)", 10))
    assert not lemma_case_table(G, p1).labels(range(6))
    g = parse_cycles("(1,7,3)(2,10)", 10)
    p2 = tuple(pmul(g, pmul(x, pinv(g))) for x in apply_sigma(G, 4, iota_pair(G, p1)))
    verdict = reality_unmixed(G, UnmixedStructure(G, *p1, *p2))
    assert (verdict.biholo_conjugate, verdict.real, verdict.strongly_real) == (True, None, False)
    assert verdict.decided_by == "case-table"


def test_sym_thm_17_aligns_on_the_smaller_centralizer():
    # a = (5,4,1)(2,6) fixes 12 of 17 points, so its centralizer in S_17
    # is of order 3 * 2 * 12!; the pair is transitive, so the conjugator
    # search takes at most 17 orbit walks per case whatever the
    # centralizers.  The verdict is the source's: not biholomorphic to
    # the conjugate.
    v = sym_structure(17)
    verdict = reality_unmixed(v.group, v)
    assert (verdict.biholo_conjugate, verdict.real, verdict.strongly_real) == (False, False, False)


@pytest.mark.parametrize("n", [16, 28, 40])
def test_alt_2_3_84_case_tables_are_decided(n):
    # At n = 28 and 40 both centralizers have over 10^7 elements; the
    # pair is transitive, so each case takes at most n orbit walks.  Case
    # 0 is solved by odd conjugators only, as the gallery witness is.
    pw = alt_pair_2_3_84(n)
    table = lemma_case_table(pw.group, (pw.a, pw.c))
    assert table.decided(range(6))
    assert table.entries[0].labels == {"odd"}
    assert parity(pw.witness) == 1
    assert all(table.entries[i] is None for i in range(1, 6))


def test_real_implications_hold():
    A = Abelian2(7)
    rng = random.Random(40)
    from beauville.search import enumerate_unmixed

    res = enumerate_unmixed(A, limit=40)
    for v in res.structures:
        verdict = reality_unmixed(A, v)
        if verdict.strongly_real:
            assert verdict.real
        if verdict.real:
            assert verdict.biholo_conjugate
