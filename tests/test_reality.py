import random

import pytest

from beauville.constructions import Abelian2, Wallpaper, build_h4, dihedral
from beauville.core import CapacityExceeded, PreconditionError, generated_subgroup
from beauville.gallery import (
    alt_pair_skew,
    h4_mixed_structure,
    sl2_pair_555,
    sym_structure,
)
from beauville.matgroups import SL2Group, sl2_constants
from beauville.perms import AlternatingGroup, SymmetricGroup, parse_cycles, pinv, pmul
from beauville.reality import (
    AutBackend,
    CaseSolution,
    StructureKeys,
    apply_sigma,
    aut_generator_maps,
    backend_for,
    case_targets,
    iota,
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
    assert iota(iota(v)) == v
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
    verdict = reality_mixed(M.group, M)
    assert verdict.biholo_conjugate is False
    assert verdict.real is False


def test_reality_mixed_compatible_synthetic():
    """Components chosen with inversions solvable in a common coset give a
    conjugate-equivalent structure."""
    from beauville.structures import IndexTwoSubgroup, MixedQuadruple

    H = SL2Group(11)
    k = sl2_constants(11)
    # (B, S) inverts only in the W-coset; pairing it with itself shares that coset.
    G = build_h4(H)
    a = (k["B"], k["B"], 2)
    c = (k["S"], k["S"], 2)
    M = MixedQuadruple(G, IndexTwoSubgroup.h2_of(G), a, c, G.coset_rep)
    verdict = reality_mixed(G, M)
    assert verdict.biholo_conjugate is True
    assert verdict.real is True


def test_sl2_555_coset_selection():
    from beauville.matgroups import conjugation_cosets, minv

    for coset in ("sl", "slw"):
        pw = sl2_pair_555(11, coset)
        p = 11
        sols = conjugation_cosets(p, pw.a, minv(pw.a, p), pw.c, minv(pw.c, p))
        assert (sols["sl"] is not None) == (coset == "sl")
        assert (sols["slw"] is not None) == (coset == "slw")


def test_aut_generator_maps_unsupported():
    with pytest.raises(PreconditionError):
        aut_generator_maps(dihedral(5))
    with pytest.raises(PreconditionError):
        aut_generator_maps(Abelian2(25))  # composite modulus


def test_aut_generator_maps_are_automorphisms():
    for G in (Abelian2(5), SymmetricGroup(5), AlternatingGroup(5), SL2Group(5)):
        els = sorted(generated_subgroup(G, G.generators), key=repr)
        rng = random.Random(1)
        for f in aut_generator_maps(G):
            for _ in range(20):
                x, y = rng.choice(els), rng.choice(els)
                assert f(G.mul(x, y)) == G.mul(f(x), f(y))


def test_backend_rejects_degree_six():
    with pytest.raises(PreconditionError):
        backend_for(SymmetricGroup(6))
    with pytest.raises(PreconditionError):
        backend_for(AlternatingGroup(6))


def test_equal_type_swap_falls_back_to_orbit():
    # Two pairs of identical type multiset on a small abelian group: the
    # swap route is available.  The GL(2) backend decides it from the
    # case tables; a complete backend that solves no case leaves it to
    # the orbit search, which decides positively.
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    m1 = pair_metrics(A, v.a1, v.c1)
    m2 = pair_metrics(A, v.a2, v.c2)
    assert m1.order_multiset() == m2.order_multiset()
    verdict = reality_unmixed(A, v)
    assert verdict.biholo_conjugate is True
    assert verdict.decided_by == "case-table"
    unsolved = AutBackend("none", True, lambda G, a, c, u, w: CaseSolution(frozenset(), {}, True))
    verdict = reality_unmixed(A, v, unsolved)
    assert verdict.decided_by == "orbit-search"
    assert verdict.biholo_conjugate is True


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
