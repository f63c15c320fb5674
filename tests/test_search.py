import math
import random
from itertools import product

import pytest

from beauville import search
from beauville.constructions import Abelian2, dihedral
from beauville.core import PreconditionError
from beauville.matgroups import PSL2Group, SL2Group
from beauville.perms import AlternatingGroup, SymmetricGroup
from beauville.search import (
    DEFAULT_ENUM_CAP,
    IndexedGroup,
    SearchConstraints,
    _gallery_candidates,
    _index2_subgroups,
    count_abelian,
    enumerate_unmixed,
    hunt_reality,
    lower_bound_abelian,
    orbit_representatives,
    scan_catalogue,
    wallpaper_scan,
)
from beauville.structures import check_unmixed
from beauville.verify import _ab2_classes


def test_enumerate_ab2_5_full_count():
    # 480 generating pairs, each with 24 complementary partners.
    res = enumerate_unmixed(Abelian2(5))
    assert len(res.structures) == 11520
    assert res.complete
    v = res.structures[0]
    assert check_unmixed(v.group, v, strategy="exact").passed


def test_enumerate_ab2_5_orbit_classes():
    # The full equivalence action is transitive on these structures:
    # one class, verified against the exhaustive sweep of all 34560
    # explicit equivalence maps in the abelian-orbit-classes criterion.
    res = enumerate_unmixed(Abelian2(5), SearchConstraints(up_to_orbit=True))
    assert len(res.structures) == 1


def test_count_abelian_7_orbit_classes(monkeypatch):
    # Seven classes, checked against the coordinate sweep of all 145152
    # explicit equivalence maps: its classes partition the structures.
    calls = []
    reduce = search.orbit_representatives

    def recording(G, structures):
        reps = reduce(G, structures)
        calls.append((structures, reps))
        return reps

    monkeypatch.setattr(search, "orbit_representatives", recording)
    assert count_abelian(7, orbits=True).orbits == 7
    [(found, reps)] = calls
    structures = {_tuple(v) for v in found}
    maps, classes = _ab2_classes(7, structures, swap=True)
    assert maps == 145152
    assert sum(map(len, classes)) == len(structures) == 725760
    assert set().union(*classes) == structures
    assert sorted(map(len, classes)) == [24192, 48384, 72576] + [145152] * 4
    least = [min(cls, key=repr) for cls in classes]

    def expected(given):
        # Per class met: its least member when given, else the least
        # given member, which is then also the one it is listed by.
        out = []
        for cls, m in zip(classes, least):
            met = cls & given
            if met:
                first = m if m in given else min(met, key=repr)
                out.append((repr(first), first))
        return [t for _, t in sorted(out)]

    assert [_tuple(v) for v in reps] == expected(structures)
    sample = random.Random(7).sample(found, 40)
    got = reduce(Abelian2(7), sample)
    assert [_tuple(v) for v in got] == expected({_tuple(v) for v in sample})


def _tuple(v):
    return (v.a1, v.c1, v.a2, v.c2)


def test_orbit_reduction_idempotent():
    A = Abelian2(5)
    res = enumerate_unmixed(A)
    reps = orbit_representatives(A, res.structures)
    again = orbit_representatives(A, reps)
    assert [(v.a1, v.c1, v.a2, v.c2) for v in reps] == \
        [(v.a1, v.c1, v.a2, v.c2) for v in again]


def test_enumerate_alt5_empty():
    res = enumerate_unmixed(AlternatingGroup(5))
    assert len(res.structures) == 0
    assert res.complete


def test_enumerate_sl2_psl2_7_nonempty():
    for G in (SL2Group(7), PSL2Group(7)):
        res = enumerate_unmixed(G, limit=1)
        assert len(res.structures) == 1
        v = res.structures[0]
        assert check_unmixed(G, v, strategy="exact").passed


def test_enumerate_type_filter():
    A = Abelian2(5)
    res = enumerate_unmixed(A, SearchConstraints(type1=(5, 5, 5)), limit=5)
    for v in res.structures:
        from beauville.structures import pair_metrics

        assert pair_metrics(A, v.a1, v.c1).triple == (5, 5, 5)
    # type1 constrains the first pair and type2 the second, whichever
    # fingerprint each comes from: both orders find the same count.
    G = PSL2Group(7)
    order = {x: G.element_order(x) for x in G.elements()}

    def triple(a, c):
        return (order[a], order[c], order[G.mul(a, c)])

    for type1, type2 in (((7, 7, 7), (4, 4, 3)), ((4, 4, 3), (7, 7, 7))):
        res = enumerate_unmixed(G, SearchConstraints(type1=type1, type2=type2))
        assert res.complete and len(res.structures) == 112896
        assert all(triple(v.a1, v.c1) == type1 and triple(v.a2, v.c2) == type2
                   for v in res.structures)


def test_enumerate_rejects_limit_below_one():
    for limit in (0, -1):
        with pytest.raises(PreconditionError):
            enumerate_unmixed(Abelian2(5), limit=limit)


def test_enumerate_up_to_orbit_requires_backend():
    with pytest.raises(PreconditionError):
        enumerate_unmixed(dihedral(6), SearchConstraints(up_to_orbit=True))


def test_count_abelian_against_brute_oracle():
    # independent transcription of the unit conditions; a unit is a
    # residue prime to n, which for composite n is more than nonzero
    def oracle(n):
        count = 0
        for x, y, z, t in product(range(1, n), repeat=4):
            vals = (x, y, z, t, x - y, x + z, z - t, y + t,
                    x + z - y - t, x * t - y * z)
            if all(math.gcd(v, n) == 1 for v in vals):
                count += 1
        return count

    for n in (5, 7, 11, 25, 35):
        assert count_abelian(n, orbits=False).solutions == oracle(n)


def test_count_abelian_orbits_need_a_prime_before_counting():
    # 1001 = 7 * 11 * 13: counting first would take minutes.
    with pytest.raises(PreconditionError):
        count_abelian(1001, orbits=True)


def test_count_abelian_values():
    assert count_abelian(5, orbits=False).solutions == 24
    assert count_abelian(7, orbits=False).solutions == 360
    assert count_abelian(11, orbits=False).solutions == 5040
    assert count_abelian(3).solutions == 0
    assert count_abelian(9).solutions == 0


def test_count_abelian_closed_form():
    # the exhaustive count factors as (p-1)(p-2)(p-3)(p-4)
    for p in (5, 7, 11, 13):
        expected = (p - 1) * (p - 2) * (p - 3) * (p - 4)
        assert count_abelian(p, orbits=False).solutions == expected


def test_lower_bound_values():
    assert lower_bound_abelian(5) == 36
    assert lower_bound_abelian(7) == 450
    assert lower_bound_abelian(11) == 5670
    with pytest.raises(PreconditionError):
        lower_bound_abelian(4)


def test_index2_subgroups():
    S4 = IndexedGroup(SymmetricGroup(4))
    subs = _index2_subgroups(S4)
    assert len(subs) == 1  # the even permutations
    assert len(subs[0]) == 12
    D6 = IndexedGroup(dihedral(6))
    assert len(_index2_subgroups(D6)) == 3
    A4 = IndexedGroup(AlternatingGroup(4))
    assert _index2_subgroups(A4) == []


def test_generates_within_subgroup():
    # D6 (order 12) has three index-2 subgroups; a pair that generates one
    # of them generates neither another one nor the whole group.
    D6 = IndexedGroup(dihedral(6))
    subs = _index2_subgroups(D6)
    for H in subs:
        pairs = [(i, j) for i in H for j in H if D6.generates(i, j, within=H)]
        assert pairs
        assert not any(D6.generates(i, j) for i, j in pairs)
        for other in subs:
            if other != H:
                assert not any(D6.generates(i, j, within=other) for i, j in pairs)


def test_class_tables_are_built_on_first_read(monkeypatch):
    # The mixed scan's reads (index-2 subgroups, generation within them)
    # need neither the classes nor the power fingerprints.
    tables = {"class_id", "class_members", "power_classes"}
    D6 = IndexedGroup(dihedral(6))
    for H in _index2_subgroups(D6):
        D6.generates(*sorted(H)[1:3], within=H)
    assert not tables & vars(D6).keys()
    assert len(set(D6.power_classes)) == max(D6.class_id) + 1 == 6
    assert "class_id" in vars(D6) and "class_members" not in vars(D6)
    assert D6.class_members == [[i for i, c in enumerate(D6.class_id) if c == k] for k in range(6)]

    built = []

    class Recording(IndexedGroup):
        def __init__(self, G):
            super().__init__(G)
            built.append(self)

    monkeypatch.setattr(search, "IndexedGroup", Recording)
    assert scan_catalogue(24, "mixed")["groups_scanned"] > 0
    assert built and not any(tables & vars(idx).keys() for idx in built)


def test_scan_catalogue_unmixed_small():
    rep = scan_catalogue(60, "unmixed")
    assert rep["found"] == []
    assert "partial" in rep["disclaimer"]
    assert rep["groups_scanned"] > 20


def test_scan_catalogue_mixed_small():
    rep = scan_catalogue(100, "mixed")
    assert rep["found"] == []


def test_scan_rejects_bad_mode():
    with pytest.raises(PreconditionError):
        scan_catalogue(60, "nope")


@pytest.mark.parametrize("d,m,minimum", [(3, 2, 3), (3, 3, 3), (4, 2, 2),
                                         (4, 3, 2), (6, 2, 2)])
def test_wallpaper_scan_minima(d, m, minimum):
    rep = wallpaper_scan(d, m)
    assert rep["minimum"] >= minimum
    assert rep["witness"] is not None


def test_hunt_reality_ab2_not_biholo_empty():
    res = hunt_reality(Abelian2(5), "not-biholo", budget=500)
    assert res.structures == []


def test_hunt_reality_ab2_real_nonempty():
    res = hunt_reality(Abelian2(5), "real", budget=50)
    assert res.structures


def test_hunt_reality_truncated_buckets_are_not_complete():
    # The hunt keeps 16 pairs per fingerprint.  On SL(2,7) that capped
    # stream runs out with no real structure, while the first 10
    # structures of the uncapped stream are all real.
    G = SL2Group(7)
    res = hunt_reality(G, "real", budget=10)
    assert res.structures == []
    assert res.complete is False and res.report["complete"] is False
    from itertools import islice

    from beauville.reality import reality_unmixed
    from beauville.search import _structure_stream

    idx = IndexedGroup(G)
    first = [idx.structure(q)
             for q in islice(_structure_stream(idx, SearchConstraints()), 10)]
    assert len(first) == 10
    assert all(reality_unmixed(G, v).real is True for v in first)


def test_hunt_reality_complete_without_truncation():
    # A4 has no hyperbolic pair (its element orders are at most 3), so no
    # bucket is truncated.
    res = hunt_reality(AlternatingGroup(4), "real")
    assert res.structures == []
    assert res.complete is True


def test_hunt_reality_sl2_13_biholo_not_real():
    # The q = 7 phenomenon: 7 divides 13 + 1 and is not a square mod 13,
    # and structures equivalent to their conjugate without being real exist.
    res = hunt_reality(SL2Group(13), "biholo-not-real", budget=2000)
    assert res.structures
    v = res.structures[0]
    from beauville.reality import reality_unmixed

    verdict = reality_unmixed(v.group, v)
    assert verdict.biholo_conjugate is True and verdict.real is False
    assert check_unmixed(v.group, v, strategy="exact").passed


def test_hunt_reality_sym8_contains_gallery_structure():
    res = hunt_reality(SymmetricGroup(8), "not-biholo")
    assert res.structures
    from beauville.gallery import sym_structure

    v = sym_structure(8)
    keys = {(w.a1, w.c1, w.a2, w.c2) for w in res.structures}
    assert (v.a1, v.c1, v.a2, v.c2) in keys


def test_hunt_reality_rejects_budget_below_one():
    # The gallery fallback past the table cap once ignored the budget.
    for G in (SymmetricGroup(8), AlternatingGroup(40), Abelian2(5)):
        for budget in (0, -1):
            with pytest.raises(PreconditionError):
                hunt_reality(G, "not-biholo", budget=budget)


def test_gallery_candidates_stop_at_the_budget():
    # Past the table cap the hunt reads gallery candidates, at most
    # ``budget`` of them; SL(2,19) has 20 in all.
    G = SL2Group(19)
    assert G.order > DEFAULT_ENUM_CAP
    every = list(_gallery_candidates(G, 10**6))
    assert len(every) == 20
    for budget, count in ((1, 1), (3, 3), (20, 20), (21, 20)):
        assert list(_gallery_candidates(G, budget)) == every[:count], budget


def test_search_constraints_reject_malformed_types():
    for bad in ((3, 3), (3, 3, 0), (3, 3, 5, 5), [3, 3, 5], (3, 3, 5.0), (True, 3, 5)):
        for field in ("type1", "type2"):
            with pytest.raises(PreconditionError):
                SearchConstraints(**{field: bad})
    assert SearchConstraints(type1=(3, 3, 5)).type1 == (3, 3, 5)


def test_reports_are_deterministic():
    r1 = enumerate_unmixed(Abelian2(5), limit=10).report
    r2 = enumerate_unmixed(Abelian2(5), limit=10).report
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2
    w1 = wallpaper_scan(3, 3)
    w2 = wallpaper_scan(3, 3)
    w1.pop("elapsed_ms")
    w2.pop("elapsed_ms")
    assert w1 == w2


def test_indexed_group_tables():
    idx = IndexedGroup(Abelian2(5))
    assert len(idx.elems) == 25
    e = idx.id_index
    for i in range(25):
        assert idx.mul_row[i][idx.inv[i]] == e
        assert idx.order_of[i] == Abelian2(5).element_order(idx.elems[i])
