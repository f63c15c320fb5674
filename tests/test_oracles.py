"""Differential oracles for the exact generation certificates, the
class labels, the catalogue scan, the integer-id search core and the
equivalence orbits.

The known-order stabilizer chain (S_n, A_n) and orbit-stabilizer on
vectors (SL(2,p), PSL(2,p)) are checked against the deterministic chain
``bsgs_order`` and against closure, which know nothing of either.  Class
labels, and the sigma test built on them, are checked against the
conjugacy-class search.  The
unmixed catalogue scan is checked against a brute force that uses
neither the indexed tables nor fingerprint buckets.  The composed
multiplication tables, the inverses and orders read off the power walk,
the refuted-subgroup memo of ``IndexedGroup.generates``, the lazy
class-keyed fingerprint buckets, the per-class power fingerprints, the
id-ordered enumeration and the sign-map index-2 subgroups are checked
against the plain builds they replaced, and the structure stream on lazy
buckets against the stream fed the eager ones.  Pair orbits and
keyed structure orbits are checked against breadth-first searches that
apply every generator of the equivalence group at every point, and the
swap route of the unmixed reality verdict against key-orbit membership.
The case labels of SL(2,13) are checked against a sweep over GL(2,13).  The
mixed case tables on H4(SL(2,p)) are checked against an extension walk
on the even-twist subgroup and against a GL(2,p) sweep.
"""

import random
from collections import deque
from functools import lru_cache, partial
from itertools import islice

import pytest

from beauville import core, gallery, perms, search
from beauville.constructions import (
    H4,
    Abelian2,
    Wallpaper,
    catalogue,
    dicyclic,
    dihedral,
    format_descriptor,
    group_from_descriptor,
    parse_descriptor,
)
from beauville.core import (
    CapacityExceeded,
    conjugacy_class,
    conjugate,
    generated_subgroup,
    generates,
    orbit,
)
from beauville.matgroups import (
    PSL2Group,
    SL2Group,
    diag_mat,
    is_square,
    mdet,
    minv,
    mmul,
    mneg,
    sl2_constants,
)
from beauville.perms import (
    AlternatingGroup,
    SymmetricGroup,
    bsgs_order,
    parity,
    parse_cycles,
)
from beauville.reality import (
    StructureKeys,
    apply_sigma,
    backend_for,
    case_targets,
    it_orbit,
    lemma_case_table,
    reality_mixed,
    reality_unmixed,
)
from beauville.search import (
    IndexedGroup,
    SearchConstraints,
    _fingerprint_buckets,
    _index2_subgroups,
    _structure_stream,
    enumerate_unmixed,
    hunt_reality,
    orbit_representatives,
    wallpaper_scan,
)
from beauville.structures import (
    MixedQuadruple,
    UnmixedStructure,
    check_mixed,
    check_unmixed,
    pair_metrics,
    sigma_naive,
    sigma_set,
    try_sigma_disjoint,
)


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
        want = bsgs_order([a, c]) == G.order
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


LABELLED = ([SymmetricGroup(n) for n in (5, 6, 7)] + [AlternatingGroup(n) for n in (5, 6, 7, 8)]
            + [SL2Group(p) for p in (5, 7, 11, 13)] + [PSL2Group(p) for p in (7, 11, 13)])


def _name(G):
    return format_descriptor(G.descriptor())


@pytest.mark.parametrize("G", LABELLED, ids=_name)
def test_class_label_against_conjugacy_class(G):
    first_of_label, seen = {}, set()
    for x in sorted(G.elements()):
        if x not in seen:
            cls = conjugacy_class(G, x)
            seen |= cls
            label = G.class_label(x)
            assert {G.class_label(y) for y in cls} == {label}
            assert first_of_label.setdefault(label, x) == x, "two classes share a label"


@pytest.mark.parametrize("G", LABELLED, ids=_name)
def test_labelled_sigma_test_against_class_search(G):
    rng = random.Random(G.order)
    elements = sorted(G.elements())
    e = G.identity
    verdicts = set()
    for i in range(16):
        # Single cyclic subgroups as well as pairs, so that both verdicts occur.
        p1 = (rng.choice(elements), rng.choice(elements) if i % 2 else e)
        p2 = (rng.choice(elements), rng.choice(elements) if i % 2 else e)
        s1, s2 = sigma_set(G, *p1), sigma_set(G, *p2)
        disjoint, strategy, witness = try_sigma_disjoint(G, p1, p2, strategy="exact")
        assert strategy == "exact" and disjoint == (s1 & s2 == {e}), (p1, p2)
        if not disjoint:
            assert witness != e and witness in s1 & s2
        verdicts.add(disjoint)
    assert verdicts == {True, False}


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


# -- integer-id search core ------------------------------------------------------
# The builds that the composed tables, the refuted-subgroup memo and the
# class-keyed fingerprints replaced.


def _mul_table(idx):
    mul = idx.ctx.mul
    return [[idx.index[mul(x, y)] for y in idx.elems] for x in idx.elems]


def _generates_by_bfs(idx, i, j, within=None):
    target = len(idx.elems) if within is None else len(within)
    seen = {idx.id_index}
    queue = deque([idx.id_index])
    rows = idx.mul_row
    while queue:
        x = queue.popleft()
        for s in (i, j):
            y = rows[x][s]
            if y not in seen:
                if within is not None and y not in within:
                    return False
                seen.add(y)
                queue.append(y)
    return len(seen) == target


def _fingerprint_buckets_by_pairs(idx):
    n = len(idx.elems)
    e = idx.id_index
    pc = idx.power_classes
    by_fp: dict = {}
    for i in range(n):
        if i == e:
            continue
        row = idx.mul_row[i]
        for j in range(n):
            if j == e or not idx.hyperbolic(i, j):
                continue
            by_fp.setdefault(pc[i] | pc[j] | pc[row[j]], []).append((i, j))
    return by_fp


class _PaddedGenerators(SymmetricGroup):
    """S4 with a repeated generator and the identity among its generators."""

    @property
    def generators(self):
        a, b = super().generators
        return [a, self.identity, a, b, b]


_TABLE_FLEET = ([group_from_descriptor(d) for d in catalogue(128)]
                + [group_from_descriptor(parse_descriptor(d))
                   for d in ("sl2:5", "psl2:7", "psl2:11", "ab2:5")]
                + [Wallpaper(d, m) for d, m in ((3, 4), (3, 5), (4, 3), (4, 4), (6, 3))]
                + [_PaddedGenerators(4)])


def test_composed_tables_against_mul():
    # The power walk gives inverses and orders; ctx.inv and
    # ctx.element_order know nothing of it.
    for G in _TABLE_FLEET:
        idx = IndexedGroup(G)
        assert idx.mul_row == _mul_table(idx), G.descriptor()
        assert idx.inv == [idx.index[G.inv(x)] for x in idx.elems], G.descriptor()
        assert idx.order_of == [G.element_order(x) for x in idx.elems], G.descriptor()


def _index2_subgroups_by_squares(idx):
    """The square-closure build that the sign-map walk replaced: the
    squares generate the intersection of all index-2 subgroups, the
    quotient by it is elementary abelian, and each nonzero GF(2)
    functional on a coset basis has one of the subgroups as kernel."""
    n = len(idx.elems)
    squares = sorted({idx.mul_row[x][x] for x in range(n)})
    closure = {idx.id_index}
    queue = deque([idx.id_index])
    while queue:
        x = queue.popleft()
        for s in squares:
            y = idx.mul_row[x][s]
            if y not in closure:
                closure.add(y)
                queue.append(y)
    if len(closure) == n:
        return []
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        rep_id = len(reps)
        reps.append(x)
        xi = idx.inv[x]
        for y in range(n):
            if coset_of[y] < 0 and idx.mul_row[xi][y] in closure:
                coset_of[y] = rep_id
    k = len(reps)
    vec = {0: 0}
    basis = []
    for r in range(1, k):
        if r in vec:
            continue
        basis.append(r)
        new = {}
        for known, v in vec.items():
            prod = coset_of[idx.mul_row[reps[known]][reps[r]]]
            new[prod] = v | (1 << (len(basis) - 1))
        vec.update(new)
    dim = len(basis)
    out = []
    for functional in range(1, 1 << dim):
        members = frozenset(
            x for x in range(n)
            if bin(vec[coset_of[x]] & functional).count("1") % 2 == 0
        )
        if 2 * len(members) == n:
            out.append(members)
    return sorted(out, key=sorted)


_INDEX2_FLEET = ([group_from_descriptor(d) for d in catalogue(128)]
                 + [H4(SL2Group(3)), _PaddedGenerators(4)]
                 + [group_from_descriptor(parse_descriptor(d)) for d in ("ab2:4", "ab2:6")]
                 + [group_from_descriptor({"kind": "prod", "factors": [
                     {"kind": "dih", "n": 4}, {"kind": "cyc", "n": 2}, {"kind": "cyc", "n": 2}]})])


def test_index2_subgroups_against_square_closure():
    for G in _INDEX2_FLEET:
        idx = IndexedGroup(G)
        assert _index2_subgroups(idx) == _index2_subgroups_by_squares(idx), G.descriptor()
    # dih:4 x C2 x C2 has 2^4 - 1 homomorphisms onto Z/2.
    assert len(_index2_subgroups(IndexedGroup(_INDEX2_FLEET[-1]))) == 15


_MEMO_FLEET = ([SymmetricGroup(4), AlternatingGroup(5)]
               + [dihedral(n) for n in range(2, 17)] + [dicyclic(n) for n in range(2, 9)])


@pytest.mark.parametrize("G", _MEMO_FLEET, ids=lambda G: format_descriptor(G.descriptor()))
def test_refuted_subgroup_memo_against_bfs(G):
    idx = IndexedGroup(G)
    n = len(idx.elems)
    queries = [(i, j, within) for within in [None] + _index2_subgroups(idx)
               for i in range(n) for j in range(n)]
    for seed in range(2):
        random.Random(seed).shuffle(queries)
        fresh = IndexedGroup(G)
        for i, j, within in queries:
            assert fresh.generates(i, j, within) == _generates_by_bfs(idx, i, j, within), \
                (i, j, within is not None)


def test_mixed_scan_sigma_step_against_naive(monkeypatch):
    """Deep negative control of the mixed scan.  On H4(A_4), order 576,
    3,456 pairs of the even-twist subgroup (its one index-2 subgroup)
    pass every earlier filter and reach the sigma step, and the scan
    finds nothing.  For 40 seeded pairs among them, the id sigma set is
    sigma_naive over the closure of the pair, and check_mixed fails the
    pair at the last condition only."""
    G = H4(AlternatingGroup(4))
    sigma_under_pair = search._sigma_under_pair
    reached = []

    def recording(idx, i, j):
        reached.append((idx, i, j))
        return sigma_under_pair(idx, i, j)

    monkeypatch.setattr(search, "_sigma_under_pair", recording)
    assert search._scan_group_mixed(G) == []
    assert len(reached) == 3456
    idx = reached[0][0]
    assert [len(H) for H in _index2_subgroups(idx)] == [288]
    for _, i, j in random.Random(576).sample(reached, 40):
        a, c = idx.elems[i], idx.elems[j]
        got = {idx.elems[x] for x in sigma_under_pair(idx, i, j)}
        assert got == sigma_naive(G, a, c, generated_subgroup(G, [a, c])), (a, c)
        rep = check_mixed(G, MixedQuadruple(G, a, c, G.coset_rep))
        assert [(cond.id, cond.ok) for cond in rep.conditions] == [
            ("generates-subgroup", True), ("nonabelian-subgroup", True),
            ("coset-squares", True), ("conjugate-sigma-intersection", False)], (a, c)


def _named_group(name):
    """The group of a formatted descriptor; products, which
    ``parse_descriptor`` cannot read, come from the catalogue."""
    if name.startswith("prod("):
        return group_from_descriptor(next(d for d in catalogue(72)
                                          if format_descriptor(d) == name))
    return group_from_descriptor(parse_descriptor(name))


@pytest.mark.parametrize("desc", ["sym:5", "sl2:5", "psl2:7", "ab2:5", "psl2:11", "dih:12",
                                  "prod(dic:3,cyc:5)"])
def test_class_keyed_fingerprints_against_pairs(desc):
    idx = IndexedGroup(_named_group(desc))
    got = _fingerprint_buckets(idx)
    want = _fingerprint_buckets_by_pairs(idx)
    # Key order and pair order; sizes come before any fill.
    assert [len(b) for b in got.values()] == [len(b) for b in want.values()]
    assert [(fp, list(b)) for fp, b in got.items()] == list(want.items())


@pytest.mark.parametrize("desc", ["dih:5", "prod(dih:6,cyc:2)", "dih:12", "alt:4", "ab2:5",
                                  "sym:5"])
def test_hunt_cut_against_pairs(desc, monkeypatch):
    # The hunt keeps the first 16 pairs of each bucket, and is complete
    # exactly when no bucket lost a pair and the cut stream fit the budget.
    G = _named_group(desc)
    seen = []

    def recording(idx):
        seen.append((idx, _fingerprint_buckets(idx)))
        return seen[-1][1]

    monkeypatch.setattr(search, "_fingerprint_buckets", recording)
    budget = 100
    res = hunt_reality(G, "real", budget=budget)
    (idx, got), = seen
    want = _fingerprint_buckets_by_pairs(idx)
    assert [(fp, list(b)) for fp, b in got.items()] == [(fp, w[:16]) for fp, w in want.items()]
    cut_stream = sum(1 for _ in _structure_stream(idx, SearchConstraints(), got))
    assert res.complete == (cut_stream <= budget and all(len(w) <= 16 for w in want.values()))


def _stream_against_eager(G, constraints, limit):
    """The lazy stream's first ``limit`` quadruples, checked against the
    stream fed the eager buckets on a fresh index."""
    lazy = list(islice(_structure_stream(IndexedGroup(G), constraints), limit))
    idx = IndexedGroup(G)
    eager = _fingerprint_buckets_by_pairs(idx)
    assert list(islice(_structure_stream(idx, constraints, eager), limit)) == lazy
    return lazy


@pytest.mark.parametrize("desc,limit,types,count", [
    ("sym:5", None, None, 259200), ("ab2:5", None, None, 11520), ("dih:12", None, None, 0),
    ("psl2:7", 200, None, 200), ("psl2:11", 200, None, 200),
    ("psl2:7", 200, ((7, 7, 7), (4, 4, 3)), 200)])
def test_lazy_stream_against_eager_buckets(desc, limit, types, count):
    constraints = SearchConstraints() if types is None else SearchConstraints(*types)
    assert len(_stream_against_eager(_named_group(desc), constraints, limit)) == count


def test_first_structure_against_eager_buckets_on_catalogue():
    # The catalogue up to order 64 holds no unmixed structure, so every
    # stream reads its buckets to the end.
    for desc in catalogue(64):
        assert _stream_against_eager(group_from_descriptor(desc), SearchConstraints(), 1) == []


def test_first_structure_fills_few_buckets():
    # The eager fill filed all 403,482 hyperbolic pairs of PSL(2,11)
    # before the stream yielded its first quadruple.
    idx = IndexedGroup(PSL2Group(11))
    by_fp = _fingerprint_buckets(idx)
    assert sum(len(b) for b in by_fp.values()) == 403482
    assert next(_structure_stream(idx, SearchConstraints(), by_fp)) is not None
    assert 100 * sum(len(b.prefix) for b in by_fp.values()) < 403482


@pytest.mark.parametrize("d,m", [(3, 2), (3, 3), (4, 2), (4, 3), (6, 2)])
def test_wallpaper_scan_against_all_pairs(d, m):
    # Every pair in repr order, generation by closure, sigma sets by class
    # search; the scan walks only class representatives and sums class sizes.
    G = Wallpaper(d, m)
    elems = sorted(generated_subgroup(G, G.generators), key=repr)
    pos = {x: k for k, x in enumerate(elems)}
    least = {}  # element -> the least member of its class
    for x in elems:
        if x not in least:
            cls = conjugacy_class(G, x)
            least.update(dict.fromkeys(cls, min(cls, key=pos.get)))
    first: dict = {}  # sigma set -> its first generating pair
    for x in elems:
        for y in elems:
            if len(generated_subgroup(G, [x, y])) == G.order:
                first.setdefault(sigma_set(G, x, y), (x, y))
    # Systems in the order of the least members of their classes.
    systems = sorted(first, key=lambda s: sorted(pos[x] for x in s if least[x] == x))
    pairs = [(s, t) for k, s in enumerate(systems) for t in systems[k:]]
    best = min(len(s & t) for s, t in pairs)
    s, t = next((s, t) for s, t in pairs if len(s & t) == best)
    rep = wallpaper_scan(d, m)
    assert (rep["minimum"], rep["systems"]) == (best, len(systems))
    assert rep["witness"] == {"system1": [repr(z) for z in first[s]],
                              "system2": [repr(z) for z in first[t]]}


def test_per_class_power_classes_against_per_element():
    for desc in catalogue(64):
        idx = IndexedGroup(group_from_descriptor(desc))
        want = [frozenset(idx.class_id[j] for j in idx.power_ids[i])
                for i in range(len(idx.elems))]
        assert idx.power_classes == want, format_descriptor(desc)


@pytest.mark.parametrize("desc", ["sym:5", "alt:5", "sl2:5", "psl2:7", "ab2:11", "dih:12",
                                  "wallpaper:3:4", "h4:dih:3"])
def test_element_reprs_are_self_delimiting(desc):
    # Ids follow repr order, so id quadruples sort as the reprs of their
    # 4-tuples when no repr is a proper prefix of another.  A string
    # between a prefix and its extension shares the prefix, so checking
    # neighbours in sorted order covers every pair.
    reprs = [repr(x) for x in IndexedGroup(group_from_descriptor(parse_descriptor(desc))).elems]
    assert reprs == sorted(set(reprs))
    assert not any(b.startswith(a) for a, b in zip(reprs, reprs[1:]))


@pytest.mark.parametrize("desc,limit", [("ab2:5", None), ("sym:5", None), ("psl2:7", 50)])
def test_id_order_is_repr_order(desc, limit):
    G = group_from_descriptor(parse_descriptor(desc))
    idx = IndexedGroup(G)
    stream = [idx.structure(q)
              for q in islice(_structure_stream(idx, SearchConstraints()), limit)]
    want = sorted(stream, key=lambda v: repr((v.a1, v.c1, v.a2, v.c2)))
    assert enumerate_unmixed(G, limit=limit).structures == want


# -- equivalence orbits -------------------------------------------------------
# The searches that it_orbit and StructureKeys replaced: at every point,
# the five nontrivial transformations and the generator conjugations of
# a pair; for structures, those on each side, every automorphism
# generator on both sides, and the swap, over 4-tuples.


def _pair_images(G, gens, pair):
    """The five nontrivial transformations of a pair and its conjugates
    by each generator in ``gens``."""
    a, c = pair
    images = [apply_sigma(G, i, pair) for i in range(1, 6)]
    images.extend((conjugate(G, a, g), conjugate(G, c, g)) for g in gens)
    return images


def _it_orbit(G, pair, cap=10**6):
    return frozenset(orbit([pair], partial(_pair_images, G, G.generators), cap, "pair orbit"))


def _structure_key(v):
    return (v.a1, v.c1, v.a2, v.c2)


def _structure_images(G, gens, auts, key):
    a1, c1, a2, c2 = key
    images = [(x, y, a2, c2) for x, y in _pair_images(G, gens, (a1, c1))]
    images += [(a1, c1, x, y) for x, y in _pair_images(G, gens, (a2, c2))]
    images += [(f(a1), f(c1), f(a2), f(c2)) for f in auts]
    images.append((a2, c2, a1, c1))
    return images


def _au_orbit(G, v, cap=10**6):
    """Full orbit of a structure under the equivalence group (per-side
    pair transformations and inner twists, diagonal automorphisms, and
    the pair swap)."""
    auts = [lambda x, g=g: conjugate(G, x, g) for g in G.generators] + backend_for(G).outer
    images = partial(_structure_images, G, G.generators, auts)
    return orbit([_structure_key(v)], images, cap, "structure orbit")


def _orbit_representatives(G, structures):
    keys = {_structure_key(v): v for v in structures}
    seen = set()
    reps = []
    for key in sorted(keys, key=repr):
        if key in seen:
            continue
        v = keys[key]
        full = _au_orbit(G, v)
        seen |= full
        reps.append(keys.get(min(full, key=repr), v))
    return reps


_ORBIT_FLEET = ["sym:4", "sym:5", "alt:5", "sl2:5", "psl2:7", "ab2:5", "ab2:7",
                "dih:8", "dic:6", "h4:sl2:3"]


def _fleet_group(desc):
    if desc == "h4:sl2:3":
        return H4(SL2Group(3))
    return group_from_descriptor(parse_descriptor(desc))


@pytest.mark.parametrize("desc", _ORBIT_FLEET)
def test_it_orbit_against_brute_force(desc):
    G = _fleet_group(desc)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random(desc)
    generating = 0
    count = 4 if desc == "h4:sl2:3" else 12
    for _ in range(count):
        pair = (rng.choice(elements), rng.choice(elements))
        want = _it_orbit(G, pair)
        assert it_orbit(G, pair) == want, pair
        generating += _by_closure(G, *pair)
    # The seeded pairs include non-generating ones; on the larger groups
    # also generating ones.
    assert generating < count
    if G.order >= 24:
        assert generating > 0


def test_it_orbit_cap_boundary():
    A = Abelian2(7)
    S5 = SymmetricGroup(5)
    for G, pair in ((A, ((1, 0), (0, 1))), (S5, tuple(S5.generators)),
                    (SL2Group(5), (sl2_constants(5)["B"], sl2_constants(5)["S"]))):
        size = len(_it_orbit(G, pair))
        assert it_orbit(G, pair, cap=size) == _it_orbit(G, pair)
        with pytest.raises(CapacityExceeded) as exc:
            it_orbit(G, pair, cap=size - 1)
        assert (exc.value.what, exc.value.cap) == ("pair orbit", size - 1)
    # The generating S6 pair whose orbit of 4320 outgrows a cap of 500.
    # Its inner orbit of 720 fits caps 720 and 4319, which the union of
    # the six images still exceeds.
    S6 = SymmetricGroup(6)
    pair = (parse_cycles("(1,6,2,3,5,4)", 6), parse_cycles("(1,5)(2,3,4)", 6))
    want = _it_orbit(S6, pair)
    assert len(want) == 4320
    inner = orbit([pair], lambda q: [(conjugate(S6, q[0], g), conjugate(S6, q[1], g))
                                     for g in S6.generators], 10**6, "inner orbit")
    assert len(inner) == 720
    for cap in (500, 720, 4319):
        with pytest.raises(CapacityExceeded) as exc:
            it_orbit(S6, pair, cap=cap)
        assert (exc.value.what, exc.value.cap) == ("pair orbit", cap)
    assert it_orbit(S6, pair, cap=4320) == want


def _expand(G, orbit_keys):
    """The 4-tuples of the products S(Q1) x S(Q2) over the keys."""
    return {x + y for k1, k2 in orbit_keys
            for x in it_orbit(G, k1) for y in it_orbit(G, k2)}


def test_orbit_representatives_ab2_5_against_brute_force():
    A = Abelian2(5)
    structures = enumerate_unmixed(A).structures
    got = orbit_representatives(A, structures)
    want = _orbit_representatives(A, structures)
    assert len(want) == 1
    assert [_structure_key(v) for v in got] == [_structure_key(v) for v in want]
    # Seeded subsets, which need not hold the canonical minimum.
    rng = random.Random(25)
    for size in (1, 3, 40):
        sample = rng.sample(structures, size)
        got = orbit_representatives(A, sample)
        assert [_structure_key(v) for v in got] == \
            [_structure_key(v) for v in _orbit_representatives(A, sample)]


@pytest.mark.parametrize("n,count", [(5, 4), (7, 1)])
def test_structure_keys_against_brute_force(n, count):
    A = Abelian2(n)
    vectors = [(x, y) for x in range(n) for y in range(n)]
    rng = random.Random(n)
    structures = []
    while len(structures) < count:
        v = UnmixedStructure(A, *(rng.choice(vectors) for _ in range(4)))
        if check_unmixed(A, v).passed:
            structures.append(v)
    for v in structures:
        full = _au_orbit(A, v)
        keys = StructureKeys(A)
        orbit_keys = keys.orbit(v)
        assert _expand(A, orbit_keys) == full
        inverted = v.inverted()
        assert (keys.key(inverted) in orbit_keys) == (_structure_key(inverted) in full)


# -- the swap route of reality_unmixed ----------------------------------------
# A structure is biholomorphic to its conjugate iff the key of iota(v)
# lies in the key orbit of v.  Exchange images P2 = g phi sigma_k(iota P1)
# g^-1 reach the swap route; on S_7 and A_7 a first pair with an empty
# case table fails the direct route, so the cross tables alone decide.


def _generating_pair(G, elements, rng, solved=None):
    """A seeded generating pair; with ``solved`` set, one whose case
    table realizes a label (True) or none (False)."""
    while True:
        pair = (rng.choice(elements), rng.choice(elements))
        if G.generates_pair(*pair) and (
                solved is None or solved == bool(lemma_case_table(G, pair).labels(range(6)))):
            return pair


def _exchange_image(G, elements, rng, pair):
    f = rng.choice([lambda x: x] + backend_for(G).outer)
    g = rng.choice(elements)
    image = apply_sigma(G, rng.randrange(6), (G.inv(pair[0]), G.inv(pair[1])))
    return tuple(conjugate(G, f(x), g) for x in image)


def _equal_multiset_pair(G, elements, rng, pair, solved=None):
    want = pair_metrics(G, *pair).order_multiset()
    while True:
        other = _generating_pair(G, elements, rng, solved)
        if pair_metrics(G, *other).order_multiset() == want:
            return other


@pytest.mark.parametrize("desc,count", [("sym:5", 10), ("psl2:7", 10), ("sl2:7", 10),
                                        ("sym:7", 3), ("alt:7", 3)])
def test_swap_route_against_key_orbits(desc, count):
    G = group_from_descriptor(parse_descriptor(desc))
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random(desc)
    keys = StructureKeys(G)
    swap_only = G.order > 1000
    p1 = _generating_pair(G, elements, rng, solved=False if swap_only else None)
    seconds = [_exchange_image(G, elements, rng, p1) for _ in range(count)]
    seconds += [_equal_multiset_pair(G, elements, rng, p1) for _ in range(count)]
    if swap_only:
        # A solved second table against the empty first one.
        seconds.append(_equal_multiset_pair(G, elements, rng, p1, solved=True))
    routes = {}
    for p2 in seconds:
        v = UnmixedStructure(G, *p1, *p2)
        verdict = reality_unmixed(G, v)
        want = keys.key(v.inverted()) in keys.orbit(v)
        assert verdict.biholo_conjugate == want, (desc, v)
        t1, t2 = verdict.tables
        direct = bool(t1.labels(range(6)) & t2.labels(range(6)))
        routes[direct, want] = routes.get((direct, want), 0) + 1
    if swap_only:
        assert routes.get((False, True), 0) >= count
        assert routes.get((False, False), 0) >= 1


# -- verdict invariance on equivalence orbits ----------------------------------
# Equivalent structures give the same surface, so no verdict may depend
# on how a structure is written.  An orbit member takes one
# transformation and one inner twist on each side, then, at random, one
# outer automorphism on both sides and the swap.  The structures are the
# gallery's S_n family and A_40 structure, and seeded Beauville
# structures of sym:5, psl2:7 and sl2:7 with the sl2:7 structure whose
# key representative reads real while it does not.

_SL2_7_REAL_WITNESS = ((0, 6, 1, 6), (5, 3, 4, 4), (0, 1, 6, 3), (0, 3, 2, 4))

_INVARIANCE_FLEET = ["sym:8", "sym:11", "sym:14", "sym:17", "alt-reality:13",
                     "sym:5", "psl2:7", "sl2:7"]


def _random_word(G, rng, length=32):
    x = G.identity
    for _ in range(length):
        x = G.mul(x, rng.choice(G.generators))
    return x


def _orbit_member(G, rng, v):
    sides = []
    for pair in ((v.a1, v.c1), (v.a2, v.c2)):
        g = _random_word(G, rng)
        sides.append(tuple(conjugate(G, x, g) for x in apply_sigma(G, rng.randrange(6), pair)))
    outer = backend_for(G).outer
    if outer and rng.random() < 0.5:
        f = rng.choice(outer)
        sides = [tuple(map(f, side)) for side in sides]
    if rng.random() < 0.5:
        sides.reverse()
    return UnmixedStructure(G, *sides[0], *sides[1])


def _verdict_fields(G, v):
    verdict = reality_unmixed(G, v)
    return verdict.biholo_conjugate, verdict.real, verdict.strongly_real


@lru_cache(maxsize=None)
def _verdict_draws(name):
    """Per structure: its verdict fields and those of seeded orbit members."""
    rng = random.Random(name)
    kind, _, arg = name.partition(":")
    if kind == "alt-reality":
        structures, members = [gallery.alt_reality_structure(int(arg))], 20
    elif kind == "sym" and int(arg) > 5:
        structures, members = [gallery.sym_structure(int(arg))], 20
    else:
        G = group_from_descriptor(parse_descriptor(name))
        elements = sorted(generated_subgroup(G, G.generators), key=repr)
        structures, members = [], 8
        while len(structures) < 3:
            v = UnmixedStructure(G, *_generating_pair(G, elements, rng),
                                 *_generating_pair(G, elements, rng))
            if check_unmixed(G, v).passed:
                structures.append(v)
        if name == "sl2:7":
            structures.append(UnmixedStructure(G, *_SL2_7_REAL_WITNESS))
    return [(_verdict_fields(v.group, v),
             [_verdict_fields(v.group, _orbit_member(v.group, rng, v)) for _ in range(members)])
            for v in structures]


@pytest.mark.parametrize("name", _INVARIANCE_FLEET)
def test_verdicts_constant_on_equivalence_orbits(name):
    for (biholo, _, strong), members in _verdict_draws(name):
        assert biholo is not None and strong is not None
        assert [(m[0], m[2]) for m in members] == [(biholo, strong)] * len(members)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: real counts case 3 of the three "
                   "transpositions of the branch points but not cases 4 and 5")
def test_real_constant_on_equivalence_orbits():
    for name in _INVARIANCE_FLEET:
        for (_, real, _), members in _verdict_draws(name):
            assert [m[1] for m in members] == [real] * len(members), name


# -- case labels of SL(2,p) ---------------------------------------------------
# The labels of a case are the square classes of det g over every g in
# GL(2,p) that conjugates the pair onto the case's targets: "sl" for a
# square, "slw" for a non-square (an outer automorphism of SL(2,p)).


def _gl2_conjugates(p, pair):
    """The square classes of det g over the g in GL(2,p) that conjugate
    the pair onto each image; scalars fix every conjugate and every
    square class, so one g per line of scalars suffices."""
    lines = ([(1, b, c, d) for b in range(p) for c in range(p) for d in range(p)
              if (d - b * c) % p]
             + [(0, 1, c, d) for c in range(1, p) for d in range(p)])
    classes: dict = {}
    for g in lines:
        gi = minv(g, p)
        image = tuple(mmul(mmul(g, x, p), gi, p) for x in pair)
        classes.setdefault(image, set()).add("sl" if is_square(p, mdet(g, p)) else "slw")
    return classes


def _gl2_case_labels(G, pair):
    """Per case, the square classes of det g over the conjugating g in
    GL(2,p)."""
    classes = _gl2_conjugates(G.p, pair)
    return [frozenset(classes.get(case_targets(G, i, *pair), ())) for i in range(6)]


# Not-biholo structures on SL(2,13) from the hunt with budget 2000.  For
# the first six, the only solution of a case of one pair conjugates by a
# non-square determinant; with -1 a square mod 13, conjugation by
# [[0,1],[1,0]] is inner and missed them.
_SL2_13_CHANGED = [
    ((0, 1, 12, 0), (0, 11, 7, 4), (0, 1, 12, 10), (1, 0, 5, 1)),
    ((0, 1, 12, 10), (1, 0, 5, 1), (0, 1, 12, 0), (0, 11, 7, 4)),
    ((0, 1, 12, 0), (0, 11, 7, 4), (0, 1, 12, 10), (1, 8, 0, 1)),
    ((0, 1, 12, 10), (1, 8, 0, 1), (0, 1, 12, 0), (0, 11, 7, 4)),
    ((0, 1, 12, 0), (0, 11, 7, 4), (0, 1, 12, 10), (10, 10, 1, 5)),
    ((0, 1, 12, 10), (10, 10, 1, 5), (0, 1, 12, 0), (0, 11, 7, 4)),
]
_SL2_13_UNCHANGED = [
    ((0, 1, 12, 0), (0, 11, 7, 4), (0, 1, 12, 10), (0, 3, 4, 2)),
    ((0, 1, 12, 10), (0, 3, 4, 2), (0, 1, 12, 0), (0, 11, 7, 4)),
]


@pytest.mark.parametrize("elements, biholo", [(e, True) for e in _SL2_13_CHANGED]
                         + [(e, False) for e in _SL2_13_UNCHANGED])
def test_sl2_13_case_labels_against_gl2_sweep(elements, biholo):
    G = SL2Group(13)
    v = UnmixedStructure(G, *elements)
    assert check_unmixed(G, v).passed
    want = []
    for pair in ((v.a1, v.c1), (v.a2, v.c2)):
        table = lemma_case_table(G, pair)
        got = [sol.labels if sol else frozenset() for _, sol in sorted(table.entries.items())]
        want.append(_gl2_case_labels(G, pair))
        assert got == want[-1]
    # Some outer class solves a case on each side, or none does.
    assert bool(frozenset().union(*want[0]) & frozenset().union(*want[1])) == biholo
    if biholo:
        assert "slw" in frozenset().union(*want[0], *want[1])
    verdict = reality_unmixed(G, v)
    assert (verdict.biholo_conjugate, verdict.decided_by) == (biholo, "case-table")


# -- mixed reality on H4(SL(2,p)) ----------------------------------------------
# The case tables of twist-2 pairs (a, c) on the swap product, against
# an extension walk that knows nothing of signs, routes or labels, and
# against a GL(2,p) sweep of the component conjugators.  On these
# streams a case filter on unsigned orders (a -> u needs ord(a) =
# ord(u) per component) misses solutions onto minus the targets: it
# called case 3 impossible for the quadruples 174, 334 and 344 of the
# p = 3 stream and 24, 128, 199, 263, 270, 281 and 331 of the p = 5
# stream, and missed the label slw of case 0 for 67 (p = 5) and 79
# (p = 7).  Of these, 174, 334, 344 and 128 generate the even-twist
# subgroup.


def _twist2_quadruples(p, seed, count):
    """Seeded component tuples (a1, a2, c1, c2) over SL(2,p) for the
    twist-2 elements a = (a1, a2, 2), c = (c1, c2, 2)."""
    elements = sorted(SL2Group(p).elements(), key=repr)
    rng = random.Random(seed)
    return [tuple(rng.choice(elements) for _ in range(4)) for _ in range(count)]


def _mixed_table(G, a1, a2, c1, c2):
    M = MixedQuadruple(G, (a1, a2, 2), (c1, c2, 2), G.coset_rep)
    return reality_mixed(G, M).tables[0].entries


class _TableGroup:
    """A small group on the ids of its elements, multiplied by table."""

    def __init__(self, H):
        self.elements = sorted(H.elements(), key=repr)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.table = [[self.index[H.mul(x, y)] for y in self.elements] for x in self.elements]
        self.inverse = [self.index[H.inv(x)] for x in self.elements]
        self.identity = self.index[H.identity]
        self.order = len(self.elements)
        self.generators = [self.index[g] for g in H.generators]

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self.inverse[x]


def _extends(G, a, c, u, v):
    """Whether a -> u, c -> v extends to an automorphism of the swap
    product G = H4(H), for (a, c) generating the even-twist subgroup.

    The walk of the Cayley graph of (a, c) sets phi(x a) = phi(x) u and
    phi(x c) = phi(x) v; it must meet no conflict and be injective.
    Then psi(g) = y extends phi for g = (1, 1, 1) iff y is odd with
    y^2 = phi(g^2) and y phi(h) y^-1 = phi(g h g^-1) for h in {a, c}.
    """
    mul = G.mul
    phi = {G.identity: G.identity}
    queue = deque(phi)
    while queue:
        x = queue.popleft()
        for s, t in ((a, u), (c, v)):
            y, image = mul(x, s), mul(phi[x], t)
            if y not in phi:
                phi[y] = image
                queue.append(y)
            elif phi[y] != image:
                return False
    if len(set(phi.values())) != len(phi):
        return False
    g = (G.inner.identity, G.inner.identity, 1)
    square = phi[mul(g, g)]
    moved = [(phi[h], phi[mul(mul(g, h), G.inv(g))]) for h in (a, c)]
    ids = range(G.inner.order)
    return any(mul(y, y) == square
               and all(mul(mul(y, s), G.inv(y)) == t for s, t in moved)
               for y in ((i, j, odd) for i in ids for j in ids for odd in (1, 3)))


@pytest.mark.parametrize("p, seed, picks, generating", [
    (3, 2007, range(400), 132),
    # 134 is the one generating quadruple of this stream where a sign
    # chosen per component would solve a case that one shared sign
    # does not.
    (5, 2009, [128, 134], 2),
])
def test_mixed_case_tables_against_extension_walk(p, seed, picks, generating):
    G = H4(SL2Group(p))
    ids = _TableGroup(G.inner)
    G_ids = H4(ids)
    quadruples = _twist2_quadruples(p, seed, max(picks) + 1)
    found = 0
    for k in picks:
        a1, a2, c1, c2 = quadruples[k]
        a = (ids.index[a1], ids.index[a2], 2)
        c = (ids.index[c1], ids.index[c2], 2)
        if len(generated_subgroup(G_ids, [a, c])) != G.index2_order:
            continue
        found += 1
        entries = _mixed_table(G, a1, a2, c1, c2)
        got = [bool(entries[i] and entries[i].labels) for i in range(6)]
        assert got == [_extends(G_ids, a, c, *case_targets(G_ids, i, a, c))
                       for i in range(6)], k
    assert found == generating


def _gl2_mixed_labels(p, a1, a2, c1, c2):
    """Per case 0 and 3, the square classes shared by conjugators of the
    two components onto their targets, over the direct and swap-type
    routes and one central sign for both components."""
    H = SL2Group(p)
    conjugates = (_gl2_conjugates(p, (a1, c1)), _gl2_conjugates(p, (a2, c2)))
    labels = {}
    for case in (0, 3):
        targets = (case_targets(H, case, a1, c1), case_targets(H, case, a2, c2))
        negated = tuple(tuple(mneg(x, p) for x in t) for t in targets)
        labels[case] = frozenset().union(*(
            conjugates[k][s1] & conjugates[1 - k][s2]
            for s1, s2 in (targets, negated) for k in (0, 1)
            if s1 in conjugates[k] and s2 in conjugates[1 - k]))
    return labels


@pytest.mark.parametrize("p, count", [(5, 400), (7, 100)])
def test_mixed_case_labels_against_gl2_sweep(p, count):
    G = H4(SL2Group(p))
    for k, quadruple in enumerate(_twist2_quadruples(p, 2009, count)):
        entries = _mixed_table(G, *quadruple)
        want = _gl2_mixed_labels(p, *quadruple)
        assert {i: entries[i].labels if entries[i] else frozenset() for i in (0, 3)} == want, k
        assert all(entries[i] is None for i in (1, 2, 4, 5))
