"""Differential oracles for the exact generation certificates, the
class labels, the catalogue scan, the integer-id search core and the
equivalence orbits.

The Jordan-element certificate (S_n, A_n) and the trace-triple
certificate (SL(2,p), PSL(2,p)) are checked against the deterministic
chain ``bsgs_order`` and against closure, which know nothing of either,
and the trace triple against the orbit-stabilizer walk on vectors that
it replaced, with every branch of Dickson's list reached.  The Jordan
element is sought in vain over primitive proper groups and found early
on seeded giant pairs, and its prime test is checked against trial
division; the walk it is sought in, on choices drawn once, is checked
against the walk that drew them per call.  The block test
that refutes imprimitive pairs is checked against Higman's criterion on
orbital graphs.  Class labels, and the sigma test built on them, are
checked against the conjugacy-class search.  The
unmixed catalogue scan is checked against a brute force that uses
neither the indexed tables nor fingerprint buckets.  The composed
multiplication tables, the inverses and orders read off the power walk,
the refuted-subgroup memo of ``IndexedGroup.generates``, the lazy
class-keyed fingerprint buckets, the per-class power fingerprints, the
id-ordered enumeration and the sign-map index-2 subgroups are checked
against the plain builds they replaced, and the structure stream on lazy
buckets against the stream fed the eager ones and against the stream
that checked a bucket's pairs again for every outer pair.  Pair orbits and
keyed structure orbits are checked against breadth-first searches that
apply every generator of the equivalence group at every point, the
class-table walk of the pair orbit against the element walk it replaced
at the caps where each of its checks fires, and the swap route of the unmixed reality verdict against key-orbit membership.
The case labels of SL(2,13) are checked against a sweep over GL(2,13).
The case tables are checked against the builds they replaced: the SL/PSL
solver that solved the outer label a second time on outer-map images,
and the order of every target computed rather than read off the type
triple; the real cases against the rule that counted all six cases for
a commuting pair; the rank-2 abelian solver against the one that
inverted [a c]; the SL/PSL solver's trace screen against the unscreened
solve; the inner-only solver, which lists the elements once, against
the one that took the closure for every case.  Each backend's
conjugation map is checked against the two products it fuses, and
the class search and the pair orbits on it against searches built
on those products.  The mixed case tables on H4(SL(2,p)) are checked
against an extension walk on the even-twist subgroup, against a
GL(2,p) sweep, and against the table loop that the case solver
replaced; the orders H4 reads off the components against iteration.
The class-label
branch of ``check_mixed`` on H4(SL(2,5)) and H4(SL(2,7)) is checked
against its closure path, run on H4 over a table copy of SL(2,p), with
each witness checked against ``sigma_naive``.
"""

import math
import random
import tracemalloc
from collections import Counter, deque
from functools import cache, lru_cache, partial
from itertools import islice, zip_longest

import pytest

from beauville import core, gallery, matgroups, perms, reality, search
from beauville.constructions import (
    _KINDS,
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
    PreconditionError,
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
    gl2_conjugators,
    is_square,
    mat_id,
    mdet,
    minv,
    mmul,
    mneg,
    mtrace,
    psl_canon,
    sl2_constants,
    solve_conjugation_sl2,
)
from beauville.perms import (
    AlternatingGroup,
    SymmetricGroup,
    bsgs_order,
    cycle_to_perm,
    generates_known_order,
    parity,
    parse_cycles,
    pmul,
)
from beauville.reality import (
    AutBackend,
    CaseSolution,
    CaseTable,
    StructureKeys,
    _ab2_solver,
    _case_table,
    _linear_solver,
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


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(perms, name)

    def counting(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(perms, name, counting)
    return calls


@pytest.fixture
def fallbacks(monkeypatch):
    """Calls of the deterministic chain made while a test runs."""
    return _count_calls(monkeypatch, "bsgs_order")


@pytest.fixture
def block_tests(monkeypatch):
    """Calls of the block test made while a test runs."""
    return _count_calls(monkeypatch, "_imprimitive")


@pytest.fixture
def no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closure ran for a backend with its own certificate")

    monkeypatch.setattr(core, "generated_subgroup", refuse)
    # The exceptional branch of the trace triple closes through core.orbit.
    monkeypatch.setattr(matgroups, "orbit", refuse)


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
            # A positive is proved by a Jordan element alone.
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


def _transitive(gens):
    n = len(gens[0])
    return len(orbit([0], lambda x: [g[x] for g in gens], n, "point orbit")) == n


def _primitive_by_orbitals(H, n):
    """Whether the transitive group H, given by all its elements, is
    primitive on its n points, by Higman's criterion: iff for every
    x != 0 the orbital graph with edges {h(0), h(x)}, h in H, is
    connected."""
    for x in range(1, n):
        neighbours = [set() for _ in range(n)]
        for h in H:
            neighbours[h[0]].add(h[x])
            neighbours[h[x]].add(h[0])
        reached, stack = {0}, [0]
        while stack:
            for y in neighbours[stack.pop()] - reached:
                reached.add(y)
                stack.append(y)
        if len(reached) < n:
            return False
    return True


def test_block_test_against_orbital_graphs_s6(fallbacks):
    """Every transitive pair (class representative of S_6) x (element of
    S_6): the block test finds a block exactly when Higman's criterion
    finds <a, c> imprimitive, an imprimitive pair never reaches
    ``bsgs_order``, nor does a pair generating A_6, which Jordan's theorem
    and parity decide, and any other primitive proper one reaches it once.
    Closures are kept per a and least a^i c a^j, since <a, c> = <a, a^i c a^j>."""
    G = SymmetricGroup(6)
    elements = sorted(G.elements())
    outcomes, closures, primitive = Counter(), {}, {}
    for a in _class_reps(G, elements):
        powers = sorted(generated_subgroup(G, [a]))
        for c in elements:
            if not _transitive([a, c]):
                continue
            key = (a, min(pmul(pmul(u, c), v) for u in powers for v in powers))
            if key not in closures:
                closures[key] = frozenset(generated_subgroup(G, [a, c]))
            H = closures[key]
            if H not in primitive:
                primitive[H] = _primitive_by_orbitals(H, 6)
            assert perms._imprimitive([a, c]) != primitive[H], (a, c)
            before = len(fallbacks)
            want = len(H) == G.order
            assert generates_known_order([a, c], G.order) == want == (bsgs_order([a, c]) == G.order)
            if not primitive[H]:
                outcomes["imprimitive"] += 1
                assert len(fallbacks) == before, (a, c)
            elif len(H) == G.order // 2:
                outcomes["alternating"] += 1
                assert len(fallbacks) == before, (a, c)
            elif not want:
                outcomes["primitive-proper"] += 1
                assert len(fallbacks) == before + 1, (a, c)
            else:
                outcomes["generating"] += 1
    assert outcomes == {"imprimitive": 1196, "alternating": 926, "primitive-proper": 840,
                        "generating": 2446}


def _wreath(m, k):
    """Generators of S_m wr S_k on k blocks of m consecutive points."""
    n = m * k
    swap = list(range(n))
    for r in range(m):
        swap[r], swap[m + r] = m + r, r
    return [cycle_to_perm([0, 1], n), cycle_to_perm(list(range(m)), n), tuple(swap),
            tuple((x + m) % n for x in range(n))]


@pytest.mark.parametrize("m, k", [(2, 4), (4, 2), (3, 3)])
def test_block_test_against_orbital_graphs_wreath(m, k, fallbacks):
    # Seeded generating pairs of S_m wr S_k, imprimitive in S_mk.
    n = m * k
    G = SymmetricGroup(n)
    W = sorted(generated_subgroup(G, _wreath(m, k)))
    rng = random.Random(23)
    found = 0
    while found < 20:
        a, c = rng.choice(W), rng.choice(W)
        H = generated_subgroup(G, [a, c])
        if len(H) < len(W):
            continue
        found += 1
        assert not _primitive_by_orbitals(H, n)
        assert perms._imprimitive([a, c])
        assert not generates_known_order([a, c], G.order)
        assert bsgs_order([a, c]) == len(W)
    assert fallbacks == []


def _orbit_stabilizer(p, a, c, projective):
    """Whether a and c generate SL(2,p) (PSL(2,p) when ``projective``),
    by a walk over the p^2-1 nonzero vectors of F_p^2 (up to sign).

    SL(2,p) is transitive on them, and the stabilizer of e1 is the
    unipotent group [[1, t], [0, 1]] of prime order p (in PSL(2,p) too).
    So <a, c> is everything iff the orbit of e1 holds every vector and
    some Schreier generator is not trivial (not +-I).  The transversal
    keeps u_x with u_x e1 = x, so the Schreier generator of the edge
    (x, g) is trivial iff g u_x equals u_{gx}.
    """
    half = (p - 1) // 2
    trans = {(1, 0): mat_id(p)}
    frontier = [mat_id(p)]
    stabilizer_nontrivial = False
    while frontier:
        new = []
        for u in frontier:
            for g in (a, c):
                w = mmul(g, u, p)
                x, y = w[0], w[2]
                if projective:
                    w = psl_canon(w, p)
                    if x > half or (x == 0 and y > half):
                        x, y = (-x) % p, (-y) % p
                known = trans.get((x, y))
                if known is None:
                    trans[(x, y)] = w
                    new.append(w)
                elif known != w:
                    stabilizer_nontrivial = True
        frontier = new
    return len(trans) == (p * p - 1) // (2 if projective else 1) and stabilizer_nontrivial


def _dickson_branch(p, a, c, generating):
    """The outcome of the trace triple on (a, c), found without its
    polynomials: from a commutator, zero traces, powers and the walk."""
    ac = mmul(a, c, p)
    commutator = mmul(ac, mmul(minv(a, p), minv(c, p), p), p)
    if (commutator[0] + commutator[3]) % p == 2:
        return "reducible"
    if [(g[0] + g[3]) % p for g in (a, c, ac)].count(0) >= 2:
        return "dihedral"
    signs = (mat_id(p), mneg(mat_id(p), p))

    def projective_order_at_most_5(g):
        power = g
        for _ in range(5):
            if power in signs:
                return True
            power = mmul(power, g, p)
        return False

    if all(projective_order_at_most_5(g) for g in (a, c, ac)):
        return "small-orders-generating" if generating else "exceptional-proper"
    return "trace-generating"


@pytest.mark.parametrize("G, split", [
    (SL2Group(11), {"reducible": 3980, "dihedral": 292, "exceptional-proper": 1856,
                    "small-orders-generating": 1360, "trace-generating": 12312}),
    (PSL2Group(11), None),
], ids=["sl211", "psl211"])
def test_trace_triple_against_orbit_stabilizer(G, split):
    elements = sorted(G.elements())
    branches = Counter()
    for a in _class_reps(G, elements):
        for c in elements:
            want = _orbit_stabilizer(G.p, a, c, G.kind == "psl2")
            branch = _dickson_branch(G.p, a, c, want)
            assert G.generates_pair(a, c) == want == branch.endswith("generating"), (a, c)
            branches[branch] += 1
    assert set(branches) == {"reducible", "dihedral", "exceptional-proper",
                             "small-orders-generating", "trace-generating"}
    if split is not None:
        assert branches == split


@pytest.mark.parametrize("G", [SL2Group(5), PSL2Group(7)], ids=lambda g: f"{g.kind}{g.p}")
def test_trace_triple_all_pairs(G):
    elements = sorted(G.elements())
    exceptional = 0
    for a in _class_reps(G, elements):
        for c in elements:
            size = len(generated_subgroup(G, [a, c]))
            assert G.generates_pair(a, c) == (size == G.order), (a, c)
            exceptional += size == (G.p ** 2 - 1) // (2 if G.kind == "psl2" else 1)
    # 2.A4 in SL(2,5) and S4 in PSL(2,7) are neither reducible nor
    # dihedral: the exceptional branch's capped closure refuses them, and
    # accepts SL(2,5) at its full order.
    assert exceptional > 0


@pytest.mark.parametrize("G", [SL2Group(3), SL2Group(7), PSL2Group(11)],
                         ids=lambda g: f"{g.kind}{g.p}")
def test_trace_triple_seeded_pairs(G):
    rng = random.Random(11)
    elements = sorted(G.elements())
    for _ in range(150):
        a, c = rng.choice(elements), rng.choice(elements)
        assert G.generates_pair(a, c) == _by_closure(G, a, c), (a, c)


def test_exceptional_subgroups_are_refused():
    # 2.S4 <= SL(2,7) and A5 <= PSL(2,11): irreducible, not dihedral, and
    # every element of projective order at most 5, so the exceptional
    # branch's capped closure decides them.
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
    # Intransitive: decided by the orbit of 0, no chain.
    S7 = SymmetricGroup(7)
    assert not generates(S7, parse_cycles("(1,2)", 7), parse_cycles("(3,4,5,6,7)", 7))
    assert fallbacks == []
    # Imprimitive: blocks {1,2},{3,4},{5,6},{7,8}; no element has a 5-cycle
    # as a power, and the block test refutes it before the deterministic chain.
    A8 = AlternatingGroup(8)
    assert not generates(A8, parse_cycles("(1,3,5,7)(2,4,6,8)", 8),
                         parse_cycles("(1,2)(3,4)", 8))
    assert fallbacks == []
    # Primitive proper subgroup AGL(1,7) = <x+1, 3x> of S7 (order 42): no
    # block and no Jordan element, so the deterministic chain decides.
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


# -- Jordan's theorem ---------------------------------------------------------
# A primitive group with a p-cycle, p prime and p <= n - 3, contains A_n.
# The negative controls are primitive proper groups, which therefore hold
# no element whose power is such a cycle; the positive oracle pins how
# far into its walk the certificate finds one on giant pairs.


def _projective_line(q, r):
    """Generators of PGL(2,q) on the q + 1 points of the projective line
    over F_q, infinity numbered q: x + 1, r x for a primitive root r, and
    -1/x."""
    line = range(q + 1)
    return [tuple((x + 1) % q if x < q else q for x in line),
            tuple(r * x % q if x < q else q for x in line),
            tuple(q if x == 0 else 0 if x == q else -pow(x, -1, q) % q for x in line)]


_PRIMITIVE_PROPER = {
    # AGL(1,7) = <x + 1, 3x> in S_7.
    "agl1-7": (7, [tuple((x + 1) % 7 for x in range(7)), tuple(3 * x % 7 for x in range(7))], 42),
    "pgl2-5": (6, _projective_line(5, 2), 120),
    "pgl2-7": (8, _projective_line(7, 3), 336),
    "m11": (11, [parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                 parse_cycles("(3,7,11,8)(4,10,5,6)", 11)], 7920),
}


@lru_cache(maxsize=None)
def _primitive_proper_elements(name):
    n, gens, order = _PRIMITIVE_PROPER[name]
    if name == "m11":
        assert bsgs_order(gens) == order
    H = generated_subgroup(SymmetricGroup(n), gens)
    assert len(H) == order
    assert not perms._imprimitive(gens)
    return sorted(H)


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_PROPER))
def test_jordan_element_absent_from_primitive_proper_groups(name):
    # Accepting nothing even at the weakest bound, p >= 2, which the
    # certificate uses only once <gens> is known to be primitive.
    elements = _primitive_proper_elements(name)
    assert [x for x in elements if perms._jordan_element(x, 2)] == []


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_PROPER))
def test_primitive_proper_pairs_reach_fallback_once(name, fallbacks):
    n, gens, order = _PRIMITIVE_PROPER[name]
    if len(gens) == 2:
        pair = gens
    else:
        elements = _primitive_proper_elements(name)
        rng = random.Random(name)
        pair = None
        while pair is None:
            a, c = rng.choice(elements), rng.choice(elements)
            if len(generated_subgroup(SymmetricGroup(n), [a, c])) == order:
                pair = [a, c]
    assert not generates_known_order(pair, SymmetricGroup(n).order)
    assert len(fallbacks) == 1
    assert fallbacks[0] == pair


@pytest.mark.parametrize("n", [*range(8, 17), 20, 24, 28, 40])
def test_jordan_certificate_on_seeded_giant_pairs(n, fallbacks, monkeypatch):
    """30 seeded transitive pairs of uniform permutations of degree n,
    giants (A_n or S_n) as bsgs_order confirms up to degree 12 and as
    uniform pairs almost surely are (Dixon 1969).  Each is answered by a
    Jordan element at walk index at most 100, half the walk."""
    calls = []
    jordan_element = perms._jordan_element

    def recording(x, least):
        calls.append(jordan_element(x, least))
        return calls[-1]

    monkeypatch.setattr(perms, "_jordan_element", recording)
    rng = random.Random(n)
    symmetric = SymmetricGroup(n).order
    found = 0
    while found < 30:
        a, c = (tuple(rng.sample(range(n), n)) for _ in range(2))
        giant = symmetric // (1 if parity(a) or parity(c) else 2)
        if not _transitive([a, c]) or (n <= 12 and bsgs_order([a, c]) != giant):
            continue
        found += 1
        calls.clear()
        assert generates_known_order([a, c], giant)
        assert calls[-1] and len(calls) - 1 <= 100, (a, c)
        assert not generates_known_order([a, c], symmetric if giant < symmetric else giant // 2)
    assert fallbacks == []


def _jordan_element_by_trial_division(x, least):
    """``perms._jordan_element`` as it was before the per-degree prime
    set: each distinct cycle length tested for primality by trial
    division."""
    lengths = [len(c) for c in perms.cycles_of(x)]
    return any(least <= p <= len(x) - 3 and all(p % d for d in range(2, math.isqrt(p) + 1))
               and sum(k % p == 0 for k in lengths) == 1
               for p in set(lengths))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 16, 24, 40])
def test_jordan_element_matches_trial_division(n):
    # Every element of S_5 to S_7, where p = n - 3 is 2, 3 and then not
    # prime, and seeded elements beyond, at both bounds the walk uses.
    if n <= 7:
        elements = list(SymmetricGroup(n).elements())
    else:
        rng = random.Random(f"jordan:{n}")
        elements = [tuple(rng.sample(range(n), n)) for _ in range(300)]
    for least in (2, n // 2 + 1):
        assert ([perms._jordan_element(x, least) for x in elements]
                == [_jordan_element_by_trial_division(x, least) for x in elements])


def _walk_drawn_per_call(gens, rng):
    """The product-replacement stream as it was before the schedule: each
    step's (s, t, left) choice drawn from ``rng`` as the step is taken,
    and products composed by list comprehension."""
    def compose(p, q):
        return tuple([p[i] for i in q])

    state = [gens[i % len(gens)] for i in range(perms._CERT_SLOTS)]
    acc = tuple(range(len(gens[0])))
    step = 0
    while True:
        s = rng.randrange(perms._CERT_SLOTS)
        t = rng.randrange(perms._CERT_SLOTS - 1)
        t += t >= s
        if rng.random() < 0.5:
            state[s] = compose(state[s], state[t])
        else:
            state[s] = compose(state[t], state[s])
        acc = compose(acc, state[s])
        step += 1
        if step > perms._CERT_BURN_IN:
            yield acc


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 8, 11, 16, 24, 40])
def test_scheduled_walk_is_the_walk_drawn_per_call(n, k):
    # The schedule is drawn once from the certificate's seed; the stream
    # it drives is the one each call used to draw for itself, element by
    # element over the whole walk, which reads at most _JORDAN_WALK - k.
    rng = random.Random(f"walk:{n}:{k}")
    for _ in range(5):
        gens = [tuple(rng.sample(range(n), n)) for _ in range(k)]
        scheduled = list(perms._product_replacement(gens))
        reference = list(islice(_walk_drawn_per_call(gens, random.Random(perms._CERT_SEED)),
                                perms._JORDAN_WALK))
        assert scheduled == reference


def test_large_positives_without_closure_or_fallback(fallbacks, block_tests, no_closure):
    pw = gallery.alt_pair_2_3_84(16)
    assert generates(pw.group, pw.a, pw.c)
    # A Jordan element proves it: the block test, which tries every x on
    # a primitive pair, runs only when the first elements of the walk
    # hold none.
    assert block_tests == []
    k = sl2_constants(71)
    assert generates(SL2Group(71), k["B"], k["S"])
    assert fallbacks == []


@pytest.mark.parametrize("n, a, c", [
    (16, "(1,2)(9,10)", "(1,10,3,12,5,14,7,16)(2,11,4,13,6,15,8,9)"),
    (20, "(1,2)(11,12)", "(1,12,3,14,5,16,7,18,9,20)(2,13,4,15,6,17,8,19,10,11)"),
    (24, "(1,2)(13,14)",
     "(1,14,3,16,5,18,7,20,9,22,11,24)(2,15,4,17,6,19,8,21,10,23,12,13)"),
    (28, "(1,2)(15,16)",
     "(1,16,3,18,5,20,7,22,9,24,11,26,13,28)(2,17,4,19,6,21,8,23,10,25,12,27,14,15)"),
])
def test_benchmark_scale_imprimitive_pairs_without_fallback(n, a, c, fallbacks, block_tests,
                                                           no_closure):
    # The shapes of the benchmark's imprimitive A_n requests, n = 2k: a
    # transposition on each half {1..k}, {k+1..2k} and a k-cycle on each
    # half followed by the swap of the halves.  The block test refutes them.
    assert generates(AlternatingGroup(n), parse_cycles(a, n), parse_cycles(c, n)) is False
    assert len(block_tests) == 1
    assert fallbacks == []


@pytest.mark.parametrize("p, borel", [(31, (3, 1, 0, 21)), (53, (2, 1, 0, 27)),
                                      (71, (7, 1, 0, 61))])
def test_benchmark_scale_sl2_pairs_without_closure(p, borel, no_closure):
    # The shapes of the benchmark's SL(2,p) requests: a Borel pair (refuted
    # as reducible) and the (4, 6, p) pair B, S (generating by its traces).
    G, k = SL2Group(p), sl2_constants(p)
    assert not generates(G, borel, k["T"])
    assert generates(G, k["B"], k["S"])
    if p == 71:
        # Both pairs of the capped (4, 6, 71), (7, 7, 7) structure check.
        v = UnmixedStructure(G, k["B"], k["S"], (20, 0, 0, 32), (16, 4, 55, 36))
        assert check_unmixed(G, v, closure_cap=100_000).verdict == "pass"


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
    (SL2Group(5), "trace-triple"),
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


# The scans' whole domain: the unmixed scan's catalogue and the
# quotients of the wallpaper scan.
_FINGERPRINT_FLEET = list(dict.fromkeys(
    ["sym:5", "sl2:5", "psl2:7", "ab2:5", "psl2:11", "dih:12", "prod(dic:3,cyc:5)"]
    + [format_descriptor(d) for d in catalogue(72)]
    + [f"wallpaper:{d}:{m}" for d, m in ((3, 4), (3, 5), (4, 3), (4, 4), (6, 3))]))


@pytest.mark.parametrize("desc", _FINGERPRINT_FLEET)
def test_class_keyed_fingerprints_against_pairs(desc):
    idx = IndexedGroup(group_from_descriptor(parse_descriptor(desc)))
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
    G = group_from_descriptor(parse_descriptor(desc))
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
    G = group_from_descriptor(parse_descriptor(desc))
    assert len(_stream_against_eager(G, constraints, limit)) == count


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


# The stream that re-ran each bucket's generation checks for every pair
# of the outer fingerprint, as it stood before the checked pairs were kept.
def _structure_stream_rechecked(idx: IndexedGroup, constraints: SearchConstraints,
                                by_fp: dict | None = None):
    """Yield unmixed structures as id quadruples (i1, j1, i2, j2), in
    deterministic order; ``idx.structure`` builds the structure of one.

    Pairs are pruned by the hyperbolicity bound before any sigma work;
    sigma sets are compared as conjugacy-class fingerprints, and
    generation is certified only for pairs participating in a
    disjoint-fingerprint combination.  ``by_fp`` is the output of
    ``_fingerprint_buckets``; by default every hyperbolic pair is kept,
    so the stream is exhaustive.
    """
    if by_fp is None:
        by_fp = _fingerprint_buckets(idx)
    id_class = {idx.class_id[idx.id_index]}
    type1, type2 = constraints.type1, constraints.type2

    def type_of(i, j):
        return (idx.order_of[i], idx.order_of[j], idx.order_of[idx.mul_row[i][j]])

    fps = sorted(by_fp, key=sorted)
    gen_cache: dict = {}

    def fits(pair, want_type):
        return want_type is None or type_of(*pair) == want_type

    def generating_pairs(fp, want_types):
        for (i, j) in by_fp[fp]:
            if want_types is not None and type_of(i, j) not in want_types:
                continue
            # (i, j) and (j, i) generate one subgroup and share a bucket.
            key = (i, j) if i < j else (j, i)
            ok = gen_cache.get(key)
            if ok is None:
                ok = idx.generates(i, j)
                gen_cache[key] = ok
            if ok:
                yield (i, j)

    # (fingerprint, wanted type) -> whether its bucket has a generating
    # pair; a combination with no (type1, type2) match in either order
    # yields nothing, so it is skipped without walking its buckets.
    nonempty: dict = {}

    def has_generating(fp, want_type):
        key = (fp, want_type)
        if key not in nonempty:
            wanted = None if want_type is None else (want_type,)
            nonempty[key] = next(generating_pairs(fp, wanted), None) is not None
        return nonempty[key]

    # Pairs of either fingerprint may take either place of the structure.
    both = None if type1 is None or type2 is None else (type1, type2)
    # A fingerprint holds the identity class and another, so it is never
    # disjoint from itself.
    for x, f1 in enumerate(fps):
        for f2 in fps[x + 1:]:
            if (f1 & f2) != id_class:
                continue
            if not (has_generating(f1, type1) and has_generating(f2, type2)
                    or has_generating(f2, type1) and has_generating(f1, type2)):
                continue
            for p in generating_pairs(f1, both):
                for q in generating_pairs(f2, both):
                    for (p1, p2) in ((p, q), (q, p)):
                        if fits(p1, type1) and fits(p2, type2):
                            yield p1 + p2


def _type_filters(G):
    """The types of the first structure of the stream, or of the first
    pairs of the first and last buckets when the group has none."""
    idx = IndexedGroup(G)

    def type_of(i, j):
        return (idx.order_of[i], idx.order_of[j], idx.order_of[idx.mul_row[i][j]])

    q = next(_structure_stream(idx, SearchConstraints()), None)
    if q is not None:
        return type_of(*q[:2]), type_of(*q[2:])
    buckets = list(_fingerprint_buckets(idx).values())
    return type_of(*next(iter(buckets[0]))), type_of(*next(iter(buckets[-1])))


def _buckets(G, cut):
    idx = IndexedGroup(G)
    by_fp = _fingerprint_buckets(idx)
    if cut:  # as hunt_reality cuts them, before any fill
        for b in by_fp.values():
            b.size = min(b.size, 16)
    return idx, by_fp


@pytest.mark.parametrize("desc", ["sym:5", "alt:5", "sl2:5", "psl2:7", "ab2:5", "dih:12",
                                  "prod(dic:3,cyc:5)"])
def test_stream_against_rechecking_stream(desc):
    # Each side on its own fresh index and buckets, so that neither reads
    # what the other filled.  PSL(2,7)'s uncut streams hold 225,792
    # (type1 given) to 6,547,968 (unfiltered) quadruples; read without a
    # limit, they are compared over their first 100,000.
    G = group_from_descriptor(parse_descriptor(desc))
    t1, t2 = _type_filters(G)
    for constraints in (SearchConstraints(), SearchConstraints(t1, None),
                        SearchConstraints(None, t2), SearchConstraints(t1, t2)):
        for cut in (False, True):
            for limit in (1, 7, None):
                stop = 100_000 if desc == "psl2:7" and limit is None and not cut else limit
                idx, by_fp = _buckets(G, cut)
                got = islice(_structure_stream(idx, constraints, by_fp), stop)
                idx, by_fp = _buckets(G, cut)
                want = islice(_structure_stream_rechecked(idx, constraints, by_fp), stop)
                n = 0
                for x, y in zip_longest(got, want):
                    assert x == y, (constraints, cut, limit, n)
                    n += 1


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


# -- case tables against the builds they replaced -----------------------------
# The SL/PSL solver used to solve a case twice: once at determinant 1 for
# the inner label, and once more on the images of the pair under the
# outer map for the outer label.  The table builder computed the order
# of every target instead of reading it off the type triple.  Both are
# copied here as they were, with the case targets they read.


def _parent_case_targets(G, i, a, c):
    ai, ci, ac = G.inv(a), G.inv(c), G.mul(a, c)
    return ((ai, ci), (ci, ac), (ac, ai), (ci, ai), (ac, ci), (ai, ac))[i]


def _two_solve_linear_solver(lifts, outer, G, a, c, u, v) -> CaseSolution:
    """Label "sl" for an inner psi, "slw" for psi = inner after ``outer``.

    ``lifts(x)`` are the matrices of determinant 1 that stand for x.
    """
    p = G.p
    return CaseSolution(frozenset(
        label for label, (x, y) in (("sl", (a, c)), ("slw", (outer(a), outer(c))))
        if any(solve_conjugation_sl2(p, x, su, y, sv, "sl") is not None
               for su in lifts(u) for sv in lifts(v))), True)


def _order_pruned_case_table(G, pair, onto, backend) -> dict:
    """Entry i solves ``pair`` onto ``case_targets(G, i, *onto)``."""
    a, c = pair
    orders = {x: G.element_order(x) for x in (a, c)}
    entries: dict = {}
    for i in range(6):
        u, v = _parent_case_targets(G, i, *onto)
        # An automorphism preserves element orders.
        if G.element_order(u) != orders[a] or G.element_order(v) != orders[c]:
            entries[i] = None
            continue
        entries[i] = backend.solve(G, a, c, u, v)
    return entries


def _lifts(G):
    """The matrices of determinant 1 that stand for an element of G."""
    p = G.p
    return (lambda x: (x,)) if isinstance(G, SL2Group) else (lambda x: (x, mneg(x, p)))


def _two_solve_backend(G):
    outer = backend_for(G).outer[0]
    return AutBackend(partial(_two_solve_linear_solver, _lifts(G), outer), [outer])


def _case_table_pairs(G, rng, count):
    """Seeded pairs, generating or not, with +-I, unipotent elements and
    commuting pairs among them."""
    p = G.p
    special = [G.project(x) for x in (mat_id(p), mneg(mat_id(p), p), (1, 1, 0, 1),
                                      (1, 0, 3, 1), (p - 1, 1, 0, p - 1))]
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    pairs = [(x, y) for x in special for y in special]
    pairs += [(rng.choice(special), rng.choice(elements)) for _ in range(count // 4)]
    pairs += [(x, G.mul(x, x)) for x in rng.sample(elements, count // 4)]
    pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(count)]
    return pairs


def _case_entries(entries):
    return [None if sol is None else (sol.labels, sol.decided)
            for _, sol in sorted(entries.items())]


@pytest.mark.parametrize("desc", ["sl2:5", "sl2:7", "sl2:11", "sl2:13",
                                  "psl2:7", "psl2:11", "psl2:13"])
def test_linear_case_tables_against_two_solves(desc):
    G = group_from_descriptor(parse_descriptor(desc))
    rng = random.Random(desc)
    pairs = _case_table_pairs(G, rng, 40)
    old, new = _two_solve_backend(G), backend_for(G)
    seen = Counter()
    for pair in pairs:
        onto = rng.choice([pair, rng.choice(pairs)])
        m, m_onto = pair_metrics(G, *pair), pair_metrics(G, *onto)
        got = _case_entries(_case_table(G, pair, onto, new, m.triple, m_onto.triple).entries)
        assert got == _case_entries(_order_pruned_case_table(G, pair, onto, old)), (pair, onto)
        seen.update("+".join(sorted(entry[0])) for entry in got if entry is not None)
    assert {"", "sl", "slw", "sl+slw"} <= set(seen), seen


@pytest.mark.parametrize("desc", ["sym:5", "alt:5", "ab2:5", "dih:8", "wallpaper:3:3"])
def test_case_orders_from_type_triples(desc):
    G = group_from_descriptor(parse_descriptor(desc))
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random(desc)
    backend = backend_for(G)
    nones = Counter()
    for _ in range(40):
        pair = (rng.choice(elements), rng.choice(elements))
        got = _case_entries(lemma_case_table(G, pair).entries)
        assert got == _case_entries(_order_pruned_case_table(G, pair, pair, backend)), pair
        nones[got.count(None)] += 1
    assert len(nones) > 1, nones  # some tables have impossible cases, some do not


# The real cases are 0 and 3; the rule before counted all six for a
# commuting pair.  On abelian groups the two rules give the same verdicts.


@pytest.mark.parametrize("desc", ["ab2:5", "ab2:7", "prod(cyc:5,cyc:5)"])
def test_real_cases_on_commuting_pairs(desc, monkeypatch):
    G = group_from_descriptor(parse_descriptor(desc))
    idx = IndexedGroup(G)
    structures = [idx.structure(q) for q in islice(_structure_stream(idx, SearchConstraints()),
                                                   2000)]
    sample = random.Random(desc).sample(structures, 40)
    assert all(G.commutes(v.a1, v.c1) and G.commutes(v.a2, v.c2) for v in sample)
    got = [_verdict_fields(G, v) for v in sample]
    monkeypatch.setattr(reality, "_REAL_CASES", tuple(range(6)))
    assert got == [_verdict_fields(G, v) for v in sample]


# The rank-2 abelian solver built M = [u v][a c]^-1 entry by entry only
# to ask whether M is invertible; copied here as it was.


def _inverse_matrix_ab2_solver(G, a, c, u, v) -> CaseSolution:
    n = G.n
    det = (a[0] * c[1] - a[1] * c[0]) % n
    if math.gcd(det, n) != 1:
        return CaseSolution(frozenset(), False)
    # M [a c] = [u v]; the generating pair is a basis so M is unique.
    dinv = pow(det, -1, n)
    ia = ((c[1] * dinv) % n, (-a[1] * dinv) % n)
    ic = ((-c[0] * dinv) % n, (a[0] * dinv) % n)
    m00 = (u[0] * ia[0] + v[0] * ic[0]) % n
    m01 = (u[0] * ia[1] + v[0] * ic[1]) % n
    m10 = (u[1] * ia[0] + v[1] * ic[0]) % n
    m11 = (u[1] * ia[1] + v[1] * ic[1]) % n
    invertible = math.gcd((m00 * m11 - m01 * m10) % n, n) == 1
    return CaseSolution(frozenset(["gl2"] if invertible else []), True)


@pytest.mark.parametrize("n", [5, 7, 11, 25, 35])
def test_ab2_solver_against_inverse_matrix(n):
    G = Abelian2(n)
    rng = random.Random(n)
    vectors = [(x, y) for x in range(n) for y in range(n)]
    seen = Counter()
    for _ in range(3000):
        a, c, u, v = (rng.choice(vectors) for _ in range(4))
        got = _ab2_solver(G, a, c, u, v)
        assert got == _inverse_matrix_ab2_solver(G, a, c, u, v), (a, c, u, v)
        seen[got.decided, got.labels] += 1
    assert set(seen) == {(False, frozenset()), (True, frozenset()),
                         (True, frozenset(["gl2"]))}, seen


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

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < self.order


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


def _check_mixed_both_ways(G, ids, a, c):
    """check_mixed of (a, c) on G = H4(SL(2,p)), by class labels, after
    checking its verdict and conditions against the closure path, which
    runs on H4 over ``ids``, a table copy of SL(2,p) that check_mixed
    does not recognise.  A witness of a sigma condition is checked
    against sigma_naive over the closure of the pair."""
    G_ids = H4(ids)

    def to_ids(x):
        return (ids.index[x[0]], ids.index[x[1]], x[2])

    rep = check_mixed(G, MixedQuadruple(G, a, c, G.coset_rep))
    a, c = to_ids(a), to_ids(c)
    closure = check_mixed(G_ids, MixedQuadruple(G_ids, a, c, G_ids.coset_rep))
    assert rep.verdict == closure.verdict
    assert [(x.id, x.ok) for x in rep.conditions] == [(x.id, x.ok) for x in closure.conditions]
    cid = rep.conditions[-1].id
    if rep.verdict == "fail" and cid != "generates-subgroup":
        # z = (I, I, 2) is central, so the twist-0 half of the closure
        # conjugates as the whole closure does.
        half = [x for x in generated_subgroup(G_ids, [a, c]) if x[2] == 0]
        sigma = sigma_naive(G_ids, a, c, half)
        w, g = to_ids(rep.witness), G_ids.coset_rep
        assert G_ids.in_index2(w)
        if cid == "coset-squares":
            assert G_ids.power(G_ids.mul(g, w), 2) in sigma
        else:
            assert w != G_ids.identity and w in sigma and conjugate(G_ids, w, g) in sigma
    return rep


def test_check_mixed_labels_against_closure_sl2_5():
    """Seeded pairs of H4(SL(2,5)), whose even-twist subgroup has 28,800
    elements, with twists 0 or 2, and two pairs that fail Goursat's
    condition alone: the second components are a signed image of the
    first, under the identity and under the outer automorphism.  One
    seeded pair fails the conjugate-sigma condition only through label
    triples (K, K, 0), which are their own swaps."""
    H = SL2Group(5)
    G = H4(H)
    elements = sorted(H.elements(), key=repr)
    rng = random.Random(104)
    pairs = [tuple((rng.choice(elements), rng.choice(elements), rng.choice((0, 2)))
                   for _ in range(2)) for _ in range(30)]
    B, S = H.generators
    outer = backend_for(H).outer[0]
    pairs += [((B, B, 2), (S, mneg(S, 5), 2)), ((B, outer(B), 2), (S, outer(S), 0))]
    ids = _TableGroup(H)
    failed = {}
    for a, c in pairs:
        rep = _check_mixed_both_ways(G, ids, a, c)
        assert rep.verdict == "fail"
        cid = rep.conditions[-1].id
        failed[cid] = failed.get(cid, 0) + 1
    assert failed == {"generates-subgroup": 29, "coset-squares": 1,
                      "conjugate-sigma-intersection": 2}


def test_check_mixed_labels_against_closure_sl2_7_passes():
    """Two twist-2 pairs of H4(SL(2,7)), whose even-twist subgroup has
    225,792 elements, that both paths pass."""
    G = H4(SL2Group(7))
    ids = _TableGroup(G.inner)
    quadruples = _twist2_quadruples(7, 2009, 39)
    for k in (0, 38):
        a1, a2, c1, c2 = quadruples[k]
        assert _check_mixed_both_ways(G, ids, (a1, a2, 2), (c1, c2, 2)).passed, k


def test_reality_mixed_needs_twist_2_pairs():
    """A pair with a twist-0 generator can pass check_mixed, but the
    mixed case table covers only twist-2 pairs, so reality_mixed refuses
    it instead of giving a verdict."""
    G = H4(SL2Group(7))
    a1, a2, c1, c2 = _twist2_quadruples(7, 2009, 1)[0]
    u = MixedQuadruple(G, (a1, a2, 0), (c1, c2, 2), G.coset_rep)
    assert check_mixed(G, u).passed
    with pytest.raises(PreconditionError, match="twist-2"):
        reality_mixed(G, u)


# -- the swap-product table before the case solver -----------------------------
# reality_mixed built its table on H4(SL(2,p)) with a loop of its own
# over cases, signs and routes; it is copied here as it was.  The
# quadruples add, to seeded ones, second components equal to the first,
# to its negative, or to the first with a and c exchanged.


def _swap_case_table(G, u: MixedQuadruple) -> CaseTable:
    """Case table of a twist-2 pair on H4(SL(2,p)) from component solves.

    Case 0 or 3 is solved by a (route, sign) whose two component solves
    share a label.  A (route, sign) is tried only when every source
    element has the order of its signed target, and a case that none
    passes is impossible.  Cases 1, 2, 4 and 5 send a twist-2 element
    to the twist-0 element a*c, which no automorphism does.

    Precondition: a and c both have twist 2; a pair with a twist-0
    generator raises PreconditionError, even when it passes
    ``check_mixed``.
    """
    H = G.inner
    p = H.p
    solve = backend_for(H).solve
    order = cache(H.element_order)  # each element recurs across cases and signs
    (a1, a2, ta), (c1, c2, tc) = u.a, u.c
    if ta != 2 or tc != 2:
        raise PreconditionError("expected twist-2 structure elements on the swap product")
    routes = (((a1, c1), (a2, c2)), ((a2, c2), (a1, c1)))  # direct, swap type
    entries: dict = dict.fromkeys(range(6))
    for case in (0, 3):
        targets = (case_targets(H, case, a1, c1), case_targets(H, case, a2, c2))
        labels, possible = frozenset(), False
        for signed in (targets, tuple(tuple(mneg(x, p) for x in t) for t in targets)):
            for sources in routes:
                if any(order(x) != order(y) for pair, images in zip(sources, signed)
                       for x, y in zip(pair, images)):
                    continue
                possible = True
                ((x1, y1), (x2, y2)), ((s1, t1), (s2, t2)) = sources, signed
                got = solve(H, x1, y1, s1, t1).labels
                if got:
                    labels |= got & solve(H, x2, y2, s2, t2).labels
        if possible:
            entries[case] = CaseSolution(labels, True)
    return CaseTable(entries)


def _swap_quadruples(p, seed, count):
    quadruples = _twist2_quadruples(p, seed, count)
    out = list(quadruples)
    for a1, _, c1, _ in quadruples[:count // 2]:
        out += [(a1, a1, c1, c1), (a1, mneg(a1, p), c1, mneg(c1, p)), (a1, c1, c1, a1)]
    return out


@pytest.mark.parametrize("p, count", [(3, 1000), (5, 600), (7, 400), (11, 200), (13, 200)])
def test_mixed_case_tables_against_swap_table(p, count):
    G = H4(SL2Group(p))
    seen = Counter()
    for k, (a1, a2, c1, c2) in enumerate(_swap_quadruples(p, 2027, count)):
        M = MixedQuadruple(G, (a1, a2, 2), (c1, c2, 2), G.coset_rep)
        got = _case_entries(reality_mixed(G, M).tables[0].entries)
        assert got == _case_entries(_swap_case_table(G, M).entries), k
        seen.update("impossible" if entry is None else "+".join(sorted(entry[0]))
                    for entry in (got[0], got[3]))
    assert set(seen) == {"impossible", "", "sl", "slw", "sl+slw"}, seen
    for ta, tc in ((0, 2), (2, 0), (0, 0)):
        M = MixedQuadruple(G, (a1, a2, ta), (c1, c2, tc), G.coset_rep)
        for build in (lambda: reality_mixed(G, M), lambda: _swap_case_table(G, M)):
            with pytest.raises(PreconditionError, match="twist-2"):
                build()


# -- element orders on the swap product -----------------------------------------
# H4 reads an element's order off its components; the generic order
# iterates the element.


@pytest.mark.parametrize("inner", [SL2Group(3), AlternatingGroup(4), dihedral(3)],
                         ids=["sl2:3", "alt:4", "dih:3"])
def test_h4_element_order_against_iteration_all(inner):
    G = H4(inner)
    twists = Counter()
    for g in G.elements():
        assert G.element_order(g) == core.Group.element_order(G, g), g
        twists[g[2]] += 1
    assert set(twists) == {0, 1, 2, 3}


def test_h4_element_order_against_iteration_seeded():
    G = H4(SL2Group(7))
    elements = sorted(G.inner.elements(), key=repr)
    rng = random.Random(7)
    orders = Counter()
    for t in range(4):
        for _ in range(150):
            g = (rng.choice(elements), rng.choice(elements), t)
            orders[t, G.element_order(g)] += 1
            assert G.element_order(g) == core.Group.element_order(G, g), g
    assert len(orders) > 12, orders


# Conjugation maps.  Each backend's ``conjugation(g)`` is checked
# against the two products it fuses, and the class search that runs on
# it against the search on those products.

_CONJUGATION_FLEET = {"sym": "sym:6", "alt": "alt:5", "sl2": "sl2:7", "psl2": "psl2:11",
                      "ab2": "ab2:5", "cyc": "cyc:6", "dih": "dih:8", "dic": "dic:6",
                      "wallpaper": "wallpaper:4:3"}


def test_conjugation_fleet_covers_every_kind():
    assert set(_CONJUGATION_FLEET) == set(_KINDS)


@pytest.mark.parametrize("desc", [*_CONJUGATION_FLEET.values(), "prod(dih:4,cyc:3)",
                                  "prod(cyc:5,cyc:5)", "h4:sl2:3"])
def test_conjugation_against_products(desc):
    G = _fleet_group(desc)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random(desc)
    moved = 0
    for g in [*G.generators, *(rng.choice(elements) for _ in range(12))]:
        f, gi = G.conjugation(g), G.inv(g)
        for x in (rng.choice(elements) for _ in range(12)):
            want = G.mul(g, G.mul(x, gi))
            assert f(x) == want == conjugate(G, x, g), (g, x)
            moved += want != x
    if desc not in ("ab2:5", "cyc:6", "prod(cyc:5,cyc:5)"):
        assert moved > 0


def _class_by_products(G, g):
    """The class search as it was: two products per step."""
    gens = [(h, G.inv(h)) for h in G.generators]
    return frozenset(orbit([g], lambda x: [G.mul(h, G.mul(x, hi)) for h, hi in gens],
                           10**6, "conjugacy class"))


@pytest.mark.parametrize("desc", ["ab2:5", "dih:8", "prod(cyc:5,cyc:5)", "psl2:7"])
def test_conjugacy_class_against_products(desc):
    G = _fleet_group(desc)
    for x in generated_subgroup(G, G.generators):
        assert conjugacy_class(G, x) == _class_by_products(G, x), x


# The pair orbit carries (yx)^-1 and (xy)^-1 along the walk; it must
# give the orbit of the brute-force search and raise at the same caps.

_CAP_FLEET = {"sym:5": 4, "sym:6": 2, "sym:7": 1, "alt:5": 4, "sl2:5": 4, "sl2:7": 3,
              "psl2:7": 4, "psl2:11": 2, "ab2:5": 4, "ab2:7": 4, "dih:8": 4, "dic:6": 4,
              "h4:sl2:3": 2}


@pytest.mark.parametrize("desc", sorted(_CAP_FLEET))
def test_it_orbit_caps_against_brute_force(desc):
    G = _fleet_group(desc)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random("caps:" + desc)
    for _ in range(_CAP_FLEET[desc]):
        pair = (rng.choice(elements), rng.choice(elements))
        want = _it_orbit(G, pair)
        assert it_orbit(G, pair, cap=len(want)) == want
        for cap in (len(want) - 1, len(want) // 6):
            with pytest.raises(CapacityExceeded) as exc:
                it_orbit(G, pair, cap=cap)
            assert (exc.value.what, exc.value.cap) == ("pair orbit", cap)


# The pair orbit indexes the conjugacy class of each of x, y and
# u = (yx)^-1 once and walks the inner orbit on ids.  Copied here is the walk it replaced,
# which conjugated every member and emitted its six images.  The two must
# give equal orbits and raise at the same caps: the orbit, the inner
# orbit and the largest class, each as a cap and one less, a sixth of
# the orbit, 1 and 0.


def _six_image_orbit(G, pair, cap=10**6):
    maps = [G.conjugation(g) for g in G.generators]
    x, y = pair
    seen = {pair}
    queue = deque([(x, y, G.inv(G.mul(y, x)), G.inv(G.mul(x, y)))])
    out: set = set()
    while queue:
        x, y, u, w = queue.popleft()
        out.update(((x, y), (u, x), (y, u), (y, x), (w, y), (x, w)))
        if len(out) > cap:
            raise CapacityExceeded("pair orbit", cap)
        for f in maps:
            q = (f(x), f(y))
            if q not in seen:
                seen.add(q)
                queue.append((*q, f(u), f(w)))
    return frozenset(out)


def _orbit_or_cap(walk, G, pair, cap):
    try:
        return walk(G, pair, cap)
    except CapacityExceeded as exc:
        return (exc.what, exc.cap)


def _check_table_walk(G, pair, class_size):
    want = _six_image_orbit(G, pair)
    maps = [G.conjugation(g) for g in G.generators]
    inner = orbit([pair], lambda q: [(f(q[0]), f(q[1])) for f in maps], 10**6, "inner orbit")
    x, y = pair
    largest = max(class_size(z) for z in (x, y, G.inv(G.mul(y, x)), G.inv(G.mul(x, y))))
    n = len(want)
    for cap in (n, n - 1, len(inner), len(inner) - 1, n // 6, largest, largest - 1, 1, 0):
        got = _orbit_or_cap(it_orbit, G, pair, cap)
        assert got == _orbit_or_cap(_six_image_orbit, G, pair, cap), (pair, cap)
        assert got == (want if cap >= n else ("pair orbit", cap)), (pair, cap)
    return n // len(inner)


def _class_sizes(G):
    return cache(lambda z: len(conjugacy_class(G, z)))


@pytest.mark.parametrize("desc", ["sym:4", "dih:8"])
def test_it_orbit_table_walk_on_every_pair(desc):
    G = _fleet_group(desc)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    class_size = _class_sizes(G)
    ratios = Counter(_check_table_walk(G, (x, y), class_size)
                     for x in elements for y in elements)
    # The orbit is k inner orbits, k = 1 for the pair (e, e): the d check
    # meets pairs whose images share inner orbits.
    assert set(ratios) >= {1, 3, 6}, ratios


# Seeded pairs per group: a third with conjugate components (y = g x g^-1,
# x or x^-1), and on each group pairs with a central component: the
# identity, -I on SL(2,p), the central involution of dic:6.
_TABLE_WALK_FLEET = {"sym:5": 9, "sym:6": 6, "sym:7": 3, "alt:5": 9, "alt:7": 3,
                     "sl2:5": 9, "sl2:7": 6, "psl2:7": 6, "psl2:11": 3, "ab2:5": 9,
                     "ab2:7": 9, "dic:6": 9, "h4:sl2:3": 3}


@pytest.mark.parametrize("desc", sorted(_TABLE_WALK_FLEET))
def test_it_orbit_table_walk_on_seeded_pairs(desc):
    G = _fleet_group(desc)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    rng = random.Random("table-walk:" + desc)
    center = [z for z in elements if all(G.commutes(z, g) for g in G.generators)]
    class_size = _class_sizes(G)
    pairs = []
    for k in range(_TABLE_WALK_FLEET[desc]):
        x = rng.choice(elements)
        if k % 3:
            pairs.append((x, rng.choice(elements)))
        else:
            g = rng.choice(elements)
            pairs.append((x, (conjugate(G, x, g), x, G.inv(x))[k // 3 % 3]))
    for z in center:
        x = rng.choice(elements)
        pairs += [(z, x), (x, z)]
    assert len(center) > (1 if desc in ("sl2:5", "sl2:7", "dic:6") else 0)
    for pair in pairs:
        _check_table_walk(G, pair, class_size)


def _peak_memory(G, pair, cap):
    tracemalloc.start()
    try:
        _orbit_or_cap(it_orbit, G, pair, cap)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cycles, n, size", [
    (("(1,6,2,3,5,4)", "(1,5)(2,3,4)"), 6, 4320),
    (("(1,2,3,4,5,6,7)", "(1,2,7,5,3,6,4)"), 7, 30240),
], ids=["sym:6", "sym:7"])
def test_it_orbit_cap_stops_before_decoding(cycles, n, size):
    """Past a cap under the orbit, the walk stops before any orbit is
    built, and its peak memory stays well below that of the orbit.  Both
    pairs have orbits of six inner orbits.  The S_6 pair has six class
    pairs among its images, so the d check stops it within 719 members;
    the three components of the S_7 pair are 7-cycles, one class pair,
    so it walks its 5040 members and the size check stops it."""
    G = SymmetricGroup(n)
    pair = tuple(parse_cycles(c, n) for c in cycles)
    assert len(it_orbit(G, pair)) == size
    assert _orbit_or_cap(it_orbit, G, pair, size - 1) == ("pair orbit", size - 1)
    assert 2 * _peak_memory(G, pair, size - 1) < _peak_memory(G, pair, size)


def test_it_orbit_d_check_stops_the_walk():
    """The d check stops the walk after cap / d members.  The S_8 pair
    of 3-cycles has a double transposition as (yx)^-1, three class pairs
    among its images, and an orbit of three inner orbits of 1680.  At a
    cap of 1680 the walk stops within 561 members; at 5039 it walks all
    1680 before the size check stops it."""
    S8 = SymmetricGroup(8)
    pair = (parse_cycles("(1,2,3)", 8), parse_cycles("(2,3,4)", 8))
    assert len(it_orbit(S8, pair)) == 5040
    assert 2 * _peak_memory(S8, pair, 1680) < _peak_memory(S8, pair, 5039)


# The SL/PSL case solver skips a lift pair whose trace triple differs
# from that of (a, c).  Copied here as it was before that screen.


def _unscreened_linear_solver(lifts, G, a, c, u, v) -> CaseSolution:
    p = G.p
    dets = (mdet(x, p) for su in lifts(u) for sv in lifts(v)
            for x in gl2_conjugators(p, a, su, c, sv))
    labels: set = set()
    for det in dets:
        labels.add("sl" if is_square(p, det) else "slw")
        if len(labels) == 2:
            break
    return CaseSolution(frozenset(labels), True)


def _screen_against_unscreened(lifts, G, a, c, u, v) -> tuple:
    """Asserts that no lift pair the screen rejects is solvable and that
    the screened solve is the unscreened one; returns the numbers of lift
    pairs rejected and of solves with a label."""
    p = G.p

    def traces(x, y):
        return mtrace(x, p), mtrace(y, p), mtrace(mmul(x, y, p), p)

    rejected = 0
    for su in lifts(u):
        for sv in lifts(v):
            if traces(su, sv) != traces(a, c):
                rejected += 1
                assert not list(gl2_conjugators(p, a, su, c, sv)), (a, c, su, sv)
    got = _linear_solver(lifts, G, a, c, u, v)
    assert got == _unscreened_linear_solver(lifts, G, a, c, u, v), (a, c, u, v)
    return rejected, bool(got.labels)


@pytest.mark.parametrize("desc", ["sl2:7", "psl2:7", "psl2:11"])
def test_trace_screen_against_unscreened_solver(desc):
    G = group_from_descriptor(parse_descriptor(desc))
    p, lifts = G.p, _lifts(G)
    rng = random.Random("trace-screen:" + desc)
    pairs = _case_table_pairs(G, rng, 40)
    elements = sorted(generated_subgroup(G, G.generators), key=repr)
    tally = Counter()
    for a, c in pairs:
        # A GL(2,p) matrix of random determinant, square or not.
        x = mmul((rng.randrange(1, p), 0, 0, 1), rng.choice(elements), p)
        xi = minv(x, p)
        targets = [case_targets(G, i, *onto) for i in range(6)
                   for onto in ((a, c), rng.choice(pairs))]
        targets.append(tuple(G.project(mmul(mmul(x, y, p), xi, p)) for y in (a, c)))
        targets.append((rng.choice(elements), rng.choice(elements)))
        for u, v in targets:
            rejected, solved = _screen_against_unscreened(lifts, G, a, c, u, v)
            tally["rejected"] += rejected
            tally["solved"] += solved
    assert tally["rejected"] > 0 and tally["solved"] > 0, tally


def test_trace_screen_on_psl2_7_case_tables(monkeypatch):
    G = PSL2Group(7)
    calls = []

    def recording(lifts, G, a, c, u, v):
        calls.append((lifts, a, c, u, v))
        return _linear_solver(lifts, G, a, c, u, v)

    monkeypatch.setattr(reality, "_linear_solver", recording)
    for v in enumerate_unmixed(G, limit=200).structures:
        reality_unmixed(G, v)
    tally = Counter()
    for lifts, a, c, u, v in calls:
        rejected, solved = _screen_against_unscreened(lifts, G, a, c, u, v)
        tally["rejected"] += rejected
        tally["solved"] += solved
    assert tally["rejected"] > 0 and tally["solved"] > 0, tally


# The inner-only solver sweeps a list of the elements made at most once
# per backend.  Copied here as it was, taking the closure for every case.


def _closure_per_case_inner_solver(G, a, c, u, v) -> CaseSolution:
    if G.order <= reality._INNER_CAP:
        for g in generated_subgroup(G, G.generators, cap=reality._INNER_CAP):
            if conjugate(G, a, g) == u and conjugate(G, c, g) == v:
                return CaseSolution(frozenset(["inner"]), False)
    return CaseSolution(frozenset(), False)


@pytest.mark.parametrize("desc", ["prod(cyc:5,cyc:5)", "dih:8"])
def test_inner_solver_lists_elements_once(desc, monkeypatch):
    G = group_from_descriptor(parse_descriptor(desc))
    rng = random.Random("inner:" + desc)
    if desc == "dih:8":  # no Beauville structure: seeded quadruples
        elements = sorted(generated_subgroup(G, G.generators), key=repr)
        structures = [UnmixedStructure(G, *(rng.choice(elements) for _ in range(4)))
                      for _ in range(40)]
    else:
        idx = IndexedGroup(G)
        structures = rng.sample([idx.structure(q) for q in
                                 islice(_structure_stream(idx, SearchConstraints()), 2000)], 40)
    closures = []
    real_closure = reality.generated_subgroup

    def counting(*args, **kwargs):
        closures.append(args)
        return real_closure(*args, **kwargs)

    monkeypatch.setattr(reality, "generated_subgroup", counting)
    got = []
    for v in structures:
        before = len(closures)
        got.append(reality_unmixed(G, v).to_json())
        assert len(closures) - before <= 1
    assert closures
    monkeypatch.setattr(reality, "backend_for",
                        lambda G: AutBackend(_closure_per_case_inner_solver, None))
    assert got == [reality_unmixed(G, v).to_json() for v in structures]
    labelled = sum(bool(entry["labels"]) for verdict in got for table in verdict["cases"]
                   for entry in table.values())
    # Inner automorphisms fix every pair of the abelian group: no case is solved there.
    assert (labelled > 0) == (desc == "dih:8"), labelled
