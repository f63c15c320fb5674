import math
import random

import pytest

from beauville import perms
from beauville.core import CapacityExceeded, PreconditionError
from beauville.perms import (
    AlternatingGroup,
    DegeneratePair,
    SymmetricGroup,
    bsgs_order,
    conjugator_search,
    cycle_to_perm,
    cycle_type,
    format_cycles,
    identity_perm,
    parity,
    parse_cycles,
    perm_order,
    pinv,
    pmul,
)


def test_parse_cycles_basic():
    p = parse_cycles("(1,2,3)", 8)
    assert p[0] == 1 and p[1] == 2 and p[2] == 0
    assert all(p[i] == i for i in range(3, 8))
    assert parse_cycles("()", 8) == identity_perm(8)
    a = parse_cycles("(5,4,1)(2,6)", 8)
    assert perm_order(a) == 6
    assert parity(a) == 1


def test_parse_cycles_overlapping_compose_left_to_right():
    # "(1,2)(2,3)" applies (2,3) first, then (1,2).
    p = parse_cycles("(1,2)(2,3)", 4)
    assert p == parse_cycles("(1,2,3)", 4)


@pytest.mark.parametrize("bad", ["(1,9)", "(0,1)", "(1,2,2)", "(1,2", "x", ""])
def test_parse_cycles_errors(bad):
    with pytest.raises(PreconditionError):
        parse_cycles(bad, 8)


def test_format_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        img = list(range(9))
        rng.shuffle(img)
        p = tuple(img)
        assert parse_cycles(format_cycles(p), 9) == p


def test_parity_examples():
    assert parity(parse_cycles("(1,2)", 8)) == 1
    assert parity(parse_cycles("(1,2,3)", 8)) == 0
    assert parity(parse_cycles("(5,4,1)(2,6)", 8)) == 1


def test_bsgs_order_examples():
    assert bsgs_order([parse_cycles("(1,2)", 8),
                       parse_cycles("(1,2,3,4,5,6,7,8)", 8)]) == 40320
    assert bsgs_order([parse_cycles("(1,2,3)", 8)]) == 3
    assert bsgs_order([identity_perm(5)]) == 1


def test_bsgs_alternating_16():
    gens = [parse_cycles("(1,2,3)", 16), cycle_to_perm(list(range(1, 16)), 16)]
    assert bsgs_order(gens) == math.factorial(16) // 2


def test_bsgs_vs_closure_on_random_subgroups():
    # Degree 8 adds imprimitive groups (S2 wr S4, S4 wr S2) to the intransitive ones.
    for n in (7, 8):
        rng = random.Random(7)
        for _ in range(50):
            gens = []
            for _ in range(rng.randint(1, 3)):
                img = list(range(n))
                rng.shuffle(img)
                gens.append(tuple(img))
            seen = {identity_perm(n)}
            stack = list(seen)
            while stack:
                x = stack.pop()
                for g in gens:
                    y = pmul(x, g)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert bsgs_order(gens) == len(seen)


def _wreath(m: int, k: int) -> list:
    """Generators of S_m wr S_k on k blocks of m consecutive points."""
    n = m * k
    swap = list(range(n))
    for r in range(m):
        swap[r], swap[m + r] = m + r, r
    return [cycle_to_perm([0, 1], n), cycle_to_perm(list(range(m)), n), tuple(swap),
            tuple((x + m) % n for x in range(n))]


def test_bsgs_order_wreath_products():
    assert bsgs_order(_wreath(2, 8)) == 2**8 * math.factorial(8)
    assert bsgs_order(_wreath(4, 4)) == 24**5


def test_chain_completion_sifts_each_schreier_generator_once(monkeypatch):
    # Transversals and generator lists only grow, so completing a chain
    # sifts each (level, orbit point, generator) Schreier generator once.
    sifted = []
    real = perms._Chain.sift

    def counting(self, x, start=0):
        sifted.append(start)
        return real(self, x, start)

    monkeypatch.setattr(perms._Chain, "sift", counting)
    chain = perms._Chain(16)
    for g in _wreath(2, 8):
        chain.insert(g)
    sifted.clear()
    chain.complete()
    assert chain.size == 2**8 * math.factorial(8)
    pairs = sum(len(chain.trans[i]) * sum(tag < i for gens in chain.gens[i:] for tag, _ in gens)
                for i in range(len(chain.base)))
    assert len(sifted) == pairs


def test_centralizer_enumeration_is_the_centralizer():
    a = parse_cycles("(1,2,3)(4,5)", 7)
    got = conjugator_search(a, a, a, a)
    assert len(got) == 3 * 2 * 2  # 3-cycle, 2-cycle, 2 fixed
    for z in got:
        assert pmul(z, pmul(a, pinv(z))) == a
    # brute-force comparison
    import itertools

    brute = sorted(g for g in itertools.permutations(range(7))
                   if pmul(g, pmul(a, pinv(g))) == a)
    assert got == brute


def test_conjugator_search_no_inversion_for_sym8_pair():
    a = parse_cycles("(5,4,1)(2,6)", 8)
    c = parse_cycles("(1,2,3)(4,5,6,7,8)", 8)
    assert conjugator_search(a, pinv(a), c, pinv(c)) == []


def _few_moved(rng, n, k):
    """A seeded permutation moving at most k points."""
    img = list(range(n))
    points = rng.sample(range(n), k)
    for x, y in zip(points, rng.sample(points, k)):
        img[x] = y
    return tuple(img)


def _random_perm(rng, n):
    img = list(range(n))
    rng.shuffle(img)
    return tuple(img)


def test_conjugator_search_finds_all_solutions():
    import itertools

    rng = random.Random(13)
    checked = {"solved": 0, "empty": 0}
    for n in (5, 6, 7):
        ambient = list(itertools.permutations(range(n)))
        for shape, conjugate_targets, _ in itertools.product(
                ("random", "shared-fixed", "equal", "few-moved"), (True, False), range(3)):
            a = _random_perm(rng, n) if shape == "random" else _few_moved(rng, n, 3)
            if shape == "equal":
                c = a
            elif shape == "random":
                c = _random_perm(rng, n)
            else:
                c = _few_moved(rng, n, 3 if shape == "shared-fixed" else 2)
            if a == c == identity_perm(n):
                continue
            h = _random_perm(rng, n)
            if conjugate_targets:
                at, ct = pmul(h, pmul(a, pinv(h))), pmul(h, pmul(c, pinv(h)))
            else:
                at, ct = pmul(h, pmul(a, pinv(h))), _few_moved(rng, n, 3)
            got = conjugator_search(a, at, c, ct)
            brute = [g for g in ambient
                     if pmul(g, a) == pmul(at, g) and pmul(g, c) == pmul(ct, g)]
            assert got == brute, (a, at, c, ct)
            if conjugate_targets:
                assert h in got
            checked["solved" if got else "empty"] += 1
    assert checked["solved"] > 0 and checked["empty"] > 0


def test_conjugator_search_rejects_mixed_degrees():
    with pytest.raises(PreconditionError):
        conjugator_search((1, 0, 2), (1, 0), (0, 1, 2), (0, 1, 2))
    with pytest.raises(PreconditionError):
        conjugator_search((1, 0), (1, 0), (0, 1), (0, 2, 1))


def test_conjugator_search_cap_boundary(monkeypatch):
    # Six orbits in S_8: each 2-cycle has two maps onto itself, and each
    # of the four common fixed points four.  The placements are the
    # partial solutions, 2 + 4 + 16 + 48 + 96 + 96 = 262, of which the
    # last 96 are the solutions.
    from beauville.reality import _sym_solver

    G = SymmetricGroup(8)
    a, c = parse_cycles("(1,2)", 8), parse_cycles("(3,4)", 8)
    assert _sym_solver(G, a, c, a, c).labels == {"inner"}
    monkeypatch.setattr(perms, "DEFAULT_CONJUGATOR_CAP", 262)
    assert len(conjugator_search(a, a, c, c)) == 2 * 2 * 24
    monkeypatch.setattr(perms, "DEFAULT_CONJUGATOR_CAP", 261)
    with pytest.raises(CapacityExceeded) as exc:
        conjugator_search(a, a, c, c)
    assert (exc.value.what, exc.value.cap) == ("conjugator search", 261)
    # Past the cap the case is undecided, never a boolean.
    sol = _sym_solver(G, a, c, a, c)
    assert (sol.labels, sol.decided) == (frozenset(), False)


def test_conjugator_quotients_centralize_target():
    a = parse_cycles("(1,2,3,4)(5,6)", 8)
    c = parse_cycles("(1,5)(2,6,7)", 8)
    h = parse_cycles("(2,4,8)(3,7)", 8)
    at = pmul(h, pmul(a, pinv(h)))
    ct = pmul(h, pmul(c, pinv(h)))
    sols = conjugator_search(a, at, c, ct)
    for g1 in sols:
        for g2 in sols:
            z = pmul(g2, pinv(g1))
            assert pmul(z, pmul(at, pinv(z))) == at


def test_conjugator_search_triple_cycle_data_has_odd_solution():
    # The p = 5 instance of the triple-cycle family (three 5-cycles on 16
    # points): inverting conjugators exist and include an odd one.
    p, n = 5, 16
    a = identity_perm(n)
    for start in (1, p + 1, 2 * p + 1):
        a = pmul(a, cycle_to_perm(list(range(start, start + p)), n))
    c = pmul(cycle_to_perm([0] + list(range(p, 1, -1)), n),
             cycle_to_perm([1, p + 1, 3 * p, p + 2, 2 * p + 1], n))
    sols = conjugator_search(a, pinv(a), c, pinv(c))
    assert sols
    assert any(parity(g) == 1 for g in sols)
    for g in sols:
        assert pmul(g, pmul(a, pinv(g))) == pinv(a)
        assert pmul(g, pmul(c, pinv(g))) == pinv(c)


def test_conjugator_search_degenerate():
    e = identity_perm(5)
    with pytest.raises(DegeneratePair):
        conjugator_search(e, e, e, e)
    assert conjugator_search(e, e, e, parse_cycles("(1,2)", 5)) == []


def test_cycle_type_mismatch_empty():
    a = parse_cycles("(1,2,3)", 6)
    b = parse_cycles("(1,2)", 6)
    assert conjugator_search(a, b, a, a) == []
    # Eighteen fixed points of <a, c> against sixteen of the targets: the
    # orbit blocks refute this at once, where placing maps would run into
    # the cap before the pigeonhole showed.
    a = parse_cycles("(1,2)", 20)
    b = parse_cycles("(1,2)(3,4)", 20)
    assert conjugator_search(a, b, a, b) == []


def test_alternating_context_membership():
    A8 = AlternatingGroup(8)
    assert A8.contains(parse_cycles("(1,2,3)", 8))
    assert not A8.contains(parse_cycles("(1,2)", 8))
    assert A8.order == math.factorial(8) // 2
    assert bsgs_order(A8.generators) == A8.order


def test_symmetric_generates_pair():
    S8 = SymmetricGroup(8)
    assert S8.generates_pair(parse_cycles("(1,2)", 8),
                             parse_cycles("(1,2,3,4,5,6,7,8)", 8))
    assert not S8.generates_pair(parse_cycles("(1,2)", 8),
                                 parse_cycles("(3,4)", 8))
