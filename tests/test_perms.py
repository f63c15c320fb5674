import math
import random

import pytest

from beauville import perms
from beauville.core import PreconditionError
from beauville.perms import (
    AlternatingGroup,
    DegeneratePair,
    SymmetricGroup,
    bsgs_order,
    centralizer_size,
    conjugator_search,
    cycle_to_perm,
    cycle_type,
    format_cycles,
    identity_perm,
    iter_centralizer,
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


def test_parse_cycles_zero_based():
    p = parse_cycles("(0,1,2)", 4, zero_based=True)
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
    got = sorted(iter_centralizer(a))
    assert len(got) == centralizer_size(a) == 3 * 2 * 2  # 3-cycle, 2-cycle, 2 fixed
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


def test_conjugator_search_finds_all_solutions():
    import itertools

    rng = random.Random(13)
    n = 6
    for _ in range(10):
        img = list(range(n))
        rng.shuffle(img)
        a = tuple(img)
        img2 = list(range(n))
        rng.shuffle(img2)
        c = tuple(img2)
        img3 = list(range(n))
        rng.shuffle(img3)
        h = tuple(img3)
        at = pmul(h, pmul(a, pinv(h)))
        ct = pmul(h, pmul(c, pinv(h)))
        got = conjugator_search(a, at, c, ct)
        brute = sorted(g for g in itertools.permutations(range(n))
                       if pmul(g, pmul(a, pinv(g))) == at
                       and pmul(g, pmul(c, pinv(g))) == ct)
        assert got == brute
        assert h in got


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
