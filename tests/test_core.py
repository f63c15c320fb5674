import random

import pytest

from beauville.constructions import H4, Abelian2, Wallpaper, dicyclic, dihedral
from beauville.core import (
    CapacityExceeded,
    MalformedElementError,
    UndecidedError,
    conjugacy_class,
    conjugate,
    element_order,
    generated_subgroup,
    generates,
)
from beauville.matgroups import SL2Group, diag_mat, sl2_constants
from beauville.perms import SymmetricGroup, parse_cycles


BACKENDS = [
    Abelian2(5),
    SymmetricGroup(5),
    SL2Group(5),
    dihedral(6),
    dicyclic(3),
    Wallpaper(3, 3),
    H4(dihedral(3)),
]


@pytest.mark.parametrize("G", BACKENDS, ids=lambda g: str(g.descriptor()))
def test_group_axioms_random(G):
    rng = random.Random(11)
    els = sorted(generated_subgroup(G, G.generators, cap=10**5), key=repr)
    assert len(els) == G.order
    e = G.identity
    for _ in range(80):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
        assert G.mul(x, G.inv(x)) == e
        assert G.mul(G.inv(x), x) == e
        assert G.mul(e, x) == x == G.mul(x, e)


@pytest.mark.parametrize("G", BACKENDS, ids=lambda g: str(g.descriptor()))
def test_element_order_divides_group_order(G):
    rng = random.Random(5)
    els = sorted(generated_subgroup(G, G.generators, cap=10**5), key=repr)
    for _ in range(40):
        g = rng.choice(els)
        assert G.order % element_order(G, g) == 0


def test_element_order_examples():
    S8 = SymmetricGroup(8)
    assert element_order(S8, parse_cycles("(1,2,3)", 8)) == 3
    G7 = SL2Group(7)
    consts = sl2_constants(7)
    assert element_order(G7, consts["B"]) == 4
    assert element_order(G7, consts["T"]) == 7


def test_conjugate_examples():
    S8 = SymmetricGroup(8)
    g = parse_cycles("(1,2)", 8)
    h = parse_cycles("(1,3)", 8)
    assert conjugate(S8, g, h) == parse_cycles("(2,3)", 8)
    assert conjugate(S8, S8.identity, h) == S8.identity
    rng = random.Random(3)
    els = sorted(generated_subgroup(S8, S8.generators, cap=10**5), key=repr)
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        assert element_order(S8, conjugate(S8, x, y)) == element_order(S8, x)


def test_generated_subgroup_examples():
    A = Abelian2(5)
    assert len(generated_subgroup(A, [(1, 0)])) == 5
    assert len(generated_subgroup(A, [(1, 0), (0, 1)])) == 25
    S8 = SymmetricGroup(8)
    full = generated_subgroup(S8, S8.generators, cap=10**5)
    assert len(full) == 40320


def test_generated_subgroup_cap_is_explicit():
    S8 = SymmetricGroup(8)
    with pytest.raises(CapacityExceeded):
        generated_subgroup(S8, S8.generators, cap=1000)
    # A cap equal to the closure size passes; one less raises with the label.
    S5 = SymmetricGroup(5)
    assert len(generated_subgroup(S5, S5.generators, cap=120)) == 120
    with pytest.raises(CapacityExceeded) as exc:
        generated_subgroup(S5, S5.generators, cap=119)
    assert (exc.value.what, exc.value.cap) == ("subgroup closure", 119)


def test_generates_examples():
    S8 = SymmetricGroup(8)
    a = parse_cycles("(5,4,1)(2,6)", 8)
    c = parse_cycles("(1,2,3)(4,5,6,7,8)", 8)
    assert generates(S8, a, c)
    A = Abelian2(5)
    assert not generates(A, (1, 0), (2, 0))
    G7 = SL2Group(7)
    consts = sl2_constants(7)
    assert generates(G7, consts["B"], consts["S"])


def test_generates_undecided_over_cap():
    # A closure backend of order 120 > cap: undecided, never a boolean.
    G = dihedral(60)
    a, c = G.generators
    with pytest.raises(UndecidedError):
        generates(G, a, c, cap=100)
    assert generates(G, a, c, cap=G.order)
    # SL(2,p) is decided by the trace triple, not by the caller's closure,
    # so the cap does not bind either way, up to SL(2,71) (order 357,840).
    for p in (11, 71):
        H = SL2Group(p)
        consts = sl2_constants(p)
        assert generates(H, consts["B"], consts["S"], cap=100) is True
        assert generates(H, consts["T"], diag_mat(p, 2), cap=100) is False


def test_generates_cross_check_closure_vs_chain():
    # The two strategies must agree wherever both apply.
    S6 = SymmetricGroup(6)
    rng = random.Random(17)
    els = sorted(generated_subgroup(S6, S6.generators), key=repr)
    for _ in range(30):
        a, c = rng.choice(els), rng.choice(els)
        via_chain = S6.generates_pair(a, c)
        via_closure = len(generated_subgroup(S6, [a, c])) == S6.order
        assert via_chain == via_closure


def test_conjugacy_class_examples():
    S8 = SymmetricGroup(8)
    assert conjugacy_class(S8, S8.identity) == frozenset([S8.identity])
    cls = conjugacy_class(S8, parse_cycles("(1,2)", 8))
    assert len(cls) == 28
    G5 = SL2Group(5)
    minus_id = (4, 0, 0, 4)
    assert conjugacy_class(G5, minus_id) == frozenset([minus_id])


def test_conjugate_lands_in_class():
    G = dihedral(6)
    rng = random.Random(23)
    els = sorted(generated_subgroup(G, G.generators), key=repr)
    for _ in range(40):
        g, h = rng.choice(els), rng.choice(els)
        assert conjugate(G, g, h) in conjugacy_class(G, g)


def test_malformed_elements_rejected():
    S8 = SymmetricGroup(8)
    with pytest.raises(MalformedElementError):
        element_order(S8, (0, 1, 2))
    A = Abelian2(5)
    with pytest.raises(MalformedElementError):
        element_order(A, (7, 0))
    G = SL2Group(5)
    with pytest.raises(MalformedElementError):
        element_order(G, (1, 1, 1, 1))  # determinant 0
