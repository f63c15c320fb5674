import math
import random
from fractions import Fraction

import pytest

from beauville.constructions import H4, Abelian2, Wallpaper, dihedral
from beauville.core import (
    InconsistencyError,
    PreconditionError,
    generated_subgroup,
)
from beauville.matgroups import SL2Group, sl2_constants
from beauville.perms import SymmetricGroup, parse_cycles, pinv, pmul
from beauville.structures import (
    MixedQuadruple,
    UnmixedStructure,
    check_mixed,
    check_unmixed,
    genus,
    pair_metrics,
    sigma_naive,
    sigma_set,
    try_sigma_disjoint,
)


def _sym8_structure():
    S8 = SymmetricGroup(8)
    a = parse_cycles("(5,4,1)(2,6)", 8)
    c = parse_cycles("(1,2,3)(4,5,6,7,8)", 8)
    s = parse_cycles("(1,2,3,4,5,6,7,8)", 8)
    a2 = pinv(s)
    c2 = pmul(parse_cycles("(1,2)", 8), pmul(s, s))
    return UnmixedStructure(S8, a, c, a2, c2)


def test_pair_metrics_sym8():
    v = _sym8_structure()
    m = pair_metrics(v.group, v.a1, v.c1)
    assert m.triple == (6, 15, 12)
    assert m.shape == "strict"
    assert m.normalized
    assert m.hyperbolic
    m2 = pair_metrics(v.group, v.a2, v.c2)
    assert m2.triple == (8, 8, 7)
    assert sorted(m2.triple) == sorted((8, 7, 8))
    assert math.gcd(m.nu, m2.nu) == 8


def test_pair_metrics_abelian_and_sl2():
    A = Abelian2(5)
    m = pair_metrics(A, (1, 0), (0, 1))
    assert m.triple == (5, 5, 5) and m.shape == "critical" and m.hyperbolic
    G = SL2Group(7)
    k = sl2_constants(7)
    assert pair_metrics(G, k["B"], k["S"]).triple == (4, 6, 7)


def test_genus_values():
    A = Abelian2(5)
    assert genus(A, (1, 0), (0, 1)) == 6
    G = SL2Group(7)
    k = sl2_constants(7)
    g = genus(G, k["B"], k["S"])
    assert g == 75 and g >= 2
    # flat quotient data collapse the formula to genus 1
    W = Wallpaper(3, 3)
    r = (0, 0, 1)
    x = (1, 0, 0)
    rx = W.mul(r, x)
    m = pair_metrics(W, r, rx)
    if m.mu == 1:
        assert genus(W, r, rx) == 1


def test_genus_riemann_hurwitz_oracle():
    # 2g - 2 = -2|G| + sum over three branch points of |G| (1 - 1/m_i)
    A = Abelian2(5)
    m = pair_metrics(A, (1, 0), (0, 1))
    rhs = -2 * A.order + sum(A.order * (1 - Fraction(1, t)) for t in m.triple)
    assert genus(A, (1, 0), (0, 1)) == (rhs + 2) / 2


def test_sigma_exact_abelian():
    A = Abelian2(5)
    s = sigma_set(A, (1, 0), (0, 1))
    assert len(s) == 13
    assert A.identity in s


def test_sigma_matches_naive_definition():
    rng = random.Random(31)
    for G in (Abelian2(5), dihedral(6), SL2Group(5), Wallpaper(3, 3)):
        els = sorted(generated_subgroup(G, G.generators), key=repr)
        for _ in range(12):
            a, c = rng.choice(els), rng.choice(els)
            assert sigma_set(G, a, c) == sigma_naive(G, a, c, els)


def test_sigma_inversion_invariance():
    rng = random.Random(5)
    for G in (Abelian2(5), SL2Group(5)):
        els = sorted(generated_subgroup(G, G.generators), key=repr)
        for _ in range(20):
            a, c = rng.choice(els), rng.choice(els)
            assert sigma_set(G, a, c) == sigma_set(G, G.inv(a), G.inv(c))


def test_sigma_identity_pair():
    A = Abelian2(5)
    assert sigma_set(A, A.identity, A.identity) == frozenset([A.identity])


def test_cycle_type_strategy_exact_for_sym():
    # The S_n class label is the cycle type.
    v = _sym8_structure()
    verdict, strat, _ = try_sigma_disjoint(v.group, (v.a1, v.c1), (v.a2, v.c2),
                                           strategy="exact")
    assert verdict is True and strat == "exact"
    # a clashing pair: same pair twice
    verdict, _, witness = try_sigma_disjoint(v.group, (v.a1, v.c1), (v.a1, v.c1),
                                             strategy="exact")
    assert verdict is False
    assert witness != v.group.identity and witness in sigma_set(v.group, v.a1, v.c1)


@pytest.mark.parametrize("name", ["cycle_type", "cycle-type"])
def test_unknown_sigma_strategy_raises(name):
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    with pytest.raises(PreconditionError, match="unknown sigma strategy"):
        check_unmixed(A, v, strategy=name)


def test_unknown_sigma_strategy_raises_before_any_condition():
    # The first pair does not generate, so no sigma test would run.
    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (2, 0), (1, 2), (3, 4))
    assert check_unmixed(A, v).verdict == "fail"
    with pytest.raises(PreconditionError, match="unknown sigma strategy"):
        check_unmixed(A, v, strategy="bogus")


def test_check_unmixed_pass_and_fail():
    A = Abelian2(5)
    good = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    rep = check_unmixed(A, good)
    assert rep.passed
    ids = [c.id for c in rep.conditions]
    assert "generates-1" in ids and "sigma-intersection" in ids
    bad = UnmixedStructure(A, (1, 0), (0, 1), (1, 0), (0, 1))
    rep = check_unmixed(A, bad)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    # the witness is independently re-verifiable
    s1 = sigma_set(A, bad.a1, bad.c1)
    s2 = sigma_set(A, bad.a2, bad.c2)
    assert rep.witness in (s1 & s2) and rep.witness != A.identity


def test_check_unmixed_sym8_exact():
    v = _sym8_structure()
    rep = check_unmixed(v.group, v, strategy="exact")
    assert rep.passed
    strat = next(c for c in rep.conditions if c.id == "sigma-intersection").strategy
    assert strat == "exact"


def test_check_unmixed_report_json_roundtrip():
    A = Abelian2(5)
    rep = check_unmixed(A, UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4)))
    data = rep.to_json()
    assert data["verdict"] == "pass"
    assert all(set(c) == {"id", "ok", "strategy", "detail"} for c in data["conditions"])


def test_check_mixed_precondition_g_inside():
    H = SL2Group(5)
    G = H4(H)
    M = MixedQuadruple(G, (H.generators[0], H.generators[1], 2),
                       (H.generators[1], H.generators[0], 2),
                       (H.identity, H.identity, 2))  # inside the subgroup
    with pytest.raises(PreconditionError):
        check_mixed(G, M)
    # The index-2 subgroup is the even-twist subgroup of H4(H); no other
    # group carries one.
    with pytest.raises(PreconditionError, match="swap products"):
        check_mixed(H, MixedQuadruple(H, *H.generators[:2], H.identity))


def test_check_mixed_rejects_abelian_subgroup():
    # Direct product with swap: the commuting generating pair of the
    # index-2 subgroup trips the nonabelian requirement.
    from beauville.constructions import Cyclic

    H = Cyclic(5)
    G = H4(H)
    a = (1, 2, 2)
    c = (2, 1, 2)
    M = MixedQuadruple(G, a, c, G.coset_rep)
    rep = check_mixed(G, M)
    gen = next(c_ for c_ in rep.conditions if c_.id == "generates-subgroup")
    if gen.ok:
        nonab = next(c_ for c_ in rep.conditions if c_.id == "nonabelian-subgroup")
        assert nonab.ok is False
    assert rep.verdict == "fail"


def test_check_mixed_full_on_small_product():
    """Fully materialized mixed check on a swap product small enough for
    closure; the sample quadruple fails generation, exercising the path."""
    H = dihedral(3)
    G = H4(H)
    a = ((1, 0), (0, 1), 2)
    c = ((0, 1), (1, 0), 2)
    M = MixedQuadruple(G, a, c, G.coset_rep)
    rep = check_mixed(G, M)
    assert rep.verdict == "fail"
    assert [(cond.id, cond.ok) for cond in rep.conditions] == [("generates-subgroup", False)]


def test_check_mixed_sigma_conditions_against_brute_force():
    """Seeded even-twist pairs on H4(SL(2,3)), order 2304, reach the
    three sigma-based conditions.  The first few verdicts and witnesses
    of each failing kind are checked against sigma_naive over the
    closure of (a, c) and a direct scan of the coset g*<a, c>."""
    H = SL2Group(3)
    G = H4(H)
    h_elems = sorted(H.elements(), key=repr)
    g, e = G.coset_rep, G.identity
    rng = random.Random(2304)
    failed = {"generates-subgroup": 0, "nonabelian-subgroup": 0,
              "coset-squares": 0, "conjugate-sigma-intersection": 0}
    for _ in range(400):
        a, c = ((rng.choice(h_elems), rng.choice(h_elems), rng.choice((0, 2)))
                for _ in range(2))
        M = MixedQuadruple(G, a, c, g)
        rep = check_mixed(G, M)
        assert rep.verdict == "fail"
        cid = rep.conditions[-1].id
        failed[cid] += 1
        if cid in ("generates-subgroup", "nonabelian-subgroup") or failed[cid] > 8:
            continue
        closure = generated_subgroup(G, [a, c])
        sigma = sigma_naive(G, a, c, closure)
        hits = {gamma for gamma in closure if G.power(G.mul(g, gamma), 2) in sigma}
        gi = G.inv(g)
        common = {x for x in sigma if G.mul(gi, G.mul(x, g)) in sigma} - {e}
        if cid == "coset-squares":
            assert rep.witness in hits
        else:
            assert not hits and rep.witness == min(common, key=repr)
        # Past the identity and the centre every class of the subgroup
        # has more than 10 elements, so both sigma conditions go undecided.
        capped = check_mixed(G, M, class_cap=10)
        assert capped.verdict == "undecided"
        assert [cond.ok for cond in capped.conditions[-2:]] == [None, None]
    assert failed == {"generates-subgroup": 302, "nonabelian-subgroup": 0,
                      "coset-squares": 43, "conjugate-sigma-intersection": 55}


def test_genus_inconsistency_guard():
    # corrupt order bookkeeping raises rather than silently flooring
    class Broken(Abelian2):
        @property
        def order(self):
            return 24  # wrong on purpose

    B = Broken(5)
    with pytest.raises(InconsistencyError):
        genus(B, (1, 0), (0, 1))


def test_unmixed_structure_keeps_its_dataclass_behaviour():
    # Its __init__ writes each slot directly; equality, hash, repr,
    # fields, keywords, pickling and frozenness stay those of the frozen
    # dataclass.
    import dataclasses
    import pickle

    A = Abelian2(5)
    v = UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 4))
    w = UnmixedStructure(group=A, a1=(1, 0), c1=(0, 1), a2=(1, 2), c2=(3, 4))
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    assert v != UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 0))
    assert hash(v) == hash((A, (1, 0), (0, 1), (1, 2), (3, 4)))
    assert repr(v) == f"UnmixedStructure(group={A!r}, a1=(1, 0), c1=(0, 1), a2=(1, 2), c2=(3, 4))"
    assert [f.name for f in dataclasses.fields(v)] == ["group", "a1", "c1", "a2", "c2"]
    assert dataclasses.astuple(v)[1:] == ((1, 0), (0, 1), (1, 2), (3, 4))
    assert dataclasses.replace(v, c2=(3, 0)) == UnmixedStructure(A, (1, 0), (0, 1), (1, 2), (3, 0))
    for name in ("group", "a1", "c2"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.a1
    with pytest.raises(TypeError):
        UnmixedStructure(A, (1, 0), (0, 1), (1, 2))
    assert v.pairs() == (((1, 0), (0, 1)), ((1, 2), (3, 4)))
    u = pickle.loads(pickle.dumps(v))  # groups compare by identity
    assert u.pairs() == v.pairs() and u.group.descriptor() == A.descriptor()
    assert v.inverted() == UnmixedStructure(A, (4, 0), (0, 4), (4, 3), (2, 1))
