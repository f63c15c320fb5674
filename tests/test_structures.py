import math
import random
from fractions import Fraction

import pytest

from beauville.constructions import H4, Abelian2, Wallpaper, dihedral
from beauville.core import (
    DEFAULT_CLOSURE_CAP,
    InconsistencyError,
    PreconditionError,
    generated_subgroup,
)
from beauville.matgroups import (
    PSL2Group,
    SL2Group,
    diag_mat,
    minv,
    mmul,
    sl2_constants,
    split_conjugator,
)
from beauville.perms import AlternatingGroup, SymmetricGroup, parse_cycles, pinv, pmul
from beauville.structures import (
    MixedQuadruple,
    UnmixedStructure,
    check_mixed,
    check_mixed_vz3,
    check_unmixed,
    genus,
    pair_metrics,
    sigma_naive,
    sigma_set,
    try_sigma_disjoint,
    vz3_quadruple,
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


def test_vz3_examples():
    H = SL2Group(11)
    k = sl2_constants(11)
    lam = 5
    D = diag_mat(11, lam)
    g = split_conjugator(11, lam)
    c2 = mmul(mmul(g, D, 11), minv(g, 11), 11)
    rep = check_mixed_vz3(H, k["B"], k["S"], D, c2)
    assert rep.passed
    # odd-order first element fails hypothesis 1
    rep_odd = check_mixed_vz3(H, k["T"], k["S"], D, c2)
    assert rep_odd.verdict == "fail"
    assert next(c for c in rep_odd.conditions if c.id == "even-orders").ok is False
    # shared type-product factor fails hypothesis 4
    rep_shared = check_mixed_vz3(H, k["B"], k["S"], k["B"], k["S"])
    assert next(c for c in rep_shared.conditions if c.id == "coprime-nu").ok is False


def test_vz3_first_condition_named_alike_decided_or_capped():
    H = dihedral(6)
    a1, c1 = (1, 1), (0, 1)
    a2, c2 = H.generators
    want = ("squares-generate", "closure")
    decided = check_mixed_vz3(H, a1, c1, a2, c2)
    capped = check_mixed_vz3(H, a1, c1, a2, c2, closure_cap=3)
    assert (decided.conditions[1].id, decided.conditions[1].strategy) == want
    assert (capped.conditions[1].id, capped.conditions[1].strategy) == want
    # The pair generates D6 but its squares and product do not.
    assert decided.conditions[1].ok is False
    assert capped.conditions[1].ok is None and capped.conditions[1].detail == "over cap"
    # A perfect group has no index-2 subgroup, so the first pair itself
    # must generate; the SL(2,p) certificate never reaches closure_cap.
    H = SL2Group(11)
    k = sl2_constants(11)
    for cap in (3, DEFAULT_CLOSURE_CAP):
        rep = check_mixed_vz3(H, k["B"], k["S"], k["B"], k["S"], closure_cap=cap)
        assert (rep.conditions[1].id, rep.conditions[1].strategy, rep.conditions[1].ok) == \
            ("first-pair-generates", "orbit-stabilizer (perfect shortcut)", True)


def test_perfect_is_a_group_fact():
    assert [SL2Group(p).perfect for p in (3, 5)] == [False, True]
    assert [PSL2Group(p).perfect for p in (3, 5)] == [False, True]
    assert [AlternatingGroup(n).perfect for n in (4, 5)] == [False, True]
    assert not SymmetricGroup(5).perfect and not dihedral(6).perfect


def test_vz3_quadruple_orders():
    H = SL2Group(11)
    k = sl2_constants(11)
    D = diag_mat(11, 5)
    g = split_conjugator(11, 5)
    c2 = mmul(mmul(g, D, 11), minv(g, 11), 11)
    M = vz3_quadruple(H, k["B"], k["S"], D, c2)
    G = M.group
    assert G.element_order(M.a) == 20
    assert G.element_order(M.c) == 30
    assert G.element_order(G.mul(G.inv(M.a), G.inv(M.c))) == 55
    assert G.in_index2(M.a) and G.in_index2(M.c) and not G.in_index2(M.g)


def test_vz3_pass_implies_mixed_conditions_sampled():
    """Condition sampling on the order-1320 components: squares from the
    odd coset stay outside the sigma set and the conjugated sigma only
    meets it in the identity (component-order profiles are dis joint)."""
    H = SL2Group(11)
    k = sl2_constants(11)
    D = diag_mat(11, 5)
    g0 = split_conjugator(11, 5)
    c2 = mmul(mmul(g0, D, 11), minv(g0, 11), 11)
    M = vz3_quadruple(H, k["B"], k["S"], D, c2)
    G = M.group
    rng = random.Random(99)
    h_elems = sorted(generated_subgroup(H, H.generators), key=repr)
    # condition 3 sample: (g*gamma)^2 != 1 for random gamma in the subgroup
    for _ in range(200):
        gamma = (rng.choice(h_elems), rng.choice(h_elems), rng.choice((0, 2)))
        x = G.mul(M.g, gamma)
        assert G.mul(x, x) != G.identity
    # condition 4 sample: powers of a, c, ac conjugated into the swap image
    # have incompatible component-order profiles
    first_orders = {1, 2, 4, 3, 6, 11, 22}  # divisors of orders of B, S, BS powers
    second_orders = {1, 5}
    seeds = [M.a, M.c, G.mul(M.a, M.c)]
    for x in seeds:
        for e in range(1, G.element_order(x)):
            y = G.power(x, e)
            o1 = H.element_order(y[0])
            o2 = H.element_order(y[1])
            if y == G.identity:
                continue
            assert o1 in first_orders and o2 in second_orders
            # an element of the conjugated sigma set has the swapped profile;
            # membership in both forces both components trivial
            assert not (o1 in second_orders and o2 in first_orders) or (o1 == o2 == 1)


@pytest.mark.slow
def test_vz3_pass_implies_check_mixed_small_exhaustive():
    """Inner criteria imply the full mixed conditions on the swap product,
    cross-validated over small component groups.  Coprimality of the two
    type products is extremely restrictive at this scale, so most
    candidate quadruples are rejected before any closure work; every
    survivor is checked both ways."""
    import itertools

    from beauville.constructions import Cyclic, dicyclic

    examined = checked = 0
    for H in (dihedral(3), dicyclic(2), dicyclic(3), dihedral(6)):
        els = sorted(generated_subgroup(H, H.generators), key=repr)
        evens = [x for x in els if H.element_order(x) % 2 == 0]
        for a1, c1 in itertools.product(evens, evens):
            nu1 = pair_metrics(H, a1, c1).nu
            for a2, c2 in itertools.product(els, els):
                if math.gcd(nu1, pair_metrics(H, a2, c2).nu) != 1:
                    continue
                examined += 1
                rep = check_mixed_vz3(H, a1, c1, a2, c2)
                if not rep.passed:
                    continue
                checked += 1
                M = vz3_quadruple(H, a1, c1, a2, c2)
                full = check_mixed(M.group, M)
                assert full.passed, (H.descriptor(), a1, c1, a2, c2)
    # The implication is vacuous here: the first pair has even orders, so
    # a coprime type product forces odd orders on the second, and the
    # odd-order elements of these groups lie in a proper cyclic subgroup.
    # All 644 candidates fail the inner criteria; the SL(2,11) sampling
    # test exercises a genuine pass.
    assert (examined, checked) == (644, 0)


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
