import math

import pytest

from beauville.core import PreconditionError, generates
from beauville.gallery import (
    GALLERY,
    alt_pair_2_3_84,
    alt_pair_p5p,
    alt_pair_qp,
    alt_pair_skew,
    alt_reality_structure,
    h4_mixed_structure,
    sl2_pair_46p,
    sl2_pair_555,
    sl2_pair_q1q2,
    sl2_pair_qqq_nonsplit,
    sl2_pair_qqq_split,
    sym_structure,
)
from beauville.matgroups import mmul, mtrace, mult_order_element
from beauville.perms import bsgs_order, parity, pinv, pmul
from beauville.structures import check_unmixed, pair_metrics


def test_sym_structure_types_and_check():
    v = sym_structure(8)
    m1 = pair_metrics(v.group, v.a1, v.c1)
    m2 = pair_metrics(v.group, v.a2, v.c2)
    assert m1.triple == (6, 15, 12)
    assert m2.triple == (8, 8, 7)
    assert check_unmixed(v.group, v).passed


def test_sym_structure_odd_degree():
    v = sym_structure(11)
    m2 = pair_metrics(v.group, v.a2, v.c2)
    assert m2.triple == (11, (11 * 11 - 1) // 4, 10)


@pytest.mark.parametrize("n", [9, 7, 12])
def test_sym_structure_rejects_bad_degree(n):
    with pytest.raises(PreconditionError):
        sym_structure(n)


def test_alt_pair_qp_valid_instance():
    pw = alt_pair_qp(16, 3, 11)
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (11, 3 * 5, 15)


def test_alt_pair_qp_spec_instance_violates_divisibility():
    # n - q = 5 is divisible by p = 5: the printed element would have
    # order 5, not 25, so the constructor refuses the parameters.
    with pytest.raises(PreconditionError, match="divisible"):
        alt_pair_qp(16, 5, 11)


def test_alt_pair_qp_rejects_nonprime():
    with pytest.raises(PreconditionError):
        alt_pair_qp(16, 5, 10)


def test_alt_pair_2_3_84_degree16():
    pw = alt_pair_2_3_84(16)
    G = pw.group
    ca = pmul(pw.c, pw.a)
    assert G.element_order(pw.a) == 2
    assert G.element_order(pw.c) == 3
    assert G.element_order(ca) == 84
    assert pmul(pw.witness, pmul(pw.a, pinv(pw.witness))) == pinv(pw.a)
    assert pmul(pw.witness, pmul(pw.c, pinv(pw.witness))) == pinv(pw.c)
    assert parity(pw.witness) == 1
    assert bsgs_order([pw.a, pw.c]) == math.factorial(16) // 2


@pytest.mark.slow
def test_alt_pair_2_3_84_degree28():
    pw = alt_pair_2_3_84(28)
    G = pw.group
    assert G.element_order(pmul(pw.c, pw.a)) == 84


@pytest.mark.parametrize("n", [15, 18, 20])
def test_alt_pair_2_3_84_rejects(n):
    with pytest.raises(PreconditionError):
        alt_pair_2_3_84(n)


def test_alt_pair_p5p_13():
    pw = alt_pair_p5p(13)
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (13, 65, 29)
    assert parity(pw.witness) == 1  # 13 = 1 mod 4


def test_alt_pair_p5p_7():
    pw = alt_pair_p5p(7)
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (7, 35, 17)
    assert parity(pw.witness) == 0  # 7 = 3 mod 4


def test_alt_pair_p5p_rejects_five():
    # At p = 5 the printed c has order lcm(5, p) = 5, not 5p; the
    # hypothesis p > 5 is what makes the type formula valid.
    with pytest.raises(PreconditionError):
        alt_pair_p5p(5)


def test_alt_pair_skew_k8():
    pw = alt_pair_skew(8)
    G = pw.group
    assert pair_metrics(G, pw.a, pw.c).triple == (13, 14, 14)
    w = pw.witness
    assert pmul(w, pmul(pw.a, pinv(w))) == pinv(pw.a)
    assert pmul(w, pmul(pw.c, pinv(w))) == pmul(pw.a, pw.c)
    assert parity(w) == 1  # k even
    assert bsgs_order([pw.a, pw.c]) == math.factorial(16) // 2


def test_alt_pair_skew_k9_parity():
    pw = alt_pair_skew(9)
    assert parity(pw.witness) == 0  # k odd
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (15, 16, 16)


def test_sl2_pair_46p():
    for p in (7, 11, 13):
        pw = sl2_pair_46p(p)
        assert pair_metrics(pw.group, pw.a, pw.c).triple == (4, 6, p)


def test_sl2_qqq_split_trace_property():
    pw = sl2_pair_qqq_split(11, 5)
    p = 11
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (5, 5, 5)
    lam = mult_order_element(p, 5)
    h = mmul(pw.a, pw.c, p)
    assert mtrace(h, p) == (lam + pow(lam, p - 2, p)) % p


def test_sl2_qqq_split_rejects():
    with pytest.raises(PreconditionError):
        sl2_pair_qqq_split(11, 7)  # 7 does not divide 10
    with pytest.raises(PreconditionError):
        sl2_pair_qqq_split(11, 3)  # below the torus bound


def test_sl2_qqq_nonsplit_13_7():
    pw = sl2_pair_qqq_nonsplit(13, 7)
    G = pw.group
    assert pair_metrics(G, pw.a, pw.c).triple == (7, 7, 7)
    assert generates(G, pw.a, pw.c)


def test_sl2_qqq_nonsplit_rejects():
    with pytest.raises(PreconditionError):
        sl2_pair_qqq_nonsplit(13, 5)  # 5 divides 12, not 14


def test_sl2_555_both_cosets():
    for coset in ("sl", "slw"):
        pw = sl2_pair_555(11, coset)
        assert pair_metrics(pw.group, pw.a, pw.c).triple == (5, 5, 5)
    with pytest.raises(PreconditionError):
        sl2_pair_555(13, "sl")  # 13 = 1 mod 4
    with pytest.raises(PreconditionError):
        sl2_pair_555(7, "sl")  # 7 = 2 mod 5


def test_sl2_q1q2_split():
    pw = sl2_pair_q1q2(71, 5, 7, "split")
    assert pair_metrics(pw.group, pw.a, pw.c).triple == (5, 7, 35)
    # The first hit of the full conjugator sweep: skipping conjugators
    # with a zero entry (Borel pairs) leaves it unchanged.
    assert (pw.a, pw.c) == ((5, 0, 0, 57), (43, 12, 44, 9))


def test_sl2_q1q2_rejects():
    with pytest.raises(PreconditionError):
        sl2_pair_q1q2(11, 5, 7, "split")
    with pytest.raises(PreconditionError):
        sl2_pair_q1q2(71, 7, 5, "split")


def test_h4_mixed_structure_11():
    M = h4_mixed_structure(11)
    G = M.group
    assert G.element_order(M.a) == 20
    assert G.element_order(M.c) == 30
    assert G.element_order(G.mul(G.inv(M.a), G.inv(M.c))) == 55


def test_h4_mixed_structure_rejects_13():
    with pytest.raises(PreconditionError):
        h4_mixed_structure(13)


@pytest.mark.slow
def test_alt_reality_structure_13():
    v = alt_reality_structure(13)
    m1 = pair_metrics(v.group, v.a1, v.c1)
    m2 = pair_metrics(v.group, v.a2, v.c2)
    assert m1.triple == (37, 38, 38)
    assert m2.triple == (13, 65, 29)
    assert math.gcd(m1.nu, m2.nu) == 1


def test_alt_reality_structure_rejects_11():
    with pytest.raises(PreconditionError):
        alt_reality_structure(11)


def test_gallery_registry_names():
    assert "sym-thm" in GALLERY
    assert set(GALLERY["sl2-q1q2"][1]) == {"p", "q1", "q2", "case"}
