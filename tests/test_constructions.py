import pytest

from beauville.constructions import (
    Abelian2,
    Cyclic,
    DirectProduct,
    H4,
    Wallpaper,
    catalogue,
    dicyclic,
    dihedral,
    format_descriptor,
    group_from_descriptor,
    parse_descriptor,
    wallpaper_quotient,
)
from beauville.core import PreconditionError, conjugate, generated_subgroup


def test_abelian_rank2_examples():
    assert Abelian2(5).order == 25
    assert Abelian2(2).order == 4
    G = Abelian2(7)
    assert G.element_order((1, 0)) == 7
    assert G.element_order((0, 0)) == 1
    assert G.element_order((2, 3)) == 7


def test_h4_order_and_subgroup():
    for H in (Cyclic(2), dihedral(3), dicyclic(2)):
        G = H4(H)
        assert G.order == 4 * H.order ** 2
        assert 2 * G.index2_order == G.order
        assert not G.in_index2(G.coset_rep)
    assert H4(Cyclic(2)).order == 16


def test_h4_swap_action():
    H = dihedral(3)
    G = H4(H)
    g = G.coset_rep
    x = H.generators[0]
    el = (x, H.identity, 0)
    assert conjugate(G, el, g) == (H.identity, x, 0)


@pytest.mark.parametrize("H", [Cyclic(2), Cyclic(6), dihedral(3), dihedral(7),
                               dicyclic(2), Abelian2(3), dihedral(15)],
                         ids=lambda h: format_descriptor(h.descriptor()))
def test_h4_extension_does_not_split(H):
    # No element of order 2 outside the even-twist subgroup: any odd-twist
    # element squares to twist 2, never the identity.
    G = H4(H)
    els = generated_subgroup(G, G.generators, cap=10**6)
    assert len(els) == G.order
    for el in els:
        if not G.in_index2(el):
            assert G.mul(el, el) != G.identity


@pytest.mark.parametrize("d,m,order", [(3, 3, 27), (6, 2, 24), (4, 2, 16), (3, 2, 12)])
def test_wallpaper_orders(d, m, order):
    assert Wallpaper(d, m).order == order


@pytest.mark.parametrize("d", [3, 4, 6])
def test_wallpaper_rotation_relations(d):
    W = Wallpaper(d, 5)
    r = (0, 0, 1)
    acc = r
    for _ in range(d - 1):
        acc = W.mul(acc, r)
    assert acc == W.identity
    # the rotation acts on translations by the stored matrix
    x, y = (1, 0, 0), (0, 1, 0)
    images = {3: ((0, 1, 0), (4, 4, 0)),
              4: ((0, 1, 0), (4, 0, 0)),
              6: ((1, 4, 0), (1, 0, 0))}
    assert conjugate(W, x, r) == images[d][0]
    assert conjugate(W, y, r) == images[d][1]


def test_wallpaper_printed_relation_flag():
    with pytest.raises(PreconditionError, match="singular"):
        wallpaper_quotient(4, 3, printed_relation=True)
    with pytest.raises(PreconditionError):
        wallpaper_quotient(5, 3)


def test_metacyclic_families():
    D6 = dihedral(6)
    assert D6.order == 12
    orders = sorted(D6.element_order(x)
                    for x in generated_subgroup(D6, D6.generators))
    assert orders.count(2) == 7  # 6 reflections + the half turn
    Q8 = dicyclic(2)
    assert Q8.order == 8
    els = generated_subgroup(Q8, Q8.generators)
    assert sorted(Q8.element_order(x) for x in els) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_catalogue_contents():
    names8 = [format_descriptor(d) for d in catalogue(8)]
    assert "dih:4" in names8 and "dic:2" in names8
    names12 = [format_descriptor(d) for d in catalogue(12)]
    assert "alt:4" in names12
    names60 = [format_descriptor(d) for d in catalogue(60)]
    assert "alt:5" in names60
    # deterministic and nonabelian
    assert names60 == [format_descriptor(d) for d in catalogue(60)]
    for desc in catalogue(40):
        G = group_from_descriptor(desc)
        gens = G.generators
        assert any(
            G.mul(a, b) != G.mul(b, a)
            for i, a in enumerate(gens) for b in gens[i + 1:]
        ) or not _abelian(G)


def _abelian(G):
    els = sorted(generated_subgroup(G, G.generators, cap=4096), key=repr)
    return all(G.mul(x, y) == G.mul(y, x) for x in els for y in els)


def test_descriptor_roundtrip():
    descs = [
        {"kind": "sym", "n": 8},
        {"kind": "ab2", "n": 5},
        {"kind": "sl2", "p": 7},
        {"kind": "wallpaper", "d": 3, "m": 4},
        {"kind": "h4", "inner": {"kind": "sl2", "p": 11}},
        {"kind": "dih", "n": 6},
    ]
    for desc in descs:
        G = group_from_descriptor(desc)
        assert G.descriptor() == desc
        assert group_from_descriptor(parse_descriptor(format_descriptor(desc))).descriptor() == desc


def test_product_group():
    G = DirectProduct([dihedral(4), Cyclic(3)])
    assert G.order == 24
    assert len(generated_subgroup(G, G.generators)) == 24
    desc = G.descriptor()
    assert group_from_descriptor(desc).order == 24


def test_unknown_descriptor_rejected():
    with pytest.raises(PreconditionError):
        group_from_descriptor({"kind": "nope"})
    with pytest.raises(PreconditionError):
        parse_descriptor("nope:3")
