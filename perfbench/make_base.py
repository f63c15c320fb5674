"""Build ``base.json``: the request templates of every benchmark workload.

Each template is one user-level call with literal inputs and the answer
known for it.  The literals come from the gallery's self-verifying
constructors and from negative constructions whose answer holds by
construction (a fixed point, a block system, a Borel subgroup, a
conjugate second pair).  Every expectation is checked here once against
the library, so the benchmark itself never has to build the inputs.

Run from the repository root (takes a few minutes, mostly the degree-40
gallery structure):

    PYTHONPATH=src python3 perfbench/make_base.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from beauville import gallery as gal
from beauville.constructions import Abelian2, group_from_descriptor, parse_descriptor
from beauville.core import generates
from beauville.literals import element_to_json, structure_to_json
from beauville.matgroups import SL2Group, inv_mod, minv, mmul
from beauville.perms import AlternatingGroup, cycle_to_perm, pinv, pmul
from beauville.reality import it_orbit, reality_mixed, reality_unmixed
from beauville.search import (
    enumerate_unmixed,
    hunt_reality,
    orbit_representatives,
    wallpaper_scan,
)
from beauville.structures import UnmixedStructure, pair_metrics

OUT = Path(__file__).with_name("base.json")


def pair_args(G, a, c) -> dict:
    return {"group": G.descriptor(), "a": element_to_json(G, a), "c": element_to_json(G, c)}


def relabel_kind(G) -> str | None:
    kind = G.descriptor()["kind"]
    if kind in ("sym", "alt"):
        return "perm"
    if kind in ("sl2", "psl2", "h4"):
        return "mat"
    if kind == "ab2":
        return "ab2"
    return None


def tpl(id_, op, args, value, relabel=None, **extra) -> dict:
    expect = {"value": value}
    expect.update(extra)
    return {"id": id_, "op": op, "args": args, "expect": expect, "relabel": relabel}


def reality_triple(verdict) -> list:
    return [verdict.biholo_conjugate, verdict.real, verdict.strongly_real]


# -- certify -----------------------------------------------------------------

ALT_PAIRS = [
    ("alt16-2-3-84", lambda: gal.alt_pair_2_3_84(16)),
    ("alt16-skew", lambda: gal.alt_pair_skew(8)),
    ("alt16-qp-3-5", lambda: gal.alt_pair_qp(16, 3, 5)),
    ("alt20-qp-3-7", lambda: gal.alt_pair_qp(20, 3, 7)),
    ("alt20-skew", lambda: gal.alt_pair_skew(10)),
    ("alt22-p5p-7", lambda: gal.alt_pair_p5p(7)),
    ("alt24-skew", lambda: gal.alt_pair_skew(12)),
    ("alt24-qp-5-11", lambda: gal.alt_pair_qp(24, 5, 11)),
]
SYM_DEGREES = (8, 11, 14, 17)
SL2_GENERATES = (31, 53, 71)
# (p, q, split?) for the (4,6,p) + (q,q,q) structures.
SL2_STRUCTURES = ((37, 19, False),)


def sl2_structure(p, q, split) -> UnmixedStructure:
    first = gal.sl2_pair_46p(p)
    second = gal.sl2_pair_qqq_split(p, q) if split else gal.sl2_pair_qqq_nonsplit(p, q)
    return UnmixedStructure(first.group, first.a, first.c, second.a, second.c)


def certify() -> list:
    out = []
    for name, build in ALT_PAIRS[:-1]:
        pw = build()
        G = pw.group
        out.append(tpl(f"gen-{name}", "generates", pair_args(G, pw.a, pw.c), True, "perm"))
        out.append(tpl(f"metrics-{name}", "pair_metrics", pair_args(G, pw.a, pw.c),
                       list(pair_metrics(G, pw.a, pw.c).triple), "perm"))
    for n in SYM_DEGREES:
        v = gal.sym_structure(n)
        out.append(tpl(f"check-sym{n}", "check_unmixed", {"structure": structure_to_json(v)},
                       "pass", "perm"))
    for p in SL2_GENERATES:
        pw = gal.sl2_pair_46p(p)
        out.append(tpl(f"gen-sl2-{p}-46p", "generates", pair_args(pw.group, pw.a, pw.c),
                       True, "mat"))
    for p, q, split in SL2_STRUCTURES:
        v = sl2_structure(p, q, split)
        out.append(tpl(f"check-sl2-{p}-{q}", "check_unmixed",
                       {"structure": structure_to_json(v)}, "pass", "mat"))
    # The closure cap sits below |SL(2,71)|, so generation is undecided
    # under it although the structure passes.
    v = sl2_structure(71, 7, True)
    out.append(tpl("check-sl2-71-7-capped", "check_unmixed",
                   {"structure": structure_to_json(v), "closure_cap": 100000},
                   "pass", "mat", undecided_by_cap=True))
    return out


# -- refute ------------------------------------------------------------------


def add_fixed_point(x: tuple) -> tuple:
    return x + (len(x),)


def direct_sum(x: tuple, y: tuple) -> tuple:
    m = len(x)
    return x + tuple(m + i for i in y)


def random_perm(rng, n) -> tuple:
    x = list(range(n))
    rng.shuffle(x)
    return tuple(x)


def conj(x, g):
    return pmul(g, pmul(x, pinv(g)))


def refute() -> list:
    rng = random.Random(2004)
    out = []
    # A gallery pair on n-1 points with a fixed point added: intransitive.
    for name, build in ALT_PAIRS[1:]:
        pw = build()
        n = pw.group.n + 1
        G = AlternatingGroup(n)
        a, c = add_fixed_point(pw.a), add_fixed_point(pw.c)
        out.append(tpl(f"fixpt-{name}", "generates", pair_args(G, a, c), False, "perm"))
    # Two alternating pairs on disjoint halves: intransitive.
    for m in (9, 11, 13):
        H = AlternatingGroup(m)
        a1, c1 = H.generators
        g = random_perm(rng, m)
        a2, c2 = conj(a1, g), conj(c1, g)
        G = AlternatingGroup(2 * m)
        out.append(tpl(f"intrans-alt{2 * m}", "generates",
                       pair_args(G, direct_sum(a1, a2), direct_sum(c1, c2)), False, "perm"))
    # (transposition, m-cycle) on both blocks plus the block swap: the
    # pair preserves the two blocks of size m, so it is imprimitive.
    for m in (8, 10, 12, 14):
        t = cycle_to_perm([0, 1], m)
        s = cycle_to_perm(list(range(m)), m)
        swap = tuple(list(range(m, 2 * m)) + list(range(m)))
        G = AlternatingGroup(2 * m)
        a = direct_sum(t, t)
        c = pmul(direct_sum(s, s), swap)
        out.append(tpl(f"imprim-alt{2 * m}", "generates", pair_args(G, a, c), False, "perm"))
    # Upper-triangular pairs lie in a Borel subgroup.
    for p in (31, 43, 53, 61, 71):
        G = SL2Group(p)
        x = next(x for x in range(2, p)
                 if all(pow(x, (p - 1) // q, p) != 1 for q in _prime_divisors(p - 1)))
        a = (x, 1, 0, inv_mod(x, p))
        c = (1, 1, 0, 1)
        out.append(tpl(f"borel-sl2-{p}", "generates", pair_args(G, a, c), False, "mat"))
    # A second pair conjugate to the first: the sigma sets coincide.
    for n in SYM_DEGREES:
        v = gal.sym_structure(n)
        g = random_perm(rng, n)
        w = UnmixedStructure(v.group, v.a1, v.c1, conj(v.a1, g), conj(v.c1, g))
        out.append(tpl(f"meet-sym{n}", "check_unmixed", {"structure": structure_to_json(w)},
                       "fail", "perm", witness=True))
    for p in (31, 37):
        pw = gal.sl2_pair_46p(p)
        G = pw.group
        h = (1, 2, 0, 1)
        w = UnmixedStructure(G, pw.a, pw.c, mmul(mmul(h, pw.a, p), minv(h, p), p),
                             mmul(mmul(h, pw.c, p), minv(h, p), p))
        out.append(tpl(f"meet-sl2-{p}", "check_unmixed", {"structure": structure_to_json(w)},
                       "fail", "mat", witness=True))
    # Equal cycle types in an alternating group leave only the exact
    # strategy, whose conjugacy classes exceed the class cap.
    pw = gal.alt_pair_skew(8)
    g = cycle_to_perm([0, 1], 16)
    w = UnmixedStructure(pw.group, pw.a, pw.c, conj(pw.a, g), conj(pw.c, g))
    out.append(tpl("meet-alt16-capped", "check_unmixed",
                   {"structure": structure_to_json(w), "class_cap": 2000},
                   "fail", "perm", witness=True, undecided_by_cap=True))
    return out


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- search ------------------------------------------------------------------


def search() -> list:
    out = []
    for desc, exists in (("sl2:5", 0), ("alt:5", 0), ("sym:5", 1), ("psl2:7", 1),
                         ("psl2:11", 1)):
        out.append(tpl(f"exists-{desc}", "enumerate",
                       {"group": parse_descriptor(desc), "limit": 1}, exists))
    out.append(tpl("enum-ab2:5", "enumerate", {"group": parse_descriptor("ab2:5"), "limit": None},
                   11520))
    # |SL(2,17)| = 4896 is over the 2500-element indexing cap.
    out.append(tpl("exists-sl2:17-capped", "enumerate",
                   {"group": parse_descriptor("sl2:17"), "limit": 1}, 1, undecided_by_cap=True))
    out.append(tpl("scan-unmixed", "scan", {"mode": "unmixed", "max_order": [56, 72]}, 0))
    out.append(tpl("scan-mixed", "scan", {"mode": "mixed", "max_order": [120, 136]}, 0))
    for d, m in ((3, 4), (3, 5), (4, 3), (4, 4), (6, 3)):
        out.append(tpl(f"wallpaper-{d}-{m}", "wallpaper", {"d": d, "m": m},
                       wallpaper_scan(d, m)["minimum"]))
    for n in (11, 13, 17, 19):
        out.append(tpl(f"count-{n}", "count_abelian", {"n": n},
                       (n - 1) * (n - 2) * (n - 3) * (n - 4)))
    return out


# -- reality -----------------------------------------------------------------


def reality() -> list:
    rng = random.Random(5)
    out = []
    for n in (8, 11):
        v = gal.sym_structure(n)
        out.append(tpl(f"reality-sym{n}", "reality_unmixed",
                       {"structure": structure_to_json(v)},
                       reality_triple(reality_unmixed(v.group, v)), "perm"))
    v = gal.alt_reality_structure(13)
    out.append(tpl("reality-alt40", "reality_unmixed", {"structure": structure_to_json(v)},
                   reality_triple(reality_unmixed(v.group, v)), "perm"))
    for desc in ("psl2:7", "ab2:5", "ab2:7"):
        G = group_from_descriptor(parse_descriptor(desc))
        v = enumerate_unmixed(G, limit=1).structures[0]
        out.append(tpl(f"reality-{desc}", "reality_unmixed", {"structure": structure_to_json(v)},
                       reality_triple(reality_unmixed(G, v)), relabel_kind(G)))
    for p in (11, 31, 71):
        M = gal.h4_mixed_structure(p)
        verdict = reality_mixed(M.group, M)
        out.append(tpl(f"reality-mixed-{p}", "reality_mixed", {"structure": structure_to_json(M)},
                       [verdict.biholo_conjugate, verdict.real], "mat"))
    for desc in ("sym:5", "sym:6", "sym:7", "sl2:7", "psl2:11"):
        G = group_from_descriptor(parse_descriptor(desc))
        els = sorted(G.elements(), key=repr)
        while True:
            a, c = rng.choice(els), rng.choice(els)
            if generates(G, a, c):
                break
        out.append(tpl(f"orbit-{desc}", "it_orbit", pair_args(G, a, c),
                       len(it_orbit(G, (a, c))), relabel_kind(G)))
        if desc == "sym:6":
            # The orbit outgrows the cap, so the BFS stops undecided.
            out.append(tpl("orbit-sym:6-capped", "it_orbit", dict(pair_args(G, a, c), cap=500),
                           len(it_orbit(G, (a, c))), "perm", undecided_by_cap=True))
    G = Abelian2(5)
    vs = enumerate_unmixed(G, limit=40).structures[::13]
    out.append(tpl("orbit-reps-ab2:5", "orbit_representatives",
                   {"structures": [structure_to_json(v) for v in vs]},
                   len(orbit_representatives(G, vs)), "ab2"))
    for desc, budget in (("sl2:5", 20), ("psl2:7", 20), ("sl2:7", 10)):
        G = group_from_descriptor(parse_descriptor(desc))
        out.append(tpl(f"hunt-{desc}", "hunt", {"group": G.descriptor(), "want": "real",
                                                "budget": budget},
                       len(hunt_reality(G, "real", budget=budget).structures)))
    return out


# -- self-check ------------------------------------------------------------------


def verify(templates: list) -> None:
    """Each expectation against the library, uncapped where it is capped."""
    sys.path.insert(0, str(Path(__file__).parent))
    import client

    mods = client.load_modules()
    for t in templates:
        if t["op"] == "scan":
            lo, hi = t["args"]["max_order"]
            reqs = [dict(t, args=dict(t["args"], max_order=m)) for m in (lo, hi)]
        else:
            reqs = [t]
        for req in reqs:
            answer = client.run_call(mods, client.prepare(mods, req))
            outcome = client.classify(req, answer)
            want = "undecided" if t["expect"].get("undecided_by_cap") else "ok"
            if outcome != want:
                raise SystemExit(f"{t['id']}: expected {want}, got {outcome} ({answer!r})")
        print(f"ok {t['id']}", flush=True)


def main() -> None:
    base = {"certify": certify(), "refute": refute(), "search": search(),
            "reality": reality()}
    verify([t for ts in base.values() for t in ts])
    OUT.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
