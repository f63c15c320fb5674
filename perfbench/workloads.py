"""Seeded request lists for the four benchmark workloads.

The templates in ``base.json`` carry literal inputs and known answers.
A request list is a number of cycles; each cycle holds every template of
the workload once (the templates in ``REPEATED`` ``REPEAT`` times), in a
seeded order, and each instance is relabelled by
its own seeded automorphism: permutation literals are conjugated by a
random permutation of the points, matrix literals by a random matrix of
GL(2, p), and vectors of (Z/n)^2 are mapped by a random matrix of
GL(2, n).  An automorphism leaves every known answer unchanged.

This module imports nothing from the library, so building inputs never
runs a measured layer.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

BASE = Path(__file__).with_name("base.json")
WORKLOADS = ("certify", "refute", "search", "reality")

_CYCLE = re.compile(r"\(([^()]*)\)")

# Templates whose requests took 5 ms to 0.1 s each in the first baseline
# (see README.md).  A cycle sends each of them REPEAT times, each copy with
# its own relabelling, so that a run holds enough samples of the cheap
# requests around the median latency, whose cost varies several-fold with
# the relabelling and with the machine's speed.
REPEAT = 4
REPEATED = {
    "certify": ("gen-alt16-2-3-84", "gen-alt16-skew", "gen-alt16-qp-3-5", "check-sym11",
                "check-sym14", "gen-sl2-31-46p"),
    "refute": ("fixpt-alt16-skew", "fixpt-alt16-qp-3-5", "intrans-alt22", "intrans-alt26",
               "imprim-alt20", "imprim-alt24", "imprim-alt28", "borel-sl2-53", "borel-sl2-61",
               "borel-sl2-71", "meet-sym11", "meet-sym14"),
    "search": ("exists-sl2:5", "exists-alt:5", "exists-psl2:7", "enum-ab2:5", "wallpaper-3-4",
               "wallpaper-4-3", "wallpaper-4-4", "wallpaper-6-3", "count-13", "count-17",
               "count-19"),
    "reality": ("reality-sym11", "orbit-sym:5", "orbit-sym:6-capped", "orbit-sl2:7",
                "hunt-sl2:5"),
}


def load_base() -> dict:
    return json.loads(BASE.read_text())


# -- permutation literals (1-based cycle strings) -------------------------------


def parse_cycles(text: str, n: int) -> list:
    images = list(range(n))
    for body in _CYCLE.findall(text):
        pts = [int(x) - 1 for x in body.split(",") if x.strip()]
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return images


def format_cycles(images: list) -> str:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x + 1))
            x = images[x]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) or "()"


def conj_perm(text: str, g: list) -> str:
    """The literal of g x g^-1: the point i of x is renamed g(i)."""
    x = parse_cycles(text, len(g))
    images = [0] * len(g)
    for i, xi in enumerate(x):
        images[g[i]] = g[xi]
    return format_cycles(images)


# -- matrix and vector literals ------------------------------------------------


def _mat(rows):
    return (rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def _mul(x, y, p):
    return ((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)


def _inv(x, p):
    d = pow((x[0] * x[3] - x[1] * x[2]) % p, -1, p)
    return ((x[3] * d) % p, (-x[1] * d) % p, (-x[2] * d) % p, (x[0] * d) % p)


def random_gl2(rng: random.Random, n: int) -> tuple:
    while True:
        m = tuple(rng.randrange(n) for _ in range(4))
        det = (m[0] * m[3] - m[1] * m[2]) % n
        if math.gcd(det, n) == 1:
            return m


def conj_mat(rows, m, p):
    y = _mul(_mul(m, _mat(rows), p), _inv(m, p), p)
    return [[y[0], y[1]], [y[2], y[3]]]


def map_vec(v, m, n):
    return [(m[0] * v[0] + m[1] * v[1]) % n, (m[2] * v[0] + m[3] * v[1]) % n]


# -- relabelling -------------------------------------------------------------------

_ELEMENT_KEYS = ("a", "c", "a1", "c1", "a2", "c2", "g")


def _element_mapper(kind: str, group: dict, rng: random.Random):
    if kind == "perm":
        g = list(range(group["n"]))
        rng.shuffle(g)
        return lambda x: conj_perm(x, g)
    if kind == "mat":
        inner = group["inner"] if group["kind"] == "h4" else group
        p = inner["p"]
        m = random_gl2(rng, p)
        if group["kind"] == "h4":
            return lambda x: [conj_mat(x[0], m, p), conj_mat(x[1], m, p), x[2]]
        return lambda x: conj_mat(x, m, p)
    if kind == "ab2":
        n = group["n"]
        m = random_gl2(rng, n)
        return lambda x: map_vec(x, m, n)
    raise ValueError(f"unknown relabel kind {kind!r}")


def _relabel_literals(data: dict, f) -> dict:
    return {k: (f(v) if k in _ELEMENT_KEYS else v) for k, v in data.items()}


def instantiate(template: dict, rng: random.Random) -> dict:
    """One request from a template, relabelled by a fresh automorphism."""
    args = dict(template["args"])
    if template["op"] == "scan":
        lo, hi = args["max_order"]
        args["max_order"] = rng.randint(lo, hi)
    kind = template["relabel"]
    if kind is not None:
        structures = args.get("structures") or [args.get("structure", args)]
        f = _element_mapper(kind, structures[0]["group"], rng)
        if "structures" in args:
            args["structures"] = [_relabel_literals(s, f) for s in structures]
        elif "structure" in args:
            args["structure"] = _relabel_literals(args["structure"], f)
        else:
            args = _relabel_literals(args, f)
    return {"id": template["id"], "op": template["op"], "args": args,
            "expect": template["expect"]}


def build(workload: str, seed: int, cycles: int, base: dict | None = None) -> list:
    """``cycles`` lists of requests; each holds every template once, or
    ``REPEAT`` times if it is in ``REPEATED``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    templates = (base or load_base())[workload]
    unknown = set(REPEATED[workload]) - {t["id"] for t in templates}
    if unknown:
        raise ValueError(f"REPEATED names no template {sorted(unknown)}")
    cycle = [t for t in templates for _ in range(REPEAT if t["id"] in REPEATED[workload] else 1)]
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for _ in range(cycles):
        order = list(cycle)
        rng.shuffle(order)
        out.append([instantiate(t, rng) for t in order])
    return out
