"""Element and structure literals: CLI strings and JSON round-trips.

Permutations use cycle notation (1-based by default), matrices the
[[a,b],[c,d]] form, abelian pairs "(x,y)", swap-product elements
[h1, h2, t], wallpaper elements "(x,y,j)", metacyclic "(j,e)".
"""

from __future__ import annotations

import json

from .core import Group, PreconditionError
from .constructions import H4, group_from_descriptor, json_field, parse_descriptor
from .matgroups import PSL2Group, SL2Group, psl_canon
from .perms import AlternatingGroup, SymmetricGroup, format_cycles, parse_cycles
from .structures import MixedQuadruple, UnmixedStructure


def element_to_json(G: Group, x):
    if isinstance(G, (SymmetricGroup, AlternatingGroup)):
        return format_cycles(x)
    if isinstance(G, (SL2Group, PSL2Group)):
        return [[x[0], x[1]], [x[2], x[3]]]
    if isinstance(G, H4):
        return [element_to_json(G.inner, x[0]), element_to_json(G.inner, x[1]), x[2]]
    if G.kind == "prod":
        return [element_to_json(f, c) for f, c in zip(G.factors, x)]
    if isinstance(x, tuple):
        return list(x)
    return x


def element_from_json(G: Group, data):
    """The element of G that a JSON literal gives; a literal of the wrong
    shape raises PreconditionError."""
    try:
        return _element_from_json(G, data)
    except (TypeError, IndexError, KeyError):
        raise PreconditionError(f"malformed {G.kind} element literal {data!r}") from None


def _element_from_json(G: Group, data):
    if isinstance(G, (SymmetricGroup, AlternatingGroup)):
        if not isinstance(data, str):
            raise PreconditionError("permutation literals are cycle strings")
        return parse_cycles(data, G.n)
    if isinstance(G, (SL2Group, PSL2Group)):
        rows = data
        x = (int(rows[0][0]) % G.p, int(rows[0][1]) % G.p,
             int(rows[1][0]) % G.p, int(rows[1][1]) % G.p)
        if isinstance(G, PSL2Group):
            x = psl_canon(x, G.p)
        G.check_element(x)
        return x
    if isinstance(G, H4):
        x = (element_from_json(G.inner, data[0]),
             element_from_json(G.inner, data[1]), int(data[2]) % 4)
        G.check_element(x)
        return x
    if G.kind == "prod":
        x = tuple(element_from_json(f, c) for f, c in zip(G.factors, data))
        G.check_element(x)
        return x
    if isinstance(data, list):
        x = tuple(int(v) for v in data)
    else:
        x = int(data)
    if G.kind == "ab2":
        x = tuple(v % G.n for v in x)
    elif G.kind == "wallpaper":
        x = (x[0] % G.m, x[1] % G.m, x[2] % G.d)
    elif G.kind == "cyc":
        x = x % G.n
    G.check_element(x)
    return x


def parse_element(G: Group, text: str):
    """CLI literal: cycle string, matrix rows, or a coordinate tuple."""
    text = text.strip()
    if isinstance(G, (SymmetricGroup, AlternatingGroup)):
        return parse_cycles(text, G.n)
    if text.startswith("[") or isinstance(G, (SL2Group, PSL2Group, H4)):
        return element_from_json(G, json.loads(text))
    if text.startswith("("):
        body = text.strip("() \t")
        coords = [int(v) for v in body.split(",") if v.strip() != ""]
        if len(coords) == 1:
            return element_from_json(G, coords[0])
        return element_from_json(G, coords)
    return element_from_json(G, json.loads(text))


def group_from_cli(text: str) -> Group:
    """Accept either shorthand ("ab2:5") or a JSON descriptor."""
    text = text.strip()
    if text.startswith("{"):
        return group_from_descriptor(json.loads(text))
    return group_from_descriptor(parse_descriptor(text))


def structure_to_json(v) -> dict:
    if isinstance(v, UnmixedStructure):
        G = v.group
        return {
            "group": G.descriptor(),
            "kind": "unmixed",
            "a1": element_to_json(G, v.a1),
            "c1": element_to_json(G, v.c1),
            "a2": element_to_json(G, v.a2),
            "c2": element_to_json(G, v.c2),
        }
    if isinstance(v, MixedQuadruple):
        G = v.group
        return {
            "group": G.descriptor(),
            "kind": "mixed",
            "g0": "index2",
            "a": element_to_json(G, v.a),
            "c": element_to_json(G, v.c),
            "g": element_to_json(G, v.g),
        }
    raise PreconditionError(f"cannot serialize {type(v).__name__}")


def structure_from_json(data: dict):
    def element(name):
        return element_from_json(G, json_field(data, name, "structure file"))

    G = group_from_descriptor(json_field(data, "group", "structure file"))
    kind = data.get("kind")
    if kind == "unmixed":
        return UnmixedStructure(G, element("a1"), element("c1"), element("a2"), element("c2"))
    if kind == "mixed":
        if not isinstance(G, H4):
            raise PreconditionError(
                "mixed structure files are supported for swap-product groups")
        return MixedQuadruple(G, element("a"), element("c"), element("g"))
    raise PreconditionError(f"unknown structure kind {kind!r}")
