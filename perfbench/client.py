"""Parse benchmark requests, send them to the library and judge the answers.

A request is one user-level call (the kind a ``bv`` subcommand makes)
with literal inputs and a known answer.  ``prepare`` turns the literals
into library objects (this is set-up work), ``run_call`` makes the call,
and ``classify`` compares the normalized answer with the known one.

Every library function is looked up by module and name at call time, so
the traced run, which rebinds those names, sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Library modules the benchmark touches, by their public names.
MODULES = ("core", "constructions", "literals", "perms", "matgroups", "structures",
           "reality", "search")


class Undecided:
    """Answer marker for an undecided verdict or an exceeded cap."""

    def __init__(self, why: str):
        self.why = why

    def __repr__(self):
        return f"Undecided({self.why!r})"


@dataclass
class Call:
    op: str
    module: str
    func: str
    args: tuple
    kwargs: dict


def load_modules() -> dict:
    """Import the library; the caller has put its source tree on sys.path."""
    from importlib import import_module

    return {name: import_module(f"beauville.{name}") for name in MODULES}


def _group(mods, desc: dict, groups: dict):
    key = json.dumps(desc, sort_keys=True)
    G = groups.get(key)
    if G is None:
        G = groups[key] = mods["constructions"].group_from_descriptor(desc)
    return G


def prepare(mods: dict, req: dict, groups: dict | None = None) -> Call:
    """Parse a request's literals into a ready call.  ``groups`` caches
    group contexts by descriptor across requests."""
    groups = {} if groups is None else groups
    op, args = req["op"], req["args"]
    lit = mods["literals"]

    def pair():
        G = _group(mods, args["group"], groups)
        return G, lit.element_from_json(G, args["a"]), lit.element_from_json(G, args["c"])

    def structure(data):
        v = lit.structure_from_json(data)
        # Share the cached context so every request on a group uses one object.
        key = json.dumps(data["group"], sort_keys=True)
        groups.setdefault(key, v.group)
        return v

    if op == "generates":
        G, a, c = pair()
        kw = {"cap": args["cap"]} if "cap" in args else {}
        return Call(op, "core", "generates", (G, a, c), kw)
    if op == "pair_metrics":
        return Call(op, "structures", "pair_metrics", pair(), {})
    if op == "check_unmixed":
        v = structure(args["structure"])
        kw = {k: args[k] for k in ("closure_cap", "class_cap") if k in args}
        return Call(op, "structures", "check_unmixed", (v.group, v), dict(kw, strategy="auto"))
    if op == "enumerate":
        G = _group(mods, args["group"], groups)
        return Call(op, "search", "enumerate_unmixed", (G,), {"limit": args["limit"]})
    if op == "scan":
        return Call(op, "search", "scan_catalogue", (args["max_order"], args["mode"]), {})
    if op == "wallpaper":
        return Call(op, "search", "wallpaper_scan", (args["d"], args["m"]), {})
    if op == "count_abelian":
        return Call(op, "search", "count_abelian", (args["n"],), {"orbits": False})
    if op == "reality_unmixed":
        v = structure(args["structure"])
        return Call(op, "reality", "reality_unmixed", (v.group, v), {})
    if op == "reality_mixed":
        v = structure(args["structure"])
        return Call(op, "reality", "reality_mixed", (v.group, v), {})
    if op == "it_orbit":
        G, a, c = pair()
        kw = {"cap": args["cap"]} if "cap" in args else {}
        return Call(op, "reality", "it_orbit", (G, (a, c)), kw)
    if op == "orbit_representatives":
        vs = [structure(s) for s in args["structures"]]
        return Call(op, "search", "orbit_representatives", (vs[0].group, vs), {})
    if op == "hunt":
        G = _group(mods, args["group"], groups)
        return Call(op, "search", "hunt_reality", (G, args["want"]), {"budget": args["budget"]})
    raise ValueError(f"unknown request op {op!r}")


def invoke(mods: dict, call: Call):
    """The library call itself: the part of a request that is timed."""
    return getattr(mods[call.module], call.func)(*call.args, **call.kwargs)


def normalize(op: str, result):
    """Reduce a library result to the comparable answer."""
    if op == "check_unmixed":
        if result.verdict == "undecided":
            return Undecided("verdict undecided")
        return [result.verdict, result.witness is not None]
    if op == "reality_unmixed":
        return [result.biholo_conjugate, result.real, result.strongly_real]
    if op == "reality_mixed":
        return [result.biholo_conjugate, result.real]
    if op == "pair_metrics":
        return list(result.triple)
    if op in ("enumerate", "hunt"):
        return len(result.structures)
    if op == "scan":
        return len(result["found"]) if result["complete"] else Undecided("scan incomplete")
    if op == "wallpaper":
        return result["minimum"]
    if op == "count_abelian":
        return result.solutions
    if op in ("it_orbit", "orbit_representatives"):
        return len(result)
    return result


def run_call(mods: dict, call: Call):
    """Answer of one request; an exceeded cap or UndecidedError is
    ``Undecided``, any other exception is returned, not raised."""
    core = mods["core"]
    try:
        result = invoke(mods, call)
    except (core.UndecidedError, core.CapacityExceeded) as exc:
        return Undecided(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a crashed request is a wrong answer, counted not fatal
        return exc
    return normalize(call.op, result)


def classify(req: dict, answer) -> str:
    """'ok', 'undecided' or 'error' for an answer against the known one."""
    if isinstance(answer, Exception):
        return "error"
    want = req["expect"]["value"]
    if isinstance(answer, Undecided):
        return "undecided"
    if req["op"] == "check_unmixed":
        verdict, has_witness = answer
        if verdict != want:
            return "error"
        return "error" if req["expect"].get("witness") and not has_witness else "ok"
    if req["op"] in ("reality_unmixed", "reality_mixed"):
        # A partly decided verdict is undecided, unless a decided part is wrong.
        if any(got is not None and got != exp for got, exp in zip(answer, want)):
            return "error"
        return "undecided" if None in answer else "ok"
    return "ok" if answer == want else "error"
