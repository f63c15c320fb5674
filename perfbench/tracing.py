"""Spans around the library's public functions, for the traced run only.

``install`` rebinds each function named in ``LAYERS`` in every
``beauville`` namespace that holds it, so calls made inside the library
(for example ``SymmetricGroup.generates_pair`` calling ``bsgs_order``)
are recorded too.  A span is a name, a start, an end, the span that
caused it and the request it belongs to; spans stay in memory until
``write_spans``.  Work counts are read from return values.  Nothing in
``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _undecided(exc) -> bool:
    return type(exc).__name__ in ("UndecidedError", "CapacityExceeded")


def _generates(result, exc):
    if exc is not None:
        return {"undecided": 1} if _undecided(exc) else {}
    return {"decided": 1, "true": 1 if result else 0}


def _sigma_ladder(result, exc):
    if exc is not None:
        return {}
    verdict, strategy, _ = result
    if verdict is None:
        return {"undecided": 1}
    return {{"coprime-nu": "decided_coprime", "cycle-type": "decided_cycle_type",
             "exact": "decided_exact"}[strategy]: 1}


def _count(key, size):
    def counter(result, exc):
        return {} if exc is not None else {key: size(result)}
    return counter


# module -> {public name: work counter or None}
LAYERS = {
    "perms": {
        "bsgs_order": None,
        "conjugator_search": _count("solutions", len),
    },
    "core": {
        "generates": _generates,
        "generated_subgroup": _count("elements", len),
        "conjugacy_class": _count("elements", len),
    },
    "structures": {
        "check_unmixed": _count("undecided", lambda r: r.verdict == "undecided"),
        "pair_metrics": None,
        "sigma_set": None,
        "try_sigma_disjoint": _sigma_ladder,
    },
    "matgroups": {
        "conjugation_cosets": None,
        "solve_conjugation_sl2": None,
    },
    "reality": {
        "reality_unmixed": None,
        "reality_mixed": None,
        "lemma_case_table": None,
        "it_orbit": _count("orbit_size", len),
    },
    "search": {
        "IndexedGroup": _count("elements", lambda r: len(r.elems)),
        "enumerate_unmixed": _count("structures", lambda r: len(r.structures)),
        "scan_catalogue": _count("groups_scanned", lambda r: r["groups_scanned"]),
        "wallpaper_scan": _count("systems", lambda r: r["systems"]),
        "count_abelian": None,
        "orbit_representatives": _count("representatives", len),
        "hunt_reality": _count("found", lambda r: len(r.structures)),
    },
    "constructions": {
        "group_from_descriptor": None,
        "catalogue": _count("groups", len),
    },
    "literals": {
        "structure_from_json": None,
    },
}

# Work counts reported per layer, besides calls and self time.
COUNTS = {
    "perms.conjugator_search": ("solutions",),
    "core.generates": ("true_ratio", "undecided"),
    "core.generated_subgroup": ("elements",),
    "core.conjugacy_class": ("elements",),
    "structures.check_unmixed": ("undecided",),
    "structures.try_sigma_disjoint": ("decided_coprime", "decided_cycle_type",
                                      "decided_exact", "undecided"),
    "reality.it_orbit": ("orbit_size",),
    "search.IndexedGroup": ("elements",),
    "search.enumerate_unmixed": ("structures",),
    "search.scan_catalogue": ("groups_scanned",),
    "search.wallpaper_scan": ("systems",),
    "search.orbit_representatives": ("representatives",),
    "search.hunt_reality": ("found",),
    "constructions.catalogue": ("groups",),
}

SETUP = "setup"


class Tracer:
    """In-memory span recorder.  ``request`` tags new spans with the
    request being sent (or ``SETUP`` while inputs are parsed)."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.request = SETUP
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    for key, val in counter(result, exc).items():
                        counts[(name, span[4] == SETUP)][key] += val

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded library namespace."""
        wrappers = {}
        for mod_name, funcs in LAYERS.items():
            module = sys.modules[f"beauville.{mod_name}"]
            for func, counter in funcs.items():
                original = getattr(module, func)
                wrappers[id(original)] = self.wrap(f"{mod_name}.{func}", original, counter)
        for name, module in list(sys.modules.items()):
            if name != "beauville" and not name.startswith("beauville."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def top_level_time(self) -> dict:
        """Summed duration of the outermost spans, by request."""
        out: dict = defaultdict(float)
        for _, start, end, parent, request in self.spans:
            if parent is None:
                out[request] += end - start
        return out

    def layer_metrics(self, setup_cycles: int, loop_cycles: int) -> dict:
        """Per-layer numbers per cycle of the request list: parsing is
        divided by the cycles parsed, requests by the cycles sent."""
        per = {True: setup_cycles, False: loop_cycles}
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for (name, _, _, _, request), own in zip(self.spans, self.self_times()):
            key = (name, request == SETUP)
            calls[key] += 1
            self_s[key] += own

        def per_cycle(totals, name):
            return sum(totals[(name, phase)] / per[phase] for phase in per)

        out = {}
        for mod_name, funcs in LAYERS.items():
            for func in funcs:
                name = f"{mod_name}.{func}"
                out[f"{name}.calls"] = (per_cycle(calls, name), "count")
                out[f"{name}.self_s"] = (per_cycle(self_s, name), "s")
                merged: dict = defaultdict(float)
                for phase in per:
                    for key, val in self.counts[(name, phase)].items():
                        merged[key] += val / per[phase]
                for key in COUNTS.get(name, ()):
                    if key == "true_ratio":
                        decided = merged["decided"]
                        out[f"{name}.{key}"] = (merged["true"] / decided if decided else 0.0,
                                                "share")
                    else:
                        out[f"{name}.{key}"] = (merged[key], "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
