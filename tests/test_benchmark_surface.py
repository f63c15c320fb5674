"""The library surface that the benchmark calls.

``perfbench/tracing.py`` rebinds every function named in its ``LAYERS``
by name, so a renamed or deleted function breaks the traced benchmark
run.  ``perfbench/client.py`` calls library functions by name with
keywords and parses literals through ``literals``, so a renamed keyword
or parser makes every request of an op fail.  These tests load those
files and leave them as they are.
"""

import collections
import importlib.util
import sys
from pathlib import Path

import beauville
import beauville.literals  # noqa: F401  (traced, not imported by the package)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracing")
    modules = {name: sys.modules[f"beauville.{name}"] for name in tracing.LAYERS}
    originals = {(name, func): getattr(modules[name], func)
                 for name, funcs in tracing.LAYERS.items() for func in funcs}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, func), original in originals.items():
            assert getattr(modules[name], func) is not original, f"{name}.{func}"
        # A call through the package namespace is recorded too.
        assert len(beauville.it_orbit(beauville.Abelian2(5), ((1, 0), (0, 1)))) == 6
        assert [span[0] for span in tracer.spans] == ["reality.it_orbit"]
    finally:
        tracer.uninstall()
    for (name, func), original in originals.items():
        assert getattr(modules[name], func) is original
    assert beauville.it_orbit is originals[("reality", "it_orbit")]


def test_one_cycle_of_every_workload_is_answered():
    # One cycle of each workload, through the client's own parse, call and
    # judgement: 188 requests.  Only the two templates that a cap is meant
    # to stop are undecided.
    workloads, client = _load("workloads"), _load("client")
    mods = client.load_modules()
    outcomes = collections.Counter()
    for workload in workloads.WORKLOADS:
        groups = {}
        for req in workloads.build(workload, 1, 1)[0]:
            answer = client.run_call(mods, client.prepare(mods, req, groups))
            outcomes[req["id"], client.classify(req, answer)] += 1
    assert sum(outcomes.values()) == 188
    assert {key: k for key, k in outcomes.items() if key[1] != "ok"} == {
        ("exists-sl2:17-capped", "undecided"): 1,
        ("orbit-sym:6-capped", "undecided"): 4,
    }
