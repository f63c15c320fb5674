"""Tests of the benchmark itself: inputs, answer oracle and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Requests cheap enough to answer in a test: small degrees and primes.
CHEAP = {
    "certify": ("gen-alt16-", "metrics-", "check-sym8", "check-sym11", "gen-sl2-31-",
                "check-sl2-71-7-capped"),
    "refute": ("fixpt-alt16-", "intrans-", "imprim-", "borel-", "meet-sym8", "meet-sym11",
               "meet-sl2-31", "meet-alt16-capped"),
    "search": ("exists-sl2:5", "exists-alt:5", "exists-psl2:7", "enum-ab2:5",
               "exists-sl2:17-capped", "wallpaper-3-4", "count-"),
    "reality": ("reality-", "orbit-sym:5", "orbit-sym:6", "orbit-sl2:7", "hunt-sl2:5"),
}


@pytest.fixture(scope="module")
def mods():
    return client.load_modules()


def expected_outcome(req) -> str:
    return "undecided" if req["expect"].get("undecided_by_cap") else "ok"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(workload):
    first = json.dumps(workloads.build(workload, 7, 3), sort_keys=True)
    assert json.dumps(workloads.build(workload, 7, 3), sort_keys=True) == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_requests_and_keeps_answers(workload, mods):
    seven = workloads.build(workload, 7, 1)[0]
    eight = workloads.build(workload, 8, 1)[0]
    assert json.dumps(seven) != json.dumps(eight)
    checked = 0
    for req in eight:
        if not req["id"].startswith(CHEAP[workload]):
            continue
        answer = client.run_call(mods, client.prepare(mods, req))
        assert client.classify(req, answer) == expected_outcome(req), (req["id"], answer)
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_repeated_templates_are_relabelled_afresh(workload):
    cycle = workloads.build(workload, 7, 1)[0]
    for tid in workloads.REPEATED[workload]:
        copies = [json.dumps(r["args"], sort_keys=True) for r in cycle if r["id"] == tid]
        assert len(copies) == workloads.REPEAT
        relabelled = any(t["relabel"] for t in workloads.load_base()[workload] if t["id"] == tid)
        if relabelled:  # small groups may give two copies the same labels
            assert len(set(copies)) > 1, tid


def test_relabelling_is_a_conjugation():
    g = [2, 0, 1, 3]
    # x = (1,2) sends point 0 to 1; renamed, g(0)=2 goes to g(1)=0.
    assert workloads.conj_perm("(1,2)", g) == "(1,3)"
    assert workloads.conj_perm("()", g) == "()"
    assert workloads.format_cycles(workloads.parse_cycles("(3,1,2)(4,5)", 6)) == "(1,2,3)(4,5)"


def test_input_generation_calls_no_measured_layer(mods, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("input generation called a measured layer")

    for mod_name, funcs in tracing.LAYERS.items():
        for func in funcs:
            original = getattr(mods[mod_name], func)
            for name, module in list(sys.modules.items()):
                if name == "beauville" or name.startswith("beauville."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, refuse)
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 3, 2)


def certify_generates(n_cycles=1):
    requests = [[r for r in cycle if r["id"].startswith(("gen-alt16-", "gen-sl2-31-"))]
                for cycle in workloads.build("certify", 5, n_cycles)]
    assert requests[0]
    return requests


def test_wrong_answer_raises_error_rate(mods, monkeypatch):
    requests = certify_generates()
    _, _, calls = run.set_up(requests, mods)
    real = mods["core"].generates
    monkeypatch.setattr(mods["core"], "generates", lambda *a, **k: not real(*a, **k))
    loop = run.send(mods, requests, calls, seconds=0.0)
    metrics = run.end_to_end(loop, 0.0)
    assert metrics["error_rate"][0] == 1.0
    assert metrics["undecided_rate"][0] == 0.0


def test_undecided_answer_counts_only_as_undecided(mods, monkeypatch):
    requests = certify_generates()
    _, _, calls = run.set_up(requests, mods)

    def undecided(*args, **kwargs):
        raise mods["core"].UndecidedError("stub")

    monkeypatch.setattr(mods["core"], "generates", undecided)
    loop = run.send(mods, requests, calls, seconds=0.0)
    metrics = run.end_to_end(loop, 0.0)
    assert metrics["undecided_rate"][0] == 1.0
    assert metrics["error_rate"][0] == 0.0


def test_exception_is_an_error():
    req = {"op": "generates", "expect": {"value": True}}
    assert client.classify(req, RuntimeError("boom")) == "error"
    assert client.classify(req, client.Undecided("cap")) == "undecided"
    assert client.classify(req, False) == "error"
    assert client.classify(req, True) == "ok"


def test_tracer_catches_calls_inside_the_library(mods):
    G = mods["perms"].SymmetricGroup(5)
    a, c = G.generators
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        assert mods["core"].generates(G, a, c) is True
        assert sys.modules["beauville"].generates is mods["core"].generates
    finally:
        tracer.uninstall()
    assert mods["perms"].bsgs_order.__name__ == "bsgs_order"
    assert not hasattr(mods["perms"].bsgs_order, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names == ["core.generates", "perms.bsgs_order"]
    assert tracer.spans[1][3] == 0  # the chain span's parent is generates


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 0], ["inner", 2.0, 5.0, 0, 0],
                    ["inner", 6.0, 7.0, 0, 0], ["leaf", 2.5, 3.0, 1, 0]]
    assert tracer.self_times() == [6.0, 2.5, 1.0, 0.5]
    assert tracer.top_level_time() == {0: 10.0}


def test_latency_bands_read_the_percentile():
    xs = [float(i) for i in range(100)]
    assert run.band_mean(xs, *run.P50_BAND) == 49.5
    assert run.band_mean(xs, *run.TAIL_BAND) == 89.5
    assert run.band_mean([3.0], *run.TAIL_BAND) == 3.0


def test_timings_are_scaled_to_nominal_speed():
    loop = run.Loop()
    loop.latencies = [0.1, 0.3]
    loop.speeds = [2.0, 2.0]
    assert loop.normalized() == pytest.approx([0.05, 0.15])
    assert loop.throughput() == pytest.approx(10.0)


def test_each_request_is_scaled_by_the_slices_around_it(mods):
    requests = certify_generates()
    _, _, calls = run.set_up(requests, mods)
    loop = run.send(mods, requests, calls, seconds=0.0)
    assert len(loop.speeds) == len(loop.latencies)
    assert run.slowness(run.REF_NOMINAL_S, 3 * run.REF_NOMINAL_S) == pytest.approx(2.0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
