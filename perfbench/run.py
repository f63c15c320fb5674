"""Benchmark of the beauville toolkit: seeded request workloads, checked answers.

One process, one thread, one client in a closed loop: each request is
sent when the previous one has returned.  A request is one user-level
call with a known answer (see ``workloads.py`` and ``README.md``).

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Timings are reported at a nominal machine speed: a fixed slice of
interpreter work is timed before and after every request and set-up,
and each timing is divided by how much slower than ``REF_NOMINAL_S``
those two slices ran (see ``README.md``, "Machine speed").  The raw
wall-clock figures are in the report next to them.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` sends
untraced cycles and cycles with spans around the library's public
functions in turn, and reports the per-layer metrics and the tracing
overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Request cycles generated per run; a run that sends more reuses them in order.
CYCLES = 16
# Set-up is repeated and its median reported, so one slow import does not decide it.
SETUP_REPS = 15
# Rounds of the reference slice, and the seconds it takes at nominal speed.
REF_ROUNDS = 800
REF_NOMINAL_S = 0.002
_REF_SHIFT = list(range(1, 64)) + [0]
# The median is read as the mean of the sorted latencies in this band, so a
# run's figure does not jump between neighbouring request kinds; the tail
# is the mean of the latencies beyond TAIL_PERCENTILE.
P50_BAND = (0.40, 0.60)
TAIL_PERCENTILE = 80
TAIL_BAND = (TAIL_PERCENTILE / 100, 1.0)
# The traced run fails if top-level spans cover less than this share of latency.
MIN_COVERAGE = 0.9


def reference_slice() -> float:
    """Wall seconds of a fixed piece of interpreter work of the library's
    kind (composing permutation lists, hashing them as tuples): how fast
    the machine runs this process right now.  The collector is off, so
    the size of the library's heap cannot move it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        p = list(range(64))
        seen = {}
        for i in range(REF_ROUNDS):
            p = [_REF_SHIFT[x] for x in p]
            seen[tuple(p)] = i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def slowness(before: float, after: float) -> float:
    """How many times slower than nominal the machine ran between two slices."""
    return (before + after) / 2 / REF_NOMINAL_S


def band_mean(xs: list, lo: float, hi: float) -> float:
    """Mean of the sorted values ranked between the ``lo`` and ``hi`` quantiles."""
    xs = sorted(xs)
    a = int(lo * len(xs))
    b = max(a + 1, int(hi * len(xs)))
    return statistics.mean(xs[a:b])


def purge_library() -> None:
    for name in [n for n in sys.modules if n == "beauville" or n.startswith("beauville.")]:
        del sys.modules[name]


def set_up(requests: list, mods: dict | None = None):
    """Import the library (unless ``mods`` is given) and parse every
    request: what a user pays before the first request can be sent."""
    t0 = time.perf_counter()
    if mods is None:
        mods = client.load_modules()
    groups: dict = {}
    calls = [[client.prepare(mods, req, groups) for req in cycle] for cycle in requests]
    return time.perf_counter() - t0, mods, calls


class Loop:
    """Outcome of a timed closed loop over whole request cycles."""

    def __init__(self):
        self.ids: list = []
        self.latencies: list = []
        self.speeds: list = []
        self.outcomes: Counter = Counter()
        self.unexpected: list = []
        self.cycle_walls: list = []

    @property
    def cycles(self) -> int:
        return len(self.cycle_walls)

    def normalized(self) -> list:
        """Request latencies at nominal machine speed."""
        return [x / k for x, k in zip(self.latencies, self.speeds)]

    def throughput(self) -> float:
        """Requests per second of request time at nominal machine speed."""
        return len(self.latencies) / sum(self.normalized())

    def send_cycle(self, mods, requests, calls, tracer=None) -> None:
        """Send one cycle, one request after the other, and judge each answer."""
        c0 = time.perf_counter()
        before = reference_slice()
        for req, call in zip(requests, calls):
            if tracer is not None:
                tracer.request = len(self.latencies)
            s = time.perf_counter()
            answer = client.run_call(mods, call)
            self.latencies.append(time.perf_counter() - s)
            after = reference_slice()
            self.speeds.append(slowness(before, after))
            before = after
            self.ids.append(req["id"])
            outcome = client.classify(req, answer)
            self.outcomes[outcome] += 1
            expected = "undecided" if req["expect"].get("undecided_by_cap") else "ok"
            if outcome != expected and len(self.unexpected) < 5:
                self.unexpected.append({"id": req["id"], "outcome": outcome,
                                        "answer": repr(answer)[:200]})
        self.cycle_walls.append(time.perf_counter() - c0)


def send(mods, requests, calls, seconds: float) -> Loop:
    """Send whole cycles until the next one would end past ``seconds``
    (at least one), so every run sends the same mix of requests."""
    loop = Loop()
    t0 = time.perf_counter()
    while True:
        k = loop.cycles % len(calls)
        loop.send_cycle(mods, requests[k], calls[k])
        elapsed = time.perf_counter() - t0
        if elapsed * (loop.cycles + 1) / loop.cycles > seconds:
            return loop


def end_to_end(loop: Loop, setup_s: float) -> dict:
    n = len(loop.latencies)
    latencies = loop.normalized()
    return {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (loop.throughput(), "1/s"),
        "latency_p50_s": (band_mean(latencies, *P50_BAND), "s"),
        "latency_tail_s": (band_mean(latencies, *TAIL_BAND), "s"),
        "error_rate": (loop.outcomes["error"] / n, "share"),
        "undecided_rate": (loop.outcomes["undecided"] / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def metadata(args, loops: list, setup: dict) -> dict:
    latencies = [x for loop in loops for x in loop.latencies]
    first = loops[0]
    n = len(first.latencies)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "bv_caps_unset": "BV_CAPS" not in os.environ,
        "requests": len(latencies), "cycles": [loop.cycles for loop in loops],
        "cycle_walls_s": [[round(w, 4) for w in loop.cycle_walls] for loop in loops],
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_tail_beyond": n - int(TAIL_PERCENTILE / 100 * n),
        "ref_nominal_s": REF_NOMINAL_S,
        "slowness": round(statistics.median(first.speeds), 4),
        "setup_slowness": round(setup["slowness"], 4),
        "raw": {"setup_s": setup["raw_s"],
                "throughput_rps": n / sum(first.latencies),
                "latency_p50_s": band_mean(first.latencies, *P50_BAND),
                "latency_tail_s": band_mean(first.latencies, *TAIL_BAND)},
        "unexpected": [u for loop in loops for u in loop.unexpected],
    }


def traced_run(args, mods, requests, calls):
    """Untraced and traced cycles in turn, so both see the same load on
    the machine: per-layer metrics, tracing overhead and span coverage."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        set_up(requests, mods)  # records the parsing spans
    finally:
        tracer.uninstall()
    plain, traced = Loop(), Loop()
    t0 = time.perf_counter()
    k = 0
    while True:
        plain.send_cycle(mods, requests[k % len(calls)], calls[k % len(calls)])
        k += 1
        tracer.install()
        try:
            traced.send_cycle(mods, requests[k % len(calls)], calls[k % len(calls)], tracer)
        finally:
            tracer.uninstall()
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (traced.cycles + 1) / traced.cycles > args.seconds:
            break
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    top = tracer.top_level_time()
    coverage = sum(top[i] for i in range(len(traced.latencies))) / sum(traced.latencies)
    metrics = tracer.layer_metrics(CYCLES, traced.cycles)
    metrics.update({
        "trace.cycles": (traced.cycles, "count"),
        "trace.untraced_throughput_rps": (plain.throughput(), "1/s"),
        "trace.traced_throughput_rps": (traced.throughput(), "1/s"),
        "trace.overhead_share": (1 - traced.throughput() / plain.throughput(), "share"),
        "trace.coverage": (coverage, "share"),
    })
    return metrics, [plain, traced], coverage >= MIN_COVERAGE


def run_workload(args) -> int:
    if not (SRC / "beauville" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    requests = workloads.build(args.workload, args.seed, CYCLES)

    times, speeds = [], []
    before = reference_slice()
    for _ in range(SETUP_REPS):
        purge_library()
        setup_s, mods, calls = set_up(requests)
        after = reference_slice()
        times.append(setup_s)
        speeds.append(slowness(before, after))
        before = after
    setup = {"raw_s": statistics.median(times), "slowness": statistics.median(speeds)}
    setup_s = statistics.median(t / k for t, k in zip(times, speeds))
    if not Path(mods["core"].__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {mods['core'].__file__}, not the checkout", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, loops, correct = traced_run(args, mods, requests, calls)
    else:
        loops = [send(mods, requests, calls, args.seconds)]
        metrics = end_to_end(loops[0], setup_s)
        correct = True
    failed = sum(loop.outcomes["error"] for loop in loops)
    correct = correct and failed == 0

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    report = {"meta": metadata(args, loops, setup),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report, sort_keys=True))
    # The file also keeps every request's raw timing, for analysis after the run.
    report["requests"] = [{"id": i, "latency_s": x, "slowness": k}
                          for i, x, k in zip(loops[0].ids, loops[0].latencies, loops[0].speeds)]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": correct,
                      "attempted": sum(len(loop.latencies) for loop in loops),
                      "failed": failed,
                      "metrics": {k: report["metrics"][k] for k in names}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
