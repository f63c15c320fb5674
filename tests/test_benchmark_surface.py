"""The library names that the benchmark's tracer wraps.

``perfbench/tracing.py`` rebinds every function named in its ``LAYERS``
by name, so a renamed or deleted function breaks the traced benchmark
run.  This test installs and uninstalls the tracer against the library;
it reads that file and leaves it as it is.
"""

import importlib.util
import sys
from pathlib import Path

import beauville
import beauville.literals  # noqa: F401  (traced, not imported by the package)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
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
