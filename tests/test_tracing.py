"""The benchmark's tracer must keep installing against the package.

perfbench/tracing.py wraps package functions by name from outside src/, so
renaming or deleting one of them breaks the traced benchmark run; this test
catches that here.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_state():
    """Every module attribute and class attribute the tracer may patch."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "morsegauge" or name.startswith("morsegauge."):
            state.update({(name, k): v for k, v in vars(mod).items()})
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    state.update({(cls.__qualname__, k): v
                                  for k, v in vars(cls).items()})
    return state


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for mod in ("analysis", "cli", "corpus", "gauge", "geometry", "measure",
                "partition", "quadrature", "riemann"):
        importlib.import_module(f"morsegauge.{mod}")
    before = _package_state()

    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = _package_state()
    finally:
        tracer.uninstall()

    assert [k for k in before if installed[k] is not before[k]]
    after = _package_state()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
