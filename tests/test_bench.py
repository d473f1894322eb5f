"""The committed benchmark can still trace the package: a rename under
``src`` of a call it wraps fails here rather than in a bench run, where it
would fail the run with TraceError.

The bench's modules are loaded from their files without writing bytecode
next to them, and ``sys.path`` and ``sys.modules`` are restored afterwards.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # tracer.py imports workloads by name.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = _load("workloads", monkeypatch)
    tracer = _load("tracer", monkeypatch)
    for workload in workloads.WORKLOADS.values():
        calls = tracer.COMMON_CALLS + workload.traced_calls
        # Wraps each call as a traced run does, and puts it back; a missing
        # one raises TraceError.
        with tracer.Tracer(calls, tracer.Capture()).installed():
            pass
