"""Public names: every exported and every benchmark-traced name is bound."""

import importlib
import importlib.util
import sys
from pathlib import Path

import nfbist

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module(monkeypatch):
    # Loaded by path: perfbench is not a package on the import path, and
    # tracing.py imports neither numpy nor nfbist. Its dataclasses look their
    # module up in sys.modules while the class is built.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in nfbist.__all__ if not hasattr(nfbist, name)]
    assert missing == []


def test_every_traced_name_is_bound(monkeypatch):
    patches = _tracing_module(monkeypatch).PATCHES
    assert patches
    unbound = [
        f"{module}.{attr}"
        for module, attr, _ in patches
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert unbound == []
