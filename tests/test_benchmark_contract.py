"""The benchmark's tracer wraps package functions by name; every name it
lists must keep resolving, or a traced run breaks without a failing test."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module}.{name}"
               for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"crosspeaks.{module}"),
                                       name, None))]
    assert missing == []
