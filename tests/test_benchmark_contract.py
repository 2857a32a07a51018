"""The benchmark's tracer wraps package functions by name; every name it
lists must keep resolving, or a traced run breaks without a failing test."""

import importlib
import importlib.util
import sys
from pathlib import Path

from crosspeaks.family import certify_separation

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


def test_certify_separation_takes_a_seed_and_covers_every_pair(family_32):
    # the construct workload passes a per-pass seed and rejects any report
    # that is not mode "all" over F(F-1)/2 pairs
    for seed in (0, 11, 2024):
        report = certify_separation(family_32, seed=seed)
        assert report.mode == "all"
        assert report.pairs_checked == family_32.size * (family_32.size - 1) // 2
