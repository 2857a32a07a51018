"""The benchmark's tracer wraps package functions by name, and its workloads
call the package's API; every name it lists must keep resolving and every
workload must keep running, or a benchmark run breaks without a failing
test."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import crosspeaks
from crosspeaks import verify
from crosspeaks.family import certify_separation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(monkeypatch, name):
    """perfbench/<name>.py, imported with perfbench/ on the path as the
    benchmark runs it, and without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load_perfbench(monkeypatch, "tracing")
    assert tracing.TRACED
    missing = [f"{module}.{name}"
               for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"crosspeaks.{module}"),
                                       name, None))]
    assert missing == []


def test_certify_separation_takes_a_seed_and_covers_every_pair(family_32, family_34):
    # the construct workload passes a per-pass seed and rejects any report
    # that is not mode "all" over F(F-1)/2 pairs, whichever method certified
    for family in (family_32, family_34):
        for seed in (0, 11, 2024):
            report = certify_separation(family, seed=seed)
            assert report.mode == "all"
            assert report.pairs_checked == family.size * (family.size - 1) // 2


def test_game_workload_runs_clean(monkeypatch):
    # pass 0's (3,2) steps play every learner policy and budget of the
    # workload through run_game, and each output must pass its check
    workloads = _load_perfbench(monkeypatch, "workloads")
    game = workloads.Game(0)
    game.setup()
    game.load()
    steps = [(name, thunk) for name, thunk in game.steps(0) if name.startswith("fam32-")]
    assert len(steps) == 5
    for name, thunk in steps:
        assert game.check(name, thunk()) == [], name


def test_construct_workload_family_steps_run_clean(monkeypatch):
    # pass 0's family steps build, round-trip and certify (3,2), (2,8) and
    # (3,4); each check wants the fixture's manifest bytes, mode "all" over
    # F(F-1)/2 pairs and the exact volume.  The verify step is left to the
    # acceptance gate.
    workloads = _load_perfbench(monkeypatch, "workloads")
    construct = workloads.Construct(0)
    construct.setup()
    steps = [(name, thunk) for name, thunk in construct.steps(0) if name.startswith("family-")]
    assert len(steps) == 3
    for name, thunk in steps:
        assert construct.check(name, thunk()) == [], name


def test_probe_workload_steps_run_clean(monkeypatch):
    # pass 0's three sample steps (full bodies at n = 3, 6, 10) and its
    # 24-pair (3,4) halfspace scan; the scan's check wants every exact
    # distance to match the reference and every estimate in [0, 1], and the
    # final check holds the least distance seen to verify's pin
    workloads = _load_perfbench(monkeypatch, "workloads")
    probe = workloads.Probe(0)
    probe.setup()
    probe.load()
    steps = probe.steps(0)
    assert [name for name, _ in steps] == ["sample-n3", "sample-n6", "sample-n10", "scan"]
    for name, thunk in steps:
        assert probe.check(name, thunk()) == [], name
    assert probe.min_distance is not None
    assert probe.final_check(verify) == []


def test_cli_workload_bounds_steps_run_clean(monkeypatch, tmp_path):
    # pass 0's two `bounds` commands, each a fresh interpreter; the workload
    # reads their q_floor lines and checks them against verify's pins.  The
    # children run in tmp_path, so they get the package's absolute src path.
    workloads = _load_perfbench(monkeypatch, "workloads")
    src = str(Path(crosspeaks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = workloads.Cli(0, tmp_path, env)
    steps = [(name, thunk) for name, thunk in cli.steps(0)
             if name in ("bounds-d64", "bounds-d1024")]
    assert len(steps) == 2
    for name, thunk in steps:
        assert cli.check(name, thunk()) == [], name
    assert cli.final_check(verify) == []
