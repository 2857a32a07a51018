"""One workload in one fresh interpreter; started by run.py, never by hand.

    worker.py --workload W --seed N --seconds S --trace 0|1 --mode setup|run
              --t0 <time.monotonic() taken by the parent just before spawning>
              --out <directory for span dumps and command scratch files>

--mode setup stops after the set-up and reports how long it took from t0.
--mode run then measures whole passes of the workload until S seconds have
nearly gone (at least one pass).  With --trace 1 it alternates an untraced
and a traced pass over the same inputs, so the two walls give the tracing
overhead.  The last stdout line is one JSON object.

End-to-end times are given in host-normalised seconds.  Untimed, the
worker measures the host's speed with fixed work (RefLoop) before every
step, and also every SAMPLE_PERIOD_S while in-process steps run (from a
timer signal) or after every step that runs child processes.  Each step's
time is divided by the median slowness (time over nominal time) sampled
within NEAR_S of the step, at least MIN_NEAR samples, raised to the
workload's host_exponent, so a host that runs everything 20% slower for a
minute does not read as a slower program.  The time the samples take is
left out of every step.  The set-up time is divided by the slowness
sampled right after the set-up.  Raw times stay in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


REF_NOMINAL_S = 0.009       # RefLoop's times on the host the bounds were set on:
SPAWN_NOMINAL_S = 0.065     # the mixed loop, and a bare interpreter's start
SAMPLE_PERIOD_S = 0.2
NEAR_S = 1.0                # a step is scaled by the samples this close to it,
MIN_NEAR = 5                # and by at least this many


@dataclass
class Step:
    name: str
    seconds: float
    items: int
    start: float = 0.0      # time.perf_counter() when the step began
    end: float = 0.0


class RefLoop:
    """Fixed work whose time tells how fast the host runs right now.

    The loop is a mix of interpreter work like the workloads' own: integer
    arithmetic, Fraction sums, small numpy calls and scattered list reads.
    With spawn, for steps that run child processes, the start of a bare
    interpreter (`python -c pass`) is timed as well.
    """

    def __init__(self, spawn: bool):
        import numpy as np
        self.spawn = spawn
        self.arrays = [np.arange(16.0) for _ in range(20)]
        self.table = [i % 251 for i in range(1 << 17)]
        self.picks = random.Random(1).choices(range(1 << 17), k=12_000)

    def loop_s(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(45_000):
            acc += i * i % 7
        frac = Fraction(0)
        for i in range(1, 600):
            frac += Fraction(i % 97, i % 13 + 1)
        for _ in range(12):
            for a in self.arrays:
                acc += float((a * 2).sum())
        for k in self.picks:
            acc += self.table[k]
        return time.perf_counter() - start

    def spawn_s(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        return time.perf_counter() - start

    def slowness(self) -> float:
        """Time taken over the nominal time (a geometric mean with spawn)."""
        slow = self.loop_s() / REF_NOMINAL_S
        if self.spawn:
            slow = math.sqrt(slow * self.spawn_s() / SPAWN_NOMINAL_S)
        return slow


class HostClock:
    """Samples the host's speed around and during the steps.

    sample() is called before every step.  With the timer, a SIGALRM
    handler also samples every SAMPLE_PERIOD_S; it runs in the measured
    thread between the program's bytecodes, so nothing runs beside the
    program, and paused_s adds up the time it took.  Steps that run child
    processes get no timer (a loop timed beside a child would slow both)
    but a sample right after each step.
    """

    def __init__(self, ref: RefLoop, timer: bool):
        self.ref = ref
        self.timer = timer
        self.samples = []       # (time.perf_counter() at the end, slowness)
        self.paused_s = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        slow = self.ref.slowness()
        end = time.perf_counter()
        self.samples.append((end, slow))
        self.paused_s += end - start
        self._busy = False

    def scale(self, step: Step) -> float:
        """One over the median slowness near the step."""
        def distance(sample):
            return max(0.0, step.start - sample[0], sample[0] - step.end)
        near = sorted(self.samples, key=distance)
        count = max(MIN_NEAR, sum(1 for s in near if distance(s) <= NEAR_S))
        return 1.0 / statistics.median(s[1] for s in near[:count])

    def __enter__(self):
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def make_workload(name: str, seed: int, out_dir: Path):
    import workloads
    if name == "cli":
        return workloads.Cli(seed, out_dir, dict(os.environ))
    return {"construct": workloads.Construct, "game": workloads.Game,
            "probe": workloads.Probe}[name](seed)


class Runner:
    """Runs passes, checks every output untimed, and tallies failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, errors) -> None:
        self.failed += 1
        for e in errors[:5]:
            print(f"FAIL {what}: {e}", file=sys.stderr)

    def run_pass(self, p: int, tracer=None, clock=None) -> list[Step]:
        """One pass; a HostClock is sampled before every step."""
        steps = []
        for name, thunk in self.wl.steps(p):
            self.attempted += 1
            if clock is not None:
                clock.sample()
                paused = clock.paused_s
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = thunk()
                else:
                    with tracer.span(f"bench.{name}"):
                        out = thunk()
            except Exception:
                self.fail(f"pass {p} {name}", [traceback.format_exc()])
                continue
            end = time.perf_counter()
            seconds = end - start
            if clock is not None:
                seconds -= clock.paused_s - paused
                if not clock.timer:
                    clock.sample()
            errors = self.wl.check(name, out)
            if errors:
                self.fail(f"pass {p} {name}", errors)
            steps.append(Step(name, seconds, self.wl.items(name, out), start, end))
        return steps

    def final_check(self) -> None:
        from crosspeaks import verify
        self.attempted += 1
        errors = self.wl.final_check(verify)
        if errors:
            self.fail("pinned constants", errors)


def wall(steps) -> float:
    return sum(s.seconds for s in steps)


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args, wl, runner, ref) -> dict:
    start = time.perf_counter()
    deadline = start + args.seconds
    raw = []
    with HostClock(ref, timer=not wl.runs_children) as clock:
        # a pass starts only while a quarter of a mean pass is left, so a
        # fast host does not add one more long pass just after the deadline
        while not raw or (deadline - time.perf_counter()
                          > (time.perf_counter() - start) / len(raw) / 4):
            raw.append(runner.run_pass(len(raw), clock=clock))
        clock.sample()
    rss = peak_rss_mb(args.workload)
    runner.final_check()
    scales = [[clock.scale(s) ** wl.host_exponent for s in p] for p in raw]
    passes = [[Step(s.name, s.seconds * k, s.items) for s, k in zip(p, ks)]
              for p, ks in zip(raw, scales)]
    steps = [s for p in passes for s in p]
    item_steps = [s for s in steps if s.items]
    metrics = {
        "wall_s": statistics.median(wall(p) for p in passes),
        "peak_rss_mb": rss,
        "items_per_s": sum(s.items for s in item_steps) / wall(item_steps),
        # per pass first: a pooled median of unlike steps jumps between them
        "step_p50_s": statistics.median(statistics.median(s.seconds for s in p)
                                        for p in passes),
        "step_max_s": statistics.median(max(s.seconds for s in p) for p in passes),
    }
    report = wl.report(passes)
    report.update(passes=len(passes), steps=len(steps),
                  pass_wall_s=[wall(p) for p in passes],
                  raw_pass_wall_s=[wall(p) for p in raw],
                  step_scale=[k for ks in scales for k in ks],
                  host_samples=len(clock.samples),
                  step_s=[[s.name, s.seconds] for s in steps])
    return {"metrics": metrics, "report": report}


def measure_traced(args, wl, runner, tracer, setup_agg, load_s) -> dict:
    import tracing
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    while not traced or time.perf_counter() < deadline:
        p = len(traced)
        plain.append(wall(runner.run_pass(p)))
        tracer.install()
        wl.tracer = tracer
        traced.append(runner.run_pass(p, tracer))
        wl.tracer = None
        tracer.uninstall()
    runner.final_check()
    # one session: the traced fixture loads plus the mean traced pass
    agg = tracing.Aggregate()
    agg.merge(setup_agg.to_json())
    agg.merge(tracer.agg.to_json(), weight=1.0 / len(traced))
    from crosspeaks import verify
    traced_walls = [wall(p) for p in traced]
    traced_wall = statistics.median(traced_walls)
    plain_wall = statistics.median(plain)
    values = tracing.per_layer_values(agg, load_s + statistics.mean(traced_walls),
                                      [name for name, _ in verify.CHECKS])
    values.update(wl.layer_values(traced))
    values.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": plain_wall,
                   "trace.overhead_frac": traced_wall / plain_wall - 1})
    spans_path = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    return {"metrics": values,
            "report": {"passes": len(traced), "spans": len(tracer.spans),
                       "spans_file": str(spans_path)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    wl = make_workload(args.workload, args.seed, Path(args.out))
    wl.setup()
    tracer = setup_agg = None
    load_start = time.perf_counter()
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl.load()
    load_s = time.perf_counter() - load_start
    if tracer is not None:
        tracer.uninstall()
        setup_agg, tracer.agg = tracer.agg, tracing.Aggregate()
    setup_s = time.monotonic() - args.t0
    ref = RefLoop(spawn=wl.runs_children)
    setups = {"setup_s": setup_s / statistics.median(ref.slowness() for _ in range(5)),
              "raw_setup_s": setup_s}
    if args.mode == "setup":
        result = setups
    else:
        runner = Runner(wl)
        result = (measure_traced(args, wl, runner, tracer, setup_agg, load_s)
                  if args.trace else measure(args, wl, runner, ref))
        result.update(setups, attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
