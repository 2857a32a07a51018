"""The four benchmark workloads.

Each workload is the script of a researcher who issues the next call when
the last one returns (a closed loop with one caller).  A workload
  setup()           imports what its script imports;
  load()            reads the fixture manifests the script starts from;
  steps(p)          lists pass p's timed calls as (name, thunk), with every
                    input derived from the benchmark seed and p;
  check(name, out)  returns the errors in one call's output, run untimed;
  final_check(v)    returns errors found against the constants pinned in
                    crosspeaks.verify (module v), once all passes ran;
  items(name, out)  counts the work items a call completed (0: not an item
                    step), the base of items_per_s;
  report(passes)    names the workload's own figures;
  layer_values(tp)  gives the per-layer figures timed outside the package
                    (only cli has any) from the traced passes tp.
"""

from __future__ import annotations

import functools
import math
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"


def fixture(name: str) -> Path:
    return FIXTURES / f"fam{name}.manifest"


def rng_for(seed: int, *words: int):
    import numpy as np
    return np.random.default_rng([0xBE7C4, seed, *words])


def sigma(p: float, trials: int) -> float:
    """Binomial standard error, floored at one success in `trials` so that
    rare events do not get a vanishing tolerance."""
    return math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)


def step_times(passes, name_prefix=""):
    return [s.seconds for steps in passes for s in steps
            if s.name.startswith(name_prefix)]


CLI_SUBCOMMANDS = ("gen-family", "bounds", "member", "sample", "halfspace-gap", "game")


class Workload:
    tracer = None
    runs_children = False   # do the timed steps run child processes?
    # how closely step times follow the host's speed as worker.RefLoop
    # sees it: 1 for interpreter-bound work like RefLoop's own
    host_exponent = 1.0

    def layer_values(self, traced_passes) -> dict:
        """Per-layer figures measured outside the package's own functions."""
        return {"cli.import_s": 0.0, **{f"cli.cmd_s.{c}": 0.0 for c in CLI_SUBCOMMANDS}}

    def load(self):
        """Read the fixtures the script starts from (traced in a traced run)."""


class Construct(Workload):
    """Build, round-trip and certify three families, then run the 20 checks."""

    host_exponent = 0.5     # large numpy arrays: follows the host about half as much

    SIZES = ((3, 2), (2, 8), (3, 4))

    def __init__(self, seed: int):
        self.seed = seed
        self.fixtures = {nk: fixture(f"{nk[0]}{nk[1]}").read_text() for nk in self.SIZES}
        self.seen = []          # (n, k, size, min distance) per certified family

    def setup(self):
        from crosspeaks import family, verify
        self.family, self.verify = family, verify

    def steps(self, p):
        out = [(f"family-n{n}k{k}", lambda n=n, k=k: self._family(n, k, p))
               for n, k in self.SIZES]
        out.append(("verify", self._verify))
        return out

    def _family(self, n, k, p):
        fam = self.family.build_product_family(n, k)
        text = self.family.format_manifest(fam)
        again = self.family.parse_manifest(text)
        report = self.family.certify_separation(again, seed=self.seed + p)
        self.family.certify_cardinality(again)
        volume = self.family.certify_equal_volumes(again)
        if n == 3 and k == 4:
            self.fam34 = again
        return text, self.family.format_manifest(again), again.size, report, volume

    def _verify(self):
        # the library's pinned default seed: its statistical checks reject at
        # p < 1e-3, so arbitrary seeds would fail about one run in a hundred
        return [(r.name, r.passed, r.detail)
                for r in self.verify.run_verification(self.fam34,
                                                      seed=self.verify.DEFAULT_SEED)]

    def check(self, name, out):
        if name == "verify":
            expected = [n for n, _ in self.verify.CHECKS]
            bad = [f"{n}: {d}" for n, ok, d in out if not ok]
            if [n for n, _, _ in out] != expected:
                bad.append(f"ran {len(out)} of {len(expected)} checks")
            return bad
        n, k = (int(v) for v in re.findall(r"\d+", name))
        text, again_text, size, report, volume = out
        errors = []
        if text != self.fixtures[(n, k)]:
            errors.append("manifest differs from the fixture")
        if again_text != text:
            errors.append("manifest did not round-trip")
        if report.mode != "all" or report.pairs_checked != size * (size - 1) // 2:
            errors.append(f"certified {report.pairs_checked} pairs ({report.mode})")
        if volume != reference.family_volume(n, k):
            errors.append(f"volume {volume} != {reference.family_volume(n, k)}")
        self.seen.append((n, k, size, report.min_distance))
        return errors

    def items(self, name, out):
        return 1 if name.startswith("family-") else 0

    def final_check(self, verify):
        return [f"({n},{k}): size {size}, min distance {dist}"
                for n, k, size, dist in self.seen
                if size != verify.FAMILY_SIZES[(n, k)]
                or dist != verify.MIN_DISTANCES[(n, k)]]

    def report(self, passes):
        fam = step_times(passes, "family-")
        return {"families_per_min": 60 * len(fam) / sum(fam),
                "verify_s": statistics.median(step_times(passes, "verify"))}


class Game(Workload):
    """The hidden-body query game across budgets on (3,2) and (3,4)."""

    EPSILON = Fraction(1, 64)
    # (learner policy, query budget, trials)
    POINTS = (("random", 0, 2000), ("random", 1, 400), ("random", 5, 400),
              ("random", 20, 400), ("census", 8, 200))

    def __init__(self, seed: int):
        self.seed = seed
        self.blind = {}         # family name -> [successes, trials, size] at q=0

    def setup(self):
        from crosspeaks import family, harness
        self.family, self.harness = family, harness

    def load(self):
        self.families = {name: self.family.read_manifest(fixture(name))
                         for name in ("32", "34")}

    def steps(self, p):
        out = []
        for name, fam in self.families.items():
            game_seed = int(rng_for(self.seed, p, int(name)).integers(1 << 31))
            for policy, q, trials in self.POINTS:
                out.append((f"fam{name}-{policy}-q{q}",
                            lambda fam=fam, policy=policy, q=q, trials=trials:
                            self._play(fam, policy, q, trials, game_seed)))
        return out

    def _play(self, fam, policy, q, trials, game_seed):
        h = self.harness
        config = h.GameConfig(family=fam, query_budget=q, epsilon=self.EPSILON,
                              trials=trials, seed=game_seed)
        stats = h.run_game(config, h.MLConsistencyLearner(policy=policy))
        bound = h.success_upper_bound(fam.n, fam.k, q, fam.size, self.EPSILON)
        return stats, fam.size, float(bound)

    def check(self, name, out):
        stats, size, bound = out
        errors = []
        if stats.budget_violations:
            errors.append(f"{stats.budget_violations} budget violations")
        if "census" in name and stats.exact_identifications != stats.trials:
            errors.append(f"census identified {stats.exact_identifications}"
                          f"/{stats.trials}")
        rate = stats.success_rate
        if rate > bound + 5 * sigma(rate, stats.trials):
            errors.append(f"success {rate} over the fan-out bound {bound}")
        if name.endswith("-q0"):
            pooled = self.blind.setdefault(name.split("-")[0], [0, 0, size])
            pooled[0] += stats.successes
            pooled[1] += stats.trials
        return errors

    def items(self, name, out):
        return out[0].trials

    def final_check(self, verify):
        errors = []
        for name, (successes, trials, size) in self.blind.items():
            key = (int(name[3]), int(name[4]))
            if size != verify.FAMILY_SIZES[key]:
                errors.append(f"{name}: family size {size}")
            p = 1 / size
            if abs(successes / trials - p) > 5 * sigma(p, trials):
                errors.append(f"{name}: blind success {successes}/{trials} "
                              f"not within 5 sigma of 1/{size}")
        return errors

    def report(self, passes):
        steps = [s for p in passes for s in p]
        return {"trials_per_s": sum(s.items for s in steps) / sum(s.seconds for s in steps)}


class Probe(Workload):
    """Sample and classify full bodies, then scan (3,4) pairs by halfspace probes."""

    host_exponent = 0.5     # large numpy arrays: follows the host about half as much

    DIMS = (3, 6, 10)
    POINTS = 200_000
    PAIRS = 24
    DIRS = 64
    SAMPLES = 4096

    def __init__(self, seed: int):
        self.seed = seed
        self.min_distance = None

    @functools.cached_property
    def ref(self):
        return reference.ManifestFamily(fixture("34").read_text())

    def setup(self):
        from crosspeaks import family, geometry, halfspace
        self.family, self.geometry, self.halfspace = family, geometry, halfspace

    def load(self):
        self.fam = self.family.read_manifest(fixture("34"))

    def steps(self, p):
        out = [(f"sample-n{n}", lambda n=n, rng=rng_for(self.seed, p, n): self._sample(n, rng))
               for n in self.DIMS]
        rng = rng_for(self.seed, p, 0)
        pairs = set()
        while len(pairs) < self.PAIRS:
            i, j = sorted(int(v) for v in rng.integers(self.fam.size, size=2))
            if i != j:
                pairs.add((i, j))
        scan_seed = int(rng.integers(1 << 31))
        out.append(("scan", lambda: self.halfspace.corollary_explore(
            self.fam, sorted(pairs), self.DIRS, self.SAMPLES, scan_seed)))
        return out

    def _sample(self, n, rng):
        g = self.geometry
        points, _ = g.sample_inner_batch(g.full_body(n), self.POINTS, rng)
        return n, len(points), g.classify_batch(n, points)

    def check(self, name, out):
        if name != "scan":
            n, count, labels = out
            outside = int((labels == (1 << n) + 1).sum())
            errors = [f"{outside} of {count} points classified outside"] if outside else []
            if count != self.POINTS or len(labels) != count:
                errors.append(f"{count} points, {len(labels)} labels")
            return errors
        errors = []
        if len(out.rows) != self.PAIRS or not out.distance_floor_verified:
            errors.append(f"{len(out.rows)} rows, floor verified "
                          f"{out.distance_floor_verified}")
        for i, j, dist, est in out.rows:
            if dist != self.ref.distance(i, j):
                errors.append(f"pair ({i},{j}): {dist} != {self.ref.distance(i, j)}")
            if not 0.0 <= est <= 1.0:
                errors.append(f"pair ({i},{j}): estimate {est}")
        low = min(d for _, _, d, _ in out.rows)
        self.min_distance = low if self.min_distance is None else min(low, self.min_distance)
        return errors

    def items(self, name, out):
        return 0 if name == "scan" else out[1]

    def final_check(self, verify):
        errors = []
        if self.fam.size != verify.FAMILY_SIZES[(3, 4)]:
            errors.append(f"family size {self.fam.size}")
        if self.min_distance is not None and self.min_distance < verify.MIN_DISTANCES[(3, 4)]:
            errors.append(f"pair distance {self.min_distance} under the pinned minimum")
        return errors

    def report(self, passes):
        sample = step_times(passes, "sample-")
        scan = step_times(passes, "scan")
        return {"sample_points_per_s": self.POINTS * len(sample) / sum(sample),
                "probe_pairs_per_s": self.PAIRS * len(scan) / sum(scan)}


class Cli(Workload):
    """A session of short commands, each a fresh `python -m crosspeaks`."""

    runs_children = True

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.floors = []        # (d, q_floor, regime) seen from `bounds`
        self.import_s = []      # crosspeaks.cli import time per traced command

    def setup(self):
        import crosspeaks.cli  # noqa: F401  what every command pays first

    @functools.cached_property
    def ref(self):
        return {name: reference.ManifestFamily(fixture(name).read_text())
                for name in ("32", "34")}

    def steps(self, p):
        rng = rng_for(self.seed, p)
        seed = int(rng.integers(1 << 31))
        body = int(rng.integers(4096))
        m32 = str(fixture("32"))
        m34 = str(fixture("34"))
        den = int(rng.choice([48, 96]))
        point = [Fraction(int(u) * int(s), den) for u, s in
                 zip(rng.integers(0, 41, size=12), rng.choice([-1, 1], size=12))]
        pair = sorted(int(v) for v in rng.choice(256, size=2, replace=False))
        out_path = self.workdir / f"gen-{p}.manifest"
        commands = [
            ("gen-family", ["gen-family", "--n", "3", "--k", "2", "--out", str(out_path)],
             out_path),
            ("bounds-d64", ["bounds", "--d", "64", "--epsilon", "1/8"], 64),
            ("bounds-d1024", ["bounds", "--d", "1024", "--epsilon", "1/8"], 1024),
            # "=" form, since a point may start with a minus sign
            ("member", ["member", "--manifest", m34, "--body-index", str(body),
                        "--point=" + ",".join(str(x) for x in point)], (body, point)),
            ("sample-points", ["sample", "--manifest", m34, "--body-index", str(body),
                               "--count", "200", "--seed", str(seed)], body),
            ("sample-labels", ["sample", "--manifest", m34, "--body-index", str(body),
                               "--count", "200", "--seed", str(seed),
                               "--format", "labels"], body),
            ("halfspace-gap", ["halfspace-gap", "--manifest", m32, "--pair",
                               f"{pair[0]},{pair[1]}", "--dirs", "16", "--samples",
                               "2048", "--seed", str(seed)], pair),
            ("game", ["game", "--manifest", m32, "--q", "5", "--epsilon", "1/64",
                      "--trials", "200", "--seed", str(seed)], None),
        ]
        return [(name, lambda argv=argv, ctx=ctx: (self._run(argv), ctx))
                for name, argv, ctx in commands]

    def _run(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "crosspeaks", *argv]
        else:
            trace_path = self.workdir / "child-trace.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if self.tracer is not None and trace_path.exists():
            import json
            data = json.loads(trace_path.read_text())
            trace_path.unlink()
            self.tracer.agg.merge(data["agg"])
            self.import_s.append(data["import_s"])
        return proc

    def check(self, name, out):
        proc, ctx = out
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        text = proc.stdout
        lines = text.splitlines()
        if name == "gen-family":
            written = ctx.read_text()
            ctx.unlink()
            return [] if written == fixture("32").read_text() else ["manifest differs"]
        if name.startswith("bounds"):
            found = re.search(r"regime=(\w+)\nq_floor=(\d+)", text)
            if not found:
                return ["no q_floor line"]
            self.floors.append((ctx, int(found.group(2)), found.group(1)))
            return []
        if name == "member":
            body, point = ctx
            want = "true" if self.ref["34"].contains(body, point) else "false"
            return [] if text.strip() == want else [f"member said {text.strip()}"]
        fam = self.ref["34"]
        if name == "sample-points":
            bad = [ln for ln in lines
                   if not fam.contains(ctx, [Fraction(float(v)) for v in ln.split(",")])]
            return ([f"{len(lines)} points"] if len(lines) != 200 else []) + \
                   [f"point outside body {ctx}: {ln}" for ln in bad[:3]]
        if name == "sample-labels":
            allowed = [{"C"} | {reference.label_text(i) for i in peaks}
                       for peaks in fam.body(ctx)]
            bad = [ln for ln in lines
                   if any(lab not in ok for lab, ok in zip(ln.split(","), allowed))
                   or len(ln.split(",")) != fam.k]
            return ([f"{len(lines)} label rows"] if len(lines) != 200 else []) + \
                   [f"illegal labels for body {ctx}: {ln}" for ln in bad[:3]]
        if name == "halfspace-gap":
            want = self.ref["32"].distance(*ctx)
            found = re.search(r"exact_distance=(\S+)\nks_estimate=(\S+)", text)
            if not found:
                return ["no distance line"]
            errors = [] if Fraction(found.group(1)) == want else [
                f"distance {found.group(1)} != {want}"]
            if not 0.0 <= float(found.group(2)) <= 1.0:
                errors.append(f"estimate {found.group(2)}")
            return errors
        found = re.search(r"trials=(\d+) successes=(\d+) exact=(\d+) violations=(\d+)\n"
                          r"success_rate=(\S+) confidence_radius=\S+ upper_bound=(\S+)",
                          text)
        if not found:
            return ["no game summary"]
        trials, successes, exact, violations = (int(found.group(i)) for i in range(1, 5))
        rate, bound = float(found.group(5)), float(found.group(6))
        errors = []
        if trials != 200 or violations or not exact <= successes <= trials:
            errors.append(f"game summary {found.group(0)!r}")
        if rate > bound + 5 * sigma(rate, trials):
            errors.append(f"success {rate} over the fan-out bound {bound}")
        return errors

    def items(self, name, out):
        return 1

    def layer_values(self, traced_passes):
        values = {"cli.import_s": statistics.median(self.import_s)}
        for sub in CLI_SUBCOMMANDS:
            values[f"cli.cmd_s.{sub}"] = statistics.median(step_times(traced_passes, sub))
        return values

    def final_check(self, verify):
        return [f"bounds d={d}: q_floor {q} ({regime})"
                for d, q, regime in self.floors
                if verify.QUERY_FLOORS[(d, Fraction(1, 8), Fraction(1, 2))] != (q, regime)]

    def report(self, passes):
        # the same statistics as step_p50_s and step_max_s
        def per_session(stat):
            return statistics.median(stat(s.seconds for s in steps) for steps in passes)
        return {"cmd_p50_s": per_session(statistics.median), "cmd_max_s": per_session(max),
                "commands": len(step_times(passes))}
