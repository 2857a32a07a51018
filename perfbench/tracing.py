"""Span tracing around the package's public functions, from outside the package.

Tracer.install() wraps each function named in TRACED and swaps the wrapper
into every crosspeaks module attribute that holds the original, so calls
made through a module global (harness.discrete_random, geometry's own
sample_region_labels, codes_mod.gv_greedy in family) all pass through it.
verify.CHECKS, which holds the check functions directly, is replaced by a
tuple of wrapped checks.  uninstall() puts every original back.

Each span records name, start, end and parent.  A span's self time is its
duration minus that of its direct children; a layer's self time is the sum
over its spans.  Inclusive time counts only the outermost span of a
function, so recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "codes", "family", "exactmath", "geometry", "oracles",
          "harness", "halfspace", "verify")

TRACED = {
    "codes": ("gv_greedy", "min_distance_exhaustive"),
    "family": ("build_product_family", "format_manifest", "parse_manifest",
               "certify_separation", "certify_cardinality",
               "certify_equal_volumes", "exact_distance"),
    "exactmath": ("exp_neg_bounds",),
    "geometry": ("sample_region_labels", "sample_inner_batch", "classify_batch"),
    "oracles": ("discrete_random", "discrete_membership", "discrete_random_batch",
                "continuous_random_batch"),
    "harness": ("run_game", "query_lower_bound", "choose_parameters"),
    "halfspace": ("halfspace_discrepancy", "ks_statistic", "direction_set",
                  "corollary_explore"),
    "verify": ("run_verification",),
    "cli": ("main",),
}

SPAN_CAP = 50_000


def _arg(args, kw, pos, name):
    return args[pos] if len(args) > pos else kw[name]


def _count_query(tracer, args, kw, out):
    if tracer.open["harness.run_game"]:
        tracer.agg.counts["queries"] += 1


# per-function counters, recorded where the work happens
HOOKS = {
    "codes.gv_greedy": lambda t, a, kw, out: t.agg.add_counts(
        gv_greedy_words_scanned=_arg(a, kw, 0, "q") ** _arg(a, kw, 1, "length"),
        gv_greedy_kept=out.size),
    "codes.min_distance_exhaustive": lambda t, a, kw, out: t.agg.add_counts(
        min_distance_pairs=len(a[0]) * (len(a[0]) - 1) // 2),
    "family.certify_separation": lambda t, a, kw, out: t.agg.add_counts(
        certify_pairs=out.pairs_checked),
    "geometry.sample_region_labels": lambda t, a, kw, out: t.agg.add_counts(
        region_labels=_arg(a, kw, 1, "count")),
    "geometry.sample_inner_batch": lambda t, a, kw, out: t.agg.add_counts(
        sample_inner_batch_points=_arg(a, kw, 1, "count")),
    "geometry.classify_batch": lambda t, a, kw, out: t.agg.add_counts(
        classify_batch_points=len(_arg(a, kw, 1, "points"))),
    "oracles.continuous_random_batch": lambda t, a, kw, out: t.agg.add_counts(
        continuous_random_batch_points=_arg(a, kw, 1, "count")),
    "oracles.discrete_random": _count_query,
    "oracles.discrete_membership": _count_query,
    "harness.run_game": lambda t, a, kw, out: t.agg.add_counts(
        trials=out.trials),
}


class Aggregate:
    """Per-function call counts and inclusive times, per-layer self time,
    named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def add_counts(self, **counts):
        for key, value in counts.items():
            self.counts[key] += value

    def to_json(self) -> dict:
        return {key: dict(getattr(self, key)) for key in
                ("calls", "incl_s", "layer_self_s", "counts")}

    def merge(self, data: dict, weight: float = 1.0) -> None:
        for key, values in data.items():
            table = getattr(self, key)
            for name, value in values.items():
                table[name] += value * weight


class Tracer:
    def __init__(self):
        self.agg = Aggregate()
        self.open = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.open[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        agg = self.agg
        agg.calls[name] += 1
        agg.layer_self_s[name.split(".", 1)[0]] += dur - child
        self.open[name] -= 1
        if not self.open[name]:
            agg.incl_s[name] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            self._enter(name)
            try:
                out = fn(*args, **kw)
            finally:
                self._exit()
            if hook is not None:
                hook(self, args, kw, out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of every crosspeaks module already
        imported; modules not imported stay untouched."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "crosspeaks" or name.startswith("crosspeaks.")]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"crosspeaks.{layer}")
            if module is None:
                continue
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        verify = sys.modules.get("crosspeaks.verify")
        if verify is not None:
            checks = tuple((name, self.wrap(f"verify.check.{name}", fn))
                           for name, fn in verify.CHECKS)
            self._patch(verify, "CHECKS", checks)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)


def per_layer_values(agg: Aggregate, window_s: float, check_names) -> dict:
    """The per-layer metrics for one traced window (a setup plus one pass)."""
    incl, calls, counts = agg.incl_s, agg.calls, agg.counts
    out = {}

    def fn(layer, name, with_calls=False):
        out[f"{layer}.{name}_s"] = incl[f"{layer}.{name}"]
        if with_calls:
            out[f"{layer}.{name}_calls"] = calls[f"{layer}.{name}"]

    def ratio(num, den):
        return num / den if den else 0.0

    fn("codes", "gv_greedy", with_calls=True)
    out["codes.gv_greedy_words_scanned"] = counts["gv_greedy_words_scanned"]
    out["codes.gv_greedy_kept_frac"] = ratio(counts["gv_greedy_kept"],
                                             counts["gv_greedy_words_scanned"])
    fn("codes", "min_distance_exhaustive")
    out["codes.min_distance_pairs"] = counts["min_distance_pairs"]
    fn("family", "build_product_family")
    fn("family", "parse_manifest")
    fn("family", "certify_separation")
    out["family.certify_pairs"] = counts["certify_pairs"]
    out["family.certify_pairs_per_s"] = ratio(counts["certify_pairs"],
                                              incl["family.certify_separation"])
    fn("family", "exact_distance", with_calls=True)
    fn("exactmath", "exp_neg_bounds", with_calls=True)
    fn("geometry", "sample_region_labels", with_calls=True)
    out["geometry.labels_per_call"] = ratio(counts["region_labels"],
                                            calls["geometry.sample_region_labels"])
    fn("geometry", "sample_inner_batch")
    out["geometry.sample_inner_batch_points"] = counts["sample_inner_batch_points"]
    fn("geometry", "classify_batch")
    out["geometry.classify_batch_points"] = counts["classify_batch_points"]
    fn("oracles", "discrete_random", with_calls=True)
    fn("oracles", "continuous_random_batch")
    out["oracles.continuous_random_batch_points"] = counts["continuous_random_batch_points"]
    fn("harness", "run_game")
    out["harness.trials"] = counts["trials"]
    out["harness.queries"] = counts["queries"]
    fn("harness", "query_lower_bound")
    fn("halfspace", "halfspace_discrepancy", with_calls=True)
    fn("halfspace", "ks_statistic", with_calls=True)
    fn("halfspace", "direction_set")
    for name in check_names:
        out[f"verify.check_s.{name}"] = incl[f"verify.check.{name}"]
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(n for name, n in calls.items()
                                    if name.startswith(f"{layer}."))
        out[f"{layer}.self_s"] = agg.layer_self_s[layer]
        out[f"{layer}.self_share"] = ratio(agg.layer_self_s[layer], window_s)
    return out
