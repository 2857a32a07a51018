"""Superset invariant runner: every module's checkable claims in one list.

run_verification executes the checks in order and stops at the first
failure; each result carries enough numbers to reproduce, and
run_verification appends the master seed to every failure message.  The
pinned constants below were produced by this code, so that silent behavior
drift fails loudly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes, family as family_mod, geometry, halfspace, harness, oracles
from .errors import BudgetExceededError, CrosspeaksError, VerificationError
from .exactmath import simplex_volume

DEFAULT_SEED = 20260816

# pinned outputs of deterministic constructions (drift detectors)
GREEDY_SIZES = {(2, 4, 2): 8, (2, 8, 4): 16, (16, 4, 2): 4096, (4, 8, 4): 256}
FAMILY_SIZES = {(3, 2): 256, (3, 4): 4096, (2, 8): 256}
MIN_DISTANCES = {(3, 2): Fraction(1, 20), (3, 4): Fraction(39, 400),
                 (2, 8): Fraction(671, 1296)}
QUERY_FLOORS = {
    (64, Fraction(1, 8), Fraction(1, 2)): (194, "exact"),
    (1024, Fraction(1, 8), Fraction(1, 2)): (13510798882111488, "certified"),
    # 1 - delta = (1001/1000) 2^-1008: the target sits just under q = 3 * 2^52 - 1's reach
    (1024, Fraction(1, 8), 1 - Fraction(1001, 1000 << 1008)): (13510798882111487, "certified"),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Context:
    def __init__(self, fam: family_mod.ProductFamily | None, seed: int):
        self.seed = seed
        self._given = fam

    @functools.cached_property
    def family(self) -> family_mod.ProductFamily:
        if self._given is None:
            return family_mod.build_product_family(3, 4)
        return self._given

    @functools.cached_property
    def fam32(self) -> family_mod.ProductFamily:
        return family_mod.build_product_family(3, 2)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


# ---------------------------------------------------------------------------
# geometry

def check_geometry_identities(ctx: _Context) -> str:
    for n in range(2, 9):
        g = geometry.make_geometry(n)
        _require(g.alpha == Fraction(n, n - 1), f"alpha wrong at n={n}")
        _require(g.core_volume == Fraction(2 ** n, math.factorial(n)),
                 f"core volume wrong at n={n}")
        _require((1 << n) * g.peak_volume == g.core_volume / (n - 1),
                 f"total peak volume identity fails at n={n}")
        orthants = range(1 << n) if n <= 4 else (0, (1 << n) - 1, 1)
        for index in orthants:
            vertices = geometry.peak_vertices(n, geometry.OrthantSign(n, index))
            _require(simplex_volume(vertices) == g.peak_volume,
                     f"determinant oracle disagrees at n={n}, orthant={index}")
        full = geometry.inner_volume(geometry.full_body(n))
        _require(full == g.core_volume * (1 + Fraction(1, n - 1)),
                 f"full-body volume wrong at n={n}")
    return "n=2..8: peak volume equals determinant oracle, 2^n*peak = core/(n-1)"


def check_membership_equivalence(ctx: _Context) -> str:
    rng = ctx.rng(1)
    scale = 1 << 16
    points = 20_000
    checked = 0
    for n in (2, 3):
        for _ in range(6):
            mask = int(rng.integers(1 << (1 << n)))
            body = geometry.body_from_mask(n, mask)
            coords = rng.integers(-3 * scale // 2, 3 * scale // 2 + 1,
                                  size=(points, n)).astype(np.int64)
            member = geometry.membership_scaled_batch(body, coords, scale)
            missing = [i for i in range(1 << n) if not body.has_peak(i)]
            q_member = geometry.q_membership_scaled_batch(n, missing, coords, scale)
            mismatch = int(np.sum(member != q_member))
            _require(mismatch == 0,
                     f"membership vs facet test: {mismatch} disagreements "
                     f"on {body.text()}")
            checked += points
    return f"{checked} scaled rational points, region vs facet membership identical"


def check_convexity(ctx: _Context) -> str:
    rng = ctx.rng(2)
    scale = 1 << 16
    n = 3
    combos = 0
    for mask in (0x00, 0x2D, 0xFF):
        body = geometry.body_from_mask(n, mask)
        coords = rng.integers(-9 * scale // 8, 9 * scale // 8 + 1,
                              size=(60_000, n)).astype(np.int64)
        inside = coords[geometry.membership_scaled_batch(body, coords, scale)]
        half = len(inside) // 2
        _require(half >= 1000, "not enough interior hits to test convexity")
        a, b = inside[:half], inside[half:2 * half]
        lam = rng.integers(0, 1025, size=(half, 1)).astype(np.int64)
        mix = a * lam + b * (1024 - lam)      # scale becomes scale * 1024
        ok = geometry.membership_scaled_batch(body, mix, scale * 1024)
        _require(bool(np.all(ok)),
                 f"convex combination left {body.text()}")
        combos += half
    return f"{combos} exact rational convex combinations stayed inside"


def check_sampler_regions(ctx: _Context) -> str:
    rng = ctx.rng(3)
    n, samples = 3, 100_000
    for mask in (0x00, 0x0F, 0xFF):
        body = geometry.body_from_mask(n, mask)
        pts, labels = geometry.sample_inner_batch(body, samples, rng)
        misplaced = int(np.sum(geometry.classify_batch(n, pts) != labels))
        _require(misplaced == 0,
                 f"{misplaced} sampled points left their drawn region on {body.text()}")
    return f"3 bodies x {samples} samples, every point classified into its drawn region"


def check_sampler_symmetry(ctx: _Context) -> str:
    rng = ctx.rng(4)
    body = geometry.bare_body(3)
    pts, _ = geometry.sample_inner_batch(body, 100_000, rng)
    sigma = float(np.std(pts, axis=0).max()) / math.sqrt(len(pts))
    mean = np.abs(pts.mean(axis=0))
    _require(bool(np.all(mean < 5 * sigma)),
             f"core sampler sign-asymmetric: means {pts.mean(axis=0)}")
    return f"coordinate means |m| < 5 sigma on the bare body ({mean.max():.2e})"


# ---------------------------------------------------------------------------
# codes

def check_codes_greedy(ctx: _Context) -> str:
    for (q, length, dist), size in GREEDY_SIZES.items():
        code = codes.gv_greedy(q, length, dist)
        _require(code.size == size,
                 f"greedy ({q},{length},{dist}) size {code.size} != pinned {size}")
        _require(code.size >= codes.gv_floor(q, length, dist),
                 f"greedy ({q},{length},{dist}) under its size floor")
        again = codes.gv_greedy(q, length, dist)
        _require(np.array_equal(code.words, again.words),
                 f"greedy ({q},{length},{dist}) not deterministic")
        _require(codes.min_distance_exhaustive(code.words) == code.min_distance >= dist,
                 f"greedy ({q},{length},{dist}) distance not certified")
    even = tuple(w for w in itertools.product((0, 1), repeat=4)
                 if sum(w) % 2 == 0)
    _require(np.array_equal(codes.gv_greedy(2, 4, 2).words, even),
             "greedy (2,4,2) is not the even-weight words")
    return f"{len(GREEDY_SIZES)} greedy codes at pinned sizes, distances re-certified"


def check_codes_complement(ctx: _Context) -> str:
    for n in (3, 4):
        length = 1 << (n - 1)
        base = codes.gv_greedy(2, length, family_mod.inner_seed_distance(n))
        ext = codes.complement_extend(base)
        _require(ext.min_distance == 2 * codes.min_distance_exhaustive(base.words),
                 f"complement extension at n={n} did not double distance")
        _require(all(sum(w) == length for w in ext.words),
                 f"extension at n={n} not constant weight")
        _require(ext.size == base.size, f"extension at n={n} lost words")
    return "complement extension doubles distance and fixes weight at len/2"


# ---------------------------------------------------------------------------
# families

def check_family_volumes(ctx: _Context) -> str:
    vol = family_mod.certify_equal_volumes(ctx.family)
    vol32 = family_mod.certify_equal_volumes(ctx.fam32)
    return (f"all members share volume: {vol} at "
            f"({ctx.family.n},{ctx.family.k}), {vol32} at (3,2)")


def check_family_separation(ctx: _Context) -> str:
    out = []
    for fam in (ctx.fam32, ctx.family):
        key = (fam.n, fam.k)
        rep = family_mod.certify_separation(fam, seed=ctx.seed)
        if fam is ctx.fam32:  # the code bound against its oracle, the pair scan
            scan = family_mod.scan_separation(fam)
            _require(rep.method == "code-bound"
                     and dataclasses.replace(scan, method=rep.method) == rep,
                     f"code bound {rep} and pair scan {scan} disagree at {key}")
        if key in MIN_DISTANCES:
            _require(rep.min_distance == MIN_DISTANCES[key],
                     f"min distance at {key} is {rep.min_distance}, "
                     f"pinned {MIN_DISTANCES[key]}")
        if key in FAMILY_SIZES:
            _require(fam.size == FAMILY_SIZES[key],
                     f"family size at {key} drifted to {fam.size}")
        out.append(f"{key}: {rep.pairs_checked} pairs ({rep.mode}), "
                   f"min {rep.min_distance}")
    return "; ".join(out)


def check_family_cardinality(ctx: _Context) -> str:
    family_mod.certify_cardinality(ctx.family)
    family_mod.certify_cardinality(ctx.fam32)
    return (f"family size exceeds (q/4)^(k/2) at "
            f"({ctx.family.n},{ctx.family.k}) and (3,2)")


def check_manifest_roundtrip(ctx: _Context) -> str:
    text = family_mod.format_manifest(ctx.fam32)
    again = family_mod.parse_manifest(text)
    _require(family_mod.format_manifest(again) == text,
             "manifest did not round-trip byte-identically")
    _require(np.array_equal(again.inner.masks, ctx.fam32.inner.masks)
             and np.array_equal(again.outer.words, ctx.fam32.outer.words),
             "re-parsed manifest builds different bodies")
    return f"manifest of {ctx.fam32.size} bodies round-trips byte-identically"


# ---------------------------------------------------------------------------
# oracles

def _require_exact_label_law(bodies, u: np.ndarray) -> None:
    """Column j's label frequencies over the draws u equal bodies[j]'s
    region_expectations exactly."""
    labels = geometry.region_labels_of_draws(bodies, u)
    for body, column in zip(bodies, labels.T):
        values, expected = geometry.region_expectations(body)
        found, counts = np.unique(column, return_counts=True)
        law = {int(v): Fraction(int(c), len(column)) for v, c in zip(found, counts)}
        _require(law == dict(zip(values.tolist(), expected)),
                 f"label map law {law} off the region volumes of {body.text()}")


def check_oracle_branching(ctx: _Context) -> str:
    r = geometry.core_weight(3)
    bodies = tuple(geometry.body_from_mask(3, m) for m in (0xFF, 0x2D, 0x00))
    axes = [np.arange(r + b.peak_count) for b in bodies]
    for body, axis in zip(bodies, axes):
        _require_exact_label_law((body,), axis[:, None])
    # unequal peak counts: the offsets into the concatenated peak table; on the
    # full grid of draws each column sees each of its values equally often
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(bodies))
    _require_exact_label_law(bodies, grid)
    return (f"label map exact on every draw of 3 bodies ({', '.join(map(str, map(len, axes)))}"
            f" values) and of their {len(grid)}-row product grid")


def check_transcript_roundtrip(ctx: _Context) -> str:
    rng = ctx.rng(6)
    body = ctx.fam32.body(17)
    tr = oracles.Transcript(body.n)
    for _ in range(40):
        if rng.integers(2):
            tr.record_random(oracles.discrete_random(body, rng))
        else:
            indices = tuple(rng.integers(8, size=2).tolist())
            tr.record_membership(indices, oracles.discrete_membership(body, indices))
    log = tr.to_log()
    _require(oracles.parse_transcript_log(3, log).to_log() == log,
             "transcript log did not round-trip")
    return "40-entry transcript round-trips through its text log"


def check_simulation_match(ctx: _Context) -> str:
    # conditioned on its label a point is uniform on the label's region, and
    # both paths turn labels into points through geometry.region_points: from
    # one seed, simulating a factor's discrete draws reproduces the direct
    # sampler's points bit for bit
    body = ctx.fam32.body(200)
    count = 20_000
    direct = oracles.continuous_random_batch(body, count, ctx.rng(7))
    rng = ctx.rng(7)
    simulated = np.concatenate([
        oracles.simulate_batch(body.n, oracles.discrete_random_batch(
            family_mod.ProductBody((f,)), count, rng), rng)
        for f in body.factors], axis=1)
    _require(np.array_equal(direct, simulated),
             "simulated continuous points differ from direct sampling on one seed")
    return (f"discrete->continuous simulation reproduces direct sampling exactly "
            f"({count} points of {body.dimension} coords)")


# ---------------------------------------------------------------------------
# harness

def check_bounds_regressions(ctx: _Context) -> str:
    c1 = harness.choose_parameters(1024, Fraction(1, 8))
    c2 = harness.choose_parameters(1024, Fraction(1, 128))
    _require((c1.n, c1.k) == (64, 16), f"split(1024, 1/8) gave {(c1.n, c1.k)}")
    _require((c2.n, c2.k) == (256, 4), f"split(1024, 1/128) gave {(c2.n, c2.k)}")
    for (d, eps, delta), (value, regime) in QUERY_FLOORS.items():
        qb = harness.query_lower_bound(d, eps, delta)
        _require((qb.q_floor, qb.regime) == (value, regime),
                 f"query floor at d={d} drifted to {qb.q_floor} ({qb.regime})")
    _require(QUERY_FLOORS[(1024, Fraction(1, 8), Fraction(1, 2))][0] >= 1 << 50,
             "d=1024 query floor fell under 2^50")
    ratios = []
    for e in range(6, 15):
        qb = harness.query_lower_bound(1 << e, Fraction(1, 8))
        ratios.append(math.log2(qb.q_floor) / qb.asymptotic_log2)
    _require(all(0.25 <= r <= 4 for r in ratios),
             f"log2(q)/sqrt(d/L) left [1/4, 4]: {ratios}")
    q_all = harness.query_lower_bound(64, Fraction(1, 8), Fraction(0)).q_floor
    q_half = harness.query_lower_bound(64, Fraction(1, 8), Fraction(1, 2)).q_floor
    _require(q_all >= q_half, "query floor not monotone in delta")
    _require(harness.query_lower_bound(64, Fraction(1, 8), family_size=1).q_floor == 0,
             "singleton family needs no queries")
    return (f"splits pinned, query floors pinned, grid ratio in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}]")


def check_game_zero_budget(ctx: _Context) -> str:
    fam = ctx.fam32
    cfg = harness.GameConfig(family=fam, query_budget=0, epsilon=Fraction(1, 64),
                             trials=2000, seed=ctx.seed)
    stats = harness.run_game(cfg, harness.MLConsistencyLearner(policy="random"))
    p = 1.0 / fam.size
    sigma = math.sqrt(p * (1 - p) / cfg.trials)
    _require(abs(stats.success_rate - p) <= 5 * sigma,
             f"blind success rate {stats.success_rate} vs 1/F={p}")
    return f"q=0 success {stats.success_rate:.4f} within 5 sigma of 1/{fam.size}"


def check_game_census(ctx: _Context) -> str:
    cfg = harness.GameConfig(family=ctx.fam32, query_budget=32,
                             epsilon=Fraction(1, 64), trials=300, seed=ctx.seed)
    stats = harness.run_game(cfg, harness.MLConsistencyLearner(policy="census"))
    _require(stats.success_rate == 1.0,
             f"census learner failed {cfg.trials - stats.successes} trials")
    _require(stats.exact_identifications == stats.trials,
             "census successes were not identifications")
    return "membership census identifies the hidden body in 300/300 trials"


def check_game_monotone_and_bound(ctx: _Context) -> str:
    fam = ctx.fam32
    eps = Fraction(1, 64)
    learner = harness.MLConsistencyLearner(policy="random")
    rates = []
    for q in (0, 1, 5, 20):
        cfg = harness.GameConfig(family=fam, query_budget=q, epsilon=eps,
                                 trials=400, seed=ctx.seed + 1)
        stats = harness.run_game(cfg, learner)
        rates.append(stats.success_rate)
        bound = harness.success_upper_bound(fam.n, fam.k, q, fam.size, eps)
        sigma = math.sqrt(max(stats.success_rate * (1 - stats.success_rate),
                              1.0 / cfg.trials) / cfg.trials)
        _require(stats.success_rate <= float(bound) + 5 * sigma,
                 f"empirical success {stats.success_rate} beats the "
                 f"fan-out bound {float(bound):.4f} at q={q}")
    _require(all(a <= b for a, b in zip(rates, rates[1:])),
             f"success not monotone in q: {rates}")
    return f"success {rates} non-decreasing in q, all under the fan-out bound"


# ---------------------------------------------------------------------------
# halfspace

def check_halfspace_estimator(ctx: _Context) -> str:
    rng = ctx.rng(8)
    pts, _ = geometry.sample_inner_batch(geometry.bare_body(3), 30_000, rng)
    frac = float(np.mean(pts[:, 0] <= 0))
    sigma = 0.5 / math.sqrt(len(pts))
    _require(abs(frac - 0.5) <= 3 * sigma,
             f"axis CDF at 0 is {frac}, expected 1/2")
    a, b = ctx.fam32.body(3), ctx.fam32.body(250)
    self_est = halfspace.halfspace_discrepancy(a, a, dirs=16, samples=1500,
                                               rng=ctx.rng(9))
    _require(self_est.estimate == 0.0, "self-discrepancy not exactly zero")
    _require(self_est.estimate <= self_est.noise_floor,
             "zero fell above the noise floor")
    ab = halfspace.halfspace_discrepancy(a, b, dirs=16, samples=1500, rng=ctx.rng(9))
    ba = halfspace.halfspace_discrepancy(b, a, dirs=16, samples=1500, rng=ctx.rng(9))
    _require(ab.estimate == ba.estimate, "estimate not symmetric")
    _require(0.0 <= ab.estimate <= 1.0, "estimate left [0, 1]")
    return (f"axis CDF {frac:.4f}~1/2, self-test exactly 0, "
            f"symmetric estimate {ab.estimate:.3f}")


def check_halfspace_scan(ctx: _Context) -> str:
    rep = halfspace.corollary_explore(ctx.fam32, pairs=4, dirs=8, samples=1200,
                                      seed=ctx.seed)
    _require(rep.distance_floor_verified, "scan admitted a pair at the floor")
    _require(len(rep.rows) == 4, "scan row count off")
    return (f"4-pair scan: min exact distance {rep.min_exact_distance}, "
            f"flat={rep.flat_landscape}")


CHECKS = (
    ("geometry-identities", check_geometry_identities),
    ("membership-equivalence", check_membership_equivalence),
    ("convexity-closure", check_convexity),
    ("sampler-regions", check_sampler_regions),
    ("sampler-symmetry", check_sampler_symmetry),
    ("codes-greedy-floor", check_codes_greedy),
    ("codes-complement-extend", check_codes_complement),
    ("family-equal-volumes", check_family_volumes),
    ("family-separation", check_family_separation),
    ("family-cardinality", check_family_cardinality),
    ("manifest-roundtrip", check_manifest_roundtrip),
    ("oracle-branching", check_oracle_branching),
    ("transcript-roundtrip", check_transcript_roundtrip),
    ("simulation-match", check_simulation_match),
    ("bounds-regressions", check_bounds_regressions),
    ("game-zero-budget", check_game_zero_budget),
    ("game-census-exact", check_game_census),
    ("game-monotone-bound", check_game_monotone_and_bound),
    ("halfspace-estimator", check_halfspace_estimator),
    ("halfspace-scan", check_halfspace_scan),
)


def run_verification(fam: family_mod.ProductFamily | None = None,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check against fam (default: freshly built (3,4) family).
    Stops at the first failure; the failing result ends the list.  An
    exceeded budget is no failed check: BudgetExceededError propagates."""
    ctx = _Context(fam, seed)
    results: list[CheckResult] = []
    for name, fn in CHECKS:
        try:
            detail = fn(ctx)
        except BudgetExceededError:
            raise
        except (CrosspeaksError, AssertionError) as exc:
            results.append(CheckResult(name, False, f"{exc} (seed={seed})"))
            break
        results.append(CheckResult(name, True, detail))
    return results
