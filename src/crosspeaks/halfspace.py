"""Halfspace-projection discrepancy estimates between product bodies.

For a direction u, the sup over thresholds t of
|Pr_K[u.x <= t] - Pr_L[u.x <= t]| equals the largest volume disagreement
over halfspaces with normal u, so the two-sample Kolmogorov-Smirnov
statistic of projected uniform samples estimates it from below (sampling
error aside).  Maximizing over a finite probe set of directions therefore
lower-bounds the true halfspace distance; the probe set can only
under-report, never inflate.

Probe directions are the d coordinate axes, the k * 2^n per-factor orthant
diagonals (peaks live on those diagonals, so they are where the mass moves),
and a batch of random unit vectors.

All directions are scored by one kernel, `ks_statistics`, on the (D,
samples) projections of both bodies: one sort of each direction's merged
samples, a running count of b-samples that makes na*nb*|F_a - F_b| an exact
integer, and ties settled by reading that gap only at the last position of
each run of equal values.  The rows go through in blocks of about 2^15
merged samples (geometry's block size), so the working arrays stay in
cache; each block is argsorted and its values gathered back, and its min
refuses NaN samples.

The estimator keeps only the largest statistic and its first direction, so
a bound pass (`_gap_bounds`) runs first, in blocks of the same size.  It
counts each row's a- and b-samples in _BUCKETS value buckets, monotone in
the value, so equal values share a bucket; the integer gap at bucket ends
is a lower bound on the row's maximum gap, and the gap's reach inside each
bucket an upper bound.  A row whose upper bound is below the best lower
bound cannot hold the maximum, and only the rest go through
`ks_statistics`.  While na*nb < 2^48 a smaller integer maximum is always
a smaller float statistic, so the estimate and its direction are
byte-identical to scoring every row; at larger sample counts, and in a
block whose range or bucket scale is zero or not finite, nothing is
pruned.

Sample streams are keyed by (run seed, body description), not by argument
position: swapping the two bodies swaps identical streams, so the estimate
is exactly symmetric, and equal bodies give exactly zero.
"""

from __future__ import annotations

import csv
import hashlib
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import separation_holds
from .errors import ParameterError, VerificationError, require_addressable, require_int
from .family import ProductBody, ProductFamily, exact_distance
from .geometry import _BLOCK_ELEMENTS, orthant_signs
from .oracles import continuous_random_batch

MIN_SAMPLES = 1000
NOISE_FLOOR_P_FAIL = 1e-3  # chance two same-law samples exceed noise_floor
_BUCKETS = 512           # buckets a row's samples are counted in to bound its gap
_EXACT_GAPS = 1 << 48    # na*nb below which a smaller integer gap is a smaller float


def _samples(x, ndim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ParameterError(f"{what} must be {ndim}-D, got shape {x.shape}")
    if x.shape[-1] == 0:
        raise ParameterError(f"{what} needs non-empty samples")
    return x


def _row_pairs(a_rows, b_rows) -> tuple[np.ndarray, np.ndarray]:
    a_rows = _samples(a_rows, 2, "a_rows")
    b_rows = _samples(b_rows, 2, "b_rows")
    if len(a_rows) != len(b_rows):
        raise ParameterError(f"{len(a_rows)} rows of a against {len(b_rows)} of b")
    return a_rows, b_rows


def ks_statistics(a_rows, b_rows) -> np.ndarray:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)| of
    every row pair of (D, na) and (D, nb) samples, as D floats.

    Each merged row is argsorted once and its values gathered, giving each
    sorted position's side and whether the next value equals it; a NaN
    sample is a ParameterError.  With ca and cb the a- and b-samples at or
    below a position, cb*na - ca*nb is na*nb*(F_b - F_a) as an exact
    integer; only the last position of each run of equal values is a point
    of both CDFs.  The float |ca/na - cb/nb| is formed only where a row
    reaches its integer maximum, and the largest of those is returned.
    """
    a_rows, b_rows = _row_pairs(a_rows, b_rows)
    na, nb = a_rows.shape[1], b_rows.shape[1]
    width = na + nb
    rank_gap = np.arange(1, width + 1) * nb   # (ca + cb) * nb along a row
    out = np.empty(len(a_rows))
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, len(out), step):
        merged = np.concatenate((a_rows[start:start + step],
                                 b_rows[start:start + step]), axis=1)
        if np.isnan(merged.min()):   # min propagates NaN
            raise ParameterError("samples hold NaN")
        order = np.argsort(merged, axis=1)
        values = np.take_along_axis(merged, order, axis=1)
        tied = values[:, :-1] == values[:, 1:]
        count_b = np.cumsum(order >= na, axis=1)
        gap = count_b * width
        gap -= rank_gap
        np.abs(gap, out=gap)
        np.copyto(gap[:, :-1], -1, where=tied)
        peaks = gap == gap.max(axis=1, keepdims=True)
        rows, cols = np.divmod(np.flatnonzero(peaks), width)   # 2-D nonzero is slower
        cb = count_b[rows, cols]
        diffs = np.abs((cols + 1 - cb) / na - cb / nb)
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[start:start + step] = np.maximum.reduceat(diffs, firsts)
    return out


def _ks_argmax(a_rows, b_rows) -> tuple[int, float]:
    """(int(np.argmax(s)), float(s.max())) for s = ks_statistics(a_rows,
    b_rows), with s computed only on the rows that can hold the maximum.

    _gap_bounds brackets each row's integer gap max |cb*na - ca*nb|; a row
    whose upper bound is below the best lower bound has a strictly smaller
    integer maximum, and ks_statistics refines the rest.  Pruning is exact
    only while na*nb < 2^48: the float |ca/na - cb/nb| is off from gap /
    (na*nb) by at most about 3.3e-16, distinct gaps differ by at least
    1/(na*nb) > 2^-48, so a smaller integer maximum reads as a strictly
    smaller float and can be neither the maximum nor an earlier argmax.  At
    and above 2^48 every row is refined.
    """
    a_rows, b_rows = _row_pairs(a_rows, b_rows)
    na, nb = a_rows.shape[1], b_rows.shape[1]
    if na * nb < _EXACT_GAPS:
        lower, upper = _gap_bounds(a_rows, b_rows)
        live = np.flatnonzero(upper >= lower.max())
        if len(live) < len(a_rows):
            a_rows, b_rows = a_rows[live], b_rows[live]
    else:
        live = np.arange(len(a_rows))
    stats = ks_statistics(a_rows, b_rows)
    best = int(np.argmax(stats))    # the first of equal maxima
    return int(live[best]), float(stats[best])


def _gap_bounds(a_rows: np.ndarray, b_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on each row's integer gap max |cb*na - ca*nb|,
    from counts of its samples in _BUCKETS buckets.

    A block's samples go to buckets by the monotone trunc((x - lo) *
    ((B - 1) / span)), lo and span the block's min and range, so equal
    values share a bucket and a bucket's end is the end of a run.  The gap
    at bucket ends is therefore a gap ks_statistics reads (the lower bound);
    inside a bucket the signed gap moves +na per b-sample and -nb per
    a-sample from the last bucket's end, so it stays within end + ca*nb and
    end - cb*na (the upper bound).  A block whose span or scale is zero or
    not finite (equal values, an infinity, a NaN, a subnormal span) keeps
    the trivial bounds 0 and na*nb, so none of its rows is pruned and a NaN
    reaches ks_statistics' refusal.
    """
    rows, na = a_rows.shape
    nb = b_rows.shape[1]
    lower = np.zeros(rows, dtype=np.int64)
    upper = np.full(rows, na * nb, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (na + nb))
    for start in range(0, rows, step):
        a, b = a_rows[start:start + step], b_rows[start:start + step]
        lo = float(np.minimum(a.min(), b.min()))   # NaN propagates
        span = float(np.maximum(a.max(), b.max())) - lo
        if not 0.0 < span < math.inf:
            continue
        scale = (_BUCKETS - 1) / span
        if scale == math.inf:
            continue
        offsets = np.arange(0, len(a) * _BUCKETS, _BUCKETS)[:, None]
        count_a = _bucket_counts(a, lo, scale, offsets)
        count_b = _bucket_counts(b, lo, scale, offsets)
        count_a *= nb
        count_b *= na
        ends = np.cumsum(count_b, axis=1)
        ends -= np.cumsum(count_a, axis=1)
        lower[start:start + step] = np.abs(ends).max(axis=1)
        upper[start:start + step] = np.maximum(ends + count_a, count_b - ends).max(axis=1)
    return lower, upper


def _bucket_counts(x: np.ndarray, lo: float, scale: float,
                   offsets: np.ndarray) -> np.ndarray:
    """(rows, _BUCKETS) counts of each row's samples per bucket."""
    ids = ((x - lo) * scale).astype(np.intp)
    ids += offsets
    return np.bincount(ids.ravel(), minlength=offsets.size * _BUCKETS).reshape(-1, _BUCKETS)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|."""
    a = _samples(a, 1, "a")
    b = _samples(b, 1, "b")
    return float(ks_statistics(a[None], b[None])[0])


def noise_floor(samples: int, directions: int) -> float:
    """Threshold the max-over-directions KS statistic of two same-law
    samples exceeds with probability <= NOISE_FLOOR_P_FAIL (DKW plus a union
    bound over both samples and all directions)."""
    samples = require_int(samples, "samples", 1)
    directions = require_int(directions, "directions", 1)
    return math.sqrt(2.0 * math.log(4.0 * directions / NOISE_FLOOR_P_FAIL) / samples)


def direction_set(n: int, k: int, random_count: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """(D, n*k) matrix of unit probe directions and their labels: all d
    axes, all k * 2^n per-factor orthant diagonals, then random_count
    uniform unit vectors.  n >= 2, as for every inner body, and k >= 1."""
    n, k = require_int(n, "n", 2), require_int(k, "k", 1)
    random_count = require_int(random_count, "random_count", 0)
    d, orthants = n * k, 1 << n
    structured = d + k * orthants
    require_addressable(structured + random_count, d, "probe directions")
    matrix = np.zeros((structured + random_count, d))
    matrix[:d] = np.eye(d)
    diagonals = orthant_signs(n) * (1.0 / math.sqrt(n))
    for j in range(k):
        matrix[d + j * orthants:d + (j + 1) * orthants, j * n:(j + 1) * n] = diagonals
    gauss = rng.standard_normal((random_count, d))
    matrix[structured:] = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    kinds = ([f"axis:{i}" for i in range(d)]
             + [f"orthant:{j}:{index:x}" for j in range(k) for index in range(orthants)]
             + [f"random:{t}" for t in range(random_count)])
    return matrix, kinds


def _body_stream(seed_words: tuple[int, ...], body: ProductBody) -> np.random.Generator:
    digest = hashlib.sha256(body.text().encode("ascii")).digest()
    hash_words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([*seed_words, *hash_words]))


@dataclass(frozen=True)
class DiscrepancyEstimate:
    estimate: float
    direction: tuple[float, ...]
    direction_kind: str
    noise_floor: float
    directions: int
    samples: int


def halfspace_discrepancy(a: ProductBody, b: ProductBody, dirs: int,
                          samples: int, rng) -> DiscrepancyEstimate:
    """Max two-sample KS statistic of u.x over the probe direction set.

    The maximum and its first direction come from _ks_argmax: bucket-count
    bounds prune the directions that cannot reach the maximum, and
    ks_statistics scores the rest.  The result is byte-identical to taking
    np.argmax of ks_statistics over every direction, because below 2^48
    sample pairs a direction with a smaller integer gap has a strictly
    smaller float statistic.

    Requires equal volumes (otherwise a constant-offset indicator term, not
    a projection effect, dominates) and samples >= 1000 per body.  rng may
    be a numpy Generator or a seed, a non-negative integer.
    """
    if a.dimension != b.dimension or a.n != b.n:
        raise ParameterError("bodies live in different spaces")
    if a.volume() != b.volume():
        raise ParameterError("halfspace comparison expects equal-volume bodies")
    dirs = require_int(dirs, "random directions", 1)
    samples = require_int(samples, "samples per body", MIN_SAMPLES)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(require_int(rng, "seed", 0))
    # one shared base seed; everything below is keyed off it so that the
    # result depends on (base, {a, b}) as a set, not on argument order
    base = tuple(int(w) for w in rng.integers(1 << 32, size=4))
    dir_rng = np.random.default_rng(np.random.SeedSequence([*base, 0xD1385]))
    matrix, kinds = direction_set(a.n, a.k, dirs, dir_rng)
    points_a = continuous_random_batch(a, samples, _body_stream(base, a))
    points_b = continuous_random_batch(b, samples, _body_stream(base, b))
    best_col, estimate = _ks_argmax(matrix @ points_a.T, matrix @ points_b.T)
    return DiscrepancyEstimate(
        estimate=estimate,
        direction=tuple(float(x) for x in matrix[best_col]),
        direction_kind=kinds[best_col],
        noise_floor=noise_floor(samples, matrix.shape[0]),
        directions=matrix.shape[0],
        samples=samples,
    )


# ---------------------------------------------------------------------------
# pair scan

COROLLARY_CSV_COLUMNS = ("i", "j", "exact_dist", "ks_estimate", "dirs", "samples")


@dataclass(frozen=True)
class CorollaryReport:
    """Exact distances vs estimated halfspace discrepancies over a pair scan.

    distance_floor_verified: every scanned pair's exact distance exceeds the
        family floor 1 - e^(-k/(16n)) (decided exactly).
    corollary_regime: min scanned exact distance > 1/8, the regime where
        far-apart-but-halfspace-close is the headline contrast; at small
        (n, k) the floor sits below 1/8 and this flag records it honestly.
    flat_landscape: max and min KS estimates within 3/sqrt(samples) of each
        other, i.e. the probe cannot statistically rank the scanned pairs.
    """
    n: int
    k: int
    directions: int
    samples: int
    rows: tuple[tuple[int, int, Fraction, float], ...]
    min_pair: tuple[int, int]
    max_pair: tuple[int, int]
    min_exact_distance: Fraction
    distance_floor_verified: bool
    corollary_regime: bool
    flat_landscape: bool
    noise_floor: float

    def csv_rows(self):
        for i, j, dist, est in self.rows:
            yield {"i": i, "j": j, "exact_dist": repr(float(dist)),
                   "ks_estimate": repr(est), "dirs": self.directions,
                   "samples": self.samples}


def _index_pair(pair, size: int) -> tuple[int, int]:
    try:
        i, j = pair
    except (TypeError, ValueError):
        raise ParameterError(f"a pair is two indices, not {pair!r}") from None
    return require_int(i, "pair index", 0, size), require_int(j, "pair index", 0, size)


def _pair_list(family: ProductFamily, pairs, rng: np.random.Generator):
    size = family.size
    total = size * (size - 1) // 2
    try:
        count = operator.index(pairs)    # any integral count, numpy's too
    except TypeError:
        count = None
    if count is None:
        try:
            pairs = list(pairs)
        except TypeError:
            raise ParameterError(
                f"pairs must be a count or index pairs, not {pairs!r}") from None
        out = [_index_pair(pair, size) for pair in pairs]
        for i, j in out:
            if i == j:
                raise ParameterError(f"bad pair ({i}, {j}) for family of {size}")
    elif count >= total:
        out = [(i, j) for i in range(size) for j in range(i + 1, size)]
    else:
        seen: set[tuple[int, int]] = set()
        while len(seen) < count:
            i, j = (int(x) for x in rng.integers(size, size=2))
            if i == j:
                continue
            seen.add((min(i, j), max(i, j)))
        out = sorted(seen)
    if not out:
        raise ParameterError("need at least one pair to scan")
    return out


def corollary_explore(family: ProductFamily, pairs, dirs: int, samples: int,
                      seed: int, csv_path=None) -> CorollaryReport:
    """Scan family pairs, compare exact distance to the halfspace-probe
    estimate, optionally emit CSV.  pairs is a count (sampled without
    replacement; all pairs when the count covers them) or an explicit list.

    The estimator maximizes over finitely many directions, so its column is
    a lower bound on true halfspace distance; the exact_dist column is exact.
    """
    seed = require_int(seed, "seed", 0)
    master = np.random.SeedSequence(seed)
    pair_rng = np.random.default_rng(master.spawn(1)[0])
    scan = _pair_list(family, pairs, pair_rng)
    rows = []
    min_est = (math.inf, None)
    max_est = (-math.inf, None)
    min_dist = Fraction(1)
    for i, j in scan:
        body_i, body_j = family.body(i), family.body(j)
        dist = exact_distance(body_i, body_j)
        min_dist = min(min_dist, dist)
        pair_seed = np.random.SeedSequence([seed, 0xC0207, i, j])
        est = halfspace_discrepancy(body_i, body_j, dirs, samples,
                                    np.random.default_rng(pair_seed))
        rows.append((i, j, dist, est.estimate))
        if est.estimate < min_est[0]:
            min_est = (est.estimate, (i, j))
        if est.estimate > max_est[0]:
            max_est = (est.estimate, (i, j))
    # min_dist is rational and the floor irrational, so they never tie
    if separation_holds(family.n, family.k, min_dist / 2):
        raise VerificationError(
            f"pair scan found distance {min_dist} at or under the family floor")
    report = CorollaryReport(
        n=family.n, k=family.k,
        directions=est.directions, samples=samples,
        rows=tuple(rows),
        min_pair=min_est[1], max_pair=max_est[1],
        min_exact_distance=min_dist,
        distance_floor_verified=True,
        corollary_regime=min_dist > Fraction(1, 8),
        flat_landscape=(max_est[0] - min_est[0]) < 3.0 / math.sqrt(samples),
        noise_floor=est.noise_floor,
    )
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COROLLARY_CSV_COLUMNS,
                                    lineterminator="\n")
            writer.writeheader()
            for row in report.csv_rows():
                writer.writerow(row)
    return report
