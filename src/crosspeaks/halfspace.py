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
samples) projections of both bodies: one argsort of each direction's merged
samples, a running count of a-samples that makes na*nb*|F_a - F_b| an exact
integer, and ties settled by reading that gap only at the last position of
each run of equal values.  The rows go through in blocks of about 2^15
merged samples, so the working arrays stay in cache.

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
from .geometry import orthant_signs
from .oracles import continuous_random_batch

MIN_SAMPLES = 1000
NOISE_FLOOR_P_FAIL = 1e-3  # chance two same-law samples exceed noise_floor


# merged samples per block of rows: the kernel's working arrays stay in cache
_BLOCK_ELEMENTS = 1 << 15


def _samples(x, ndim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ParameterError(f"{what} must be {ndim}-D, got shape {x.shape}")
    if x.shape[-1] == 0:
        raise ParameterError(f"{what} needs non-empty samples")
    if np.isnan(x).any():
        raise ParameterError(f"{what} holds NaN samples")
    return x


def ks_statistics(a_rows, b_rows) -> np.ndarray:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)| of
    every row pair of (D, na) and (D, nb) samples, as D floats.

    Each merged row is argsorted once.  With ca and cb the a- and b-samples
    at or below a position, ca*nb - cb*na is na*nb*(F_a - F_b) as an exact
    integer; only the last position of each run of equal values is a point
    of both CDFs.  The float |ca/na - cb/nb| is formed only where a row
    reaches its integer maximum, and the largest of those is returned.
    """
    a_rows = _samples(a_rows, 2, "a_rows")
    b_rows = _samples(b_rows, 2, "b_rows")
    if len(a_rows) != len(b_rows):
        raise ParameterError(f"{len(a_rows)} rows of a against {len(b_rows)} of b")
    na, nb = a_rows.shape[1], b_rows.shape[1]
    width = na + nb
    rank_gap = np.arange(1, width + 1) * na   # (ca + cb) * na along a row
    out = np.empty(len(a_rows))
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, len(out), step):
        merged = np.concatenate((a_rows[start:start + step],
                                 b_rows[start:start + step]), axis=1)
        order = np.argsort(merged, axis=1)
        values = np.take_along_axis(merged, order, axis=1)
        count_a = np.cumsum(order < na, axis=1)
        gap = count_a * width
        gap -= rank_gap
        np.abs(gap, out=gap)
        np.copyto(gap[:, :-1], -1, where=values[:, :-1] == values[:, 1:])
        rows, cols = np.nonzero(gap == gap.max(axis=1, keepdims=True))
        ca = count_a[rows, cols]
        diffs = np.abs(ca / na - (cols + 1 - ca) / nb)
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[start:start + step] = np.maximum.reduceat(diffs, firsts)
    return out


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
    uniform unit vectors."""
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
    stats = ks_statistics(matrix @ points_a.T, matrix @ points_b.T)
    best_col = int(np.argmax(stats))    # the first of equal maxima
    return DiscrepancyEstimate(
        estimate=float(stats[best_col]),
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
