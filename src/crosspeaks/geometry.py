"""Geometry of the n-dimensional cross-polytope with peaks.

The base solid is the L1 unit ball O_n = {x : sum |x_i| <= 1}, of volume
2^n / n!.  Each of its 2^n facets F_s (one per sign pattern s in {-1,+1}^n,
with vertices {s_i e_i}) can carry a "peak": the pyramid over F_s with apex
alpha * centroid(F_s) = s / (n-1), where alpha = n / (n-1) is the largest
apex scale that keeps the union of the core and any set of peaks convex.
Each peak has volume exactly vol(O_n) / (2^n (n-1)), so all the peaks
together add vol(O_n) / (n-1).

A body is the core plus any subset of the 2^n peaks.  Orthants are encoded
as n-bit integers: bit i of the index is 1 iff s_i = +1.  Region labels
are plain integers on every path, scalar and batch: a value below 2^n is
the orthant index of a peak, 2^n is the core and 2^n + 1 is outside;
label_text gives the 'C' / 'P<hex>' / 'O' transcript form and parse_label
reads it back.

Construction constants are exact rationals.  The scalar predicates
(classify_point, membership_inner, membership_q_oracle) pass Fraction
inputs through untouched, so membership on rational points is exact; the
batch variants work either on float arrays or on integer-scaled points
(x = X / scale), where every comparison is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import ParameterError, require_addressable, require_int

# membership_q_oracle enumerates n * 2^(n-1) halfspaces; cap the blowup.
MAX_Q_ORACLE_DIM = 12


# ---------------------------------------------------------------------------
# orthant encoding

def index_to_signs(n: int, index: int) -> tuple[int, ...]:
    """Decode an orthant index back to its {-1,+1} sign vector."""
    index = require_int(index, "orthant index", 0, 1 << n)
    return tuple(1 if (index >> i) & 1 else -1 for i in range(n))


# integer region labels, used by every path: values < 2^n are peak orthant
# indices, 2^n is the core, 2^n + 1 is outside.
def core_label_value(n: int) -> int:
    return 1 << n


def outside_label_value(n: int) -> int:
    return (1 << n) + 1


def label_text(n: int, value: int) -> str:
    """Transcript form of a label: 'C', 'P<orthant index in hex>', or 'O'.
    A non-integer value, or one outside [0, 2^n + 1], is a ParameterError."""
    value = require_int(value, "label", 0, outside_label_value(n) + 1)
    if value == core_label_value(n):
        return "C"
    if value == outside_label_value(n):
        return "O"
    return "P" + format(value, "x")


def parse_label(n: int, text: str) -> int:
    """Inverse of label_text: 'C', 'O' or 'P<hex orthant index below 2^n>',
    spelled as label_text writes it."""
    if text == "C":
        return core_label_value(n)
    if text == "O":
        return outside_label_value(n)
    if text.startswith("P"):
        try:
            index = int(text[1:], 16)
        except ValueError:
            index = -1
        if 0 <= index < core_label_value(n) and text == label_text(n, index):
            return index
    raise ParameterError(f"bad region label {text!r} for n={n}")


# ---------------------------------------------------------------------------
# exact construction constants

@dataclass(frozen=True)
class GeometryParams:
    """Exact construction constants for dimension n.

    alpha        apex scale n/(n-1)
    core_volume  vol(O_n) = 2^n/n!
    peak_volume  vol of one peak = core_volume / (2^n (n-1))
    """

    n: int
    alpha: Fraction
    core_volume: Fraction
    peak_volume: Fraction


def make_geometry(n: int) -> GeometryParams:
    n = require_int(n, "n", 2)   # alpha = n/(n-1) degenerates at n = 1
    core = Fraction(2 ** n, factorial(n))
    return GeometryParams(
        n=n,
        alpha=Fraction(n, n - 1),
        core_volume=core,
        peak_volume=core / (2 ** n * (n - 1)),
    )


def peak_vertices(n: int, index: int) -> list[list[Fraction]]:
    """The n+1 vertices of the peak simplex in orthant `index`: the facet
    vertices s_i e_i plus the apex s/(n-1)."""
    n = require_int(n, "n", 2)   # the apex s/(n-1) needs n >= 2
    s = index_to_signs(n, index)
    verts = []
    for i in range(n):
        v = [Fraction(0)] * n
        v[i] = Fraction(s[i])
        verts.append(v)
    verts.append([Fraction(s[i], n - 1) for i in range(n)])
    return verts


# ---------------------------------------------------------------------------
# bodies

@dataclass(frozen=True)
class InnerBody:
    """The cross-polytope O_n plus the peaks named by a 2^n-bit mask: bit i
    is set iff orthant i carries a peak."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_int(self.n, "n", 2))
        object.__setattr__(self, "mask", require_int(self.mask, "peak mask"))
        if self.mask < 0 or self.mask.bit_length() > 1 << self.n:
            raise ParameterError(f"peak mask {self.mask:#x} out of range for n={self.n}")

    @property
    def peak_count(self) -> int:
        return self.mask.bit_count()

    @functools.cached_property
    def peaks(self) -> np.ndarray:
        """The peak orthants in increasing order, built once and read-only."""
        peaks = np.array([i for i in range(1 << self.n) if self.mask >> i & 1], dtype=np.int64)
        peaks.flags.writeable = False
        return peaks

    @functools.cached_property
    def draws(self) -> np.ndarray:
        """The region label of each integer draw u in [0, R + w), for R =
        core_weight(n) and w the peak count: u < R is the core and R + i
        the i-th peak.  Every game trial draws from this read-only table,
        built once and in one allocation: concatenating a temporary core
        block with the peaks fragmented glibc's heap and raised the peak
        RSS of a 200 000-point n = 10 draw from 118 to 130 MB."""
        draws = np.full(core_weight(self.n) + self.peak_count, core_label_value(self.n))
        draws[core_weight(self.n):] = self.peaks
        draws.flags.writeable = False
        return draws

    def has_peak(self, orthant_index: int) -> bool:
        return orthant_index >= 0 and bool(self.mask >> orthant_index & 1)

    def text(self) -> str:
        """Serialized form: n=<int>;peaks=<hex of 2^n bits, orthant 0 = LSB>."""
        width = max(1, (1 << self.n) // 4)
        return f"n={self.n};peaks={self.mask:0{width}x}"


def bare_body(n: int) -> InnerBody:
    return InnerBody(n, 0)


def full_body(n: int) -> InnerBody:
    return InnerBody(n, (1 << (1 << n)) - 1)


def inner_volume(body: InnerBody) -> Fraction:
    g = make_geometry(body.n)
    return g.core_volume + body.peak_count * g.peak_volume


# ---------------------------------------------------------------------------
# classification and membership (scalar, exact on rational inputs)

def classify_point(n: int, x) -> int:
    """Integer region label of a point against the fully-peaked body in
    dimension n.

    With t_i = |x_i| and T = sum t_i: the core is T <= 1; the peak in x's
    orthant is 1 < T <= 1 + min_i t_i; everything else is outside.  Ties go
    to the region (all regions closed).  A zero coordinate with T > 1 forces
    "outside" since then min_i t_i = 0.
    """
    x = list(x)
    if len(x) != n:
        raise ParameterError(f"point has dimension {len(x)}, expected {n}")
    t = [abs(v) for v in x]
    total = sum(t)
    if total <= 1:
        return core_label_value(n)
    if total <= 1 + min(t):
        return sum(1 << i for i, v in enumerate(x) if v > 0)
    return outside_label_value(n)


def membership_inner(body: InnerBody, x) -> bool:
    """Exact membership for a cross-polytope-with-peaks body."""
    label = classify_point(body.n, x)
    return label == core_label_value(body.n) or body.has_peak(label)


@functools.lru_cache(maxsize=32)
def q_halfspace_normals(n: int) -> np.ndarray:
    """The n * 2^(n-1) normals a in {-1,0,1}^n with exactly one zero entry.

    The fully-peaked body equals the intersection of the halfspaces
    a . x <= 1 over these normals; removing a peak s adds s . x <= 1.
    Cached and shared by every caller, so read-only.
    """
    rows = []
    for zero_pos in range(n):
        for signs in itertools.product((-1, 1), repeat=n - 1):
            a = list(signs[:zero_pos]) + [0] + list(signs[zero_pos:])
            rows.append(a)
    normals = np.array(rows, dtype=np.int8)
    normals.flags.writeable = False
    return normals


def membership_q_oracle(n: int, missing, x) -> bool:
    """Membership decided purely by halfspaces, an independent route from
    classify_point.  `missing` lists the orthant indices whose peaks the body
    does NOT have.
    """
    n = require_int(n, "n")
    if n > MAX_Q_ORACLE_DIM:
        raise ParameterError(f"halfspace oracle capped at n <= {MAX_Q_ORACLE_DIM}")
    x = list(x)
    if len(x) != n:
        raise ParameterError(f"point has dimension {len(x)}, expected {n}")
    for a in q_halfspace_normals(n):
        acc = 0
        for i in range(n):
            ai = int(a[i])
            if ai:
                acc = acc + x[i] if ai > 0 else acc - x[i]
        if acc > 1:
            return False
    for index in missing:
        signs = index_to_signs(n, index)
        acc = 0
        for i in range(n):
            acc = acc + x[i] if signs[i] > 0 else acc - x[i]
        if acc > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# batch classification (float and integer-scaled exact paths)

def _orthant_indices(points: np.ndarray) -> np.ndarray:
    n = points.shape[1]
    weights = (1 << np.arange(n, dtype=np.int64))
    return ((points > 0).astype(np.int64) * weights).sum(axis=1)


def _classify_rows(n: int, points: np.ndarray, one) -> np.ndarray:
    """classify_point over the rows of `points`, with `one` the unit (1.0 for
    float points, the scale for integer-scaled points)."""
    n = require_int(n, "n")
    if points.ndim != 2 or points.shape[1] != n:
        raise ParameterError("points must be a (count, n) array")
    if n >= 63:
        raise ParameterError(f"labels up to 2^n + 1 must fit int64: n={n} is over 62")
    t = np.abs(points)
    total = t.sum(axis=1)
    in_core = total <= one
    in_peak = ~in_core & (total <= one + t.min(axis=1))
    labels = np.full(len(points), outside_label_value(n), dtype=np.int64)
    labels[in_core] = core_label_value(n)
    labels[in_peak] = _orthant_indices(points)[in_peak]
    return labels


def classify_batch(n: int, points: np.ndarray) -> np.ndarray:
    """Vector classify_point over float points; returns integer labels
    (< 2^n peak index, 2^n core, 2^n + 1 outside)."""
    return _classify_rows(n, np.asarray(points, dtype=np.float64), 1.0)


def _scaled_points(n: int, ipoints, scale: int) -> np.ndarray:
    """X as an int64 array, refused unless X is integer, 1 <= scale <= B and
    every |X| <= B for B = (2^63 - 1) // (n + 1): then every sum the scaled
    kernels form (n terms, or the scale plus one term) fits int64."""
    bound = (2**63 - 1) // (n + 1)
    points = np.asarray(ipoints)
    if points.dtype.kind not in "iu" or not 1 <= scale <= bound or (
            points.size and not -bound <= points.min() <= points.max() <= bound):
        raise ParameterError(
            f"scaled points need integer |X| <= {bound} and 1 <= scale <= {bound} for n={n}")
    return points.astype(np.int64, copy=False)


def classify_scaled_batch(n: int, ipoints: np.ndarray, scale: int) -> np.ndarray:
    """Exact vector classification of rational points X / scale given as an
    int64 array X.  All comparisons are integer, so boundary ties are exact."""
    return _classify_rows(n, _scaled_points(n, ipoints, scale), scale)


def _membership_from_labels(body: InnerBody, labels: np.ndarray) -> np.ndarray:
    return (labels == core_label_value(body.n)) | np.isin(labels, body.peaks)


def membership_scaled_batch(body: InnerBody, ipoints: np.ndarray, scale: int) -> np.ndarray:
    return _membership_from_labels(body, classify_scaled_batch(body.n, ipoints, scale))


def q_membership_scaled_batch(n: int, missing, ipoints: np.ndarray, scale: int) -> np.ndarray:
    """Exact vectorized halfspace-oracle membership on integer-scaled points."""
    n = require_int(n, "n")
    if n > MAX_Q_ORACLE_DIM:
        raise ParameterError(f"halfspace oracle capped at n <= {MAX_Q_ORACLE_DIM}")
    ipoints = _scaled_points(n, ipoints, scale)
    normals = q_halfspace_normals(n).astype(np.int64)
    member = (ipoints @ normals.T <= scale).all(axis=1)
    rows = [index_to_signs(n, index) for index in missing]
    if rows:
        member &= (ipoints @ np.array(rows, dtype=np.int64).T <= scale).all(axis=1)
    return member


# ---------------------------------------------------------------------------
# sampling

def core_weight(n: int) -> int:
    """R = core_volume / peak_volume = 2^n (n-1), an integer: region selection
    and exact distances weigh the core as R and each peak as 1."""
    return (1 << n) * (n - 1)


def sample_region_label_rows(bodies, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, len(bodies)) region labels, column j drawn for bodies[j] with
    probabilities exactly proportional to region volumes, via integer
    weights (core -> 2^n (n-1), each present peak -> 1).

    One rng.integers call fills the matrix row by row, so the generator is
    consumed exactly as by count x len(bodies) single draws taken row by
    row, body by body.  The bound is a scalar when every body has the same
    peak count (numpy's per-element bounds path is several times slower)."""
    bodies = tuple(bodies)
    if len({b.n for b in bodies}) != 1:
        raise ParameterError("need one or more bodies, all of one dimension")
    count = require_addressable(count, len(bodies), "region labels")
    high = [len(b.draws) for b in bodies]
    if high.count(high[0]) == len(high):
        high = high[0]
    return region_labels_of_draws(bodies, rng.integers(0, high, size=(count, len(bodies))))


def region_labels_of_draws(bodies, u: np.ndarray) -> np.ndarray:
    """sample_region_label_rows' labels of its draws u, each u[:, j] in
    [0, R + w_j) for R = core_weight(n) and w_j the peak count of bodies[j]:
    column j reads bodies[j].draws, laid end to end with the other tables
    so that one take maps every column."""
    tables = [b.draws for b in bodies]
    if len(tables) > 1:  # one table needs no offsets, and adding 0 costs a u-sized temporary
        u = u + np.fromiter(itertools.accumulate(map(len, tables[:-1]), initial=0), np.int64)
    return np.concatenate(tables).take(u)


def sample_region_labels(body: InnerBody, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` region labels of one body: the one-column case of
    sample_region_label_rows.  Returns integer labels."""
    return sample_region_label_rows((body,), count, rng)[:, 0]


def region_expectations(body: InnerBody) -> tuple[np.ndarray, list[Fraction]]:
    """Region label values and their exact probabilities under the uniform
    law on the body: the core plus every present peak."""
    g = make_geometry(body.n)
    vol = inner_volume(body)
    peaks = body.peaks
    values = np.concatenate(([core_label_value(body.n)], peaks))
    return values, [g.core_volume / vol] + [g.peak_volume / vol] * len(peaks)


def _simplex_weights(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n+1) rows of uniform barycentric weights: n+1 unit-rate
    exponentials, normalized."""
    e = rng.standard_exponential((count, n + 1))
    return e / e.sum(axis=1, keepdims=True)


def _core_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of O_n: a uniform point of the standard simplex (the
    first n normalized exponentials) with independent uniform signs."""
    w = _simplex_weights(count, n, rng)
    signs = rng.integers(0, 2, size=(count, n)) * 2 - 1
    return w[:, :n] * signs


@functools.lru_cache(maxsize=16)
def orthant_signs(n: int) -> np.ndarray:
    """(2^n, n) int8 table whose row i is index_to_signs(n, i); cached and
    shared by every caller, so read-only."""
    signs = (2 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1) - 1).astype(np.int8)
    signs.flags.writeable = False
    return signs


def region_points(n: int, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of the labeled regions: (count,) integer labels ->
    (count, n) float64 points.  Core rows are drawn first, then the peak rows
    in orthant order (row order within an orthant).  A peak point has
    uniform barycentric weights over the n facet vertices s_i e_i and the
    apex s/(n-1) of its orthant s.  Non-empty labels of a non-integer dtype,
    bool included, are a ParameterError."""
    labels = np.asarray(labels)
    core = core_label_value(n)
    if labels.ndim != 1 or len(labels) and (
            labels.dtype.kind not in "iu" or not 0 <= labels.min() <= labels.max() <= core):
        raise ParameterError("labels must be a (count,) integer array of peak orthant "
                             "indices or the core")
    points = np.empty((len(labels), n), dtype=np.float64)
    core_rows = labels == core
    n_core = int(core_rows.sum())
    if n_core:
        points[core_rows] = _core_points(n, n_core, rng)
    peak_rows = np.flatnonzero(~core_rows)
    if len(peak_rows):
        # narrowest dtype: a stable sort of 8- or 16-bit keys is a radix sort
        keys = labels[peak_rows].astype(np.min_scalar_type(core))
        rows = peak_rows[np.argsort(keys, kind="stable")]
        w = _simplex_weights(len(rows), n, rng)
        signs = orthant_signs(n).take(labels[rows], axis=0)
        points[rows] = signs * (w[:, :n] + w[:, n:] / (n - 1))
    return points


def sample_inner_batch(body: InnerBody, count: int, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` uniform points of the body.  Returns (points, labels):
    points is (count, n) float64, labels the integer region labels."""
    labels = sample_region_labels(body, count, rng)
    return region_points(body.n, labels, rng), labels
