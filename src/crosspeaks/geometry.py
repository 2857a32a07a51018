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

Every batch kernel (region_points and the samplers built on it, the
classifier behind classify_batch, classify_scaled_batch and
membership_scaled_batch, and q_membership_scaled_batch) walks its rows in
blocks of _BLOCK_ELEMENTS values, 256 KB of float64 or int64.  A batch
therefore holds its output, a few count-long label or row-index vectors
and one block's temporaries, which stay in cache: 200 000 points of
full_body(10) peak at 20 MB under tracemalloc for a 16 MB output, and
classifying them adds 2 MB.  The block size changes no output bit and no
draw.
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

# values per block of a batch kernel's rows (256 KB of float64 or int64):
# each kernel's working set is its output plus one block, which stays in cache
_BLOCK_ELEMENTS = 1 << 15


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
        """The peak orthants in increasing order, built once and read-only
        from the set bits of the mask's little-endian bytes, in O(2^n) time
        (a shift of the whole mask per orthant would take O(4^n))."""
        size = max(1, (1 << self.n) // 8)
        bits = np.unpackbits(np.frombuffer(self.mask.to_bytes(size, "little"), dtype=np.uint8),
                             bitorder="little")
        peaks = np.flatnonzero(bits).astype(np.int64, copy=False)
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
    n = require_int(n, "n", 1)
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
    float points, the scale for integer-scaled points), one block of rows at
    a time."""
    n = require_int(n, "n", 1)
    if points.ndim != 2 or points.shape[1] != n:
        raise ParameterError("points must be a (count, n) array")
    if n >= 63:
        raise ParameterError(f"labels up to 2^n + 1 must fit int64: n={n} is over 62")
    labels = np.empty(len(points), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // n)
    # |x| goes into one C-ordered buffer, so each row sums alike in any
    # block and from any input layout
    buffer = np.empty((min(step, len(points)), n), dtype=points.dtype)
    for start in range(0, len(points), step):
        block = points[start:start + step]
        t = np.abs(block, out=buffer[:len(block)])
        total = t.sum(axis=1)   # its association order decides float ties
        # min_i t_i as a running minimum over the n columns, about twice as
        # fast as a reduction along the short row axis; np.minimum rounds
        # nothing and propagates NaN
        least = t[:, 0].copy()
        for i in range(1, n):
            np.minimum(least, t[:, i], out=least)
        least += one
        in_core = total <= one
        in_peak = total <= least
        in_peak &= ~in_core
        out = labels[start:start + step]
        out.fill(outside_label_value(n))
        out[in_core] = core_label_value(n)
        out[in_peak] = _orthant_indices(block[in_peak])   # only peak rows need one
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
    """Exact vectorized halfspace-oracle membership on integer-scaled points:
    every a . X <= scale over the q_halfspace_normals and the signs of each
    missing peak, one block of rows (and its (rows, halfspaces) products) at
    a time.  The normals lie in {-1, 0, 1}, so every partial sum of a . X is
    an integer of size at most n max|X|: below 2^53, with scale below 2^53
    too, a float64 matmul forms and compares them exactly (and runs several
    times faster than numpy's int64 one); past that the products are int64."""
    n = require_int(n, "n")
    if n > MAX_Q_ORACLE_DIM:
        raise ParameterError(f"halfspace oracle capped at n <= {MAX_Q_ORACLE_DIM}")
    ipoints = _scaled_points(n, ipoints, scale)
    rows = [index_to_signs(n, index) for index in missing]
    reach = max(-int(ipoints.min()), int(ipoints.max())) if ipoints.size else 0
    dtype = np.float64 if n * reach < 1 << 53 and scale < 1 << 53 else np.int64
    normals = np.concatenate((q_halfspace_normals(n),
                              np.array(rows, dtype=np.int8).reshape(-1, n))).T.astype(dtype)
    member = np.empty(len(ipoints), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // normals.shape[1])
    for start in range(0, len(ipoints), step):
        products = ipoints[start:start + step].astype(dtype, copy=False) @ normals
        (products <= scale).all(axis=1, out=member[start:start + step])
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
    e /= e.sum(axis=1, keepdims=True)
    return e


@functools.lru_cache(maxsize=16)
def orthant_signs(n: int) -> np.ndarray:
    """(2^n, n) int8 table whose row i is index_to_signs(n, i); cached and
    shared by every caller, so read-only."""
    signs = (2 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1) - 1).astype(np.int8)
    signs.flags.writeable = False
    return signs


def _set_signs(block: np.ndarray, positive: np.ndarray) -> None:
    """Multiply a float64 block, in place, by 2 * positive - 1 for int64
    bits `positive`, which it overwrites: XOR-ing the sign bit through an
    int64 view rounds nothing and flips -0.0 as the product would."""
    positive ^= 1
    positive <<= 63
    bits = block.view(np.int64)
    bits ^= positive


def region_points(n: int, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of the labeled regions: (count,) integer labels ->
    (count, n) float64 points.  A core point is a uniform point of the
    standard simplex (the first n of n+1 normalized exponentials) with
    independent uniform signs.  A peak point has uniform barycentric weights
    over the n facet vertices s_i e_i and the apex s/(n-1) of its orthant s.

    The draws come in a fixed order, the seed contract: the exponentials of
    every core row, then the sign bits of every core row (int64 integers),
    then the exponentials of the peak rows in orthant order (row order
    within an orthant).  Each stage walks its rows in blocks, and drawn
    block by block they consume the generator exactly as one call would.
    Non-empty labels of a non-integer dtype, bool included, are a
    ParameterError."""
    labels = np.asarray(labels)
    core = core_label_value(n)
    if labels.ndim != 1 or len(labels) and (
            labels.dtype.kind not in "iu" or not 0 <= labels.min() <= labels.max() <= core):
        raise ParameterError("labels must be a (count,) integer array of peak orthant "
                             "indices or the core")
    points = np.empty((len(labels), n), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // (n + 1))
    core_rows = np.flatnonzero(labels == core)
    # the core points are made packed in the first rows, then each packed
    # row i moves up to core_rows[i] >= i, the top block first, so no move
    # overwrites a row still to be moved
    packed = points[:len(core_rows)]
    for start in range(0, len(packed), step):
        block = packed[start:start + step]
        block[...] = _simplex_weights(len(block), n, rng)[:, :n]
    for start in range(0, len(packed), step):
        block = packed[start:start + step]
        _set_signs(block, rng.integers(0, 2, size=block.shape))
    for start in reversed(range(0, len(packed), step)):
        points[core_rows[start:start + step]] = packed[start:start + step].copy()
    peak_rows = np.flatnonzero(labels != core)
    if len(peak_rows):
        # narrowest dtype: a stable sort of 8- or 16-bit keys is a radix sort
        keys = labels[peak_rows].astype(np.min_scalar_type(core))
        peak_rows = peak_rows[np.argsort(keys, kind="stable")]
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, len(peak_rows), step):
        rows = peak_rows[start:start + step]
        w = _simplex_weights(len(rows), n, rng)
        block = w[:, :n]
        block += w[:, n:] / (n - 1)
        _set_signs(block, labels[rows, None].astype(np.int64) >> shifts & 1)
        points[rows] = block
    return points


def sample_inner_batch(body: InnerBody, count: int, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` uniform points of the body.  Returns (points, labels):
    points is (count, n) float64, labels the integer region labels."""
    labels = sample_region_labels(body, count, rng)
    return region_points(body.n, labels, rng), labels
