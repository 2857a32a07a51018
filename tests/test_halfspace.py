import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspeaks import halfspace
from crosspeaks.errors import BudgetExceededError, ParameterError
from crosspeaks.family import ProductBody
from crosspeaks.geometry import InnerBody, full_body, index_to_signs
from crosspeaks.halfspace import (COROLLARY_CSV_COLUMNS, corollary_explore,
                                  direction_set, halfspace_discrepancy,
                                  ks_statistic, ks_statistics, noise_floor)


def _product(masks, n=3):
    return ProductBody(tuple(InnerBody(n, m) for m in masks))


# ---------------------------------------------------------------------------
# the KS statistic

def test_ks_statistic_hand_values():
    assert ks_statistic([1, 2, 3], [10, 11, 12]) == 1.0
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
    # [0,1) vs [0.5, 1.5): CDFs cross at gap 1/2
    a = np.arange(4) / 4
    b = a + 0.5
    assert ks_statistic(a, b) == 0.5


def test_ks_statistic_asymmetric_sizes():
    # one point below everything: F_a jumps to 1 while F_b is still 0
    assert ks_statistic([0.0], [1.0, 2.0, 3.0, 4.0]) == 1.0
    assert abs(ks_statistic([2.5], [1.0, 2.0, 3.0, 4.0]) - 0.5) < 1e-12


def test_ks_statistic_rejects_empty():
    with pytest.raises(ParameterError):
        ks_statistic([], [1.0])


def test_ks_statistic_rejects_nan():
    with pytest.raises(ParameterError, match="NaN"):
        ks_statistic([math.nan], [1.0])
    with pytest.raises(ParameterError, match="NaN"):
        ks_statistic([1.0, 2.0], [0.5, math.nan])
    with pytest.raises(ParameterError, match="NaN"):
        ks_statistics([[1.0], [2.0]], [[0.0], [math.nan]])
    # on the a side, in a block of rows past the first
    a_rows = np.zeros((3000, 20))
    a_rows[2500, 7] = math.nan
    with pytest.raises(ParameterError, match="NaN"):
        ks_statistics(a_rows, np.ones((3000, 20)))


def test_ks_statistic_rejects_misshaped_input():
    with pytest.raises(ParameterError, match="1-D"):
        ks_statistic([[1.0, 2.0]], [1.0])
    with pytest.raises(ParameterError, match="1-D"):
        ks_statistic(1.0, [1.0])
    with pytest.raises(ParameterError, match="2-D"):
        ks_statistics([1.0, 2.0], [[1.0]])
    with pytest.raises(ParameterError, match="rows"):
        ks_statistics([[1.0], [2.0]], [[1.0]])
    with pytest.raises(ParameterError, match="non-empty"):
        ks_statistics(np.zeros((3, 0)), np.zeros((3, 2)))


def _ks_reference(a, b):
    """sup over the merged grid of |F_a - F_b|, in plain Python floats."""
    a, b = sorted(a), sorted(b)
    return max(abs(bisect_right(a, t) / len(a) - bisect_right(b, t) / len(b))
               for t in a + b)


def _check_rows(a_rows, b_rows):
    got = ks_statistics(a_rows, b_rows)
    assert got.shape == (len(a_rows),)
    assert got.tolist() == [_ks_reference(a, b) for a, b in zip(a_rows, b_rows)]
    assert got.tolist() == [ks_statistic(a, b) for a, b in zip(a_rows, b_rows)]


# a few values, so samples tie within and across rows; -0.0 ties 0.0
_TIED = st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf])
_VALUES = st.one_of(_TIED, st.floats(allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), na=st.integers(1, 12),
       nb=st.integers(1, 12))
def test_ks_statistics_matches_reference(data, rows, na, nb):
    a_rows = data.draw(st.lists(st.lists(_VALUES, min_size=na, max_size=na),
                                min_size=rows, max_size=rows))
    b_rows = data.draw(st.lists(st.lists(_VALUES, min_size=nb, max_size=nb),
                                min_size=rows, max_size=rows))
    _check_rows(a_rows, b_rows)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(5, 12),
       na=st.integers(3000, 9000), nb=st.integers(3000, 9000),
       grid=st.sampled_from([1.0, 1 / 64, 0.0]))
def test_ks_statistics_across_blocks(seed, rows, na, nb, grid):
    # 6000 to 18000 merged samples a row: a block of 2^15 holds 1 to 5 rows,
    # so 5 to 12 rows span several blocks; a coarse grid makes ties, and
    # some rows are shifted so the statistic is far from zero
    rng = np.random.default_rng(seed)
    shift = rng.choice([0.0, 0.1, 3.0], size=(rows, 1))
    a_rows = rng.standard_normal((rows, na)) + shift
    b_rows = rng.standard_normal((rows, nb))
    if grid:
        a_rows, b_rows = np.round(a_rows / grid) * grid, np.round(b_rows / grid) * grid
    for x in (a_rows, b_rows):
        x[rng.random(x.shape) < 0.01] = rng.choice([-math.inf, math.inf, -0.0, 0.0])
    _check_rows(a_rows, b_rows)


# the edges of (-2, 2), both zeros and the subnormals sit among a few tied
# values
_BELOW_2 = math.nextafter(2.0, 0.0)
_EDGE_TIED = st.sampled_from([-_BELOW_2, -1.0, -5e-324, -0.0, 0.0, 5e-324,
                              0.5, _BELOW_2])
_EDGE_VALUES = st.one_of(_EDGE_TIED, st.floats(-2.0, 2.0, exclude_min=True,
                                               exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), na=st.integers(1, 12),
       nb=st.integers(1, 12))
def test_ks_statistics_packed_matches_reference(data, rows, na, nb):
    a_rows = data.draw(st.lists(st.lists(_EDGE_VALUES, min_size=na, max_size=na),
                                min_size=rows, max_size=rows))
    b_rows = data.draw(st.lists(st.lists(_EDGE_VALUES, min_size=nb, max_size=nb),
                                min_size=rows, max_size=rows))
    _check_rows(a_rows, b_rows)


@pytest.mark.parametrize("grid", [1 / 64, 0.0])
def test_ks_statistics_packed_across_blocks(grid):
    # 7 rows of 4000 + 5000 merged samples: three blocks inside (-2, 2); a
    # coarse grid makes ties, and the edge values are planted in every row
    rng = np.random.default_rng(17)
    shift = rng.choice([0.0, 0.1, 0.5], size=(7, 1))
    a_rows = np.clip(rng.standard_normal((7, 4000)) * 0.4 + shift, -1.9, 1.9)
    b_rows = np.clip(rng.standard_normal((7, 5000)) * 0.4, -1.9, 1.9)
    if grid:
        a_rows, b_rows = np.round(a_rows / grid) * grid, np.round(b_rows / grid) * grid
    for x in (a_rows, b_rows):
        x[:, :6] = [-_BELOW_2, -5e-324, -0.0, 0.0, 5e-324, _BELOW_2]
    got = ks_statistics(a_rows, b_rows)
    assert got.tolist() == [_ks_reference(a, b) for a, b in zip(a_rows, b_rows)]


def test_ks_statistics_mixes_packed_and_argsort_blocks():
    # 8192 + 8192 merged samples: two rows a block; the first block lies
    # inside (-2, 2), the second holds 2.0 and -2.0, the third -inf and inf
    rng = np.random.default_rng(5)
    a_rows = np.round(rng.uniform(-1.5, 1.5, (6, 8192)) * 32) / 32
    b_rows = np.round(rng.uniform(-1.0, 1.9, (6, 8192)) * 32) / 32
    a_rows[2, :3], b_rows[3, :2] = 2.0, -2.0
    a_rows[4, :5], b_rows[5, 10:12] = -math.inf, math.inf
    got = ks_statistics(a_rows, b_rows)
    assert got.tolist() == [_ks_reference(a, b) for a, b in zip(a_rows, b_rows)]


# ---------------------------------------------------------------------------
# the pruned maximum

def _argmax_oracle(a_rows, b_rows):
    s = ks_statistics(a_rows, b_rows)
    return int(np.argmax(s)), float(s.max())


# each row draws from one palette: a dyadic grid with both zeros and both
# infinities, so samples tie; +-1e308, whose span overflows; subnormals,
# whose span overflows the scale; any float; or one value, a constant row
_PALETTES = st.one_of(st.sampled_from([
    st.one_of(st.integers(-8, 8).map(lambda i: i / 4),
              st.sampled_from([-0.0, -math.inf, math.inf])),
    st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308]),
    st.sampled_from([-1e-323, -5e-324, -0.0, 0.0, 5e-324, 1e-323]),
    st.floats(allow_nan=False),
]), st.floats(allow_nan=False).map(st.just))


def _palette_rows(data, rows, width):
    out = []
    for _ in range(rows):
        values = data.draw(_PALETTES)
        out.append(data.draw(st.lists(values, min_size=width, max_size=width)))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 20), na=st.integers(1, 12),
       nb=st.integers(1, 12), buckets=st.sampled_from([1, 2, 7, 512]),
       block=st.sampled_from([1, 7, 64, 1 << 15]))
def test_ks_argmax_is_the_first_maximum(data, rows, na, nb, buckets, block):
    # block 1 puts every row in its own block; at 7 and 64 blocks hold
    # several rows of mixed palettes
    a_rows = _palette_rows(data, rows, na)
    b_rows = _palette_rows(data, rows, nb)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(halfspace, "_BUCKETS", buckets)
        patch.setattr(halfspace, "_BLOCK_ELEMENTS", block)
        assert halfspace._ks_argmax(a_rows, b_rows) == _argmax_oracle(a_rows, b_rows)


def _count_refined_rows(monkeypatch):
    """Record the rows each ks_statistics call refines."""
    refined = []
    def spy(a_rows, b_rows, real=halfspace.ks_statistics):
        refined.append(len(a_rows))
        return real(a_rows, b_rows)
    monkeypatch.setattr(halfspace, "ks_statistics", spy)
    return refined


def test_ks_argmax_prunes_shifted_rows(monkeypatch):
    # 40 rows of 3000 + 5000 merged samples, four rows a block; only row 29
    # is shifted far enough to stand clear of the others
    rng = np.random.default_rng(8)
    a_rows = rng.standard_normal((40, 3000))
    b_rows = rng.standard_normal((40, 5000))
    a_rows[29] += 0.5
    want = _argmax_oracle(a_rows, b_rows)
    refined = _count_refined_rows(monkeypatch)
    assert halfspace._ks_argmax(a_rows, b_rows) == want
    assert want[0] == 29 and refined == [1]


def test_ks_argmax_refines_every_row_past_the_exact_order(monkeypatch):
    # at na*nb >= 2^48 a smaller integer gap may round to an equal float,
    # so no row is pruned; the order is patched down to reach that branch
    rng = np.random.default_rng(9)
    a_rows, b_rows = rng.standard_normal((6, 50)), rng.standard_normal((6, 70))
    a_rows[2] += 2.0
    want = _argmax_oracle(a_rows, b_rows)
    monkeypatch.setattr(halfspace, "_EXACT_GAPS", 50 * 70)
    refined = _count_refined_rows(monkeypatch)
    assert halfspace._ks_argmax(a_rows, b_rows) == want
    assert refined == [6]


def test_ks_argmax_refuses_nan():
    for a_rows in ([[1.0, math.nan]], [[math.nan, math.nan]]):
        with pytest.raises(ParameterError, match="NaN"):
            halfspace._ks_argmax(a_rows, [[0.5]])
    # in a block past the first, beside rows the bounds could prune
    a_rows = np.zeros((3000, 20))
    a_rows[2500, 7] = math.nan
    b_rows = np.ones((3000, 20))
    b_rows[:10] = -1.0
    with pytest.raises(ParameterError, match="NaN"):
        halfspace._ks_argmax(a_rows, b_rows)
    with pytest.raises(ParameterError, match="rows"):
        halfspace._ks_argmax([[1.0], [2.0]], [[1.0]])


def test_noise_floor_formula():
    samples, directions = 4096, 100
    want = math.sqrt(2 * math.log(4 * directions / 1e-3) / samples)
    assert noise_floor(samples, directions) == want
    assert noise_floor(samples, 1) < noise_floor(samples, 1000)
    with pytest.raises(ParameterError):
        noise_floor(0, 5)
    with pytest.raises(ParameterError):
        noise_floor(100, 0)


# ---------------------------------------------------------------------------
# the probe directions

def test_direction_set_shape_and_kinds(rng):
    n, k, extra = 3, 2, 7
    matrix, kinds = direction_set(n, k, extra, rng)
    d = n * k
    assert matrix.shape == (d + k * (1 << n) + extra, d)
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)
    assert kinds[0] == "axis:0"
    assert kinds[d] == "orthant:0:0"
    assert kinds[-1] == f"random:{extra - 1}"
    # the orthant diagonal for factor 1, orthant 5 touches only block 1
    row = matrix[d + (1 << n) + 5]
    assert np.all(row[:n] == 0)
    assert set(np.sign(row[n:]).astype(int)) <= {-1, 1}


def _direction_set_by_rows(n, k, random_count, rng):
    """The row-by-row construction direction_set replaced: the reference
    its block-filled matrix must match byte for byte."""
    d = n * k
    rows, kinds = [], []
    eye = np.eye(d)
    for i in range(d):
        rows.append(eye[i])
        kinds.append(f"axis:{i}")
    scale = 1.0 / math.sqrt(n)
    for j in range(k):
        for index in range(1 << n):
            vec = np.zeros(d)
            vec[j * n:(j + 1) * n] = np.array(index_to_signs(n, index)) * scale
            rows.append(vec)
            kinds.append(f"orthant:{j}:{index:x}")
    if random_count:
        gauss = rng.standard_normal((random_count, d))
        gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
        for t in range(random_count):
            rows.append(gauss[t])
            kinds.append(f"random:{t}")
    return np.vstack(rows), kinds


@pytest.mark.parametrize("n,k,random_count",
                         [(3, 4, 64), (2, 8, 16), (3, 2, 0), (4, 2, 5), (10, 1, 3)])
def test_direction_set_matches_row_by_row_reference(n, k, random_count):
    matrix, kinds = direction_set(n, k, random_count, np.random.default_rng(11))
    ref, ref_kinds = _direction_set_by_rows(n, k, random_count, np.random.default_rng(11))
    assert matrix.dtype == ref.dtype and matrix.shape == ref.shape
    assert matrix.tobytes() == ref.tobytes()   # no -0.0 where the rows had +0.0
    assert kinds == ref_kinds


def test_direction_set_refuses_unaddressable_counts(rng):
    for count in (1 << 60, 1 << 64):
        with pytest.raises(BudgetExceededError):
            direction_set(3, 2, count, rng)
    with pytest.raises(ParameterError):
        direction_set(3, 2, -1, rng)


# ---------------------------------------------------------------------------
# the discrepancy estimator

def test_discrepancy_symmetric_and_zero_on_self(rng):
    a = _product((0x0F, 0x33))
    b = _product((0x33, 0x0F))
    est_ab = halfspace_discrepancy(a, b, 8, 1200, np.random.default_rng(99))
    est_ba = halfspace_discrepancy(b, a, 8, 1200, np.random.default_rng(99))
    assert est_ab.estimate == est_ba.estimate
    self_est = halfspace_discrepancy(a, a, 8, 1200, np.random.default_rng(99))
    assert self_est.estimate == 0.0


def test_discrepancy_bounded_and_annotated(rng):
    a = _product((0x0F, 0x33))
    b = _product((0x33, 0x0F))
    est = halfspace_discrepancy(a, b, 16, 2000, rng)
    assert 0 <= est.estimate <= 1
    assert est.samples == 2000
    assert est.directions == 6 + 2 * 8 + 16
    assert est.noise_floor == noise_floor(2000, est.directions)
    assert len(est.direction) == 6
    kind = est.direction_kind.split(":")[0]
    assert kind in ("axis", "orthant", "random")


def test_discrepancy_sees_a_gross_difference(rng):
    # a fully peaked factor vs a bare one moves visible mass along the
    # orthant diagonals; the estimate must clear the noise floor
    a = ProductBody((full_body(3), full_body(3)))
    b = ProductBody((full_body(3), full_body(3)))
    est_same = halfspace_discrepancy(a, b, 8, 4000, rng)
    assert est_same.estimate == 0.0  # same text, same stream
    c = _product((0xF0, 0x0F))
    d = _product((0x0F, 0xF0))
    est = halfspace_discrepancy(c, d, 8, 4000, rng)
    assert est.estimate > 0


# Recorded with one searchsorted KS statistic per direction:
# (family, i, j, dirs, samples, seed) -> (repr(estimate), kind).
DISCREPANCY_PINS = (
    ("32", 0, 1, 8, 1500, 3, "0.08133333333333337", "orthant:1:1"),
    ("32", 5, 200, 16, 1777, 41, "0.11086100168823859", "axis:2"),
    ("32", 17, 90, 8, 4096, 2024, "0.06103515625", "axis:2"),
    ("34", 0, 4095, 16, 1500, 7, "0.23933333333333334", "axis:8"),
    ("34", 123, 2048, 8, 1777, 11, "0.1890827236916151", "random:0"),
    ("34", 9, 3000, 16, 4096, 5, "0.150390625", "axis:2"),
    ("34", 0, 4095, 64, 4096, 3, "0.218994140625", "random:23"),
    # recorded by scoring every direction, before _ks_argmax pruned any: a
    # self-pair, where no row can be pruned, and a pair where 8 of 30 rows
    # survive the bounds and two directions tie at the maximum
    ("34", 5, 5, 16, 1500, 7, "0.0", "axis:0"),
    ("32", 117, 188, 8, 1024, 17, "0.0732421875", "orthant:0:2"),
)


@pytest.mark.parametrize("name, i, j, dirs, samples, seed, estimate, kind",
                         DISCREPANCY_PINS)
def test_discrepancy_pinned(family_32, family_34, name, i, j, dirs, samples,
                            seed, estimate, kind):
    family = family_32 if name == "32" else family_34
    est = halfspace_discrepancy(family.body(i), family.body(j), dirs, samples,
                                np.random.default_rng(seed))
    assert (repr(est.estimate), est.direction_kind) == (estimate, kind)


def test_discrepancy_refines_only_live_rows(monkeypatch, family_32, family_34):
    # the self-pair keeps all 60 rows live, the tie pin 8 of 30, and a
    # separated fam34 pair 2 of 108
    refined = _count_refined_rows(monkeypatch)
    for family, i, j, dirs, samples, seed in ((family_34, 5, 5, 16, 1500, 7),
                                              (family_32, 117, 188, 8, 1024, 17),
                                              (family_34, 0, 4095, 64, 4096, 3)):
        halfspace_discrepancy(family.body(i), family.body(j), dirs, samples,
                              np.random.default_rng(seed))
    assert refined == [60, 8, 2]


@pytest.mark.parametrize("name, value", [("_BUCKETS", 1), ("_BUCKETS", 2),
                                         ("_BUCKETS", 7), ("_BUCKETS", 4096),
                                         ("_BLOCK_ELEMENTS", 1), ("_BLOCK_ELEMENTS", 7)])
def test_bound_constants_change_no_bit(monkeypatch, family_32, family_34, name, value):
    monkeypatch.setattr(halfspace, name, value)
    for pin in DISCREPANCY_PINS:
        test_discrepancy_pinned(family_32, family_34, *pin)
    test_corollary_explore_pinned(family_34)


def test_discrepancy_working_set(family_34):
    # the two (108, 4096) projections and both bodies' points plus about a
    # block: the blocked bound pass adds 0.3 MiB here, and bucketing the
    # whole projections at once would add more than twice the budget
    a, b = family_34.body(0), family_34.body(4095)
    halfspace_discrepancy(a, b, 64, 4096, np.random.default_rng(0))   # cached tables
    tracemalloc.start()
    try:
        halfspace_discrepancy(a, b, 64, 4096, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    projections, points = 2 * 108 * 4096 * 8, 2 * 4096 * 12 * 8
    assert peak <= projections + points + (4 << 20)


def test_discrepancy_input_validation(rng):
    a = _product((0x0F, 0x33))
    with pytest.raises(ParameterError):
        halfspace_discrepancy(a, _product((0x0F,)), 8, 1200, rng)
    with pytest.raises(ParameterError):
        # different peak counts, different volumes
        halfspace_discrepancy(a, _product((0xFF, 0x33)), 8, 1200, rng)
    with pytest.raises(ParameterError):
        halfspace_discrepancy(a, _product((0x33, 0x0F)), 0, 1200, rng)
    with pytest.raises(ParameterError):
        halfspace_discrepancy(a, _product((0x33, 0x0F)), 8, 999, rng)


# ---------------------------------------------------------------------------
# the pair scan

def test_corollary_explore_report(family_32, tmp_path):
    csv_path = tmp_path / "scan.csv"
    report = corollary_explore(family_32, 4, dirs=8, samples=1200,
                               seed=20260816, csv_path=csv_path)
    assert report.n == 3 and report.k == 2
    assert len(report.rows) == 4
    assert report.distance_floor_verified
    assert report.min_exact_distance >= Fraction(1, 20)
    # (3,2) distances top out at 39/400 < 1/8, outside the headline regime
    assert report.corollary_regime is (report.min_exact_distance > Fraction(1, 8))
    assert isinstance(report.flat_landscape, bool)
    for i, j, dist, est in report.rows:
        assert 0 <= i < j < family_32.size
        assert dist > 0 and 0 <= est <= 1

    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(COROLLARY_CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == (report.rows[0][0], report.rows[0][1])


def test_corollary_explore_pinned(family_34):
    # rows recorded with one searchsorted KS statistic per direction; the
    # estimates keep the last bit of the float |ca/na - cb/nb|
    # (0.15600000000000003, where gap / (na * nb) gives 0.156)
    report = corollary_explore(family_34, 6, dirs=16, samples=2000, seed=20260816)
    rows = [(i, j, str(dist), repr(est)) for i, j, dist, est in report.rows]
    assert rows == [
        (86, 2964, "13837/40000", "0.15600000000000003"),
        (307, 1748, "76479/160000", "0.15650000000000003"),
        (507, 3512, "13837/40000", "0.1195"),
        (1993, 3556, "13837/40000", "0.11950000000000005"),
        (2560, 3771, "55671/160000", "0.17599999999999993"),
        (2723, 3741, "13837/40000", "0.08950000000000002"),
    ]
    assert (report.min_pair, report.max_pair) == ((2723, 3741), (2560, 3771))


def test_corollary_explore_explicit_pairs(family_32):
    report = corollary_explore(family_32, [(0, 1), (2, 200)], dirs=4,
                               samples=1000, seed=1)
    assert [(r[0], r[1]) for r in report.rows] == [(0, 1), (2, 200)]
    assert report.min_pair in {(0, 1), (2, 200)}
    assert report.max_pair in {(0, 1), (2, 200)}


def test_corollary_explore_reproducible(family_32):
    a = corollary_explore(family_32, 3, dirs=4, samples=1000, seed=5)
    b = corollary_explore(family_32, np.int64(3), dirs=4, samples=1000, seed=5)
    assert len(a.rows) == 3 and a.rows == b.rows


def test_corollary_explore_rejects_bad_pairs(family_32):
    with pytest.raises(ParameterError):
        corollary_explore(family_32, [(0, 0)], dirs=4, samples=1000, seed=1)
    with pytest.raises(ParameterError):
        corollary_explore(family_32, [(0, 999)], dirs=4, samples=1000, seed=1)
    for pairs in (0, -3, [], np.int64(0), [(0, 1, 2)], [(0,)], [5], 2.5, None):
        with pytest.raises(ParameterError):
            corollary_explore(family_32, pairs, dirs=4, samples=1000, seed=1)
