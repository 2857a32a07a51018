import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from crosspeaks.errors import BudgetExceededError, ParameterError
from crosspeaks.exactmath import simplex_volume
from crosspeaks.geometry import (InnerBody, bare_body, classify_batch,
                                 classify_point, classify_scaled_batch,
                                 core_label_value, core_weight, full_body,
                                 index_to_signs,
                                 inner_volume, label_text, make_geometry,
                                 membership_inner,
                                 membership_q_oracle, membership_scaled_batch,
                                 orthant_signs, outside_label_value, parse_label,
                                 peak_vertices, q_halfspace_normals,
                                 q_membership_scaled_batch, region_expectations,
                                 region_labels_of_draws, region_points,
                                 sample_inner_batch, sample_region_label_rows)

F = Fraction


# ---------------------------------------------------------------------------
# constants

def test_geometry_constants_small():
    g2 = make_geometry(2)
    assert g2.alpha == 2
    assert g2.core_volume == 2
    # four peaks complete the diamond to the square [-1,1]^2 of area 4
    assert g2.peak_volume == F(1, 2)
    assert g2.core_volume + 4 * g2.peak_volume == 4

    g3 = make_geometry(3)
    assert g3.alpha == F(3, 2)
    assert g3.core_volume == F(4, 3)
    assert g3.peak_volume == F(1, 12)


def test_geometry_identities_range():
    for n in range(2, 9):
        g = make_geometry(n)
        assert g.alpha == F(n, n - 1)
        assert g.core_volume == F(2 ** n, math.factorial(n))
        assert g.peak_volume == g.core_volume / ((1 << n) * (n - 1))
        assert (1 << n) * g.peak_volume == g.core_volume / (n - 1)
        assert core_weight(n) == g.core_volume / g.peak_volume


def test_total_peak_share():
    # all peaks together add vol/(n-1); at n=5 that is a quarter of the core
    g = make_geometry(5)
    assert (1 << 5) * g.peak_volume / g.core_volume == F(1, 4)


def test_peak_volume_determinant_oracle():
    # independent route: volume of conv{s_i e_i} u {alpha * centroid}
    for n in (2, 3, 4):
        g = make_geometry(n)
        for index in range(1 << n):
            vertices = peak_vertices(n, index)
            assert simplex_volume(vertices) == g.peak_volume


def test_make_geometry_rejects_n1():
    with pytest.raises(ParameterError):
        make_geometry(1)


# ---------------------------------------------------------------------------
# orthant encoding

def test_orthant_roundtrip():
    for n in (2, 3, 4):
        for index in range(1 << n):
            signs = index_to_signs(n, index)
            assert all(s in (-1, 1) for s in signs)
            assert sum(1 << i for i, s in enumerate(signs) if s == 1) == index
    # bit i set means coordinate i positive
    assert index_to_signs(3, 0b101) == (1, -1, 1)


def test_orthant_bad_values():
    with pytest.raises(ParameterError):
        peak_vertices(3, 8)
    with pytest.raises(ParameterError):
        index_to_signs(3, -1)


# ---------------------------------------------------------------------------
# classification

def test_classify_literals():
    assert classify_point(3, (F(1, 5), F(-3, 10), F(1, 10))) == core_label_value(3)
    assert classify_point(3, (F(1, 2), F(2, 5), F(3, 10))) == 0b111
    assert classify_point(3, (F(9, 10), F(9, 10), F(1, 10))) == outside_label_value(3)


def test_classify_zero_coordinate_rule():
    # a zero coordinate with |x| sum over 1 can never be in a peak
    assert classify_point(3, (F(9, 10), F(9, 10), F(0))) == outside_label_value(3)
    assert classify_point(2, (F(1), F(0))) == core_label_value(2)  # boundary stays closed


def test_classify_boundary_ties():
    # ties classify into the closed region: sum = 1 -> Core,
    # sum = 1 + min -> still Peak
    assert classify_point(3, (F(1, 2), F(1, 4), F(1, 4))) == core_label_value(3)
    lab = classify_point(3, (F(1, 2), F(1, 2), F(1, 4)))
    assert index_to_signs(3, lab) == (1, 1, 1)
    apex = classify_point(3, (F(1, 2), F(1, 2), F(1, 2)))
    assert apex == 0b111  # alpha * centroid, the top of the (+,+,+) peak


def _boundary_rows(n, scale):
    """Integer rows X of exact region boundaries for x = X / scale, scale a
    power of two (so X / scale is exact in float and in any summation order),
    each in every orthant: T = 1, T = 1 + min (the peak's far face, an exact
    tie for n >= 2), one step past it, and a zero coordinate with T > 1."""
    least = scale // (2 * n)
    core = [scale - (n - 1)] + [1] * (n - 1)
    tie = [scale - (n - 2) * least] + [least] * (n - 1)
    past = [tie[0] + 1] + tie[1:]
    zero = [scale + 1] + [0] * (n - 1)
    rows = [[s * c for s, c in zip(index_to_signs(n, index), row)]
            for index in range(1 << n) for row in (core, tie, past, zero)]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_classify_matches_batch(rng, n):
    specials = [[-0.0] * n, [np.inf] * n, [-np.inf] + [0.5] * (n - 1),
                [np.nan] * n, [0.5] * (n - 1) + [np.nan], [2.0] * (n - 1) + [-0.0],
                [np.inf] * (n - 1) + [-np.inf]]
    pts = np.concatenate([rng.uniform(-1.3, 1.3, size=(300, n)),
                          _boundary_rows(n, 1 << 12) / (1 << 12), specials])
    labels = classify_batch(n, pts)
    for row, lab in zip(pts, labels):
        assert classify_point(n, [float(c) for c in row]) == lab


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_classify_scaled_matches_exact(rng, n):
    scale = 1 << 12
    coords = np.concatenate([
        rng.integers(-scale - scale // 2, scale + scale // 2, size=(400, n)),
        _boundary_rows(n, scale)])
    labels = classify_scaled_batch(n, coords, scale)
    for row, lab in zip(coords, labels):
        assert classify_point(n, [F(int(c), scale) for c in row]) == lab


def test_boundary_rows_hit_every_region():
    # the rows above are ties, not near misses: core, peak and outside each
    # appear exactly where the construction puts them
    n, scale = 3, 1 << 12
    labels = classify_scaled_batch(n, _boundary_rows(n, scale), scale).reshape(-1, 4)
    assert (labels[:, 0] == core_label_value(n)).all()
    assert labels[:, 1].tolist() == list(range(1 << n))
    assert (labels[:, 2:] == outside_label_value(n)).all()


def test_scaled_kernels_refuse_overflowing_input():
    # each of these wrapped in int64 and came back with a wrong label or
    # membership (classify_point: outside), or died with a bare OverflowError
    with pytest.raises(ParameterError):
        membership_scaled_batch(bare_body(2), np.array([[2**62, 2**62]]), 1)
    wide = np.array([[2**62, 2**62, -2**62]])
    with pytest.raises(ParameterError):
        membership_scaled_batch(full_body(3), wide, 1)
    with pytest.raises(ParameterError):
        q_membership_scaled_batch(3, [], wide, 1)
    with pytest.raises(ParameterError):
        classify_scaled_batch(2, [[-2**63, 0]], 1)
    with pytest.raises(ParameterError):
        classify_batch(63, np.zeros((1, 63)))
    # a float or uint64 X was cast to int64 unchecked: (1.9, 0) read as core
    for points, scale in (([[2**64, 0]], 1), ([[1, 0]], 0), ([[1, 0]], 2**62),
                          (np.array([[1.9, 0.0]]), 1),
                          (np.array([[2**64 - 1, 0]], dtype=np.uint64), 1)):
        with pytest.raises(ParameterError):
            classify_scaled_batch(2, points, scale)
    # the bound itself is accepted, and its peak tie is exact
    edge = (2**63 - 1) // 3
    assert classify_scaled_batch(2, [[edge, -edge]], edge).tolist() == [
        classify_point(2, [1, -1])]
    assert classify_batch(62, np.zeros((1, 62))).tolist() == [core_label_value(62)]


def test_label_text_forms():
    assert label_text(3, core_label_value(3)) == "C"
    assert label_text(4, 10) == "Pa"
    assert label_text(3, outside_label_value(3)) == "O"
    assert core_label_value(3) == 8
    assert outside_label_value(3) == 9


def test_label_text_refuses_values_outside_the_labels():
    assert label_text(3, 0) == "P0"
    for value in (-1, outside_label_value(3) + 1, 100):   # 100 printed 'P64'
        with pytest.raises(ParameterError):
            label_text(3, value)


def test_parse_label_inverts_label_text():
    for n in (2, 3, 4):
        for value in range(outside_label_value(n) + 1):
            assert parse_label(n, label_text(n, value)) == value
    # P8 would be the core's value and P-1 no orthant at n = 3
    for text in ("P8", "P-1", "P", "Px", "X", "c", ""):
        with pytest.raises(ParameterError, match="^bad region label "):
            parse_label(3, text)
    # only label_text's spelling: lowercase hex, no prefix, sign, space,
    # underscore or leading zero
    assert parse_label(4, "Pa") == 10
    for text in ("PA", "P0xa", "P+a", "P0_a", "P0a", "P a", "Pa "):
        with pytest.raises(ParameterError, match="^bad region label "):
            parse_label(4, text)


# ---------------------------------------------------------------------------
# membership and the facet-oracle cross-check

def test_membership_literals():
    x = (F(1, 2), F(2, 5), F(3, 10))
    assert membership_inner(full_body(3), x)
    assert not membership_inner(InnerBody(3, 0x7F), x)  # peak 7 missing
    assert membership_inner(bare_body(3), (F(0), F(0), F(0)))


def test_membership_dimension_check():
    with pytest.raises(ParameterError):
        membership_inner(bare_body(3), (F(0), F(0)))


def test_q_oracle_literals():
    assert membership_q_oracle(2, (), (F(99, 100), F(-99, 100)))
    assert not membership_q_oracle(3, (), (F(9, 10), F(9, 10), F(1, 10)))
    # classify says Peak(+,+,+) but the missing-peak halfspace cuts it off
    x = (F(9, 20), F(9, 20), F(1, 5))
    assert classify_point(3, x) == 0b111
    assert not membership_q_oracle(3, (7,), x)


def test_q_halfspace_normal_count():
    for n in (2, 3, 4, 5):
        normals = q_halfspace_normals(n)
        assert normals.shape == (n * (1 << (n - 1)), n)
        # each has exactly one zero entry
        assert np.all(np.sum(normals == 0, axis=1) == 1)
        assert len({tuple(r) for r in normals.tolist()}) == len(normals)


def test_membership_agrees_with_q_oracle(rng):
    # rational inputs make the agreement exact, no boundary epsilon needed
    scale = 1 << 10
    for n in (2, 3, 5):
        for _ in range(8):
            mask = int(rng.integers(1 << (1 << n))) if n < 5 else int(
                rng.integers(1 << 30))
            body = InnerBody(n, mask & ((1 << (1 << n)) - 1))
            missing = [i for i in range(1 << n) if not body.has_peak(i)]
            coords = rng.integers(-scale - scale // 4, scale + scale // 4,
                                  size=(2000, n)).astype(np.int64)
            mine = membership_scaled_batch(body, coords, scale)
            theirs = q_membership_scaled_batch(n, missing, coords, scale)
            assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_q_membership_float_route_is_exact_up_to_its_bound(rng, n):
    # float64 products decide while n max|X| < 2^53 and scale < 2^53; the
    # points reach |X| = (2^53 - 1) // n, some on a halfspace's plane a . X =
    # scale or one off it, and must get the Fraction oracle's answers, as must
    # the same rational points scaled by 3 past the bound (int64 products)
    reach = ((1 << 53) - 1) // n
    scale = reach // 2
    normals = np.concatenate((q_halfspace_normals(n),
                              [index_to_signs(n, i) for i in range(1 << n)])).astype(np.int64)
    points = [rng.integers(-reach, reach + 1, size=n) for _ in range(60)]
    points.append(np.eye(n, dtype=np.int64)[0] * reach)
    for a in normals[rng.integers(len(normals), size=60)]:
        y = rng.integers(-scale // (2 * n), scale // (2 * n) + 1, size=n)
        i = int(np.flatnonzero(a)[0])
        y[i] += a[i] * (scale + int(rng.integers(-1, 2)) - int(a @ y))
        points.append(y)
    points = np.array(points, dtype=np.int64)
    assert np.abs(points).max() == reach
    for missing in ([], list(range(1 << n)), rng.permutation(1 << n)[:(1 << n) // 2].tolist()):
        want = [membership_q_oracle(n, missing, [F(int(v), scale) for v in row])
                for row in points]
        assert 0 < sum(want) < len(want)
        assert q_membership_scaled_batch(n, missing, points, scale).tolist() == want
        assert q_membership_scaled_batch(n, missing, 3 * points, 3 * scale).tolist() == want


def test_q_membership_decides_one_past_a_float_mantissa():
    # at scale 2^60 the one-zero normal (1, +-1, 0) reaches 2^60 + 1 on these
    # points, one past scale: a float64 product rounds it to 2^60 and would
    # call both inside, the exact answer is outside for every body
    scale = 1 << 60
    points = np.array([[scale, 1, 0], [scale, -1, 0]], dtype=np.int64)
    for mask in (0, 0x55, 0xFF):
        body = InnerBody(3, mask)
        missing = [i for i in range(8) if not body.has_peak(i)]
        assert [membership_q_oracle(3, missing, [F(int(v), scale) for v in row])
                for row in points] == [False, False]
        assert membership_scaled_batch(body, points, scale).tolist() == [False, False]
        assert q_membership_scaled_batch(3, missing, points, scale).tolist() == [False, False]


def test_q_oracle_dimension_cap():
    with pytest.raises(ParameterError):
        membership_q_oracle(13, (), tuple(F(0) for _ in range(13)))


def test_convex_combinations_stay_inside(rng):
    scale = 1 << 10
    body = InnerBody(3, 0x55)
    coords = rng.integers(-scale, scale + 1, size=(8000, 3)).astype(np.int64)
    members = coords[membership_scaled_batch(body, coords, scale)]
    assert len(members) >= 1000
    half = len(members) // 2
    lam = rng.integers(0, 257, size=(half, 1)).astype(np.int64)
    mix = members[:half] * lam + members[half:2 * half] * (256 - lam)
    assert np.all(membership_scaled_batch(body, mix, scale * 256))


# ---------------------------------------------------------------------------
# bodies, volume, text form

def test_inner_volume_examples():
    assert inner_volume(bare_body(3)) == F(4, 3)
    assert inner_volume(full_body(3)) == 2
    assert inner_volume(InnerBody(3, 0x0F)) == F(5, 3)


def test_inner_volume_monotone():
    prev = None
    for count in range(9):
        body = InnerBody(3, (1 << count) - 1)
        vol = inner_volume(body)
        if prev is not None:
            assert vol > prev
        prev = vol


def test_body_text_roundtrip():
    body = InnerBody(3, 0x0F)
    assert body.text() == "n=3;peaks=0f"
    for body in (body, full_body(4), bare_body(2)):
        n, mask = body.text().split(";")
        assert InnerBody(int(n[2:]), int(mask[6:], 16)) == body


def test_body_peak_queries():
    body = InnerBody(3, 0b00001010)
    assert body.peak_count == 2
    assert body.has_peak(1) and body.has_peak(3)
    assert not body.has_peak(0)
    with pytest.raises(ParameterError):
        InnerBody(3, 1 << 8)


def test_body_peaks_built_once_read_only():
    mask10 = int.from_bytes(np.random.default_rng(10).bytes(128), "little")
    for body in (InnerBody(3, 0b10001010), full_body(2), bare_body(4),
                 InnerBody(5, 0x8000_0001), InnerBody(10, mask10)):
        peaks = body.peaks
        assert body.peaks is peaks
        assert peaks.dtype == np.int64
        assert peaks.tolist() == [i for i in range(1 << body.n) if body.has_peak(i)]
        assert len(peaks) == body.peak_count
        assert not peaks.flags.writeable
        with pytest.raises(ValueError):
            peaks[:] = 0


def test_shared_sign_tables_read_only():
    # both tables are cached and shared by every caller
    for n in (2, 3, 5):
        signs = orthant_signs(n)
        assert orthant_signs(n) is signs
        assert signs.tolist() == [list(index_to_signs(n, i)) for i in range(1 << n)]
        for table in (signs, q_halfspace_normals(n)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0


# ---------------------------------------------------------------------------
# sampling

def test_sample_single_reports_its_region(rng):
    body = InnerBody(3, 0x0F)
    for _ in range(200):
        (x,), (lab,) = sample_inner_batch(body, 1, rng)
        assert classify_point(3, [float(c) for c in x]) == lab
        assert membership_inner(body, [float(c) for c in x])


def test_sample_batch_classifies_back(rng):
    body = InnerBody(3, 0xA5)
    pts, labels = sample_inner_batch(body, 20_000, rng)
    assert np.array_equal(classify_batch(3, pts), labels)
    assert np.isin(labels, [core_label_value(3), 0, 2, 5, 7]).all()


def test_sample_region_frequencies(rng):
    # 4-peak body at n=3: each present peak carries exactly 1/20 of the mass
    body = InnerBody(3, 0x0F)
    _, labels = sample_inner_batch(body, 200_000, rng)
    values, probs = region_expectations(body)
    assert probs[0] == F(4, 5)
    assert all(p == F(1, 20) for p in probs[1:])
    for v, p in zip(values, probs):
        freq = float(np.mean(labels == v))
        sigma = math.sqrt(float(p) * (1 - float(p)) / len(labels))
        assert abs(freq - float(p)) < 5 * sigma


def test_sample_core_signs_balanced(rng):
    pts, _ = sample_inner_batch(bare_body(3), 100_000, rng)
    frac = np.mean(pts > 0, axis=0)
    sigma = 0.5 / math.sqrt(len(pts))
    assert np.all(np.abs(frac - 0.5) < 5 * sigma)


def test_sample_full_body_core_share(rng):
    # all peaks present: core carries (4/3)/2 = 2/3 of the volume
    _, labels = sample_inner_batch(full_body(3), 100_000, rng)
    frac = float(np.mean(labels == core_label_value(3)))
    assert abs(frac - 2 / 3) < 5 * math.sqrt((2 / 3) * (1 / 3) / len(labels))


def test_sampling_is_reproducible():
    body = InnerBody(3, 0x3C)
    a, la = sample_inner_batch(body, 500, np.random.default_rng(123))
    b, lb = sample_inner_batch(body, 500, np.random.default_rng(123))
    assert np.array_equal(a, b) and np.array_equal(la, lb)


def test_sampler_pinned_bytes():
    # SHA-256 of points and labels from the earlier sampler, which drew each
    # orthant's peak points in its own call: the single peak draw of
    # region_points must reproduce them byte for byte
    pins = [
        (InnerBody(3, 0b10110101), 1,
         "85f6901a6056af1cb2e2e6d7f414d5a08504e570611fb376411eead2738b387f"),
        (InnerBody(4, 0x5A3C), 2,
         "3f8e16f1e6f22d967c93e00d5e4a3e42bda1fc50b869dd2eb92220282ebe21a8"),
        (full_body(10), 3,
         "78d6da6d4918a3dfdcaf4b9f123c1de83c5a1d7f07478cee8d475d26149d9e25"),
    ]
    for body, seed, digest in pins:
        pts, labels = sample_inner_batch(body, 20_000, np.random.default_rng(seed))
        assert hashlib.sha256(pts.tobytes() + labels.tobytes()).hexdigest() == digest


def test_label_rows_columns_follow_their_bodies(rng):
    bodies = (full_body(3), bare_body(3), InnerBody(3, 0x81))
    rows = sample_region_label_rows(bodies, 4000, rng)
    assert rows.shape == (4000, 3) and rows.dtype == np.int64
    assert set(np.unique(rows[:, 0])) == set(range(9))
    assert (rows[:, 1] == core_label_value(3)).all()
    assert set(np.unique(rows[:, 2])) == {0, 7, core_label_value(3)}
    assert sample_region_label_rows(bodies, 0, rng).shape == (0, 3)


@pytest.mark.parametrize("masks", [(0x0F, 0x2D, 0x33), (0xFF, 0x2D, 0x00)],
                         ids=["equal-peak-counts", "unequal-peak-counts"])
def test_label_map_reproduces_the_sampler(masks):
    # two generators from one seed: the sampler's, and one whose draw the test
    # repeats and feeds to the map by hand
    bodies = tuple(InnerBody(3, m) for m in masks)
    sampler_rng, map_rng = np.random.default_rng(11), np.random.default_rng(11)
    rows = sample_region_label_rows(bodies, 3000, sampler_rng)
    counts = [b.peak_count for b in bodies]
    high = core_weight(3) + (counts[0] if len(set(counts)) == 1 else np.array(counts))
    u = map_rng.integers(0, high, size=rows.shape)
    drawn = u.copy()
    assert np.array_equal(region_labels_of_draws(bodies, u), rows)
    assert np.array_equal(u, drawn)     # the map leaves its draws alone
    assert sampler_rng.bit_generator.state == map_rng.bit_generator.state


def test_label_rows_validation(rng):
    with pytest.raises(ParameterError):
        sample_region_label_rows((), 3, rng)
    with pytest.raises(ParameterError):
        sample_region_label_rows((full_body(3),), -1, rng)
    with pytest.raises(ParameterError):
        sample_region_label_rows((full_body(3), full_body(2)), 3, rng)
    # past the bytes numpy can address, refused before any allocation
    for count in (1 << 60, 1 << 64):
        with pytest.raises(BudgetExceededError):
            sample_region_label_rows((full_body(3),), count, rng)


def test_region_points_lands_in_each_region(rng):
    n = 4
    labels = rng.integers(0, core_label_value(n) + 1, size=5000)
    pts = region_points(n, labels, rng)
    assert np.array_equal(classify_batch(n, pts), labels)
    assert region_points(n, labels[:0], rng).shape == (0, n)
    with pytest.raises(ParameterError):
        region_points(n, np.array([0, outside_label_value(n)]), rng)
    for shape in ((2, 3), ()):    # a (count, k) matrix or a bare label
        with pytest.raises(ParameterError):
            region_points(n, np.zeros(shape, dtype=np.int64), rng)
    # float labels died in numpy's cast; bool labels were read as orthants 0 and 1
    for bad in (labels[:3].astype(np.float64), np.array([True]), np.array([False, True])):
        with pytest.raises(ParameterError):
            region_points(n, bad, rng)
    assert region_points(n, np.array([]), rng).shape == (0, n)
    assert region_points(n, labels[:3].astype(np.uint8), rng).shape == (3, n)
