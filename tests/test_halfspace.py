import math
from fractions import Fraction

import numpy as np
import pytest

from crosspeaks.errors import ParameterError
from crosspeaks.family import ProductBody
from crosspeaks.geometry import body_from_mask, full_body
from crosspeaks.halfspace import (COROLLARY_CSV_COLUMNS, corollary_explore,
                                  direction_set, halfspace_discrepancy,
                                  ks_statistic, noise_floor)


def _product(masks, n=3):
    return ProductBody(tuple(body_from_mask(n, m) for m in masks))


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
    for pairs in (0, -3, [], np.int64(0)):
        with pytest.raises(ParameterError):
            corollary_explore(family_32, pairs, dirs=4, samples=1000, seed=1)
