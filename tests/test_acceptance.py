"""Acceptance gate: eight numbered criteria, one test each, in order.

Every test prints a single ``[PASS] criterion N: ...`` line (visible under
``pytest -s``) after its assertions, and asserts the stated runtime budget.
Tolerances are fixed here on purpose; loosening them is a red flag, not a
fix.
"""

import csv
import math
import time
from fractions import Fraction

import numpy as np
from scipy.stats import chisquare, ks_2samp

from crosspeaks.codes import (complement_extend, gv_floor, gv_greedy,
                              min_distance_exhaustive)
from crosspeaks.exactmath import simplex_volume
from crosspeaks.family import (build_product_family, certify_cardinality,
                               certify_separation)
from crosspeaks.geometry import (InnerBody, bare_body,
                                 make_geometry, membership_scaled_batch,
                                 peak_vertices, q_membership_scaled_batch,
                                 region_expectations, sample_inner_batch,
                                 sample_region_labels)
from crosspeaks.halfspace import (COROLLARY_CSV_COLUMNS, corollary_explore,
                                  halfspace_discrepancy)
from crosspeaks.harness import (GameConfig, MLConsistencyLearner,
                                choose_parameters, query_lower_bound,
                                run_game, success_upper_bound)
from crosspeaks.oracles import simulate_batch

F = Fraction
SEED = 20260816


def _report(number: int, detail: str) -> None:
    print(f"[PASS] criterion {number}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_exact_peak_geometry():
    start = time.perf_counter()
    for n in range(2, 9):
        g = make_geometry(n)
        assert (1 << n) * g.peak_volume == g.core_volume / (n - 1)
        for index in range(1 << n):
            oracle = simplex_volume(peak_vertices(n, index))
            assert oracle == g.peak_volume
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"peak volumes match the determinant oracle exactly for "
               f"n=2..8, all 508 orthants, in {elapsed:.2f}s")


def test_criterion_2_membership_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    scale = 1 << 10
    lo, hi = -(5 * scale) // 4, (5 * scale) // 4 + 1
    points_checked = 0
    combos_checked = 0
    for pos, n in enumerate((2, 3, 4)):
        orthants = 1 << n
        quota = 3400 * (pos + 1)  # spread the 10^4 combos over all three n
        for body_round in range(50):
            mask = int(rng.integers(1 << orthants))
            body = InnerBody(n, mask)
            missing = [i for i in range(orthants) if not body.has_peak(i)]
            pts = rng.integers(lo, hi, size=(100_000, n)).astype(np.int64)
            mine = membership_scaled_batch(body, pts, scale)
            other = q_membership_scaled_batch(n, missing, pts, scale)
            assert np.array_equal(mine, other)
            points_checked += len(pts)
            if combos_checked < quota:
                members = pts[mine]
                half = min(len(members) // 2, 1700)
                assert half > 0
                lam = rng.integers(0, 1025, size=(half, 1)).astype(np.int64)
                mix = members[:half] * lam + members[half:2 * half] * (1024 - lam)
                assert np.all(membership_scaled_batch(body, mix, scale * 1024))
                combos_checked += half
    assert points_checked == 150 * 100_000
    assert combos_checked >= 10_000
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"two membership routes agree on {points_checked} rational "
               f"points with zero disagreements; {combos_checked} convex "
               f"combinations stayed inside; {elapsed:.1f}s")


def test_criterion_3_sampler_fidelity():
    start = time.perf_counter()
    count = 1_000_000
    rng = np.random.default_rng(SEED + 3)
    for mask in (0x00, 0x0F, 0xFF):
        body = InnerBody(3, mask)
        _, labels = sample_inner_batch(body, count, rng)
        values, probs = region_expectations(body)
        counts = np.array([(labels == v).sum() for v in values])
        assert counts.sum() == count  # no label outside the expected regions
        if len(values) > 1:
            expected = np.array([float(p) for p in probs]) * count
            assert chisquare(counts, expected).pvalue > 1e-3

        disc = sample_region_labels(body, count, rng).reshape(-1, 1)
        sim = simulate_batch(3, disc, rng)
        direct, _ = sample_inner_batch(body, count, rng)
        for axis in range(3):
            assert ks_2samp(sim[:, axis], direct[:, axis]).pvalue > 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"region frequencies and the simulation pipeline pass "
               f"chi-square/KS at p>1e-3 for 0/4/8-peak bodies, {count} "
               f"samples each; {elapsed:.1f}s")


def test_criterion_4_code_certification():
    start = time.perf_counter()
    grid = [(2, 4, 1), (2, 4, 2), (2, 8, 2), (2, 8, 4), (3, 4, 2),
            (4, 8, 4), (16, 4, 2)]
    for q, length, d in grid:
        code = gv_greedy(q, length, d)
        assert code.size >= gv_floor(q, length, d)
        assert min_distance_exhaustive(code.words) >= d
        if (q, length, d) == (2, 4, 2):
            assert code.size == 8
    for length, d in [(4, 2), (8, 4), (8, 2)]:
        base = gv_greedy(2, length, d)
        out = complement_extend(base)
        assert all(sum(w) == out.length // 2 for w in out.words)
        assert min_distance_exhaustive(out.words) == 2 * min_distance_exhaustive(base.words)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"greedy codes meet the size floor on {len(grid)} grid points "
               f"and complement extension doubles certified distances; "
               f"{elapsed:.1f}s")


def test_criterion_5_family_separation_suite(family_34):
    start = time.perf_counter()
    expected = {
        (3, 2): (256, F(1, 20)),
        (3, 4): (4096, F(39, 400)),
        (2, 8): (256, F(671, 1296)),
    }
    for (n, k), (size, min_dist) in expected.items():
        family = family_34 if (n, k) == (3, 4) else build_product_family(n, k)
        assert family.size == size
        report = certify_separation(family)
        assert report.mode == "all"
        assert report.pairs_checked == size * (size - 1) // 2
        assert report.min_distance == min_dist
        assert report.min_distance > report.floor_hi
        assert 8 * report.max_shared_on_diff <= 3 * (1 << n)
        certify_cardinality(family)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, "all-pairs exact distances clear 1-e^(-k/(16n)) with zero "
               "violations for (3,2), (3,4), (2,8); shared-peak and "
               f"cardinality floors hold; {elapsed:.1f}s")


def test_criterion_6_game_soundness(family_34):
    start = time.perf_counter()
    trials = 2000
    epsilon = F(1, 32)
    budgets = (0, 1, 5, 20, 100)
    rates = []
    for q in budgets:
        config = GameConfig(family=family_34, query_budget=q, epsilon=epsilon,
                            trials=trials, seed=SEED)
        stats = run_game(config, MLConsistencyLearner("random"))
        assert stats.budget_violations == 0
        rates.append(stats.success_rate)
        bound = success_upper_bound(3, 4, q, family_34.size, epsilon)
        p = min(max(float(bound), 1e-9), 1 - 1e-9)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert stats.success_rate <= float(bound) + 5 * sigma

    blind = 1 / family_34.size
    sigma0 = math.sqrt(blind * (1 - blind) / trials)
    assert abs(rates[0] - blind) <= 5 * sigma0
    assert all(a <= b for a, b in zip(rates, rates[1:]))

    # membership census: k * 2^n probe slots resolve any hidden body
    for q in (4 * 8, 100):
        config = GameConfig(family=family_34, query_budget=q, epsilon=epsilon,
                            trials=trials, seed=SEED)
        stats = run_game(config, MLConsistencyLearner("census"))
        assert stats.success_rate == 1.0
        assert stats.exact_identifications == trials
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(6, f"success rates {[round(r, 4) for r in rates]} for budgets "
               f"{list(budgets)}: blind baseline within 5 sigma, monotone, "
               f"under the counting bound; census rate 1.0; {elapsed:.1f}s")


def test_criterion_7_bound_calculators():
    start = time.perf_counter()
    choice = choose_parameters(1024, F(1, 8))
    assert (choice.n, choice.k) == (64, 16)
    choice = choose_parameters(1024, F(1, 128))
    assert (choice.n, choice.k) == (256, 4)

    qb = query_lower_bound(64, F(1, 8))
    assert (qb.regime, qb.q_floor) == ("exact", 194)
    qb = query_lower_bound(1024, F(1, 8))
    assert (qb.regime, qb.q_floor) == ("certified", 13510798882111488)

    ratios = []
    d = 64
    while d <= (1 << 14):
        qb = query_lower_bound(d, F(1, 8))
        ratio = math.log2(max(qb.q_floor, 2)) / qb.asymptotic_log2
        assert 0.25 <= ratio <= 4
        ratios.append(ratio)
        d *= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(7, f"parameter splits pinned; query floors 194 (exact) and "
               f"13510798882111488 (certified); log2(q)/sqrt(d/L) in "
               f"[{min(ratios):.2f}, {max(ratios):.2f}] over the d-grid; "
               f"{elapsed:.2f}s")


def test_criterion_8_halfspace_estimator(family_34, tmp_path):
    start = time.perf_counter()
    count = 100_000
    rng = np.random.default_rng(SEED + 8)
    pts, _ = sample_inner_batch(bare_body(3), count, rng)
    for axis in range(3):
        cdf_at_zero = float(np.mean(pts[:, axis] <= 0.0))
        sigma = math.sqrt(0.25 / count)
        assert abs(cdf_at_zero - 0.5) <= 3 * sigma

    body = family_34.body(17)
    est = halfspace_discrepancy(body, body, dirs=16, samples=4096, rng=rng)
    assert est.estimate == 0.0
    assert est.estimate < est.noise_floor

    csv_path = tmp_path / "scan.csv"
    report = corollary_explore(family_34, pairs=6, dirs=16, samples=2000,
                               seed=SEED, csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == COROLLARY_CSV_COLUMNS
    assert len(rows) == len(report.rows) == 6
    for row in rows:
        i, j = int(row["i"]), int(row["j"])
        assert 0 <= i < j < family_34.size
        assert float(row["exact_dist"]) > 0
        assert 0 <= float(row["ks_estimate"]) <= 1
        assert int(row["dirs"]) == report.directions
        assert int(row["samples"]) == 2000
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"axis CDF at 0 within 3 sigma of 1/2; self-discrepancy 0 "
               f"under the noise floor; pair-scan CSV well-formed over the "
               f"(3,4) family; {elapsed:.1f}s")
