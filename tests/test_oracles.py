import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from crosspeaks.errors import ParameterError
from crosspeaks.family import ProductBody
from crosspeaks.geometry import (InnerBody, bare_body, body_from_mask,
                                 classify_batch, core_label_value, full_body,
                                 label_text, sample_inner_batch,
                                 sample_region_label_rows)
from crosspeaks.oracles import (Transcript, answer_space_size,
                                continuous_membership, continuous_random_batch,
                                discrete_membership, discrete_random,
                                discrete_random_batch, parse_transcript_log,
                                simulate_batch)
from crosspeaks.verify import chisquare_pvalue, ks_2samp_pvalue


def _product(mask_per_factor, n=3):
    return ProductBody(tuple(body_from_mask(n, m) for m in mask_per_factor))


# ---------------------------------------------------------------------------
# discrete random oracle: exact region frequencies

def test_discrete_frequencies_full_factor(rng):
    # full body at n=3: core 2/3, each peak 1/24
    body = ProductBody((full_body(3),))
    draws = discrete_random_batch(body, 120_000, rng)[:, 0]
    counts = np.bincount(draws, minlength=9)[:9]
    expected = np.array([1 / 24] * 8 + [2 / 3]) * len(draws)
    assert chisquare(counts, expected).pvalue > 1e-3


def test_discrete_frequencies_four_peaks(rng):
    # 4-peak body: core 4/5, each present peak exactly 1/20
    body = ProductBody((body_from_mask(3, 0x0F),))
    draws = discrete_random_batch(body, 200_000, rng)[:, 0]
    count = len(draws)
    for index in range(4):
        freq = float(np.mean(draws == index))
        sigma = math.sqrt(0.05 * 0.95 / count)
        assert abs(freq - 1 / 20) < 5 * sigma
    # absent peaks never show up
    assert not np.isin(draws, [4, 5, 6, 7]).any()


def test_discrete_scalar_never_outside(rng):
    body = _product((0x0F, 0xF0))
    for _ in range(300):
        ans = discrete_random(body, rng)
        assert len(ans) == 2
        for j, lab in enumerate(ans):
            assert lab <= core_label_value(3)  # never outside
            if lab < core_label_value(3):
                assert body.factors[j].has_peak(lab)


@st.composite
def _factor_bodies(draw):
    """1 to 4 same-dimension bodies, peak counts either all equal or mixed."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    equal = draw(st.none() | st.integers(0, 1 << n))
    bodies = []
    for _ in range(m):
        size = draw(st.integers(0, 1 << n)) if equal is None else equal
        order = draw(st.permutations(range(1 << n)))
        bodies.append(InnerBody(n, sum(1 << i for i in order[:size])))
    return tuple(bodies)


@settings(deadline=None)
@given(bodies=_factor_bodies(), count=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_label_rows_equal_sequential_draws(bodies, count, seed):
    # one (count, m) draw must equal count discrete_random calls on a twin
    # generator, and count x m scalar draws mapped through the core/peak rule
    # by hand; afterwards all three generators must agree on their next draws
    rng, twin, scalar = (np.random.default_rng(seed) for _ in range(3))
    rows = sample_region_label_rows(bodies, count, rng)
    n = bodies[0].n
    r = (1 << n) * (n - 1)
    by_hand = []
    for _ in range(count):
        for b in bodies:
            u = int(scalar.integers(0, r + b.peak_count, size=1)[0])
            peaks = [i for i in range(1 << n) if b.has_peak(i)]
            by_hand.append(core_label_value(n) if u < r else peaks[u - r])
    body = ProductBody(bodies)
    assert rows.shape == (count, len(bodies))
    assert rows.tolist() == [list(discrete_random(body, twin)) for _ in range(count)]
    assert rows.ravel().tolist() == by_hand
    after = [g.integers(0, 1 << 40, size=4).tolist() for g in (rng, twin, scalar)]
    assert after[0] == after[1] == after[2]


# ---------------------------------------------------------------------------
# continuous oracle

def test_continuous_peak_block_share(rng):
    # full factor: peaks together carry 1/3 of the volume
    body = ProductBody((full_body(3),))
    pts = continuous_random_batch(body, 100_000, rng)
    labels = classify_batch(3, pts)
    frac = float(np.mean(labels < core_label_value(3)))
    assert abs(frac - 1 / 3) < 5 * math.sqrt((1 / 3) * (2 / 3) / len(pts))


def test_continuous_mean_near_zero(rng):
    # the all-peaks body is centrally symmetric, so every coordinate mean is 0
    body = ProductBody((full_body(3),))
    pts = continuous_random_batch(body, 1_000_000, rng)
    sigma = pts.std(axis=0) / math.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0)) < 5 * sigma)


def test_continuous_membership_literals():
    body = _product((0x0F, 0xFF))
    assert continuous_membership(body, [0.0] * 6)
    # second block outside its factor
    assert not continuous_membership(body, [0.0, 0.0, 0.0, 0.9, 0.9, 0.9])
    # first block in an absent peak of factor 0
    assert not continuous_membership(body, [-0.5, -0.5, 0.45, 0.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        continuous_membership(body, [0.0] * 5)


def test_continuous_random_points_are_members(rng):
    body = _product((0x0F, 0x33, 0xC3))
    points = continuous_random_batch(body, 100, rng)
    assert points.shape == (100, 9)
    for x in points:
        assert continuous_membership(body, x)


def test_random_batches_refuse_negative_counts(rng):
    body = _product((0x0F, 0x33))
    for batch in (continuous_random_batch, discrete_random_batch):
        with pytest.raises(ParameterError):
            batch(body, -1, rng)


# ---------------------------------------------------------------------------
# membership oracle

def test_discrete_membership_literals():
    body = _product((0x0F, 0x0F))
    assert discrete_membership(body, (0, 7)) == (True, False)
    assert discrete_membership(body, (3, 2)) == (True, True)
    assert discrete_membership(body, (7, 4)) == (False, False)
    for indices in ((0,), (), (0, 8), (0, -1)):
        with pytest.raises(ParameterError):
            discrete_membership(body, indices)


# ---------------------------------------------------------------------------
# simulation: discrete draw -> continuous point

def test_simulate_core_label_matches_core_sampler(rng):
    n = 3
    count = 60_000
    labels = np.full((count, 1), core_label_value(n), dtype=np.int64)
    sim = simulate_batch(n, labels, rng)
    direct, _ = sample_inner_batch(bare_body(n), count, rng)
    for axis in range(n):
        assert ks_2samp(sim[:, axis], direct[:, axis]).pvalue > 1e-3


def test_simulate_peak_label_classifies_back(rng):
    n = 3
    for orthant in (0, 5, 7):
        labels = np.full((20_000, 1), orthant, dtype=np.int64)
        sim = simulate_batch(n, labels, rng)
        back = classify_batch(n, sim)
        assert np.all(back == orthant)


def test_simulate_scalar_matches_label(rng):
    labels = np.tile([core_label_value(3), 6], (200, 1))
    points = simulate_batch(3, labels, rng)
    assert points.shape == (200, 6)
    assert np.all(classify_batch(3, points[:, :3]) == core_label_value(3))
    assert np.all(classify_batch(3, points[:, 3:]) == 6)


def test_simulate_pinned_bytes(family_34):
    # SHA-256 of labels and simulated points from the earlier per-orthant
    # simulator on one (3,4) body; region_points must reproduce it
    body = family_34.body(1234)
    assert body.text() == "n=3;peaks=d2|n=3;peaks=4b|n=3;peaks=b4|n=3;peaks=2d"
    rng = np.random.default_rng(4)
    labels = discrete_random_batch(body, 5000, rng)
    sim = simulate_batch(3, labels, rng)
    assert (hashlib.sha256(labels.tobytes() + sim.tobytes()).hexdigest()
            == "b2374dd75f54d9622619fca920cf398b655778f3b6ad0db451bbb409c950bbc3")


def test_simulate_batch_rejects_flat_labels(rng):
    # one row's labels without the leading axis
    with pytest.raises(ParameterError, match=r"\(count, k\)"):
        simulate_batch(3, np.array([8, 1]), rng)


def test_simulation_pipeline_matches_continuous(rng):
    # discrete draw + simulation must be indistinguishable from the
    # continuous oracle, coordinate by coordinate
    body = _product((0x0F, 0x3C))
    count = 80_000
    sim = simulate_batch(3, discrete_random_batch(body, count, rng), rng)
    direct = continuous_random_batch(body, count, rng)
    for axis in range(6):
        assert ks_2samp(sim[:, axis], direct[:, axis]).pvalue > 1e-3


# ---------------------------------------------------------------------------
# answer space

def test_answer_space_enumeration():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        # per factor: the 2^n peak indices or the core label 2^n
        combos = list(itertools.product(range((1 << n) + 1), repeat=k))
        texts = {",".join(label_text(n, v) for v in c) for c in combos}
        assert len(texts) == len(combos) == answer_space_size(n, k)
        assert answer_space_size(n, k) == ((1 << n) + 1) ** k


def test_answer_validation():
    # the checks a logged answer must pass, made where logs are parsed
    for line in ("R",                  # no labels at all
                 "R ",
                 "R C,",               # an empty label
                 "R O",                # random draws always land inside the body
                 "R C,O",
                 "R P8",               # orthant 8 needs n >= 4
                 "R P-1",
                 "R P",
                 "R Pzz",
                 "M 1,2 -> true",      # one answer per probed index
                 "M 0 -> true,false",
                 "M 99,0 -> true,true",  # indices are orthants below 2^n
                 "M 8,0 -> true,true",
                 "M -1,0 -> true,true"):
        with pytest.raises(ParameterError):
            parse_transcript_log(3, line)
    with pytest.raises(ParameterError):
        simulate_batch(3, np.array([[9]]), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# transcripts

def test_transcript_roundtrip():
    t = Transcript(3)
    t.record_random((core_label_value(3), 7))
    t.record_membership((0, 5), (True, False))
    log = t.to_log()
    assert log == "R C,P7\nM 0,5 -> true,false"
    back = parse_transcript_log(3, log)
    assert back.to_log() == log
    assert back.query_count == 2


def test_transcript_parse_errors():
    with pytest.raises(ParameterError):
        parse_transcript_log(3, "R C,X1")
    with pytest.raises(ParameterError):
        parse_transcript_log(3, "M 0,5 -> yes,no")
    with pytest.raises(ParameterError):
        parse_transcript_log(3, "Z what")
    with pytest.raises(ParameterError):
        parse_transcript_log(2, "R P7")  # orthant 7 needs n >= 3
    for n in (-1, 1):   # factors need n >= 2, as InnerBody does
        with pytest.raises(ParameterError):
            parse_transcript_log(n, "R C")


def test_identical_seeds_identical_transcripts():
    body = _product((0x0F, 0x33))
    logs = []
    for _ in range(2):
        rng = np.random.default_rng(424242)
        t = Transcript(3)
        for _ in range(50):
            t.record_random(discrete_random(body, rng))
        t.record_membership((2, 3), discrete_membership(body, (2, 3)))
        logs.append(t.to_log())
    assert logs[0] == logs[1]


# ---------------------------------------------------------------------------
# stdlib p-values against scipy, the independent reference

@settings(deadline=None)
@given(df=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       spread=st.floats(0.01, 3.0))
def test_chisquare_pvalue_matches_scipy(df, seed, spread):
    gen = np.random.default_rng(seed)
    expected = gen.uniform(1.0, 500.0, size=df + 1)
    observed = np.maximum(0.0, np.round(
        expected + spread * np.sqrt(expected) * gen.standard_normal(df + 1)))
    expected *= observed.sum() / expected.sum()  # scipy wants equal totals
    want = chisquare(observed, expected).pvalue
    assert chisquare_pvalue(observed, expected) == pytest.approx(want, rel=1e-9, abs=1e-300)


@settings(deadline=None)
@given(n=st.integers(1, 1000), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(0.0, 1.0), levels=st.sampled_from([3, 50, 0]))
def test_ks_2samp_pvalue_matches_scipy_exact(n, seed, shift, levels):
    gen = np.random.default_rng(seed)
    a, b = gen.standard_normal(n), gen.standard_normal(n) + shift
    if levels:  # ties within and across the samples
        a, b = np.round(a * levels), np.round(b * levels)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = ks_2samp(a, b, method="exact").pvalue
    if caught:
        # scipy gives up on "exact" when rounding lifts its sum past 1 at
        # D = 1/n, where the exact tail is 1, and answers asymptotically
        assert round(n * ks_2samp(a, b).statistic) == 1
        want = 1.0
    assert ks_2samp_pvalue(a, b) == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_pvalues_of_identical_samples_are_one(rng):
    a = rng.standard_normal(500)
    assert ks_2samp_pvalue(a, a) == 1.0
    assert ks_2samp_pvalue(a, rng.permutation(a)) == 1.0
    assert chisquare_pvalue([10, 20, 30], [10, 20, 30]) == 1.0


def test_pvalues_reject_bad_input():
    with pytest.raises(ParameterError):
        ks_2samp_pvalue([0.1, 0.2], [0.3])
    with pytest.raises(ParameterError):
        ks_2samp_pvalue([], [])
    with pytest.raises(ParameterError):
        chisquare_pvalue([5], [5])
    with pytest.raises(ParameterError):
        chisquare_pvalue([1, 2], [1, 2, 3])
    with pytest.raises(ParameterError):
        chisquare_pvalue([1, 2], [0, 3])
