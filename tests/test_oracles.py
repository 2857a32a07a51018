import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from crosspeaks import geometry, oracles, verify
from crosspeaks.bounds import answer_space_size
from crosspeaks.errors import ParameterError, VerificationError
from crosspeaks.family import ProductBody
from crosspeaks.geometry import (InnerBody, bare_body,
                                 classify_batch, core_label_value, full_body,
                                 label_text, sample_inner_batch,
                                 sample_region_label_rows)
from crosspeaks.oracles import (Transcript, continuous_membership,
                                continuous_random_batch, discrete_membership,
                                discrete_random, discrete_random_batch,
                                parse_transcript_log, simulate_batch)


def _product(mask_per_factor, n=3):
    return ProductBody(tuple(InnerBody(n, m) for m in mask_per_factor))


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
    body = ProductBody((InnerBody(3, 0x0F),))
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
                 "M -1,0 -> true,true",
                 # only the spellings to_log writes, where int() read these
                 "R P0x7,P+3,P0_1", "R P0x7", "R P+3", "R P0_1", "R P07", "R P 3",
                 "R P\u0667", "M +1,2 -> true,true", "M 0_1,2 -> true,true",
                 "M 01,2 -> true,true", "M 1, 2 -> true,true", "M \u0661,2 -> true,true",
                 # only the spacing to_log writes, where .strip() read these
                 "R C, P1", "M 0,1 -> true, false", "R  C ,P2", "M 0,1 ->true,false"):
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


@pytest.mark.parametrize("record", [
    lambda t: t.record_membership((1, 2), (True,)),        # logged "M 1,2 -> true"
    lambda t: t.record_random((9, 8)),                     # logged "R O,C"
    lambda t: t.record_membership((9, 1), (True, False)),  # orthant 9 needs n >= 4
    lambda t: t.record_random(()),                         # logged "R "
    lambda t: t.record_membership((), ()),                 # logged "M  -> "
    lambda t: t.record_random_rows(np.array([[0, 9]])),
    lambda t: t.record_random_rows(np.array([[-1, 8]])),
    lambda t: t.record_random_rows(np.array([[0.5, 8.0]])),
    lambda t: t.record_random_rows(np.zeros((2, 0), dtype=np.int64)),
], ids=["M-missing-answer", "R-outside", "M-index-past-2^n", "R-empty", "M-empty",
        "rows-outside", "rows-negative", "rows-float", "rows-zero-width"])
def test_transcript_refuses_entries_its_log_cannot_replay(record):
    t = Transcript(3)
    t.record_random((8, 1))
    with pytest.raises(ParameterError):
        record(t)
    assert t.entries == [("R", (8, 1))]
    assert parse_transcript_log(3, t.to_log()).entries == t.entries


def test_random_draws_meet_one_label_gate_for_one_row_or_many():
    # record_random is the one-row case of record_random_rows: both refuse
    # the first bad label with require_int's message, and bools are no labels
    t = Transcript(3)
    for record in (t.record_random, lambda row: t.record_random_rows([row])):
        with pytest.raises(ParameterError, match=r"^label 9 out of range \[0, 9\)$"):
            record((8, 9))
        with pytest.raises(ParameterError, match="^label must be an integer, not "):
            record((True, False))
        with pytest.raises(ParameterError, match="^label must be an integer, not "):
            record((1, 2.0))
        with pytest.raises(ParameterError, match=r"^label rows do not form a \(count, k\)"):
            record(((1, 2), 3))
    # 'O' is outside, which label_text writes and no random draw can be
    with pytest.raises(ParameterError, match=r"^label 9 out of range \[0, 9\)$"):
        parse_transcript_log(3, "R C,O")
    assert t.entries == []


@settings(deadline=None)
@given(n=st.integers(2, 4), calls=st.lists(st.tuples(
    st.sampled_from(["R", "rows", "M"]), st.lists(st.integers(-2, 18), max_size=3),
    st.lists(st.booleans(), max_size=3)), max_size=8))
def test_every_recorded_transcript_replays(n, calls):
    t = Transcript(n)
    for kind, values, answers in calls:
        try:
            if kind == "R":
                t.record_random(values)
            elif kind == "M":
                t.record_membership(values, answers)
            else:
                t.record_random_rows(np.array(values, dtype=np.int64).reshape(1, -1))
        except ParameterError:
            pass
    assert parse_transcript_log(n, t.to_log()).entries == t.entries


# ---------------------------------------------------------------------------
# the exact checks of verify

def test_oracle_branching_fails_on_an_offset_off_by_one(monkeypatch):
    ctx = verify._Context(None, verify.DEFAULT_SEED)
    assert "7680-row product grid" in verify.check_oracle_branching(ctx)
    draws = geometry.InnerBody.draws.func

    def shifted(body):
        # the peaks start one slot late: draw R reads the core, the last peak is lost
        table = draws(body)
        return np.concatenate((table[:1], table[:-1]))

    monkeypatch.setattr(geometry.InnerBody, "draws", property(shifted))
    with pytest.raises(VerificationError, match="label map law"):
        verify.check_oracle_branching(ctx)


def test_simulation_match_fails_on_one_extra_draw(monkeypatch):
    ctx = verify._Context(None, verify.DEFAULT_SEED)
    assert "reproduces direct sampling exactly" in verify.check_simulation_match(ctx)
    simulate = oracles.simulate_batch

    def shifted(n, labels, rng):
        rng.random()    # one stray draw shifts every later point
        return simulate(n, labels, rng)

    monkeypatch.setattr(oracles, "simulate_batch", shifted)
    with pytest.raises(VerificationError, match="differ from direct sampling"):
        verify.check_simulation_match(ctx)
