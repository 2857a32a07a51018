import hashlib
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspeaks import harness, trialseeds
from crosspeaks.errors import (BudgetExceededError, ParameterError,
                               VerificationError)
from crosspeaks.codes import certified_code
from crosspeaks.family import build_inner_family, product_family_from_parts
from crosspeaks.geometry import core_label_value
from crosspeaks.harness import (MAX_LABELS_PER_TRIAL, MAX_TRIALS, GameConfig, GameStats,
                                MLConsistencyLearner, OracleSession,
                                RandomGuessLearner,
                                RESULTS_CSV_COLUMNS, consistent_indices,
                                game_result_row, run_game, write_results_csv)
from crosspeaks.oracles import Transcript, parse_transcript_log
from crosspeaks.trialseeds import stream_states

F = Fraction
SEED = 20260816


# ---------------------------------------------------------------------------
# sessions and budgets

def test_session_budget_enforced(family_32, rng):
    session = OracleSession(family_32.body(5), 3, rng)
    assert session.remaining == 3
    session.random_batch(1)
    session.membership((0, 1))
    session.random_batch(1)
    assert session.remaining == 0
    with pytest.raises(BudgetExceededError):
        session.random_batch(1)
    with pytest.raises(BudgetExceededError):
        session.membership((0, 0))
    assert session.transcript.query_count == 3


def test_session_rejects_negative_budget(family_32, rng):
    with pytest.raises(ParameterError):
        OracleSession(family_32.body(0), -1, rng)


def test_random_batch_matches_single_queries(family_34):
    body = family_34.body(77)
    batch = OracleSession(body, 8, np.random.default_rng(5))
    single = OracleSession(body, 8, np.random.default_rng(5))
    labels = batch.random_batch(6)
    assert labels.shape == (6, 4)
    assert ([tuple(single.random_batch(1)[0].tolist()) for _ in range(6)]
            == [tuple(row) for row in labels.tolist()])
    assert batch.transcript.to_log() == single.transcript.to_log()
    assert batch.remaining == single.remaining == 2


def test_random_batch_refuses_overdraft_before_drawing(family_32, rng):
    session = OracleSession(family_32.body(3), 4, rng)
    session.random_batch(3)
    state = rng.bit_generator.state
    with pytest.raises(BudgetExceededError):
        session.random_batch(2)
    assert rng.bit_generator.state == state
    assert session.transcript.query_count == 3
    assert session.random_batch(1).shape == (1, 2)
    assert session.remaining == 0


def test_random_batch_zero_and_negative_counts(family_32, rng):
    session = OracleSession(family_32.body(3), 0, rng)
    assert session.random_batch(0).shape == (0, 2)
    assert session.transcript.query_count == 0
    with pytest.raises(ParameterError):
        session.random_batch(-1)
    with pytest.raises(BudgetExceededError):
        session.random_batch(1)


@pytest.mark.parametrize("budget, calls", [(0, []), (3, [3])])
def test_random_learner_draws_its_budget_in_one_call(family_32, rng, budget, calls):
    session = OracleSession(family_32.body(3), budget, rng)
    seen = []
    session.random_batch = seen.append
    MLConsistencyLearner("random").play(session, family_32, rng)
    assert seen == calls


class _Overdrawer:
    """Deliberately ignores the budget; run_game must forfeit its trials."""

    def play(self, session, family, rng):
        for _ in range(session.budget + 1):
            session.random_batch(1)
        return 0


def test_run_game_flags_budget_violations(family_32):
    config = GameConfig(family=family_32, query_budget=2, epsilon=F(1, 64),
                        trials=20, seed=SEED)
    stats = run_game(config, _Overdrawer())
    assert stats.budget_violations == 20
    assert stats.successes == 0
    assert stats.success_rate == 0.0


# ---------------------------------------------------------------------------
# consistency learner mechanics

def test_ml_learner_empty_transcript_lowest_index(family_32, rng):
    session = OracleSession(family_32.body(9), 0, rng)
    assert MLConsistencyLearner().play(session, family_32, rng) == 0


def test_consistent_indices_brute_force(family_32):
    t = Transcript(3)
    t.record_random((2, core_label_value(3)))
    t.record_membership((5, 0), (True, False))
    fast = set(int(i) for i in consistent_indices(t, family_32))
    slow = set()
    for i in range(family_32.size):
        f0, f1 = family_32.body(i).factors
        if f0.has_peak(2) and f0.has_peak(5) and not f1.has_peak(0):
            slow.add(i)
    assert fast == slow
    assert slow  # the transcript admits someone


_draw = st.tuples(st.just("R"), st.tuples(*[st.integers(0, 8)] * 2))
_probe = st.tuples(st.just("M"), st.tuples(*[st.integers(0, 7)] * 2),
                   st.tuples(st.booleans(), st.booleans()))


def _transcript(n, entries):
    t = Transcript(n)
    for e in entries:
        if e[0] == "R":
            t.record_random(e[1])
        else:
            t.record_membership(e[1], e[2])
    return t


def _brute_force_consistent(family, entries):
    """Family indices whose factors answer every entry as recorded, by
    has_peak on every body (label 2^n is the core)."""
    core = core_label_value(family.n)

    def admits(body):
        for e in entries:
            for j, f in enumerate(body.factors):
                if e[0] == "R" and e[1][j] < core and not f.has_peak(e[1][j]):
                    return False
                if e[0] == "M" and f.has_peak(e[1][j]) != e[2][j]:
                    return False
        return True

    return {i for i in range(family.size) if admits(family.body(i))}


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(st.one_of(_draw, _probe), max_size=8))
def test_consistent_indices_property(family_32, entries):
    # random int-label draws (8 = core) and membership probes against a
    # brute-force filter over every body's factors
    t = _transcript(3, entries)
    slow = _brute_force_consistent(family_32, entries)
    assert set(consistent_indices(t, family_32).tolist()) == slow
    log = t.to_log()
    assert parse_transcript_log(3, log).to_log() == log


# few peak indices, so pins on one factor collide often
_few_peaks = st.integers(0, 3)
_mixed_row = st.tuples(st.just("R"), st.tuples(*[st.one_of(_few_peaks, st.just(8))] * 2))
_mixed_probe = st.tuples(st.just("M"), st.tuples(_few_peaks, _few_peaks),
                         st.tuples(st.booleans(), st.booleans()))


@st.composite
def _mixed_entries(draw):
    """R rows and M entries, and sometimes a pin echoed with the opposite
    answer: a peak seen in a draw answered absent, or a membership bit
    flipped."""
    entries = draw(st.lists(st.one_of(_mixed_row, _mixed_probe), min_size=1, max_size=10))
    echo = draw(st.sampled_from(entries))
    j = draw(st.integers(0, 1))
    other = draw(st.tuples(_few_peaks, st.booleans()))
    idx, ans = [other[0]] * 2, [other[1]] * 2
    if echo[0] == "R" and echo[1][j] < 8:
        idx[j], ans[j] = echo[1][j], False
    elif echo[0] == "M":
        idx[j], ans[j] = echo[1][j], not echo[2][j]
    position = draw(st.integers(0, len(entries)))
    entries.insert(position, ("M", tuple(idx), tuple(ans)))
    return entries


@settings(max_examples=200, deadline=None)
@given(entries=_mixed_entries())
def test_consistent_indices_matches_has_peak_with_contradictions(family_32, entries):
    fast = consistent_indices(_transcript(3, entries), family_32)
    assert fast.tolist() == sorted(_brute_force_consistent(family_32, entries))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_consistent_indices_across_mask_words(family_two_word, data):
    # answers from one hidden body, each membership entry possibly lying on
    # one factor, against the has_peak reference
    family = family_two_word
    hidden = data.draw(st.integers(0, family.size - 1))
    factors = family.body(hidden).factors
    entries = []
    for _ in range(data.draw(st.integers(0, 5))):
        if data.draw(st.booleans()):
            entries.append(("R", tuple(
                data.draw(st.sampled_from([i for i in range(8) if f.has_peak(i)] + [8]))
                for f in factors)))
        else:
            idx = tuple(data.draw(st.integers(0, 7)) for _ in factors)
            lie = data.draw(st.one_of(st.none(), st.integers(0, 8)))
            entries.append(("M", idx, tuple(f.has_peak(i) != (j == lie)
                                            for j, (f, i) in enumerate(zip(factors, idx)))))
    fast = consistent_indices(_transcript(3, entries), family).tolist()
    assert fast == sorted(_brute_force_consistent(family, entries))
    if all(e[0] == "R" for e in entries):
        assert hidden in fast


def test_contradictory_membership_answers_empty(family_32):
    t = Transcript(3)
    t.record_membership((3, 3), (True, True))
    t.record_membership((3, 3), (False, True))
    assert len(consistent_indices(t, family_32)) == 0
    session = OracleSession(family_32.body(0), 0, np.random.default_rng(1))
    session.transcript = t
    with pytest.raises(VerificationError):
        MLConsistencyLearner().play(session, family_32, np.random.default_rng(2))


@pytest.mark.parametrize("n, log", [
    (3, "M 1,2,3 -> true,true,true"),   # three factors against k=2
    (3, "R P1,C,C"),
    (3, "R C"),
    (2, "R P1,C"),                      # n=2 transcript against an n=3 family
    (4, ""),
])
def test_consistent_indices_rejects_other_shapes(family_32, n, log):
    with pytest.raises(ParameterError):
        consistent_indices(parse_transcript_log(n, log), family_32)


@pytest.mark.parametrize("entry", [
    ("R", (-1, 8)),            # a negative label was a bare "negative shift count"
    ("R", (9, 8)),             # the label past the core was silently ignored
    ("R", (8, 70)),
    ("M", (100, 0), (False, True)),   # a peak index past 2^n was pinned as absent
    ("M", (1, 2), (True,)),           # the unanswered index was silently dropped
], ids=["R-negative", "R-outside", "R-far", "M-index-past-2^n", "M-missing-answer"])
def test_consistent_indices_rejects_out_of_range_entries(family_32, entry):
    with pytest.raises(ParameterError):
        consistent_indices(_transcript(3, [entry]), family_32)


def test_learner_rejects_unknown_policy():
    with pytest.raises(ParameterError):
        MLConsistencyLearner("psychic")


def test_learner_reused_on_a_family_at_a_freed_address():
    # one learner plays a family, the family is freed, and a family with other
    # bodies lands at its address: the learner must read the new family's
    # peaks, so the 8-query census still names every hidden body
    inner = build_inner_family(3)
    even, odd = (certified_code(inner.size, 1, [(s,) for s in range(p, inner.size, 2)])
                 for p in (0, 1))
    learner = MLConsistencyLearner(policy="census")

    def successes(family):
        config = GameConfig(family=family, query_budget=8, epsilon=F(1, 128),
                            trials=50, seed=SEED)
        return run_game(config, learner).successes

    for _ in range(100):
        first = product_family_from_parts(inner, even)
        assert successes(first) == 50
        address = id(first)
        del first
        second = product_family_from_parts(inner, odd)
        if id(second) == address:
            assert successes(second) == 50
            return
    pytest.fail("no family landed at a freed family's address")


# ---------------------------------------------------------------------------
# game outcomes

def test_zero_budget_matches_blind_guessing(family_32):
    config = GameConfig(family=family_32, query_budget=0, epsilon=F(1, 64),
                        trials=2000, seed=SEED)
    stats = run_game(config, RandomGuessLearner())
    p = 1 / family_32.size
    sigma = math.sqrt(p * (1 - p) / config.trials)
    assert abs(stats.success_rate - p) < 5 * sigma
    assert stats.budget_violations == 0


def test_census_policy_always_identifies(family_32):
    # 2^n membership sweeps pin every factor exactly
    config = GameConfig(family=family_32, query_budget=8, epsilon=F(1, 64),
                        trials=100, seed=SEED)
    stats = run_game(config, MLConsistencyLearner("census"))
    assert stats.success_rate == 1.0
    assert stats.exact_identifications == 100


@pytest.mark.parametrize("fixture", ["family_28", "family_32", "family_34"])
def test_census_half_sweep_pins_every_factor(request, fixture):
    # complement extension gives orthants j and j + 2^(n-1) complementary
    # bits, so the first 2^(n-1) answers already pin every factor; one fewer
    # leaves some hidden bodies tied with a lower index
    family = request.getfixturevalue(fixture)
    half = 1 << family.n - 1
    won = []
    for q in (half, half - 1):
        config = GameConfig(family=family, query_budget=q, epsilon=F(1, 128),
                            trials=2000, seed=1)
        won.append(run_game(config, MLConsistencyLearner("census")).successes)
    assert won[0] == 2000
    assert won[1] < 2000


def test_more_random_draws_help(family_32):
    rates = []
    for q in (5, 40):
        config = GameConfig(family=family_32, query_budget=q,
                            epsilon=F(1, 64), trials=300, seed=SEED)
        stats = run_game(config, MLConsistencyLearner("random"))
        rates.append(stats.success_rate)
    assert rates[0] < rates[1]


def test_game_stats_invariant():
    stats = GameStats(trials=10, successes=5, budget_violations=0)
    assert stats.success_rate == 0.5
    assert 0 < stats.confidence_radius < 1


def test_game_config_validation(family_34):
    with pytest.raises(ParameterError):
        GameConfig(family=family_34, query_budget=-1, epsilon=F(1, 32),
                   trials=1, seed=0)
    with pytest.raises(ParameterError):
        GameConfig(family=family_34, query_budget=0, epsilon=F(1, 32),
                   trials=0, seed=0)
    with pytest.raises(ParameterError):
        GameConfig(family=family_34, query_budget=0, epsilon=F(0), trials=1,
                   seed=0)
    # 2 eps = 1/8 sits above the (3,4) separation floor
    with pytest.raises(ParameterError):
        GameConfig(family=family_34, query_budget=0, epsilon=F(1, 16),
                   trials=1, seed=0)
    # counts are integers, checked at construction, not when a trial runs
    for bad in (dict(seed=-1), dict(query_budget=1.5), dict(trials=2.5), dict(seed=1.5),
                dict(seed=F(3))):
        args = dict(family=family_34, query_budget=0, epsilon=F(1, 64), trials=1, seed=0)
        with pytest.raises(ParameterError):
            GameConfig(**{**args, **bad})
    config = GameConfig(family=family_34, query_budget=np.int64(2), epsilon=F(1, 64),
                        trials=np.uint8(3), seed=np.int32(5))
    assert [type(v) for v in (config.query_budget, config.trials, config.seed)] == [int] * 3
    assert run_game(config, MLConsistencyLearner("random")).trials == 3
    with pytest.raises(ParameterError):
        OracleSession(family_34.body(0), 1.5, np.random.default_rng(0))
    assert OracleSession(family_34.body(0), np.int64(1), np.random.default_rng(0)).remaining == 1


def test_game_config_caps_labels_per_trial(family_34):
    # query_budget * k labels per trial; the CLI maps this to exit 4
    GameConfig(family=family_34, query_budget=MAX_LABELS_PER_TRIAL // 4,
               epsilon=F(1, 64), trials=1, seed=0)
    with pytest.raises(BudgetExceededError):
        GameConfig(family=family_34, query_budget=MAX_LABELS_PER_TRIAL // 4 + 1,
                   epsilon=F(1, 64), trials=1, seed=0)


def test_game_config_caps_trials(family_32):
    # the CLI maps this to exit 4 before any trial is played
    GameConfig(family=family_32, query_budget=1, epsilon=F(1, 64),
               trials=MAX_TRIALS, seed=0)
    with pytest.raises(BudgetExceededError):
        GameConfig(family=family_32, query_budget=1, epsilon=F(1, 64),
                   trials=MAX_TRIALS + 1, seed=0)


def test_trial_seed_sequences_match_spawned_children():
    # run_game builds stream i of trial t as SeedSequence(seed, spawn_key=(t, i))
    # instead of materialising SeedSequence(seed).spawn(trials) and spawning
    # each trial's child into three
    children = np.random.SeedSequence(SEED).spawn(50)
    for t, child in enumerate(children):
        direct = np.random.SeedSequence(SEED, spawn_key=(t,))
        for i, (a, b) in enumerate(zip(direct.spawn(3), child.spawn(3))):
            assert np.array_equal(a.generate_state(4), b.generate_state(4))
            c = np.random.SeedSequence(SEED, spawn_key=(t, i))
            assert np.array_equal(c.generate_state(4), b.generate_state(4))


def _reference_trial(family, seed, t, q):
    """Trial t's hidden index, oracle labels and first learner draw, each
    from a default_rng on its SeedSequence(seed, spawn_key=(t, i))."""
    hidden = int(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(t, 0))).integers(family.size))
    session = OracleSession(family.body(hidden), q, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(t, 1))))
    learner = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 2)))
    return hidden, session.random_batch(q).tolist(), int(learner.integers(1 << 62))


class _StreamReader:
    """Draws the whole budget and one learner value, names index 0."""

    def __init__(self):
        self.seen = []

    def play(self, session, family, rng):
        labels = session.random_batch(session.remaining).tolist()
        self.seen.append((labels, int(rng.integers(1 << 62))))
        return 0


@pytest.mark.parametrize("block", (1, 7, 1 << 10))
def test_run_game_streams_match_default_rng_across_blocks(family_32, monkeypatch, block):
    # 20 trials cross the patched blocks' boundaries at 7 and 14
    monkeypatch.setattr(harness, "_STATE_BLOCK", block)
    seed = 2**64 + 5
    config = GameConfig(family=family_32, query_budget=3, epsilon=F(1, 64),
                        trials=20, seed=seed)
    reader = _StreamReader()
    stats = run_game(config, reader)
    want = [_reference_trial(family_32, seed, t, 3) for t in range(config.trials)]
    assert reader.seen == [(labels, draw) for _, labels, draw in want]
    assert stats.successes == [hidden for hidden, _, _ in want].count(0)


def test_run_game_holds_one_block_of_stream_states(family_32, monkeypatch):
    # 16 blocks of states would take 16 x 256 x 96 bytes (384 KiB); the game
    # derives one block at a time, about 60 KiB at its peak here
    block = 256
    monkeypatch.setattr(harness, "_STATE_BLOCK", block)
    config = GameConfig(family=family_32, query_budget=0, epsilon=F(1, 64),
                        trials=16 * block, seed=2**128 + 1)
    learner = MLConsistencyLearner("random")
    run_game(replace(config, trials=1), learner)    # the family's cached tables
    tracemalloc.start()
    try:
        run_game(config, learner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block * stream_states(0, 0, 1).nbytes


# (successes, exact identifications) over 300 trials at seed 2024, recorded
# from the per-query game loop before the learner drew its budget in one call
GAME_PINS = {
    "32": {("random", 0): (0, 0), ("random", 1): (1, 1), ("random", 5): (4, 4),
           ("random", 20): (71, 71), ("census", 8): (300, 300)},
    "34": {("random", 0): (0, 0), ("random", 1): (0, 0), ("random", 5): (0, 0),
           ("random", 20): (85, 85), ("census", 8): (300, 300)},
}

# SHA-256 of the 300 indices the learner names in each GAME_PINS game, comma
# separated in trial order, recorded before transcripts were matched as
# packed pins and labels read from per-body draw tables: a changed draw or
# consistent set that leaves the success counts alone still shows here
NAMED_INDEX_PINS = {
    "32": {("random", 0): "cc41e0be6cf37f39ce31a29a194a7c4f9dca02891dc24a4487737990f7a25035",
           ("random", 1): "e73c61b81cfd8c7c55ab6e9ab9eda9a2560ac0c647fc28c831ccd71880dc646c",
           ("random", 5): "eaebc9cc96c39c4f9c76b4550727b79ac5fb63455bb03525b15ec7a4a18eb0c4",
           ("random", 20): "ac27b583538843e3db105d4f6b89d0201f94be5d5f465e0e82519abb2063e205",
           ("census", 8): "9f85968ebd5580132a3561bbaae588caac22f97228dd0b19c0ce22ef9eea8a6c"},
    "34": {("random", 0): "cc41e0be6cf37f39ce31a29a194a7c4f9dca02891dc24a4487737990f7a25035",
           ("random", 1): "89288a1b27f1af9c8a3aae4b9ac3ff5a0578595723698021167f2861b9654653",
           ("random", 5): "93ab5f773ad4070eb905446af454a0396e50a1c2a91e0f320b55da9c238ec41f",
           ("random", 20): "fc4be392669c24820c1a56d2ec01978c8e95d5c66ce77f4a4de85defef2d5c7f",
           ("census", 8): "4c9dfdcf44523abcf3345b962af146be553a34203d6bd0bde3691131479fd931"},
}


class _Recording:
    """A learner that records every index the wrapped learner names."""

    def __init__(self, learner):
        self.learner = learner
        self.named = []

    def play(self, session, family, rng):
        self.named.append(self.learner.play(session, family, rng))
        return self.named[-1]


@pytest.mark.parametrize("name", sorted(GAME_PINS))
def test_game_stats_pinned(request, name):
    family = request.getfixturevalue(f"family_{name}")
    for (policy, q), (successes, exact) in GAME_PINS[name].items():
        config = GameConfig(family=family, query_budget=q, epsilon=F(1, 64),
                            trials=300, seed=2024)
        learner = _Recording(MLConsistencyLearner(policy))
        stats = run_game(config, learner)
        assert stats == GameStats(300, successes, 0), (policy, q)
        assert stats.exact_identifications == exact, (policy, q)
        named = ",".join(map(str, learner.named)).encode()
        assert hashlib.sha256(named).hexdigest() == NAMED_INDEX_PINS[name][policy, q], (policy, q)


# (successes, sum of guesses) of RandomGuessLearner over 300 trials at seed
# 2024, recorded with the per-trial SeedSequence.spawn(3) streams: the only
# pin that reads the learner stream
RANDOM_GUESS_PINS = {"32": (2, 38731), "34": (1, 621960)}


@pytest.mark.parametrize("name", sorted(RANDOM_GUESS_PINS))
def test_random_guess_learner_pinned(request, name):
    family = request.getfixturevalue(f"family_{name}")
    learner = _Recording(RandomGuessLearner())
    config = GameConfig(family=family, query_budget=0, epsilon=F(1, 64),
                        trials=300, seed=2024)
    stats = run_game(config, learner)
    assert (stats.successes, sum(learner.named)) == RANDOM_GUESS_PINS[name]


@pytest.mark.parametrize("learner, q, per_trial", [
    (MLConsistencyLearner("random"), 0, 0),   # built-in learners play as arrays
    (MLConsistencyLearner("census"), 8, 0),
    (MLConsistencyLearner("random"), 5, 0),
    (RandomGuessLearner(), 5, 0),
    (_Recording(MLConsistencyLearner("random")), 5, 3),  # hidden, oracle and learner
], ids=["ml-q0", "census", "ml-random-q5", "random-guess", "wrapped-ml-random-q5"])
def test_run_game_builds_streams_only_for_trials_played_one_at_a_time(
        family_32, monkeypatch, learner, q, per_trial):
    # a trial played one at a time builds its three streams up front, one
    # PCG64 bit generator each; the array path builds none
    builds = 0
    real = np.random.PCG64

    def counting(*args, **kwargs):
        nonlocal builds
        builds += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(np.random, "PCG64", counting)
    config = GameConfig(family=family_32, query_budget=q, epsilon=F(1, 64),
                        trials=40, seed=SEED)
    run_game(config, learner)
    assert builds == per_trial * config.trials


# ---------------------------------------------------------------------------
# built-in learners played as arrays

class _Scorer:
    """Plays the wrapped learner and records, trial by trial, whether it
    named the hidden body; as a wrapper it is always played trial by trial."""

    def __init__(self, learner):
        self.learner = learner
        self.won = []

    def play(self, session, family, rng):
        named = self.learner.play(session, family, rng)
        self.won.append(family.body(named) == session._body)
        return named


def _learner(policy):
    return RandomGuessLearner() if policy == "guess" else MLConsistencyLearner(policy)


def _array_outcomes(config, learner):
    """Trial by trial outcomes of the array path, block by block as run_game
    plays them."""
    game = harness._ArrayGame.for_learner(config, learner)
    return np.concatenate([game.outcomes(start, min(start + harness._STATE_BLOCK, config.trials))
                           for start in range(0, config.trials, harness._STATE_BLOCK)]).tolist()


ARRAY_GAMES = ([("random", q) for q in (0, 1, 2, 5, 20)]
               + [("census", q) for q in (0, 1, 7, 8, 9, 32)] + [("guess", 0)])


@pytest.mark.parametrize("name", ["28", "32", "34"])
@pytest.mark.parametrize("policy, q", ARRAY_GAMES)
def test_array_path_matches_trial_by_trial_play(request, name, policy, q):
    # 1 023 to 2 049 trials end a block early, on its edge, one past it, and
    # one past the second
    family = request.getfixturevalue(f"family_{name}")
    config = GameConfig(family=family, query_budget=q, epsilon=F(1, 64), trials=2049,
                        seed=2**64 + 5)
    scorer = _Scorer(_learner(policy))
    assert harness._play_block(config, scorer, 0, config.trials) == (sum(scorer.won), 0)
    for trials in (1, 1023, 1024, 1025, 2049):
        short = replace(config, trials=trials)
        assert _array_outcomes(short, _learner(policy)) == scorer.won[:trials], trials
        assert run_game(short, _learner(policy)) == GameStats(trials, sum(scorer.won[:trials]), 0)


@pytest.mark.parametrize("family_name", ["34", "two-word"])
@pytest.mark.parametrize("policy, q", [("random", 5), ("random", 20), ("random", 33),
                                       ("census", 5)])
def test_array_path_matches_across_small_passes(request, monkeypatch, family_name, policy, q):
    # 64-value passes split a trial's draws into column blocks (q k > 64) or
    # take a few trials at a time, and AND the pin bitsets of one trial (34)
    # or of 64 (two-word) a chunk; the two-word family's pins span two mask
    # words
    family = request.getfixturevalue(
        "family_two_word" if family_name == "two-word" else f"family_{family_name}")
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 64)
    config = GameConfig(family=family, query_budget=q, epsilon=F(1, 64), trials=300, seed=SEED)
    scorer = _Scorer(_learner(policy))
    harness._play_block(config, scorer, 0, config.trials)
    assert _array_outcomes(config, _learner(policy)) == scorer.won


@pytest.mark.parametrize("policy, q", [("census", 0), ("census", 8), ("random", 1)])
def test_array_path_matches_across_two_mask_words(family_two_word, policy, q):
    # at the default pass sizes: the census's care words and a random
    # trial's present pins, packed by the family, span both mask words
    config = GameConfig(family=family_two_word, query_budget=q, epsilon=F(1, 64),
                        trials=300, seed=SEED)
    scorer = _Scorer(_learner(policy))
    harness._play_block(config, scorer, 0, config.trials)
    assert _array_outcomes(config, _learner(policy)) == scorer.won


def _brute_none_below(family, present, hidden):
    """Per row, whether no index below hidden[r] has every pin of
    present[r], each index tested against its _mask_words row."""
    words = family._mask_words
    return [not ((words[:h] & row) == row).all(axis=1).any()
            for row, h in zip(present, hidden.tolist())]


@pytest.mark.parametrize("name", ["28", "32", "34", "two_word"])
@pytest.mark.parametrize("block", [1, 7, None])
def test_none_below_matches_brute_force(request, monkeypatch, name, block):
    # hidden indices at a bitset word's edges and the family's last, and a
    # few at random; each with its own pins, a subset of them, another
    # body's pins and none, at the default and at patched chunk sizes
    family = request.getfixturevalue(f"family_{name}")
    words = family._mask_words
    rng = np.random.default_rng(SEED)
    edges = {0, 63, 64, family.size - 1} & set(range(family.size))
    hidden, present = [], []
    for h in sorted(edges) + rng.integers(family.size, size=8).tolist():
        keep = rng.integers(0, 1 << 64, size=words.shape[1], dtype=np.uint64)
        other = words[rng.integers(family.size)]
        for row in (words[h], words[h] & keep, other, np.zeros_like(words[h])):
            hidden.append(h)
            present.append(row)
    hidden, present = np.array(hidden, dtype=np.int64), np.array(present)
    want = _brute_none_below(family, present, hidden)
    assert 0 < sum(want) < len(want)
    if block:
        monkeypatch.setattr(harness, "_BLOCK_VALUES", block)
    config = GameConfig(family=family, query_budget=1, epsilon=F(1, 64), trials=1, seed=SEED)
    game = harness._ArrayGame(config, MLConsistencyLearner("random"), "random")
    assert game._none_below(present, hidden).tolist() == want
    assert game._none_below(present[3::4], hidden[3::4]).tolist() == want[3::4]   # no pins


def test_array_path_matches_on_a_long_trial(family_32):
    # q k = 65 542 draws a trial: two full column blocks and 6 more
    config = GameConfig(family=family_32, query_budget=2**15 + 3, epsilon=F(1, 64),
                        trials=3, seed=SEED)
    scorer = _Scorer(MLConsistencyLearner("random"))
    harness._play_block(config, scorer, 0, config.trials)
    assert _array_outcomes(config, MLConsistencyLearner("random")) == scorer.won


def test_long_trials_hold_one_pass_of_draws(family_34):
    # q k = 2^20 draws a trial would take 8 MiB as int64, two trials 16 MiB;
    # the game holds one pass of about 2^15 values and its temporaries
    learner = MLConsistencyLearner("random")
    config = GameConfig(family=family_34, query_budget=MAX_LABELS_PER_TRIAL // 4,
                        epsilon=F(1, 64), trials=2, seed=SEED)
    run_game(replace(config, trials=1), learner)    # the cached jump and draw tables
    tracemalloc.start()
    try:
        run_game(config, learner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * harness._BLOCK_VALUES * 8


@pytest.mark.parametrize("policy, q", [("random", 5), ("random", 0), ("census", 8),
                                       ("guess", 0)])
def test_rejected_rows_are_replayed_trial_by_trial(family_34, monkeypatch, policy, q):
    # every stream row of the chosen trials is flagged as if a draw had met a
    # Lemire rejection: those trials, and only they, build PCG64 generators,
    # and the game's outcome does not move
    seed = 2**64 + 5
    config = GameConfig(family=family_34, query_budget=q, epsilon=F(1, 64), trials=2049,
                        seed=seed)
    want = run_game(config, _learner(policy))
    chosen = {0, 5, 1023, 1024, 2048}
    flagged = np.array(sorted({int(stream_states(seed, t, t + 1)[0, i, 0])
                               for t in chosen for i in range(3)}), dtype=np.uint64)
    real_blocks, real_pcg = trialseeds.bounded_integer_blocks, np.random.PCG64

    def flagging(states, high, count, width, rejected):
        yield from real_blocks(states, high, count, width, rejected)
        rejected |= np.isin(states[:, 0], flagged)

    built = set()

    def counting(seed_seq):
        built.add(seed_seq._key[0])
        return real_pcg(seed_seq)
    monkeypatch.setattr(trialseeds, "bounded_integer_blocks", flagging)
    monkeypatch.setattr(np.random, "PCG64", counting)
    assert run_game(config, _learner(policy)) == want
    assert built == chosen


class _Subclassed(MLConsistencyLearner):
    pass


@pytest.mark.parametrize("learner", [_Subclassed("random"),
                                     _Recording(MLConsistencyLearner("random"))],
                         ids=["subclass", "wrapper"])
def test_subclasses_and_wrappers_play_trial_by_trial(family_32, monkeypatch, learner):
    config = GameConfig(family=family_32, query_budget=5, epsilon=F(1, 64), trials=30,
                        seed=SEED)
    want = run_game(config, MLConsistencyLearner("random"))
    assert harness._ArrayGame.for_learner(config, learner) is None

    def refuse(*args):
        raise AssertionError("played as arrays")
    monkeypatch.setattr(harness._ArrayGame, "outcomes", refuse)
    assert run_game(config, learner) == want


@pytest.mark.parametrize("policy", ["random", "census", "guess"])
def test_one_body_family_plays_trial_by_trial(family_32, policy):
    # a hand-built one-word code: the draw kernel takes 2 <= high, so a
    # family of one body is played trial by trial, and every trial names it
    outer = replace(family_32.outer, words=family_32.outer.words[:1])
    config = GameConfig(family=product_family_from_parts(family_32.inner, outer),
                        query_budget=5, epsilon=F(1, 64), trials=30, seed=SEED)
    assert harness._ArrayGame.for_learner(config, _learner(policy)) is None
    assert run_game(config, _learner(policy)) == GameStats(30, 30, 0)


class _Namer:
    """Names one fixed index, whatever the oracles say."""

    def __init__(self, index):
        self.index = index

    def play(self, session, family, rng):
        return self.index


def test_run_game_scores_by_index(family_32):
    config = GameConfig(family=family_32, query_budget=0, epsilon=F(1, 64),
                        trials=200, seed=SEED)
    hidden = [int(np.random.default_rng(
                  np.random.SeedSequence(SEED, spawn_key=(t,)).spawn(3)[0]
              ).integers(family_32.size)) for t in range(config.trials)]
    for index in (0, hidden[0]):
        stats = run_game(config, _Namer(index))
        assert stats.successes == stats.exact_identifications == hidden.count(index)
    for index in (-1, family_32.size):
        with pytest.raises(ParameterError):
            run_game(config, _Namer(index))


def test_run_game_reproducible(family_32):
    config = GameConfig(family=family_32, query_budget=10, epsilon=F(1, 64),
                        trials=50, seed=SEED)
    a = run_game(config, MLConsistencyLearner("random"))
    b = run_game(config, MLConsistencyLearner("random"))
    assert a == b


# ---------------------------------------------------------------------------
# result reporting

def test_result_rows_and_csv(family_32, tmp_path):
    config = GameConfig(family=family_32, query_budget=4, epsilon=F(1, 64),
                        trials=40, seed=SEED)
    stats = run_game(config, MLConsistencyLearner("random"))
    row = game_result_row(config, stats)
    assert tuple(row) == RESULTS_CSV_COLUMNS
    assert row["n"] == 3 and row["k"] == 2 and row["d"] == 6
    assert row["family_size"] == 256 and row["q"] == 4
    assert row["successes"] == stats.successes

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(p1, [row])
    write_results_csv(p2, [game_result_row(config, run_game(
        config, MLConsistencyLearner("random")))])
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(RESULTS_CSV_COLUMNS)
