import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@functools.cache
def _two_word_family():
    # n=3, k=9: 72 mask bits, so factor 8's pins sit in a second mask word;
    # the words (s + j) and (s + 3j) mod 16 differ in at least 7 places
    inner = build_inner_family(3)
    words = [tuple((s + step * j) % inner.size for j in range(9))
             for step in (1, 3) for s in range(inner.size)]
    return product_family_from_parts(inner, certified_code(inner.size, 9, words))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_consistent_indices_across_mask_words(data):
    # answers from one hidden body, each membership entry possibly lying on
    # one factor, against the has_peak reference
    family = _two_word_family()
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
    (MLConsistencyLearner("random"), 0, 1),   # the hidden draw only
    (MLConsistencyLearner("census"), 8, 1),   # membership draws nothing
    (MLConsistencyLearner("random"), 5, 2),   # hidden draw and oracle stream
    (RandomGuessLearner(), 5, 2),             # hidden draw and learner stream
], ids=["ml-q0", "census", "ml-random-q5", "random-guess"])
def test_run_game_builds_only_the_streams_a_trial_draws_from(
        family_32, monkeypatch, learner, q, per_trial):
    calls = {"default_rng": 0, "SeedSequence": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(np.random, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counting)
    config = GameConfig(family=family_32, query_budget=q, epsilon=F(1, 64),
                        trials=40, seed=SEED)
    run_game(config, learner)
    assert calls == {"default_rng": per_trial * config.trials,
                     "SeedSequence": per_trial * config.trials}


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
