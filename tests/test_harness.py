import decimal
import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crosspeaks.errors import (BudgetExceededError, ParameterError,
                               VerificationError)
from crosspeaks.codes import certified_code
from crosspeaks.family import build_inner_family, product_family_from_parts
from crosspeaks.geometry import core_label_value
from crosspeaks.harness import (MAX_LABELS_PER_TRIAL, MAX_TRIALS, GameConfig, GameStats,
                                MLConsistencyLearner, OracleSession,
                                RandomGuessLearner,
                                RESULTS_CSV_COLUMNS, choose_parameters,
                                consistent_indices, game_result_row,
                                _least_q_certified, query_lower_bound,
                                run_game, success_upper_bound,
                                write_results_csv)
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


@pytest.mark.parametrize("name", sorted(GAME_PINS))
def test_game_stats_pinned(request, name):
    family = request.getfixturevalue(f"family_{name}")
    for (policy, q), (successes, exact) in GAME_PINS[name].items():
        config = GameConfig(family=family, query_budget=q, epsilon=F(1, 64),
                            trials=300, seed=2024)
        stats = run_game(config, MLConsistencyLearner(policy))
        assert stats == GameStats(300, successes, 0), (policy, q)
        assert stats.exact_identifications == exact, (policy, q)


class _RecordingGuesser(RandomGuessLearner):
    def __init__(self):
        self.guesses = []

    def play(self, session, family, rng):
        guess = super().play(session, family, rng)
        self.guesses.append(guess)
        return guess


# (successes, sum of guesses) of RandomGuessLearner over 300 trials at seed
# 2024, recorded with the per-trial SeedSequence.spawn(3) streams: the only
# pin that reads the learner stream
RANDOM_GUESS_PINS = {"32": (2, 38731), "34": (1, 621960)}


@pytest.mark.parametrize("name", sorted(RANDOM_GUESS_PINS))
def test_random_guess_learner_pinned(request, name):
    family = request.getfixturevalue(f"family_{name}")
    learner = _RecordingGuesser()
    config = GameConfig(family=family, query_budget=0, epsilon=F(1, 64),
                        trials=300, seed=2024)
    stats = run_game(config, learner)
    assert (stats.successes, sum(learner.guesses)) == RANDOM_GUESS_PINS[name]


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
# the success upper bound

def test_upper_bound_zero_queries(family_32):
    assert success_upper_bound(3, 2, 0, family_32.size, F(1, 64)) == F(1, 256)


def test_upper_bound_literal():
    # answer space 9 per factor, 4 factors: one query already covers a
    # family of 1075, so the bound saturates
    assert success_upper_bound(3, 4, 1, 1075, F(1, 32)) == 1
    assert success_upper_bound(3, 4, 0, 1075, F(1, 32)) == F(1, 1075)


def test_upper_bound_growth_per_query():
    big = 10 ** 40
    b1 = success_upper_bound(3, 4, 1, big, F(1, 32))
    b2 = success_upper_bound(3, 4, 2, big, F(1, 32))
    assert b2 == b1 * 9 ** 4


def test_upper_bound_checks_separation_when_asked():
    assert success_upper_bound(3, 4, 0, 4096, epsilon=F(1, 32)) == F(1, 4096)
    with pytest.raises(ParameterError):
        success_upper_bound(3, 4, 0, 4096, epsilon=F(1, 16))
    with pytest.raises(ParameterError):
        success_upper_bound(3, 4, -1, 4096, F(1, 32))
    with pytest.raises(ParameterError):
        success_upper_bound(3, 4, 0, 0, F(1, 32))


# ---------------------------------------------------------------------------
# parameter selection

def test_choose_parameters_examples():
    choice = choose_parameters(1024, F(1, 8))
    assert (choice.n, choice.k) == (64, 16)
    choice = choose_parameters(1024, F(1, 128))
    assert (choice.n, choice.k) == (256, 4)


def test_choose_parameters_chain_fields():
    choice = choose_parameters(4096, F(1, 8))
    x = choice.sqrt_ratio
    assert 2 <= x <= choice.n < 4 * x <= choice.d
    assert choice.n * choice.k == choice.d
    assert choice.n & (choice.n - 1) == 0
    assert isinstance(choice.separation_satisfied, bool)


# sqrt(d/L) for d = 256 at this epsilon is 31.99...98911 (58 nines): a float
# rounds it to 32.00000000000001, which put n at 64
EPS_NEAR_32 = F(27288755941615536693458622721, 246734652324059215488247354561)


def test_choose_parameters_decides_n_exactly():
    choice = choose_parameters(256, EPS_NEAR_32)
    assert (choice.n, choice.k) == (32, 8)


def _least_power_of_two_n(d, epsilon):
    # independent oracle: n^2 >= d / ln(1/(1 - 2 eps)) in stdlib decimal at 300 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        one_minus = 1 - 2 * epsilon
        big_l = -(decimal.Decimal(one_minus.numerator) / one_minus.denominator).ln()
        n = 1
        while n * n < decimal.Decimal(d) / big_l:
            n <<= 1
        return n


@settings(deadline=None, max_examples=80)
@given(log2_d=st.integers(6, 14), near=st.booleans(), step=st.integers(0, 3),
       offset=st.integers(1, 10**6), sign=st.sampled_from((-1, 1)),
       num=st.integers(1, 10**6))
def test_choose_parameters_matches_decimal(log2_d, near, step, offset, sign, num):
    d = 1 << log2_d
    if near:
        # within 10^-25 of the n = 2^j boundary (1 - e^(-d/4^j)) / 2, and at
        # least 10^-31 from it so 300 digits settle the oracle; j starts at
        # the least one whose boundary is at most 1/8
        j = (log2_d + 3) // 2 + step
        with decimal.localcontext() as ctx:
            ctx.prec = 300
            boundary = (1 - (-decimal.Decimal(d) / 4 ** j).exp()) / 2
        epsilon = F(boundary) + sign * F(offset, 10**31)
    else:
        epsilon = F(8, d) + (F(1, 8) - F(8, d)) * F(num, 10**6)
    assume(F(8, d) <= epsilon <= F(1, 8))
    assert choose_parameters(d, epsilon).n == _least_power_of_two_n(d, epsilon)


def test_choose_parameters_tiny_epsilon():
    # 1 - 2 eps rounds to 1.0 below eps = 2^-54, so ln(1/float(1 - 2 eps))
    # is 0; the split falls back to log1p instead of refusing d/L
    for log2_d in (57, 60):
        d = 1 << log2_d
        choice = choose_parameters(d, F(8, d))
        assert (choice.n, choice.k) == (d >> 2, 4)
        assert 2 <= choice.sqrt_ratio <= choice.n < 4 * choice.sqrt_ratio


def test_choose_parameters_validation():
    with pytest.raises(ParameterError):
        choose_parameters(1000, F(1, 8))  # not a power of two
    with pytest.raises(ParameterError):
        choose_parameters(1024, F(1, 4))  # epsilon over 1/8
    with pytest.raises(ParameterError):
        choose_parameters(64, F(1, 16))  # epsilon under 8/d


# ---------------------------------------------------------------------------
# query lower bound

def test_query_bound_pinned_exact():
    qb = query_lower_bound(64, F(1, 8))
    assert qb.regime == "exact"
    assert (qb.n, qb.k) == (16, 4)
    assert qb.q_floor == 194


def test_query_bound_pinned_certified():
    qb = query_lower_bound(1024, F(1, 8))
    assert qb.regime == "certified"
    assert qb.q_floor == 13510798882111488
    assert qb.q_floor >= 1 << 50


def test_query_bound_explicit_family():
    qb = query_lower_bound(64, F(1, 8), family_size=1075)
    assert qb.regime == "explicit"
    assert qb.q_floor == 1
    assert query_lower_bound(64, F(1, 8), family_size=1).q_floor == 0


def test_query_bound_delta_monotone():
    floors = [query_lower_bound(64, F(1, 8), delta).q_floor
              for delta in (F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8))]
    assert all(a >= b for a, b in zip(floors, floors[1:]))


def test_query_bound_validation():
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), F(1))
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), F(-1, 2))
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), family_size=0)


def test_query_bound_tracks_dimension():
    # log2(q_floor) stays within a factor of 4 of sqrt(d/L)
    for d in (64, 256, 1024, 4096):
        qb = query_lower_bound(d, F(1, 8))
        ratio = math.log2(max(qb.q_floor, 2)) / qb.asymptotic_log2
        assert 0.25 <= ratio <= 4


def _least_q_by_search(n, k, exponent, a, b):
    # the definition, in integers: least q with (2^n + 1)^(kq) * b >= a * 2^exponent
    q = 0
    while ((1 << n) + 1) ** (k * q) * b < a << exponent:
        q += 1
    return q


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 6), k=st.integers(1, 3), exponent=st.integers(0, 48),
       power=st.integers(0, 16), offset=st.integers(-2, 2), shift=st.integers(-4, 4),
       den=st.integers(1, 10 ** 12), dyadic=st.booleans())
def test_least_q_certified_matches_integer_search(n, k, exponent, power, offset, shift,
                                                  den, dyadic):
    # dyadic 1 - delta = ((2^n + 1)^power + offset) / 2^(exponent + shift) ties the
    # target exactly at offset 0, shift 0 and k | power; otherwise any den
    num = ((1 << n) + 1) ** power + offset
    if dyadic:
        den = 1 << max(exponent + shift, 0)
    assume(0 < num <= den)
    a, b = Fraction(num, den).as_integer_ratio()
    assert _least_q_certified(n, k, exponent, a, b) == _least_q_by_search(n, k, exponent, a, b)


def test_least_q_certified_decides_exact_ties():
    for n, k, q in [(1, 1, 1), (1, 3, 4), (2, 2, 3), (3, 1, 5), (5, 2, 2), (64, 1, 1)]:
        top = ((1 << n) + 1) ** (k * q)
        exponent = top.bit_length()
        for num in (top - 1, top, top + 1):
            a, b = Fraction(num, 1 << exponent).as_integer_ratio()
            want = q + (num > top)
            assert _least_q_by_search(n, k, exponent, a, b) == want
            assert _least_q_certified(n, k, exponent, a, b) == want


def _boundary_delta(num, den=1000):
    # 1 - delta = (num/den) * 2^-1008 puts the d = 1024, eps = 1/8 target
    # within a factor num/den of where q = 3 * 2^52 - 1 stops reaching it
    return 1 - F(num, den << 1008)


def test_query_bound_certified_at_a_q_step():
    # 1001/1000 lies under 1 + Ku and 1012/1000 over 1/(1 - Ku), K = 16 q
    assert query_lower_bound(1024, F(1, 8), _boundary_delta(1001)).q_floor == 13510798882111487
    assert query_lower_bound(1024, F(1, 8), _boundary_delta(1012)).q_floor == 13510798882111488


def test_query_bound_certified_between_the_rational_bounds():
    # (1 + 2^-64)^K from stdlib decimal at 80 digits, an independent oracle;
    # 10^-40 either side falls between 1 + Ku and 1/(1 - Ku)
    big_k = 16 * ((3 << 52) - 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        power = (big_k * (1 + decimal.Decimal(1) / (1 << 64)).ln()).exp()
    for sign, q_floor in ((-1, 13510798882111487), (1, 13510798882111488)):
        ratio = F(power) + sign * F(1, 10 ** 40)
        delta = _boundary_delta(ratio.numerator, ratio.denominator)
        assert query_lower_bound(1024, F(1, 8), delta).q_floor == q_floor


def test_query_bound_long_delta_answers_fast():
    # a 40 000-bit denominator costs big-integer steps, not powering
    den = (1 << 40_000) - 3
    start = time.perf_counter()
    qb = query_lower_bound(1024, F(1, 8), F(den // 3, den))
    assert time.perf_counter() - start < 1
    assert qb.regime == "certified" and qb.q_floor == 13510798882111488


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
