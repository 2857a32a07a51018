"""trialseeds derives game trials' PCG64 states by numpy's SeedSequence
hash, a block of trials at once: every row must be the state numpy's own
SeedSequence(seed, spawn_key=(t, i)) generates, for seeds of 1 to 5 entropy
words, a call for some of the three streams must give the full call's
columns, and a Generator seeded from it must draw, spawn, deep copy and
pickle as default_rng's.  The draw kernel must give, for every row it does
not flag, numpy's integers(0, high, size=count) on that row's stream, for
2 <= high <= 2^32, and flag exactly the rows where numpy met a rejection."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import crosspeaks
from crosspeaks import harness, trialseeds
from crosspeaks.errors import ParameterError
from crosspeaks.harness import MAX_TRIALS
from crosspeaks.trialseeds import (TrialSeed, bounded_integer_blocks, bounded_integers,
                                   stream_states)

SEED = 20260816

# 1 to 5 entropy words: the seed's words pad to the pool of 4 or run past it
BIG_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1)


def _numpy_state(seed, t, i):
    return np.random.SeedSequence(seed, spawn_key=(t, i)).generate_state(4, np.uint64)


def _trial_generator(seed, t, i):
    """Stream i of trial t as a trial played one at a time builds it."""
    row = stream_states(seed, t, t + 1)[0, i]
    return np.random.Generator(np.random.PCG64(TrialSeed(seed, t, i, row)))


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_stream_states_are_numpys_seed_sequence_states(seed):
    block = harness._STATE_BLOCK
    states = stream_states(seed, 0, block + 1)
    last = stream_states(seed, MAX_TRIALS - 1, MAX_TRIALS)
    assert states.shape == (block + 1, 3, 4) and last.shape == (1, 3, 4)
    for i in range(3):
        for t in (0, block - 1, block):
            assert np.array_equal(states[t, i], _numpy_state(seed, t, i)), (t, i)
        assert np.array_equal(last[0, i], _numpy_state(seed, MAX_TRIALS - 1, i)), i
    with pytest.raises(ValueError):
        states[0, 0, 0] = 0     # PCG64 reads the rows in place


@pytest.mark.parametrize("seed", (0, 2**128 + 1))
@pytest.mark.parametrize("streams", [(0,), (0, 1), (0, 2), (2, 1, 0)])
def test_stream_subsets_are_the_full_calls_columns(seed, streams):
    # the subsets _ArrayGame.outcomes derives, and one out of order, across a
    # block edge
    block = harness._STATE_BLOCK
    full = stream_states(seed, block - 3, block + 3)
    part = stream_states(seed, block - 3, block + 3, streams)
    assert part.shape == (6, len(streams), 4)
    assert np.array_equal(part, full[:, list(streams)])
    assert not part.flags.writeable


@pytest.mark.parametrize("streams", [(3,), (-1,), (0, 0), (0, 1, 2, 1), (1.0,), (True,)])
def test_stream_states_refuse_other_streams(streams):
    with pytest.raises(ParameterError):
        stream_states(SEED, 0, 2, streams)


def test_array_games_derive_only_the_streams_they_read(family_34, monkeypatch):
    # a trial played trial by trial (a subclass here) still derives all three
    real, asked = stream_states, []

    def recording(seed, start, stop, streams=(0, 1, 2)):
        asked.append(tuple(streams))
        return real(seed, start, stop, streams)
    monkeypatch.setattr(trialseeds, "stream_states", recording)

    class Subclassed(harness.MLConsistencyLearner):
        pass
    for learner, q, want in [(harness.MLConsistencyLearner("census"), 8, (0,)),
                             (harness.MLConsistencyLearner("random"), 0, (0,)),
                             (harness.MLConsistencyLearner("random"), 5, (0, 1)),
                             (harness.RandomGuessLearner(), 0, (0, 2)),
                             (Subclassed("random"), 5, (0, 1, 2))]:
        asked.clear()
        config = harness.GameConfig(family=family_34, query_budget=q, epsilon=Fraction(1, 64),
                                    trials=harness._STATE_BLOCK + 1, seed=SEED)
        harness.run_game(config, learner)
        assert asked == [want, want], (learner, q)


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_trial_generator_draws_and_spawns_as_default_rng(seed):
    t, i = 5, 1
    ours = _trial_generator(seed, t, i)
    real = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, i)))
    assert np.array_equal(ours.integers(1 << 62, size=8), real.integers(1 << 62, size=8))
    assert np.array_equal(ours.random(3), real.random(3))
    for _ in range(2):  # a second spawn continues the children's numbering
        for a, b in zip(ours.spawn(2), real.spawn(2), strict=True):
            assert np.array_equal(a.integers(1 << 62, size=4), b.integers(1 << 62, size=4))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                                            (4, np.int64)])
def test_trial_seed_refuses_other_state_requests(n_words, dtype):
    seed = TrialSeed(SEED, 0, 0, stream_states(SEED, 0, 1)[0, 0])
    with pytest.raises(ParameterError):
        seed.generate_state(n_words, dtype)
    with pytest.raises(ParameterError):
        seed.generate_state(4)  # numpy's default dtype is uint32


# no copy.copy: numpy's shallow copy of a Generator shares its bit generator
@pytest.mark.parametrize("copier", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
def test_trial_stream_copies_draw_what_the_original_would(copier):
    original, twin = _trial_generator(SEED, 3, 2), _trial_generator(SEED, 3, 2)
    fresh = copier(original)            # before any draw
    assert np.array_equal(fresh.integers(1 << 62, size=4), twin.integers(1 << 62, size=4))
    original.integers(1 << 62, size=4)  # advanced
    later = copier(original)
    assert np.array_equal(later.integers(1 << 62, size=4), original.integers(1 << 62, size=4))
    twin.integers(1 << 62, size=4)      # the copy does not share the original's position
    assert np.array_equal(later.random(2), twin.random(2))


def test_harness_import_leaves_numpy_random_out():
    # numpy.random, and this module with it, load when the first game starts
    src = str(pathlib.Path(crosspeaks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, crosspeaks.harness, crosspeaks.verify\n"
             "print('numpy.random' in sys.modules, 'crosspeaks.trialseeds' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


# the draw kernel's cases: no rejection possible (powers of two), Lemire's
# rejections at their rarest (6, 20) and at their most common (2^31 + 11,
# where about half the draws reject), the raw 32-bit values (2^32)
HIGHS = (2, 6, 20, 256, 4096, 2**31 + 11, 2**32)


def _numpy_draws(seed, t, i, high, count):
    """default_rng's integers(0, high, size=count) on stream i of trial t,
    and whether numpy drew again after a rejection: then it took more than
    the count's 32-bit values, read off its bit generator's state."""
    seq = np.random.SeedSequence(seed, spawn_key=(t, i))
    rng = np.random.default_rng(seq)
    draws = rng.integers(0, high, size=count)
    plain = np.random.PCG64(seq)
    plain.advance((count + 1) // 2)    # the outputs `count` values use, low half first
    state = rng.bit_generator.state
    return draws, (state["state"] != plain.state["state"]
                   or state["has_uint32"] != count % 2)


def _one_block(states, high, count):
    """bounded_integer_blocks' (rows, count) draws, taken in one block, and
    its rejection mask."""
    rejected = np.zeros(len(states), dtype=bool)
    blocks = bounded_integer_blocks(states, high, count, count + count % 2 or 2, rejected)
    draws = np.concatenate([np.empty((len(states), 0), dtype=np.int64), *blocks], axis=1)
    return draws, rejected


@pytest.mark.parametrize("seed", (0, 2**32 - 1, 2**64 + 5, 2**128 + 1))
def test_bounded_integers_are_numpys_draws(seed):
    # odd counts leave a high half unused; the trials cross a block boundary
    block = harness._STATE_BLOCK
    trials = range(block - 3, block + 3)
    states = stream_states(seed, trials.start, trials.stop)
    for i in range(3):
        for high in HIGHS:
            for count in (0, 1, 2, 3, 80):
                draws, rejected = _one_block(states[:, i], high, count)
                assert draws.shape == (len(trials), count) and draws.dtype == np.int64
                for r, t in enumerate(trials):
                    want, redrawn = _numpy_draws(seed, t, i, high, count)
                    assert rejected[r] == redrawn, (i, high, count, t)
                    if not redrawn:
                        assert np.array_equal(draws[r], want), (i, high, count, t)
                if count == 1:      # bounded_integers takes one draw a row
                    one, once = bounded_integers(states[:, i], high)
                    assert np.array_equal(one, draws[:, 0]) and np.array_equal(once, rejected)
                if (high, count) == (2**31 + 11, 1):
                    assert 0 < rejected.sum() < len(trials)


@pytest.mark.parametrize("width", (2, 6, 80))
def test_bounded_integer_blocks_continue_where_the_last_stopped(width):
    states = stream_states(SEED, 0, 5)[:, 1]
    for high, count in ((20, 79), (20, 80), (20, 81), (2**31 + 11, 9)):
        whole, want = _one_block(states, high, count)
        rejected = np.zeros(len(states), dtype=bool)
        blocks = list(bounded_integer_blocks(states, high, count, width, rejected))
        assert [b.shape[1] for b in blocks] == [min(width, count - at)
                                                for at in range(0, count, width)]
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)
        assert np.array_equal(rejected, want)


@pytest.mark.parametrize("high, width", [(0, 2), (1, 2), (2**32 + 1, 2), (20, 3), (20, 0)])
def test_bounded_integer_blocks_refuse_what_they_cannot_match(high, width):
    # a family of one body, or of more than 2^32, is played trial by trial instead
    states = stream_states(SEED, 0, 2)[:, 0]
    with pytest.raises(ParameterError):
        list(bounded_integer_blocks(states, high, 4, width, np.zeros(2, dtype=bool)))
