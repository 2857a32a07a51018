"""trialseeds derives game trials' PCG64 states by numpy's SeedSequence
hash, a block of trials at once: every row must be the state numpy's own
SeedSequence(seed, spawn_key=(t, i)) generates, for seeds of 1 to 5 entropy
words, and a Generator seeded from it must draw, spawn, copy and pickle as
default_rng's."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import crosspeaks
from crosspeaks import harness
from crosspeaks.errors import ParameterError
from crosspeaks.harness import MAX_TRIALS
from crosspeaks.trialseeds import TrialSeed, TrialStream, stream_states, trial_rng

SEED = 20260816

# 1 to 5 entropy words: the seed's words pad to the pool of 4 or run past it
BIG_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1)


def _numpy_state(seed, t, i):
    return np.random.SeedSequence(seed, spawn_key=(t, i)).generate_state(4, np.uint64)


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


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_trial_generator_draws_and_spawns_as_default_rng(seed):
    t, i = 5, 1
    row = stream_states(seed, t, t + 1)[0, i]
    ours = trial_rng(TrialSeed(seed, t, i, row))
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


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_trial_stream_copies_draw_what_the_original_would(copier):
    def stream():
        return TrialStream(TrialSeed(
            SEED, 3, 2, stream_states(SEED, 3, 4)[0, 2]))
    original, twin = stream(), stream()
    fresh = copier(original)            # nothing built yet
    assert np.array_equal(fresh.integers(1 << 62, size=4), twin.integers(1 << 62, size=4))
    original.integers(1 << 62, size=4)  # built and advanced
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
