"""The random streams of game trials, derived a block of trials at a time.

Stream i of trial t (0 hidden draw, 1 oracle, 2 learner) is a Generator on
SeedSequence(seed, spawn_key=(t, i)).  Building that SeedSequence costs far
more than the trial's own work, and all it gives PCG64 is four uint64 words,
generate_state(4, np.uint64).  Those words are a fixed hash of the seed, t
and i (numpy's mix_entropy and generate_state in bit_generator.pyx), so
stream_states runs the hash on a block of trials at once, and TrialSeed
hands each row to PCG64 in place of the SeedSequence.  The draws are
exactly default_rng(SeedSequence(seed, spawn_key=(t, i)))'s.

harness imports this module when a game starts, so importing harness does
not load numpy.random.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import ParameterError

# numpy's SeedSequence constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 4    # the uint64 words PCG64 asks its seed sequence for


class _Hash:
    """SeedSequence's word hash with its running multiplier: xor the
    multiplier in, advance it, multiply, fold the high half down.  Words are
    Python ints or uint64 columns holding 32-bit values, whose products
    cannot wrap."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def stream_states(seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 3, 4) read-only uint64 array whose row [r, i] is
    SeedSequence(seed, spawn_key=(start + r, i)).generate_state(4, np.uint64),
    for seed >= 0 and 0 <= start < stop <= 2^32.

    The entropy SeedSequence mixes is the seed's 32-bit words, least
    significant first and zero-padded to the pool size, then t, then i.
    Every word before t is the same for all trials, so the pool is mixed as
    Python ints until t enters as a column; from there each step runs on
    all the trials at once."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # past the pool, each word is hashed anew into every pool word
    for word in words[_POOL_SIZE:] + [np.arange(start, stop, dtype=np.uint64)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    states = np.empty((stop - start, 3, _STATE_WORDS), dtype=np.uint64)
    for i in range(3):
        stream_hashmix = _Hash(hashmix.const, _MULT_A)
        mixed = [_mix(p, stream_hashmix(i)) for p in pool]
        generate = _Hash(_INIT_B, _MULT_B)
        for j in range(_STATE_WORDS):   # 2 uint32 words per little-endian uint64
            low = generate(mixed[2 * j % _POOL_SIZE])
            states[:, i, j] = low | generate(mixed[(2 * j + 1) % _POOL_SIZE]) << 32
    states.flags.writeable = False
    return states


class TrialSeed(ISpawnableSeedSequence):
    """SeedSequence(seed, spawn_key=(t, i)) as PCG64 sees it, with its state
    derived ahead by stream_states: generate_state(4, np.uint64), the one
    call PCG64 makes, returns that row, and any other request is refused.
    spawn builds the real SeedSequence on its first call and spawns from it,
    so Generator.spawn gives the children default_rng's would."""

    __slots__ = ("_seed", "_key", "_state", "_seq")

    def __init__(self, seed: int, t: int, i: int, state: np.ndarray):
        self._seed = seed
        self._key = (t, i)
        self._state = state
        self._seq = None

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ParameterError(f"a trial seed holds {_STATE_WORDS} uint64 state words, "
                                 f"not {n_words!r} of {np.dtype(dtype)}")
        return self._state

    def spawn(self, n_children):
        if self._seq is None:
            self._seq = np.random.SeedSequence(self._seed, spawn_key=self._key)
        return self._seq.spawn(n_children)


def trial_rng(seed: TrialSeed) -> np.random.Generator:
    """default_rng(seed), without default_rng's type dispatch."""
    return np.random.Generator(np.random.PCG64(seed))


class TrialStream:
    """A trial's oracle or learner stream: a Generator on its TrialSeed, not
    built until the first attribute lookup, so a trial that never draws
    from the stream never pays for it.  Every other lookup is forwarded to
    the Generator, so sessions and learners draw from it as from one.  A
    copy, a deep copy or an unpickled stream draws what the original would
    draw next."""

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: TrialSeed):
        self._seed = seed
        self._rng = None

    def __getattr__(self, name):
        if name.startswith("__"):   # protocol probes (copy's __deepcopy__) are not forwarded
            raise AttributeError(name)
        if self._rng is None:
            self._rng = trial_rng(self._seed)
        return getattr(self._rng, name)

    def __reduce__(self):
        position = None if self._rng is None else self._rng.bit_generator.state
        return TrialStream, (self._seed,), position

    def __setstate__(self, position):
        self.bit_generator.state = position
