"""The random streams of game trials, derived and drawn a block of trials at a time.

Stream i of trial t (0 hidden draw, 1 oracle, 2 learner) is a Generator on
SeedSequence(seed, spawn_key=(t, i)).  Building that SeedSequence costs far
more than the trial's own work, and all it gives PCG64 is four uint64 words,
generate_state(4, np.uint64).  Those words are a fixed hash of the seed, t
and i (numpy's mix_entropy and generate_state in bit_generator.pyx), so
stream_states runs the hash on a block of trials at once, for the streams a
caller reads: the pool mix up to t is shared, and only i's step and the
state words are taken once per stream.

Two consumers read those rows.  A trial played one at a time builds its
three Generators up front from its block's rows, each a PCG64 on a
TrialSeed in place of the SeedSequence, so each draws, spawns, deep copies
and pickles as default_rng(SeedSequence(seed, spawn_key=(t, i))) would.  The
built-in learners' trials never build a Generator: bounded_integer_blocks
runs PCG64 itself on all of a block's rows at once, as uint64 array
arithmetic (O'Neill's 128-bit LCG and XSL-RR output, seeded as
pcg64_set_seed, each output split into 32-bit halves, low half first) and
maps each half to [0, high) by numpy's bounded uint32 draw (Lemire's
method).  Its draws are Generator.integers(0, high, size=count)'s, bit for
bit, except in a row where some draw meets Lemire's rejection: numpy draws
again there, and the kernel flags the row instead, for the caller to play
that trial through a Generator.  2 <= high <= 2^32, and high = 2^32 takes
the raw halves; bounded_integers draws once a row.

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


def stream_states(seed: int, start: int, stop: int, streams=(0, 1, 2)) -> np.ndarray:
    """(stop - start, len(streams), 4) read-only uint64 array whose row
    [r, c] is SeedSequence(seed, spawn_key=(start + r, streams[c]))
    .generate_state(4, np.uint64), for seed >= 0 and 0 <= start < stop <=
    2^32.  streams lists distinct stream numbers of {0, 1, 2}, any other
    list is a ParameterError; a caller that reads fewer than three streams
    derives only those.

    The entropy SeedSequence mixes is the seed's 32-bit words, least
    significant first and zero-padded to the pool size, then t, then i.
    Every word before t is the same for all trials, so the pool is mixed as
    Python ints until t enters as a column; from there each step runs on
    all the trials at once.  Only the stream number's step and the state
    words are taken once per listed stream."""
    streams = tuple(streams)
    if len(set(streams)) != len(streams) or any(
            type(i) is not int or not 0 <= i <= 2 for i in streams):
        raise ParameterError(f"streams must be distinct numbers of 0, 1, 2, not {streams!r}")
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
    states = np.empty((stop - start, len(streams), _STATE_WORDS), dtype=np.uint64)
    for c, i in enumerate(streams):
        stream_hashmix = _Hash(hashmix.const, _MULT_A)
        mixed = [_mix(p, stream_hashmix(i)) for p in pool]
        generate = _Hash(_INIT_B, _MULT_B)
        for j in range(_STATE_WORDS):   # 2 uint32 words per little-endian uint64
            low = generate(mixed[2 * j % _POOL_SIZE])
            states[:, c, j] = low | generate(mixed[(2 * j + 1) % _POOL_SIZE]) << 32
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


# numpy's PCG64: a 128-bit LCG with this multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_jump_rows = np.empty((8, 0), dtype=np.uint64)   # grown by _jumps, never built at import


def _jumps(count: int) -> np.ndarray:
    """(8, count) read-only uint64 table whose column j - 1 holds A = M^j and
    S = 1 + M + ... + M^(j-1) mod 2^128, M the LCG multiplier, as rows A_hi,
    A_lo, A_lo's 32-bit halves (low, high), then the same four of S: the
    state j steps past s is A s + S inc.  Built on first use and kept, grown
    to the longest run asked for."""
    global _jump_rows
    if _jump_rows.shape[1] < count:
        a, s, cols = 1, 0, []
        for _ in range(count):
            s += a
            a = a * _PCG_MULT & (1 << 128) - 1
            s &= (1 << 128) - 1
            cols.append((a, s))
        rows = []
        for x in zip(*cols):
            lo = [v & _MASK64 for v in x]
            rows += [[v >> 64 for v in x], lo, [v & _MASK32 for v in lo], [v >> 32 for v in lo]]
        _jump_rows = np.array(rows, dtype=np.uint64)
        _jump_rows.flags.writeable = False
    return _jump_rows[:, :count]


def _mul128(a_hi, a_lo, a0, a1, b_hi, b_lo):
    """(hi, lo) words of a b mod 2^128, for uint64 arrays of the words of a
    and b and a0, a1 the 32-bit halves of a_lo: the high word of a_lo b_lo
    comes from four 32-bit products, each of which fits a uint64.  Summed
    in place, so a block holds four arrays of its size at a time."""
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    mid = a0 * b0
    mid >>= 32
    product = a0 * b1
    hi = product >> 32
    product &= _MASK32
    mid += product
    np.multiply(a1, b0, out=product)
    mid += product & _MASK32
    product >>= 32
    hi += product
    mid >>= 32
    hi += mid
    for x, y in ((a1, b1), (a_lo, b_hi), (a_hi, b_lo)):
        np.multiply(x, y, out=product)
        hi += product
    np.multiply(a_lo, b_lo, out=product)
    return hi, product


def _advance(jumps, s_hi, s_lo, inc_hi, inc_lo):
    """(hi, lo) of the LCG states 1..count steps past (s_hi, s_lo), one
    column per step, for (rows, 1) state and increment words and jumps a
    _jumps table of count columns."""
    hi, lo = _mul128(*jumps[:4], s_hi, s_lo)
    hi2, lo2 = _mul128(*jumps[4:], inc_hi, inc_lo)
    lo += lo2
    hi += hi2
    hi += lo < lo2
    return hi, lo


def bounded_integer_blocks(states: np.ndarray, high: int, count: int, width: int,
                           rejected: np.ndarray):
    """Yield, in blocks of at most `width` columns, the (rows, count) int64
    draws Generator(PCG64(seed)).integers(0, high, size=count) makes for
    the seed sequence whose generate_state(4, np.uint64) is each row of the
    (rows, 4) states, and set rejected[r] for every row r whose draws met a
    Lemire rejection: there numpy draws again, so from that draw on the
    row's block values are not numpy's.  2 <= high <= 2^32, width even.

    PCG64 seeds as pcg64_set_seed: state 0, increment 2 (w2 2^64 + w3) + 1,
    one LCG step, add w0 2^64 + w1, one more step; each output steps first
    and returns the XSL-RR of the new state.  The state j steps on is
    A_j s + S_j inc (_jumps), so a block's states come as one broadcast
    over rows and steps.  Each output gives two 32-bit values, low half
    first, and a draw of [0, high) takes one: numpy's bounded uint32 path
    (Lemire's method: m = u high, the draw m >> 32, a rejection when the
    low word of m is below 2^32 mod high).  high = 2^32 is the raw value by
    the same formula, with no rejection."""
    if not (2 <= high <= 1 << 32 and width >= 2 and width % 2 == 0):
        raise ParameterError(f"need 2 <= high <= 2^32 and an even width, "
                             f"not high={high}, width={width}")
    threshold = (1 << 32) % high
    inc_hi = (states[:, 2:3] << 1) | (states[:, 3:4] >> 63)
    inc_lo = (states[:, 3:4] << 1) | 1
    y_lo = inc_lo + states[:, 1:2]
    y_hi = inc_hi + states[:, 0:1] + (y_lo < inc_lo)
    s_hi, s_lo = _advance(_jumps(1), y_hi, y_lo, inc_hi, inc_lo)
    for at in range(0, count, width):
        take = min(width, count - at)
        hi, lo = _advance(_jumps((take + 1) // 2), s_hi, s_lo, inc_hi, inc_lo)
        s_hi, s_lo = hi[:, -1:].copy(), lo[:, -1:].copy()
        rot = hi >> 58
        hi ^= lo
        del lo
        out = hi >> rot
        np.subtract(64, rot, out=rot)
        rot &= 63
        hi <<= rot
        out |= hi
        del hi, rot
        # each output's two 32-bit halves, low first, whatever the host's byte order
        halves = out.astype("<u8", copy=False).view("<u4")[:, :take]
        if threshold:
            # the low word of m = u high is u high mod 2^32
            rejected |= (np.multiply(halves, high, dtype=np.uint32) < threshold).any(axis=1)
        m = halves.astype(np.uint64)
        m *= high
        m >>= 32
        yield m.view(np.int64)


def bounded_integers(states: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """((rows,) draws, (rows,) rejection mask) of bounded_integer_blocks, one
    draw a row: row r is numpy's integers(0, high) on that row's seed
    sequence unless rejected[r]."""
    rejected = np.zeros(len(states), dtype=bool)
    (draws,) = bounded_integer_blocks(states, high, 1, 2, rejected)
    return draws[:, 0], rejected
