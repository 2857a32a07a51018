"""Query games between a hidden family member and a learner.

A game hides a uniformly drawn family body behind the discrete oracles and
lets the learner spend at most q queries before naming a family index.  A
trial succeeds iff that index is the hidden one: distinct family bodies are
more than the separation floor 1 - e^(-k/(16n)) apart (see run_game), and
GameConfig keeps 2*epsilon below that floor, so the hidden body is the only
member within epsilon of itself and epsilon-accuracy is exact
identification.

The exact counting that bounds every learner (the fan-out bound
success_upper_bound, the separation condition, choose_parameters and
query_lower_bound) lives in bounds; this module imports what it uses.

Randomness: every run derives independent per-trial streams from the master
seed.  Stream i of trial t (0 hidden draw, 1 oracle, 2 learner) is
SeedSequence(seed, spawn_key=(t, i)), the same sequence as the i-th child of
SeedSequence(seed, spawn_key=(t,)).spawn(3), so trial outcomes are
order-independent and reproducible.  No SeedSequence is built per trial:
run_game derives the streams' PCG64 states (what generate_state(4,
np.uint64) returns) for a block of trials at once, numpy's hash run on
columns of trials (trialseeds.stream_states), and only the streams a trial
reads.  The random-policy learner
takes its whole budget in one OracleSession.random_batch call, a single row
draw that consumes the oracle stream query by query; a q-row draw is
therefore a prefix of a (q+1)-row draw, and two runs that differ only in
the query budget see identical hidden bodies and oracle draw prefixes.

The built-in learners, MLConsistencyLearner and RandomGuessLearner matched
by exact type, are played as arrays (_ArrayGame): trialseeds'
bounded_integer_blocks runs PCG64 and numpy's bounded-integer draw on a
block's stream states at once, bit for bit what each trial's Generator
would draw, and the outcomes are read off those draws with no Generator,
session or transcript, from the streams each policy reads: the hidden draw's
alone for the census and for the random policy at q = 0, the oracle's too
at q >= 1, the learner's too for the guess.  A random-policy trial's labels
are a take from the hidden factors' cached draw tables (InnerBody.draws),
its pins are packed by ProductFamily._pack, and it succeeds iff no lower
index holds them all: the AND of those pins' rows of the family's per-pin
bitset index (ProductFamily._pin_index, one bit per body) has no bit below
the hidden index.  A census trial succeeds iff its hidden index is the
lowest of its class under the probed orthants, a table built once per
game.  Where a draw meets a rejection in Lemire's method, numpy draws again
and the kernel does not follow it, so that trial is replayed trial by
trial.

Every other learner, a subclass or a wrapper of a built-in one included,
is played trial by trial (_play_block): each trial's three Generators,
hidden draw, oracle and learner, are built up front from its block's state
rows, a PCG64 on a trialseeds.TrialSeed each.  Past those streams a trial
costs little: its oracle labels are one take from the draw tables, its
consistent set one packed test of the transcript's pins against the mask
words (consistent_indices), and a census probe's indices are checked once,
by discrete_membership, which records the probe on the session's
transcript.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import separation_holds, success_upper_bound
# not called here: perfbench's TRACED and tests/test_acceptance.py name these on harness
from .bounds import choose_parameters, query_lower_bound
from .errors import BudgetExceededError, ParameterError, VerificationError, require_int
from .family import ProductBody, ProductFamily
from .geometry import sample_region_label_rows
from .oracles import Transcript, discrete_membership

# caps and budgets, read at call time
MAX_LABELS_PER_TRIAL = 1 << 20  # region labels one game trial may draw (budget x k)
MAX_TRIALS = 1 << 20            # trials one game may play


# ---------------------------------------------------------------------------
# oracle sessions and consistency filtering

class OracleSession:
    """Budgeted access to one hidden body's discrete oracles; every query is
    recorded on the transcript."""

    def __init__(self, body: ProductBody, budget: int, rng: np.random.Generator):
        self._body = body
        self.budget = require_int(budget, "query budget", 0)
        self._rng = rng
        self.transcript = Transcript(body.n)

    @property
    def remaining(self) -> int:
        return self.budget - self.transcript.query_count

    def _spend(self, count: int = 1) -> None:
        if count > self.remaining:
            raise BudgetExceededError("query budget exhausted")

    def random_batch(self, count: int) -> np.ndarray:
        """`count` random-oracle queries as one (count, k) label draw, taken
        query by query and recorded one transcript entry per row.  A batch
        that would overrun the budget is refused before anything is drawn."""
        count = require_int(count, "random query count", 0)
        self._spend(count)
        labels = sample_region_label_rows(self._body.factors, count, self._rng)
        self.transcript.record_random_rows(labels)
        return labels

    def membership(self, indices) -> tuple[bool, ...]:
        self._spend()
        return discrete_membership(self._body, indices, self.transcript)


def consistent_indices(transcript: Transcript, family: ProductFamily) -> np.ndarray:
    """Indices of family bodies consistent with every transcript answer:
    observed peaks present, membership bits matching.  The pins fold into
    two ints packed like the family's masks, factor j's at bit j 2^n, which
    one packed test matches.  A transcript of another factor dimension, or
    an entry that is not k wide, is a ParameterError; the transcript checked
    each label and index when it was recorded."""
    k = family.k
    n = transcript.n
    if n != family.n:
        raise ParameterError(f"transcript has n={n}, family has n={family.n}")
    width = 1 << n
    shifts = range(0, k * width, width)
    present = absent = 0        # peaks some answer says are present, or absent
    for e in transcript.entries:
        if len(e[1]) != k:
            raise ParameterError(f"transcript entry is {len(e[1])} wide, family has k={k}")
        if e[0] == "R":
            for shift, label in zip(shifts, e[1]):
                if label < width:   # the core label 2^n pins no peak
                    present |= 1 << shift + label
        else:
            for shift, idx, ans in zip(shifts, e[1], e[2]):
                if ans:
                    present |= 1 << shift + idx
                else:
                    absent |= 1 << shift + idx
    if present & absent:
        return np.empty(0, dtype=np.intp)   # contradictory answers admit no body
    return family._matching(present | absent, present)


# ---------------------------------------------------------------------------
# learners

class RandomGuessLearner:
    """Ignores the oracles entirely; guesses a uniform family index."""

    def play(self, session: OracleSession, family: ProductFamily,
             rng: np.random.Generator) -> int:
        return int(rng.integers(family.size))


class MLConsistencyLearner:
    """Consistency learner with a query policy:

    policy="random"  spend the whole budget on random-oracle draws (learning
                     from samples); observed peaks accumulate monotonically,
                     so a longer budget always refines the consistent set
    policy="census"  sweep membership queries (j, j, ..., j) over the 2^n
                     peak indices; on every family build_inner_family makes,
                     complement extension gives orthants j and j + 2^(n-1)
                     complementary bits, so the first 2^(n-1) answers
                     already pin every factor

    It names the lowest-index consistent body: consistent bodies carry equal
    posterior mass under a uniform prior, so any of them is maximum-likelihood.
    """

    def __init__(self, policy: str = "random"):
        if policy not in ("random", "census"):
            raise ParameterError(f"unknown policy {policy!r}")
        self.policy = policy

    def play(self, session: OracleSession, family: ProductFamily,
             rng: np.random.Generator) -> int:
        if self.policy == "random":
            if session.remaining > 0:
                session.random_batch(session.remaining)
        else:
            for index in range(1 << family.n):
                if session.remaining <= 0:
                    break
                session.membership((index,) * family.k)
        idx = consistent_indices(session.transcript, family)
        if len(idx) == 0:
            raise VerificationError("no family body is consistent with the transcript")
        return int(idx[0])


# ---------------------------------------------------------------------------
# the game

@dataclass(frozen=True)
class GameConfig:
    """One experiment: which family, how many queries, what counts as close.

    Requires 2*epsilon < 1 - e^(-k/(16n)) (decided exactly), so that an
    epsilon-ball around any hypothesis contains at most one family body and
    per-trial success is unambiguous.  A budget whose labels per trial
    (query_budget * k) exceed MAX_LABELS_PER_TRIAL, or more than MAX_TRIALS
    trials, is refused with BudgetExceededError.
    """

    family: ProductFamily
    query_budget: int
    epsilon: Fraction
    trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        for name, low in (("query_budget", 0), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, low))
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if not separation_holds(self.family.n, self.family.k, self.epsilon):
            raise ParameterError(
                "2*epsilon must stay under the family separation floor "
                f"1 - e^(-k/(16n)) for (n, k) = ({self.family.n}, {self.family.k})")
        if self.query_budget * self.family.k > MAX_LABELS_PER_TRIAL:
            raise BudgetExceededError(
                f"query budget {self.query_budget} x k={self.family.k} is over "
                f"the cap of {MAX_LABELS_PER_TRIAL} labels per trial")
        if self.trials > MAX_TRIALS:
            raise BudgetExceededError(
                f"{self.trials} trials is over the cap of {MAX_TRIALS}")


@dataclass(frozen=True)
class GameStats:
    trials: int
    successes: int
    budget_violations: int

    @property
    def exact_identifications(self) -> int:
        """The successes: run_game scores a trial by identity."""
        return self.successes

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def confidence_radius(self) -> float:
        """95% normal-approximation radius for the success rate."""
        p = self.success_rate
        return 1.96 * math.sqrt(p * (1 - p) / self.trials)


_STATE_BLOCK = 1 << 10  # trials whose stream states run_game derives in one pass: 96 KiB


def _play_block(config: GameConfig, learner, start: int, stop: int) -> tuple[int, int]:
    """(successes, budget violations) of trials start..stop-1.  Their stream
    states are derived here and die with the call, unless the learner keeps
    a stream, so a game holds one block of them at a time."""
    from .trialseeds import TrialSeed, stream_states
    family, size, seed = config.family, config.family.size, config.seed
    successes = violations = 0
    for t, rows in enumerate(stream_states(seed, start, stop), start):
        hidden, oracle, own = [
            np.random.Generator(np.random.PCG64(TrialSeed(seed, t, i, rows[i])))
            for i in range(3)]
        hidden_index = int(hidden.integers(size))
        session = OracleSession(family.body(hidden_index), config.query_budget, oracle)
        try:
            hypothesis = learner.play(session, family, own)
        except BudgetExceededError:
            violations += 1
            continue
        if require_int(hypothesis, "hypothesis", 0, size) == hidden_index:
            successes += 1
    return successes, violations


# draws, or ANDed bitset words, one array pass of a game holds: 64 KiB, so
# its arrays stay under glibc's 128 KiB mmap threshold (larger passes left the
# game's peak RSS about 0.8 MB higher, and ran no faster)
_BLOCK_VALUES = 1 << 13


class _ArrayGame:
    """A built-in learner's trials played as arrays, a block at a time, with
    the outcomes _play_block gets trial by trial.  Each stream's draws come
    from trialseeds.bounded_integer_blocks for all of a block's trials at
    once: the hidden index from stream 0, then

      random  the q k region draws from stream 1, read as present pins
              through the hidden factors' InnerBody.draws tables; the
              learner names the lowest consistent index, so the trial
              succeeds iff no lower index has every pin, an AND of the
              pins' rows of the family's per-pin bitset index (_none_below)
      census  nothing more: the probes pin the first min(q, 2^n) orthants
              of every factor, so the trial succeeds iff the hidden index
              is the first of its class under _mask_words & care, a table
              built once per game
      guess   one draw of [0, F) from stream 2, the RandomGuessLearner's

    Only the streams a policy reads are derived (streams): stream 0 for the
    census and the random policy at q = 0, streams 0 and 1 for the random
    policy at q >= 1, 0 and 2 for the guess.  A trial whose draws met a
    Lemire rejection is replayed by _play_block, which derives all three."""

    def __init__(self, config: GameConfig, learner, policy: str):
        self.config, self.learner, self.policy = config, learner, policy
        family, q = config.family, config.query_budget
        width = 1 << family.n
        self.streams = (0, 2) if policy == "guess" else (0, 1) if policy == "random" and q else (0,)
        if policy == "census":
            keys = family._mask_words & family._pack(
                np.full(family.k, (1 << min(q, width)) - 1, dtype=np.uint64))
            order = np.lexsort(keys.T)      # stable: a class's lowest index leads its run
            keys = keys[order]
            lead = np.ones(family.size, dtype=bool)
            lead[1:] = (keys[1:] != keys[:-1]).any(axis=1)
            self.first = np.zeros(family.size, dtype=bool)
            self.first[order[lead]] = True
        elif policy == "random" and q:
            tables = np.stack([b.draws for b in family.inner.bodies])
            self.draw_count = tables.shape[1]
            self.pins = np.where(tables < width, 1 << tables, 0).astype(np.uint64).ravel()

    @classmethod
    def for_learner(cls, config: GameConfig, learner):
        """The array game of a built-in learner, matched by exact type so that
        a subclass or a wrapper is played trial by trial, or None."""
        if not 2 <= config.family.size <= 1 << 32:     # outside the draw kernel's reach
            return None
        if type(learner) is RandomGuessLearner:
            return cls(config, learner, "guess")
        if type(learner) is MLConsistencyLearner:
            return cls(config, learner, "random" if learner.policy == "random" else "census")
        return None

    def outcomes(self, start: int, stop: int) -> np.ndarray:
        """Whether each of trials start..stop-1 succeeds, a rejected trial's
        from its _play_block replay (a built-in learner never overdraws)."""
        from .trialseeds import bounded_integers, stream_states
        config, size = self.config, self.config.family.size
        states = stream_states(config.seed, start, stop, self.streams)
        hidden, rejected = bounded_integers(states[:, 0], size)
        if self.policy == "guess":
            guess, missed = bounded_integers(states[:, 1], size)
            success = guess == hidden
            rejected |= missed
        elif self.policy == "census":
            success = self.first[hidden]
        elif config.query_budget == 0:
            success = hidden == 0       # no pins: every index is consistent
        else:
            success = self._random(states[:, 1], hidden, rejected)
        for t in np.flatnonzero(rejected).tolist():
            success[t] = _play_block(config, self.learner, start + t, start + t + 1)[0]
        return success

    def _random(self, states, hidden, rejected):
        """Success of each random-policy trial: its q k draws read as
        present pins, collected over passes of about _BLOCK_VALUES draws (a
        longer trial goes through alone, in column blocks), packed by _pack,
        then no lower index holding them all."""
        from .trialseeds import bounded_integer_blocks
        family = self.config.family
        k, labels = family.k, self.config.query_budget * family.k
        if labels <= _BLOCK_VALUES:
            trials, width = max(1, _BLOCK_VALUES // labels), labels + labels % 2
        else:
            trials, width = 1, max(2, _BLOCK_VALUES // k & ~1) * k
        present = np.zeros((len(hidden), k), dtype=np.uint64)
        outer = family.outer.words
        for a in range(0, len(hidden), trials):
            b = min(a + trials, len(hidden))
            offsets = outer[hidden[a:b]].astype(np.intp)[:, None, :] * self.draw_count
            for u in bounded_integer_blocks(states[a:b], self.draw_count, labels, width,
                                            rejected[a:b]):
                u = u.reshape(b - a, -1, k)
                u += offsets
                present[a:b] |= np.bitwise_or.reduce(self.pins.take(u), axis=1)
        return self._none_below(family._pack(present), hidden)

    def _none_below(self, present, hidden):
        """Per row, whether no index below hidden[r] has every pin of the
        packed words present[r]: the AND of the family's _pin_index rows of
        those pins, cut to the words below hidden[r], holds no bit below
        hidden[r].  A row with no pins admits every index.  Rows go through
        in chunks whose ANDed bitsets hold about _BLOCK_VALUES words."""
        index = self.config.family._pin_index
        clear = np.empty(len(hidden), dtype=bool)
        step = max(1, _BLOCK_VALUES // index.shape[1])
        for a in range(0, len(hidden), step):
            below = hidden[a:a + step]
            held = np.unpackbits(present[a:a + step].astype("<u8", copy=False).view(np.uint8),
                                 axis=1, bitorder="little").view(bool)
            counts = np.count_nonzero(held, axis=1)
            if not counts.any():
                clear[a:a + step] = below == 0
                continue
            # a row's pins, from its last down, then its first repeated to
            # the longest row's count: ANDing a row twice changes nothing
            ends = np.cumsum(counts)[:, None] - 1
            slot = np.minimum(np.arange(counts.max()), np.maximum(counts, 1)[:, None] - 1)
            pins = np.nonzero(held)[1][ends - slot]
            word = below >> 6
            cols = int(word.max()) + 1
            acc = index[pins[:, 0], :cols]
            for j in range(1, pins.shape[1]):
                acc &= index[pins[:, j], :cols]
            found = ((acc != 0) & (np.arange(cols) < word[:, None])).any(axis=1)
            part = acc[np.arange(len(below)), word] & (
                (np.uint64(1) << (below & 63).astype(np.uint64)) - np.uint64(1))
            clear[a:a + step] = np.where(counts > 0, ~found & (part == 0), below == 0)
        return clear


def run_game(config: GameConfig, learner) -> GameStats:
    """Play config.trials independent rounds of hide-and-identify.

    Each trial draws a hidden body uniformly, gives the learner a budgeted
    oracle session, and succeeds iff the family index it names is the hidden
    one; an index outside [0, F) is a ParameterError.  A learner that
    overdraws its budget forfeits the trial; this is counted separately.

    Trials are played in blocks of _STATE_BLOCK, whose stream states are
    derived together.  A built-in learner, matched by its exact type, is
    played as arrays (_ArrayGame) on a family of 2 to 2^32 bodies; every
    other learner, and any trial whose draws met a Lemire rejection, is
    played trial by trial through Generators and an OracleSession
    (_play_block).  Both give each trial the same outcome.

    Scoring by identity is scoring by epsilon-distance.  On a factor where two
    members differ, their inner bodies are at least 2^n/4 apart as peak masks
    (checked by inner_family_from_code), so they share at most 3*2^n/8 of
    their w = 2^n/2 peaks, and the factor's volume ratio (R+m)/(R+w) is at
    most 1 - 1/(8n-4).  At least ceil(k/2) factors differ (checked by
    product_family_from_parts), so distinct members are more than
    1 - e^(-k/(16n-8)) > 1 - e^(-k/(16n)) apart, and GameConfig keeps
    2*epsilon below that floor: no wrong index is within epsilon.
    """
    game = _ArrayGame.for_learner(config, learner)
    successes = violations = 0
    for start in range(0, config.trials, _STATE_BLOCK):
        stop = min(start + _STATE_BLOCK, config.trials)
        won, lost = ((np.count_nonzero(game.outcomes(start, stop)), 0) if game
                     else _play_block(config, learner, start, stop))
        successes += int(won)
        violations += lost
    return GameStats(trials=config.trials, successes=successes, budget_violations=violations)


# ---------------------------------------------------------------------------
# experiment reports

RESULTS_CSV_COLUMNS = ("n", "k", "d", "family_size", "q", "trials", "successes",
                       "success_rate", "upper_bound", "seed")


def game_result_row(config: GameConfig, stats: GameStats) -> dict:
    family = config.family
    bound = success_upper_bound(family.n, family.k, config.query_budget,
                                family.size, config.epsilon)
    return {
        "n": family.n,
        "k": family.k,
        "d": family.dimension,
        "family_size": family.size,
        "q": config.query_budget,
        "trials": stats.trials,
        "successes": stats.successes,
        "success_rate": repr(stats.success_rate),
        "upper_bound": repr(float(bound)),
        "seed": config.seed,
    }


def write_results_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULTS_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
