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
order-independent and reproducible.  The hidden-draw stream is built for
every trial; the oracle and learner streams, SeedSequence included, are
built on their first draw, so a q = 0 or census trial, or a learner that
never draws, does not pay for them.  The random-policy learner takes its
whole budget in one OracleSession.random_batch call, a single row draw that
consumes the oracle stream query by query; a q-row draw is therefore a
prefix of a (q+1)-row draw, and two runs that differ only in the query
budget see identical hidden bodies and oracle draw prefixes.

Past those streams a trial costs little: its oracle labels are one take
from the hidden factors' cached draw tables (InnerBody.draws), and its
consistent set one packed test of the transcript's pins, checked once when
recorded, against the family's mask words (consistent_indices).
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
        indices = tuple(indices)    # read once: the oracle and the transcript both take it
        answers = discrete_membership(self._body, indices)
        self.transcript.record_membership(indices, answers)
        return answers


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
                     peak indices; 2^n answered queries pin every factor

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


class _TrialStream:
    """Stream i of game trial t: a Generator on SeedSequence(seed,
    spawn_key=(t, i)), the i-th child of SeedSequence(seed,
    spawn_key=(t,)).spawn(3).  Neither is built until the first attribute
    lookup, so a trial that never draws from the stream never pays for it;
    every lookup is forwarded to the Generator, so sessions and learners
    draw from it as from one."""

    __slots__ = ("_seed", "_key", "_rng")

    def __init__(self, seed: int, t: int, i: int):
        self._seed = seed
        self._key = (t, i)
        self._rng = None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(self._seed, spawn_key=self._key))
        return getattr(self._rng, name)


def run_game(config: GameConfig, learner) -> GameStats:
    """Play config.trials independent rounds of hide-and-identify.

    Each trial draws a hidden body uniformly, gives the learner a budgeted
    oracle session, and succeeds iff the family index it names is the hidden
    one; an index outside [0, F) is a ParameterError.  A learner that
    overdraws its budget forfeits the trial; this is counted separately.

    Scoring by identity is scoring by epsilon-distance.  On a factor where two
    members differ, their inner bodies are at least 2^n/4 apart as peak masks
    (checked by inner_family_from_code), so they share at most 3*2^n/8 of
    their w = 2^n/2 peaks, and the factor's volume ratio (R+m)/(R+w) is at
    most 1 - 1/(8n-4).  At least ceil(k/2) factors differ (checked by
    product_family_from_parts), so distinct members are more than
    1 - e^(-k/(16n-8)) > 1 - e^(-k/(16n)) apart, and GameConfig keeps
    2*epsilon below that floor: no wrong index is within epsilon.
    """
    family, size = config.family, config.family.size
    successes = violations = 0
    for t in range(config.trials):
        hidden_seq = np.random.SeedSequence(config.seed, spawn_key=(t, 0))
        hidden_index = int(np.random.default_rng(hidden_seq).integers(size))
        session = OracleSession(family.body(hidden_index), config.query_budget,
                                _TrialStream(config.seed, t, 1))
        try:
            hypothesis = learner.play(session, family, _TrialStream(config.seed, t, 2))
        except BudgetExceededError:
            violations += 1
            continue
        if require_int(hypothesis, "hypothesis", 0, size) == hidden_index:
            successes += 1
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
