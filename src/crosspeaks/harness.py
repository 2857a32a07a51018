"""Query games between a hidden family member and a learner, plus the exact
counting bounds that limit any learner.

A game hides a uniformly drawn family body behind the discrete oracles and
lets the learner spend at most q queries before naming a family index.  A
trial succeeds iff that index is the hidden one: distinct family bodies are
more than the separation floor 1 - e^(-k/(16n)) apart (see run_game), and
GameConfig keeps 2*epsilon below that floor, so the hidden body is the only
member within epsilon of itself and epsilon-accuracy is exact
identification.

The fan-out bound: q queries can split the family into at most
(2^n + 1)^(kq) classes, so any learner's success probability is at most
(2^n + 1)^(kq) / family_size.  choose_parameters and query_lower_bound
instantiate the bound for a target dimension d = kn, using exact
big-integer code-size floors where they are computable and certified
power-of-two floors beyond that.  Every floor, explicit, exact or certified,
becomes one exact target (a/b) * 2^E, and one search decides the least q for
all three: start at a q the bit lengths prove sufficient and step down while
q - 1 still reaches the target.  A step whose power is no longer than the
target's integers (every explicit and exact step) is an integer comparison;
a longer one (the certified regime) is decided on the e^(-x) brackets.

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
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import gv_floor
from .errors import BudgetExceededError, ParameterError, VerificationError, require_int
from .exactmath import ceil_fraction, compare_exp_neg
from .family import ProductBody, ProductFamily, inner_seed_distance, separation_holds
from .geometry import core_label_value, sample_region_label_rows
from .oracles import Transcript, answer_space_size, discrete_membership

# caps and budgets, read at call time
MAX_LABELS_PER_TRIAL = 1 << 20  # region labels one game trial may draw (budget x k)
MAX_TRIALS = 1 << 20            # trials one game may play
EXACT_TERM_BUDGET = 1 << 14     # ball-sum terms the exact family-size floor may take


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
    observed peaks present, membership bits matching.  Each factor's pins
    fold into one (care, want) bit pair, so each factor is tested once.  A
    transcript of another factor dimension, or an entry that is not k wide,
    is a ParameterError; the transcript checked each label and index when it
    was recorded."""
    k = family.k
    n = transcript.n
    if n != family.n:
        raise ParameterError(f"transcript has n={n}, family has n={family.n}")
    core = core_label_value(n)
    present = [0] * k           # per factor: peaks some answer says are present
    absent = [0] * k            # per factor: peaks some answer says are absent
    for e in transcript.entries:
        if len(e[1]) != k:
            raise ParameterError(f"transcript entry is {len(e[1])} wide, family has k={k}")
        if e[0] == "R":
            for j, label in enumerate(e[1]):
                if label < core:
                    present[j] |= 1 << label
        else:
            for j, (idx, ans) in enumerate(zip(e[1], e[2])):
                if ans:
                    present[j] |= 1 << idx
                else:
                    absent[j] |= 1 << idx
    if any(p & a for p, a in zip(present, absent)):
        return np.empty(0, dtype=np.intp)   # contradictory answers admit no body
    return family.matching_indices([p | a for p, a in zip(present, absent)], present)


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
    family = config.family
    successes = violations = 0
    for t in range(config.trials):
        hidden_seq = np.random.SeedSequence(config.seed, spawn_key=(t, 0))
        hidden_index = int(np.random.default_rng(hidden_seq).integers(family.size))
        session = OracleSession(family.body(hidden_index), config.query_budget,
                                _TrialStream(config.seed, t, 1))
        try:
            hypothesis = learner.play(session, family, _TrialStream(config.seed, t, 2))
        except BudgetExceededError:
            violations += 1
            continue
        if require_int(hypothesis, "hypothesis", 0, family.size) == hidden_index:
            successes += 1
    return GameStats(trials=config.trials, successes=successes, budget_violations=violations)


def success_upper_bound(n: int, k: int, q: int, family_size: int,
                        epsilon: Fraction) -> Fraction:
    """min(1, (2^n + 1)^(kq) / family_size), exact.

    Valid as a success bound only under the separation condition
    2*epsilon < 1 - e^(-k/(16n)) (each answer tuple commits to at most one
    body), which is decided exactly and refused when unmet.
    """
    q, family_size = require_int(q, "q", 0), require_int(family_size, "family_size", 1)
    if not separation_holds(n, k, Fraction(epsilon)):
        raise ParameterError(
            "success_upper_bound needs 2*epsilon below the separation floor")
    return min(Fraction(1), Fraction(answer_space_size(n, k) ** q, family_size))


# ---------------------------------------------------------------------------
# parameter selection for a target dimension

@dataclass(frozen=True)
class ParameterChoice:
    d: int
    epsilon: Fraction
    n: int
    k: int
    sqrt_ratio: float              # sqrt(d / ln(1/(1-2 eps)))
    separation_satisfied: bool     # exact decision of 2 eps < 1 - e^(-k/(16n))


def choose_parameters(d: int, epsilon) -> ParameterChoice:
    """Split a target dimension d into k factors of dimension n:
    n = smallest power of two >= sqrt(d / ln(1/(1 - 2 eps))), k = d/n.

    Requires d a power of two and 8/d <= epsilon <= 1/8, and raises
    BudgetExceededError when d/L is too large for a float.  The float
    sqrt(d/L) only picks where n starts; n >= sqrt(d/L) iff e^(-d/n^2) >=
    1 - 2 eps is decided exactly.  The chain 2 <= sqrt(d/L) <= n < 4
    sqrt(d/L) <= d follows: d >= 64, 16/d <= 2 eps <= L <= ln(4/3), and n is
    least, so n < 2 sqrt(d/L).  Note the selection maximizes the answer-space blowup 2^n; at this n the separation
    condition 2 eps < 1 - e^(-k/(16n)) generally does NOT hold (it would
    need n about 4x smaller), so it is reported, not asserted.
    """
    d, epsilon = require_int(d, "d", 1), Fraction(epsilon)
    if d & (d - 1):
        raise ParameterError(f"d={d} must be a power of two")
    if not Fraction(8, d) <= epsilon <= Fraction(1, 8):
        raise ParameterError(f"epsilon={epsilon} outside [8/d, 1/8] for d={d}")
    big_l = math.log(1 / float(1 - 2 * epsilon))
    if not big_l:   # 1 - 2 eps rounded to 1; log1p keeps an eps under 2^-54
        big_l = -math.log1p(-2 * float(epsilon))
    if not big_l or d.bit_length() > sys.float_info.max_exp or d / big_l == math.inf:
        raise BudgetExceededError(f"d/L for d={d}, epsilon={epsilon} does not fit a float")
    x = math.sqrt(d / big_l)
    n = 1 << math.ceil(math.log2(x))
    target = 1 - 2 * epsilon
    while compare_exp_neg(Fraction(d, n * n), target) < 0:
        n <<= 1
    while compare_exp_neg(Fraction(4 * d, n * n), target) >= 0:
        n >>= 1
    k = d // n
    return ParameterChoice(d=d, epsilon=epsilon, n=n, k=k, sqrt_ratio=x,
                           separation_satisfied=separation_holds(n, k, epsilon))


# ---------------------------------------------------------------------------
# query lower bound

@dataclass(frozen=True)
class QueryBound:
    d: int
    epsilon: Fraction
    delta: Fraction
    n: int
    k: int
    q_floor: int                 # least q with (2^n+1)^(kq) >= (1-delta) * bound
    regime: str                  # "explicit" | "exact" | "certified"
    family_bound_log2: float     # log2 of the family-size lower bound used
    asymptotic_log2: float       # sqrt(d / ln(1/(1-2 eps))), for context


def _reaches(n: int, power: int, exponent: int, a: int, b: int) -> bool:
    """(2^n + 1)^power >= (a/b) * 2^exponent for exponent >= 0, decided exactly
    as (1 + u)^K >= r with u = 2^-n, K = power and r = (a/b) * 2^(exponent - nK)."""
    # a tie b (2^n + 1)^K = a 2^E makes the odd (2^n + 1)^K > 2^(nK) divide a,
    # so every tie, like any power no longer than a and b, is settled in integers
    if n * power < a.bit_length() + b.bit_length():
        return b * ((1 << n) + 1) ** power >= a << exponent
    shift = exponent - n * power
    r = Fraction(a << max(shift, 0), b << max(-shift, 0))
    x = Fraction(power, 1 << n)
    if r <= 1 + x or x < 1 and r * (1 - x) > 1:   # 1 + Ku <= (1 + u)^K <= 1/(1 - Ku)
        return r <= 1 + x
    # no tie: partial sums of ln(1 + u), above it at odd i, settle the side
    total = Fraction(0)
    for i in itertools.count(1):
        total += Fraction((-1) ** (i + 1), i << n * i)
        sign = compare_exp_neg(power * total, 1 / r)
        if sign == (-1) ** (i + 1):                 # e^(-K * sum) past 1/r on its side
            return sign < 0


def _least_q(n: int, k: int, exponent: int, a: int, b: int) -> int:
    """Least q with (2^n + 1)^(kq) >= (a/b) * 2^exponent.  The bit lengths of
    a and b prove some q sufficient, as (2^n + 1)^(kq) > 2^(nkq) for q > 0;
    step down while q - 1 still reaches the target."""
    q = max(0, ceil_fraction(Fraction(exponent + a.bit_length() - b.bit_length() + 1, n * k)))
    while q and _reaches(n, k * (q - 1), exponent, a, b):
        q -= 1
    return q


@functools.lru_cache(maxsize=None)  # only n with ceil(2^n/8) <= EXACT_TERM_BUDGET reach it
def _exact_code_floor(n: int) -> int:
    """The size floor of the inner seed code, computed once per n."""
    return gv_floor(2, 1 << (n - 1), inner_seed_distance(n))


def query_lower_bound(d: int, epsilon, delta=Fraction(1, 2), *,
                      family_size: int | None = None) -> QueryBound:
    """Least q such that (2^n+1)^(kq) >= (1 - delta) * family-size bound:
    below it, any learner's success probability on the (n, k) family falls
    under 1 - delta.

    The family-size lower bound is, in order of preference: an explicitly
    supplied size; the exact big-integer floor (ceil(2^m / V_2(m, r)) / 4)^(k/2)
    with m = 2^(n-1) and r = ceil(2^n/8) - 1 when the ball sum is within
    EXACT_TERM_BUDGET terms; else the certified floor 2^((3m/16 - 2) k / 2)
    from the entropy bound V_2(m, r) <= 2^(13m/16) for r <= m/4, which every
    n >= 2 meets: r = ceil(2^n/8) - 1 <= 2^(n-3) = m/4.  A floor whose log2
    is no float raises BudgetExceededError before 2^n is built.
    Whichever floor applies, (1 - delta) times it is one exact target and
    q_floor comes from the one step-down search, _least_q.
    """
    choice = choose_parameters(d, epsilon)
    n, k = choice.n, choice.k
    delta = Fraction(delta)
    if not 0 <= delta < 1:
        raise ParameterError("delta must lie in [0, 1)")
    # the certified exponent (3 * 2^(n-5) - 2) * k/2 is about 3 * 2^(n-6) * k
    if family_size is None and n - 6 + math.log2(3 * k) > sys.float_info.max_exp:
        raise BudgetExceededError(
            f"the family-size floor for n={n}, k={k} has a log2 past a float's range")
    target, exponent = 1 - delta, 0   # every regime asks (2^n+1)^(kq) >= target * 2^exponent
    if family_size is not None:
        family_size = require_int(family_size, "family_size", 1)
        regime = "explicit"
        target *= family_size
        bound_log2 = math.log2(family_size)
    elif inner_seed_distance(n) <= EXACT_TERM_BUDGET:
        regime = "exact"
        g = _exact_code_floor(n)
        target *= Fraction(g ** (k // 2), 1 << k)   # (g/4)^(k/2), k a power of two >= 4
        bound_log2 = (g.bit_length() - 1 - 2) * (k / 2)
    else:
        regime = "certified"
        exponent = ((3 << (n - 1)) // 16 - 2) * k // 2   # (3m/16 - 2) k/2
        bound_log2 = float(exponent)
    q_floor = _least_q(n, k, exponent, target.numerator, target.denominator)

    return QueryBound(d=choice.d, epsilon=choice.epsilon, delta=delta, n=n, k=k,
                      q_floor=q_floor, regime=regime,
                      family_bound_log2=bound_log2,
                      asymptotic_log2=choice.sqrt_ratio)


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
