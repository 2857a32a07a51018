"""The paper's counting, in exact integers and rationals: family-size floors,
the separation condition, the parameter split of a target dimension and
the least query count any learner needs.

The fan-out bound: each random-oracle answer is one of (2^n + 1)^k label
tuples (answer_space_size), so q queries can split the family into at most
(2^n + 1)^(kq) classes, and any learner's success probability is at most
(2^n + 1)^(kq) / family_size (success_upper_bound).  The bound counts
identifications only while 2*epsilon < 1 - e^(-k/(16n)) (separation_holds),
so that one answer tuple commits to at most one body.

choose_parameters and query_lower_bound instantiate the bound for a target
dimension d = kn, using exact big-integer code-size floors (gv_floor on the
inner seed code of distance inner_seed_distance(n)) where they are
computable and certified power-of-two floors beyond that.  Every floor,
explicit, exact or certified, becomes one exact target (a/b) * 2^E, and
one search decides the least q for all three: start at a q the bit lengths
prove sufficient and step down while q - 1 still reaches the target.  A
step whose power is no longer than the target's integers (every explicit
and exact step) is an integer comparison; a longer one (the certified
regime) is decided on the e^(-x) brackets.

Every n and k is a positive integer (errors.require_int).  This module
needs only the standard library, errors and exactmath, so the `bounds`
command runs without numpy.  It is these names' one home: every module
that calls them imports them from here.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ParameterError, require_int
from .exactmath import binomial_ball_size, ceil_fraction, compare_exp_neg, exp_neg_bounds

EXACT_TERM_BUDGET = 1 << 14     # ball-sum terms the exact family-size floor may take


# ---------------------------------------------------------------------------
# codes, separation and answer space

def gv_floor(q: int, length: int, min_dist: int) -> int:
    """ceil(q^length / V_q(length, min_dist - 1)): the size any maximal
    min_dist-separated code must reach."""
    q, length = require_int(q, "alphabet size", 2), require_int(length, "length", 0)
    ball = binomial_ball_size(q, length, require_int(min_dist, "minimum distance", 1) - 1)
    return -((-(q ** length)) // ball)


def inner_seed_distance(n: int) -> int:
    """ceil(2^n / 8), the inner seed code's distance (doubled by extension)."""
    return -((-(1 << require_int(n, "n", 1))) // 8)


def separation_floor(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds (lo, hi) around 1 - e^(-k/(16n))."""
    n, k = require_int(n, "n", 1), require_int(k, "k", 1)
    e_lo, e_hi = exp_neg_bounds(Fraction(k, 16 * n))
    return 1 - e_hi, 1 - e_lo


def separation_holds(n: int, k: int, epsilon: Fraction) -> bool:
    """Exact decision of 2*epsilon < 1 - e^(-k/(16n))."""
    n, k = require_int(n, "n", 1), require_int(k, "k", 1)
    # equivalent to e^(-k/(16n)) < 1 - 2 eps
    return compare_exp_neg(Fraction(k, 16 * n), 1 - 2 * Fraction(epsilon)) < 0


def answer_space_size(n: int, k: int) -> int:
    """The fan-out of the discrete random oracle: (2^n + 1)^k."""
    n, k = require_int(n, "n", 1), require_int(k, "k", 1)
    return ((1 << n) + 1) ** k


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
