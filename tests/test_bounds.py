"""The paper's counting, and the numpy-free module and lazy package that
hold it.

`bounds` holds the paper's counting: the code-size floor, the separation
condition, the fan-out success bound, the parameter split and the least
query count.  It imports only errors, exactmath and the standard library;
the package and the CLI import modules on first use, so the `bounds`
command runs with numpy absent.
"""

import decimal
import functools
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crosspeaks
from crosspeaks import bounds, codes, exactmath, family, harness, oracles, verify
from crosspeaks.bounds import (_least_q, choose_parameters, gv_floor, query_lower_bound,
                               separation_floor, separation_holds, success_upper_bound)
from crosspeaks.errors import ParameterError
from crosspeaks.exactmath import binomial_ball_size, exp_neg_bounds

F = Fraction
SRC = str(pathlib.Path(crosspeaks.__file__).resolve().parents[1])

# the bounds names that their former modules still import, because they use
# them (harness's choose_parameters and query_lower_bound are named there by
# perfbench's TRACED and the acceptance tests)
MOVED = {
    harness: ("choose_parameters", "query_lower_bound", "separation_holds",
              "success_upper_bound"),
    codes: ("gv_floor",),
    family: ("inner_seed_distance", "separation_floor"),
}

# the names those modules no longer hold: each has its one home in bounds
DELETED = {
    harness: ("EXACT_TERM_BUDGET", "ParameterChoice", "QueryBound", "_exact_code_floor",
              "_least_q", "_reaches"),
    family: ("separation_holds",),
    oracles: ("answer_space_size",),
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that finds this package first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True)


_BOUNDS_RUN = ("import sys\n"
               "{block}"
               "from crosspeaks.cli import main\n"
               "raise SystemExit(main(['bounds', *sys.argv[1:]]))\n")


@pytest.mark.parametrize("d", [64, 1024])
def test_bounds_runs_with_numpy_blocked(d):
    argv = ("--d", str(d), "--epsilon", "1/8")
    blocked = _python(_BOUNDS_RUN.format(block="sys.modules['numpy'] = None\n"), *argv)
    normal = _python(_BOUNDS_RUN.format(block=""), *argv)
    assert blocked.stdout == normal.stdout
    found = re.search(r"regime=(\w+)\nq_floor=(\d+)", blocked.stdout)
    pin = verify.QUERY_FLOORS[(d, Fraction(1, 8), Fraction(1, 2))]
    assert (int(found.group(2)), found.group(1)) == pin


def test_package_and_cli_imports_leave_numpy_out():
    # the verify parser's seed default comes from the package, not verify
    out = _python("import sys, crosspeaks\n"
                  "print('numpy' in sys.modules)\n"
                  "import crosspeaks.cli\n"
                  "print('numpy' in sys.modules)\n"
                  "print(crosspeaks.cli.build_parser().parse_args(['verify']).seed)\n"
                  "import crosspeaks.bounds\n"
                  "print(sorted(m for m in sys.modules if m.startswith('crosspeaks')))").stdout
    assert out.splitlines() == [
        "False", "False", str(verify.DEFAULT_SEED),
        "['crosspeaks', 'crosspeaks.bounds', 'crosspeaks.cli', 'crosspeaks.errors', "
        "'crosspeaks.exactmath']"]


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_moved_names_are_the_bounds_objects(module):
    for name in MOVED[module]:
        assert getattr(module, name) is getattr(bounds, name), name


def test_deleted_names_have_one_home_in_bounds():
    for module, names in DELETED.items():
        for name in names:
            assert hasattr(bounds, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_every_public_name_resolves():
    listed = dir(crosspeaks)
    for name in crosspeaks.__all__:
        assert getattr(crosspeaks, name) is not None, name
        assert name in listed, name
    assert crosspeaks.query_lower_bound is bounds.query_lower_bound
    assert crosspeaks.harness is harness
    assert crosspeaks.DEFAULT_SEED == verify.DEFAULT_SEED
    with pytest.raises(AttributeError):
        crosspeaks.no_such_name


# ---------------------------------------------------------------------------
# the code-size floor

def test_gv_floor_examples():
    assert gv_floor(2, 4, 2) == math.ceil(16 / 5)  # = 4
    assert gv_floor(2, 8, 4) == math.ceil(256 / binomial_ball_size(2, 8, 3))
    assert gv_floor(16, 4, 2) == math.ceil(16 ** 4 / binomial_ball_size(16, 4, 1))


def test_gv_floor_refuses_distance_below_one():
    # the ball of radius -1 is empty: the floor would divide by zero
    for min_dist in (0, -1):
        with pytest.raises(ParameterError):
            gv_floor(2, 4, min_dist)


# ---------------------------------------------------------------------------
# the separation condition

def test_separation_floor_brackets():
    lo, hi = separation_floor(3, 1)
    assert lo < hi
    assert float(lo) < 1 - math.exp(-1 / 48) < float(hi) + 1e-15
    assert F(1, 20) > hi  # the worst (3,1) pair clears the floor
    lo4, hi4 = separation_floor(3, 4)
    assert F(39, 400) > hi4


def test_separation_holds_decision():
    assert separation_holds(3, 4, F(1, 32))
    assert not separation_holds(3, 4, F(1, 16))
    assert separation_holds(3, 2, F(1, 64))


def test_separation_holds_at_a_near_floor_epsilon():
    # 2 eps = 1 - hi sits closer to the floor than 256 terms can tell
    _, hi = exp_neg_bounds(F(1, 12), 400)
    assert separation_holds(3, 4, (1 - hi) / 2)


def test_separation_holds_far_from_the_floor_takes_one_bracket(monkeypatch):
    # deciding against a rational far from e^-x must not need precision
    # 10^-4000: the first bracket already excludes it
    calls = []

    def counted(x, terms=32):
        calls.append(terms)
        return exp_neg_bounds(x, terms)

    monkeypatch.setattr(exactmath, "exp_neg_bounds", counted)
    assert separation_holds(3, 4, F(1, 10**4000))
    assert calls == [32]


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
    choice = choose_parameters(d, epsilon)
    assert choice.n == _least_power_of_two_n(d, epsilon)
    # query_lower_bound's exact regime takes (g/4)^(k/2) = g^(k/2) / 2^k
    assert choice.k >= 4 and choice.k & (choice.k - 1) == 0


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
    assert query_lower_bound(64, F(1, 8), family_size=np.int64(1075)).q_floor == 1
    # (1/2) * 2 * 65537^4 = (2^16 + 1)^(k * 1) exactly: q = 1 reaches it
    tie = 2 * 65537 ** 4
    for size, q_floor in ((tie - 1, 1), (tie, 1), (tie + 1, 2)):
        assert query_lower_bound(64, F(1, 8), F(1, 2), family_size=size).q_floor == q_floor
    # a near tie, (1/3) F = (2^16 + 1)^64 + 1/3, is an integer comparison, not a series
    start = time.perf_counter()
    assert query_lower_bound(64, F(1, 8), F(2, 3), family_size=3 * 65537 ** 64 + 1).q_floor == 17
    assert time.perf_counter() - start < 1


def _least_q_explicit_by_search(n, k, a, b, family_size):
    # the definition, in integers: least q with b * (2^n + 1)^(kq) >= a * F
    q, power, step = 0, 1, ((1 << n) + 1) ** k
    while b * power < a * family_size:
        q, power = q + 1, power * step
    return q


@settings(deadline=None, max_examples=150)
@given(d=st.sampled_from((64, 256, 1024)), bits=st.integers(0, 4000),
       low=st.integers(0, 2 ** 64), num=st.integers(1, 10 ** 9), den=st.integers(1, 10 ** 9),
       tie=st.integers(0, 60), offset=st.integers(-1, 1), exact_tie=st.booleans())
def test_query_bound_explicit_matches_integer_search(d, bits, low, num, den, tie, offset,
                                                     exact_tie):
    choice = choose_parameters(d, F(1, 8))
    n, k = choice.n, choice.k
    if exact_tie:
        # 1 - delta = 1/den and F = den * (2^n + 1)^(k * tie) + offset: a tie at offset 0
        num, size = 1, den * ((1 << n) + 1) ** (k * tie) + offset
    else:
        size = (1 << bits) + low
    assume(num <= den and size >= 1)
    delta = 1 - F(num, den)
    qb = query_lower_bound(d, F(1, 8), delta, family_size=size)
    a, b = (1 - delta).as_integer_ratio()
    assert qb.regime == "explicit"
    assert qb.q_floor == _least_q_explicit_by_search(n, k, a, b, size)


@functools.cache
def _inner_code_floor(n):
    # ceil(2^m / V_2(m, r)), m = 2^(n-1), r = 2^n/8 - 1
    m = 1 << (n - 1)
    return -(-(1 << m) // binomial_ball_size(2, m, (1 << n) // 8 - 1))


@settings(deadline=None, max_examples=40)
@given(num=st.integers(1, 2 ** 80), den=st.integers(1, 2 ** 80), dyadic=st.booleans())
def test_query_bound_exact_matches_squared_predicate(num, den, dyadic):
    # only (d, eps) = (64, 1/8) reaches the exact regime; the reference is the
    # squared integer predicate (base^(kq))^2 b^2 4^k >= a^2 g^k
    if dyadic:
        den = 1 << den.bit_length()
    assume(num <= den)
    n, k = 16, 4
    a, b = F(num, den).as_integer_ratio()
    rhs = a * a * _inner_code_floor(n) ** k
    q, power, step = 0, 1, ((1 << n) + 1) ** k
    while power ** 2 * b * b * 4 ** k < rhs:
        q, power = q + 1, power * step
    qb = query_lower_bound(64, F(1, 8), 1 - F(num, den))
    assert (qb.regime, qb.q_floor) == ("exact", q)


def test_query_bound_delta_monotone():
    floors = [query_lower_bound(64, F(1, 8), delta).q_floor
              for delta in (F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8))]
    assert all(a >= b for a, b in zip(floors, floors[1:]))


def test_query_bound_computes_the_exact_family_floor_once_per_n(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return binomial_ball_size(*args)

    deltas = (F(0), F(1, 4), F(1, 2))
    monkeypatch.setattr("crosspeaks.bounds.binomial_ball_size", counted)
    bounds._exact_code_floor.cache_clear()
    cached = [query_lower_bound(64, F(1, 8), delta) for delta in deltas]
    assert len(calls) == 1
    for delta, qb in zip(deltas, cached):
        bounds._exact_code_floor.cache_clear()
        assert query_lower_bound(64, F(1, 8), delta) == qb
    assert len(calls) == 1 + len(deltas)


def test_query_bound_validation():
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), F(1))
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), F(-1, 2))
    with pytest.raises(ParameterError):
        query_lower_bound(64, F(1, 8), family_size=0)
    for size in (10.5, F(3, 2), F(4), 1075.0):   # 10.5 gave q_floor 1, 3/2 gave 0
        with pytest.raises(ParameterError):
            query_lower_bound(64, F(1, 8), family_size=size)


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
    assert _least_q(n, k, exponent, a, b) == _least_q_by_search(n, k, exponent, a, b)


def test_least_q_certified_decides_exact_ties():
    for n, k, q in [(1, 1, 1), (1, 3, 4), (2, 2, 3), (3, 1, 5), (5, 2, 2), (64, 1, 1)]:
        top = ((1 << n) + 1) ** (k * q)
        exponent = top.bit_length()
        for num in (top - 1, top, top + 1):
            a, b = Fraction(num, 1 << exponent).as_integer_ratio()
            want = q + (num > top)
            assert _least_q_by_search(n, k, exponent, a, b) == want
            assert _least_q(n, k, exponent, a, b) == want


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
