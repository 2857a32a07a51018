"""The exact-arithmetic helpers are the oracles everything else leans on, so
they get checked against stdlib float/bigint routes here."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crosspeaks.errors import ParameterError
from crosspeaks.exactmath import (binomial_ball_size, ceil_fraction,
                                  compare_exp_neg, exp_neg_bounds,
                                  exp_neg_brackets, simplex_volume)


def test_exp_neg_bounds_bracket_float():
    for num, den in [(1, 2), (1, 12), (1, 4), (1, 1), (3, 2), (4, 1), (25, 3)]:
        x = Fraction(num, den)
        lo, hi = exp_neg_bounds(x)
        assert lo <= hi
        # float(x) and math.exp both round, so compare with a 1-ulp-ish slack
        approx = math.exp(-float(x))
        assert float(lo) <= approx * (1 + 1e-12)
        assert approx * (1 - 1e-12) <= float(hi)
        assert float(hi - lo) < 1e-9 * approx + 1e-30


def test_exp_neg_bounds_edges():
    assert exp_neg_bounds(Fraction(0)) == (1, 1)
    with pytest.raises(ParameterError):
        exp_neg_bounds(Fraction(-1))


def test_exp_neg_bounds_refuses_fewer_than_one_term():
    # zero terms would give (1, 1), a false bracket: e^-x < 1 for x > 0
    for terms in (0, -3):
        with pytest.raises(ParameterError):
            exp_neg_bounds(Fraction(1, 2), terms)
        with pytest.raises(ParameterError):
            exp_neg_bounds(Fraction(5, 2), terms)
    assert exp_neg_bounds(Fraction(1, 2), 1) == (Fraction(1, 2), 1)


def test_compare_exp_neg_signs():
    # e^-1 = 0.36787..., decided against rationals on both sides
    assert compare_exp_neg(Fraction(1), Fraction(1, 3)) == 1
    assert compare_exp_neg(Fraction(1), Fraction(3, 8)) == -1
    assert compare_exp_neg(Fraction(0), Fraction(1)) == 0
    # tight pair around e^-1/12 = 0.920044...
    assert compare_exp_neg(Fraction(1, 12), Fraction(92004, 100000)) == 1
    assert compare_exp_neg(Fraction(1, 12), Fraction(92005, 100000)) == -1


def test_compare_exp_neg_decides_inside_a_400_term_bracket():
    # both ends of a 400-term bracket around e^-1/12 sit closer to it than
    # 256 terms can tell; the comparison must still be decided
    lo, hi = exp_neg_bounds(Fraction(1, 12), 400)
    assert compare_exp_neg(Fraction(1, 12), lo) == 1
    assert compare_exp_neg(Fraction(1, 12), hi) == -1


def test_exp_neg_brackets_double_the_terms():
    brackets = exp_neg_brackets(Fraction(5, 2))
    for terms in (32, 64, 128):
        assert next(brackets) == exp_neg_bounds(Fraction(5, 2), terms)
    with pytest.raises(ParameterError):
        next(exp_neg_brackets(Fraction(-1)))


def _decimal(q: Fraction) -> decimal.Decimal:
    return decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)


@settings(deadline=None, max_examples=60)
@given(num=st.integers(1, 2000), den=st.integers(1, 1000),
       digits=st.integers(0, 149), mantissa=st.integers(1, 999),
       sign=st.sampled_from((-1, 1)))
def test_compare_exp_neg_matches_decimal(num, den, digits, mantissa, sign):
    # independent oracle: stdlib decimal at 300 digits, with the value kept
    # at least 10^-150 away from e^-x so 300 digits settle the sign
    x = Fraction(num, den)
    assume(x <= 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        exact = (-_decimal(x)).exp()
        value = Fraction(exact) + sign * Fraction(mantissa, 10 ** (digits + 3))
        gap = exact - _decimal(value)
        assume(abs(gap) >= decimal.Decimal(10) ** -150)
        assert compare_exp_neg(x, value) == (1 if gap > 0 else -1)


def test_ceil_fraction():
    assert ceil_fraction(Fraction(7, 2)) == 4
    assert ceil_fraction(Fraction(-7, 2)) == -3
    assert ceil_fraction(Fraction(4)) == 4


def test_binomial_ball_size_against_comb():
    for q in (2, 3, 16):
        for n in (1, 4, 8):
            for r in range(n + 1):
                want = sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))
                assert binomial_ball_size(q, n, r) == want
    # r beyond n saturates at the whole space
    assert binomial_ball_size(2, 4, 9) == 16


def test_binomial_ball_size_large_length():
    # the recurrence must handle lengths where math.comb sums are impractical
    v = binomial_ball_size(2, 1 << 15, 10)
    assert v == sum(math.comb(1 << 15, i) for i in range(11))


def test_simplex_volume_known():
    # right triangle with legs 1,1 then the standard tetrahedron
    tri = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)],
           [Fraction(0), Fraction(1)]]
    assert simplex_volume(tri) == Fraction(1, 2)
    tet = [[Fraction(0)] * 3,
           [Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(1), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(1)]]
    assert simplex_volume(tet) == Fraction(1, 6)


def test_simplex_volume_degenerate():
    flat = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)],
            [Fraction(2), Fraction(2)]]
    assert simplex_volume(flat) == 0
